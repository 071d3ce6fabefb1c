//! Open-loop HTTP load: requests are due on a fixed schedule whether or
//! not earlier ones have returned, and each is timed from when it was
//! due, so a stall also charges the requests queued behind it.
//!
//! Two generator threads each own one keep-alive connection and take
//! alternate slots of the schedule.

use std::net::SocketAddr;
use std::time::{Duration, Instant};
use uqsj::net::Client;

/// Generator threads (and keep-alive connections).
pub const CONNECTIONS: usize = 2;

/// What a request is, for tallying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/answer` with one question (index into the question list).
    Answer(usize),
    /// `POST /v1/answer` with a `questions` array (index into the batch list).
    Batch(usize),
    /// `POST /v1/templates` (index into the ingest list).
    Ingest(usize),
}

/// One scheduled request.
pub struct Planned {
    pub kind: Kind,
    pub path: &'static str,
    pub body: String,
}

/// What came back. `status` 0 means a transport error.
pub struct Done {
    pub status: u16,
    pub body: String,
    /// Completion minus the scheduled send, µs.
    pub latency_us: f64,
    /// Actual send minus the scheduled send, µs: how late the generator ran.
    pub lag_us: f64,
}

/// Send `plan` at `rate` requests per second; results come back in plan
/// order.
pub fn open_loop(addr: SocketAddr, plan: &[Planned], rate: f64) -> Vec<Done> {
    let start = Instant::now() + Duration::from_millis(5);
    let interval = 1.0 / rate;
    let mut parts: Vec<Vec<(usize, Done)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|lane| {
                scope.spawn(move || {
                    let mut client = connect(addr);
                    let mut out = Vec::with_capacity(plan.len() / CONNECTIONS + 1);
                    for i in (lane..plan.len()).step_by(CONNECTIONS) {
                        let due = start + Duration::from_secs_f64(i as f64 * interval);
                        wait_until(due);
                        out.push((i, send(&mut client, addr, &plan[i], due)));
                    }
                    out
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("load generator thread")).collect()
    });
    let mut merged: Vec<(usize, Done)> = parts.drain(..).flatten().collect();
    merged.sort_by_key(|(i, _)| *i);
    merged.into_iter().map(|(_, d)| d).collect()
}

/// Send `plan` one request at a time on one connection (closed loop).
pub fn closed_loop(addr: SocketAddr, plan: &[Planned]) -> Vec<Done> {
    let mut client = connect(addr);
    plan.iter().map(|p| send(&mut client, addr, p, Instant::now())).collect()
}

fn connect(addr: SocketAddr) -> Option<Client> {
    Client::connect(addr, Duration::from_secs(10)).ok()
}

/// Sleep to just before `due`, then yield until it: the timer slack of
/// a plain sleep would otherwise show up as latency, and a busy spin
/// would hold a core the server's threads need (on two cores, spinning
/// generators stalled server threads for a scheduler slice, ~1.4 ms).
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due <= now {
        return;
    }
    let left = due - now;
    if left > Duration::from_micros(200) {
        std::thread::sleep(left - Duration::from_micros(150));
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

fn send(client: &mut Option<Client>, addr: SocketAddr, p: &Planned, due: Instant) -> Done {
    let sent = Instant::now();
    let lag_us = (sent - due.min(sent)).as_secs_f64() * 1e6;
    if client.is_none() {
        *client = connect(addr);
    }
    let result = match client.as_mut() {
        Some(c) => c.post(p.path, &p.body),
        None => Err(std::io::Error::other("cannot connect")),
    };
    let latency_us = due.elapsed().as_secs_f64() * 1e6;
    match result {
        Ok(resp) => {
            if resp.close {
                *client = None;
            }
            Done { status: resp.status, body: resp.body, latency_us, lag_us }
        }
        Err(e) => {
            *client = None;
            Done { status: 0, body: e.to_string(), latency_us, lag_us }
        }
    }
}

/// A JSON body for one question.
pub fn answer_body(question: &str) -> String {
    format!("{{\"question\":{}}}", uqsj::net::Value::from(question).render())
}

/// A JSON body for a batch answered on `threads` server threads.
pub fn batch_body(questions: &[&str], threads: usize) -> String {
    let items: Vec<String> =
        questions.iter().map(|q| uqsj::net::Value::from(*q).render()).collect();
    format!("{{\"questions\":[{}],\"threads\":{threads}}}", items.join(","))
}

/// A JSON body carrying templates in the template text format.
pub fn ingest_body(template_text: &str) -> String {
    format!("{{\"templates\":{}}}", uqsj::net::Value::from(template_text).render())
}

/// Whether the generator fell behind its schedule for good: the median
/// lag over the last tenth of the requests exceeds `limit_us`.
pub fn backlog_grew(done: &[Done], limit_us: f64) -> bool {
    let tail = &done[done.len() - done.len() / 10..];
    let lags: Vec<f64> = tail.iter().map(|d| d.lag_us).collect();
    crate::stats::median(&lags) > limit_us
}

/// Prometheus text of `GET /metrics`, empty on error.
pub fn scrape(addr: SocketAddr) -> String {
    Client::connect(addr, Duration::from_secs(10))
        .and_then(|mut c| c.get("/metrics"))
        .map(|r| r.body)
        .unwrap_or_default()
}

/// Sum of every sample of a metric family in Prometheus text.
pub fn counter(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}
