//! The two HTTP workloads.
//!
//! `serve_cold`: an in-memory 4-shard server answers distinct held-out
//! questions, each asked once per server lifetime, so every request
//! misses the answer cache.
//!
//! `serve_mixed`: a durable 4-shard server (WAL fsync on) takes a mix of
//! Zipf-repeated popular questions, distinct cold ones, small batches
//! and ingests of templates it does not hold yet, spread evenly over
//! the phase; every ingest invalidates the answer cache.
//!
//! Both are open loop at a fixed reference rate. The traced run adds a
//! rate ladder for the highest rate that meets the latency limit, and an
//! in-process pass that times each layer's public functions.

use crate::data::{self, f1, gold_answers};
use crate::layers::{self, PathSample, Shards};
use crate::load::{self, Done, Kind, Planned};
use crate::report::Report;
use crate::stats::{mean, median, percentile, ratio, sorted, speed, tail};
use crate::Args;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use uqsj::net::{json, NetConfig, ServerHandle};
use uqsj::nlp::analyze_question;
use uqsj::pipeline::{generate_templates, join_quality};
use uqsj::prelude::*;
use uqsj::rdf::TripleStore;
use uqsj::serve::ShardedQaServer;
use uqsj::workload::QaPair;

/// Template-store shards (the server default).
const SHARDS: usize = 4;
/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Reference rates, requests per second: light load, 4–10 % of each
/// workload's saturation throughput (`http.capacity_qps`) on the 2-vCPU
/// host the benchmark was calibrated on, and within the range of rates
/// at which that host's scheduling noise starts to break the p99 limit
/// (README, "Traffic parameters").
const COLD_RATE: f64 = 600.0;
const MIXED_RATE: f64 = 800.0;
/// The latency limit of `http.slo_qps`: answer p99 at or under it.
pub const SLO_P99_US: f64 = 5_000.0;
/// Offered rates of the ladder, starting below both reference rates;
/// each rung lasts `RUNG_SECONDS` but sends at least `RUNG_MIN_REQUESTS`,
/// so that ten answers lie beyond its p99.
const LADDER: &[f64] = &[400.0, 600.0, 800.0, 1200.0, 1800.0, 2700.0, 4000.0];
const RUNG_SECONDS: f64 = 0.5;
const RUNG_MIN_REQUESTS: usize = 1000;
/// Windows the reference phase is cut into (2 s each at 20 s).
const WINDOWS: usize = 10;
/// Distinct questions sent (closed loop, untimed) before timing starts.
const WARMUP: usize = 100;
/// Requests of the traced saturation pass (`http.capacity_qps`).
const CAPACITY_REQUESTS: usize = 2000;
/// Questions timed layer by layer in the traced pass, and the passes.
const TRACE_SAMPLE: usize = 800;
const TRACE_PASSES: usize = 3;
/// The mixed workload's request shares: cold single questions and
/// batches (each batch three popular questions and one cold one).
/// Assumed, not taken from a query log; with `INGESTS` they set the
/// cache hit ratio to about 0.8 (README, "Traffic parameters").
const COLD_SHARE: f64 = 0.12;
const BATCH_SHARE: f64 = 0.05;
const BATCH_SIZE: usize = 4;
/// The popular set, far below the answer cache's 1,024 entries so no
/// popular answer is evicted for room, and its Zipf skew. Assumed; they
/// spread the hits over the popular set but barely move the hit ratio.
const POPULAR: usize = 48;
const ZIPF_S: f64 = 1.1;
/// Ingests in the reference phase, one a second at 20 s; each carries an
/// equal share of the new-template supply.
const INGESTS: usize = 20;

/// One finished set-up: the mined library behind a running server.
struct Served {
    dataset: Dataset,
    library: TemplateLibrary,
    /// Mined from a disjoint question batch and absent from `library`.
    new_templates: Vec<Template>,
    triples: TripleStore,
    handle: ServerHandle,
    data_dir: Option<PathBuf>,
    /// Wall time of the set-up, speed probes excluded.
    setup_s: f64,
    /// Wall time of the library's mining run, and the speed around it.
    mine_s: f64,
    mine_speed: f64,
    precision: f64,
    store_build_s: f64,
}

fn clone_library(templates: &[Template]) -> TemplateLibrary {
    let mut lib = TemplateLibrary::new();
    for t in templates {
        lib.add(t.clone());
    }
    lib
}

/// Scratch directory for a durable server, inside the checkout.
fn data_dir(tag: &str) -> PathBuf {
    PathBuf::from(".bench_build").join(format!("perfbench-{}-{tag}", std::process::id()))
}

fn set_up(durable: Option<&Path>) -> Served {
    let started = Instant::now();
    let dataset = data::mining_dataset(
        data::fixed_kb(&data::SERVE_KB),
        data::FIXED_SEED,
        2,
        data::SERVE_MINE_QUESTIONS,
        data::SERVE_MINE_DISTRACTORS,
    );
    // The speed probes around the mining run are not part of the set-up.
    let probes = Instant::now();
    let before = speed();
    let mut probe_s = probes.elapsed().as_secs_f64();
    let t = Instant::now();
    let mined = generate_templates(&dataset, JoinParams::simj(1, 0.5));
    let mine_s = t.elapsed().as_secs_f64();
    let probes = Instant::now();
    let mine_speed = (before + speed()) / 2.0;
    probe_s += probes.elapsed().as_secs_f64();
    let precision = join_quality(&dataset, &mined.matches).1;
    let mut new_templates = Vec::new();
    if durable.is_some() {
        // A second, disjoint question batch over the same KB: its
        // templates that the first library lacks are the ingest supply.
        let batch = data::mining_dataset(
            data::fixed_kb(&data::SERVE_KB),
            data::FIXED_SEED,
            3,
            data::SERVE_MINE_QUESTIONS,
            data::SERVE_MINE_DISTRACTORS,
        );
        let extra = generate_templates(&batch, JoinParams::simj(1, 0.5));
        let mut known = clone_library(mined.library.templates());
        for t in extra.library.templates() {
            if known.add(t.clone()) {
                new_templates.push(t.clone());
            }
        }
    }
    let t = Instant::now();
    let triples = dataset.kb.triple_store();
    let store_build_s = t.elapsed().as_secs_f64();
    let library = clone_library(mined.library.templates());
    let qa = match durable {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            ShardedQaServer::create(
                dir,
                mined.library,
                dataset.kb.lexicon.clone(),
                dataset.kb.triple_store(),
                SHARDS,
                1,
                ServeConfig::default(),
            )
            .expect("create the durable server")
        }
        None => ShardedQaServer::new(
            mined.library,
            dataset.kb.lexicon.clone(),
            dataset.kb.triple_store(),
            SHARDS,
            ServeConfig::default(),
        ),
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let handle = uqsj::net::serve_on(Arc::new(qa), listener, NetConfig::default())
        .expect("start the HTTP server");
    Served {
        dataset,
        library,
        new_templates,
        triples,
        handle,
        data_dir: durable.map(Path::to_path_buf),
        setup_s: started.elapsed().as_secs_f64() - probe_s,
        mine_s,
        mine_speed,
        precision,
        store_build_s,
    }
}

/// Set up `SETUP_REPEATS` times and keep the last. `setup_s` and
/// `mine_s` are medians over the set-ups, scaled by the median speed
/// around them.
fn set_up_repeated(durable: bool, report: &mut Report) -> Served {
    let (mut setups, mut setup_speeds) = (Vec::new(), Vec::new());
    let (mut mines, mut mine_speeds) = (Vec::new(), Vec::new());
    let mut last = None;
    for rep in 0..SETUP_REPEATS {
        let dir = durable.then(|| data_dir(&format!("setup{rep}")));
        if let Some(previous) = last.take() {
            tear_down(previous);
        }
        let before = speed();
        let served = set_up(dir.as_deref());
        setup_speeds.push((before + speed()) / 2.0);
        setups.push(served.setup_s);
        mines.push(served.mine_s);
        mine_speeds.push(served.mine_speed);
        last = Some(served);
    }
    let served = last.expect("at least one set-up");
    report.set_scaled("setup_s", median(&setups), &setup_speeds);
    report.set_scaled("mine_s", median(&mines), &mine_speeds);
    report.set("mine_precision", served.precision);
    report.set("rdf.store_build_s", served.store_build_s);
    report.note("library_templates", served.library.len());
    report.note("kb_triples", served.triples.len());
    report
        .note("mining_graphs", format!("{} x {}", served.dataset.d_len(), served.dataset.u_len()));
    served
}

fn tear_down(served: Served) {
    let _ = served.handle.shutdown();
    if let Some(dir) = served.data_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Answers and SPARQL text of an answer response.
fn parse_answer(body: &str) -> Option<(Vec<String>, Option<String>)> {
    let doc = json::parse(body).ok()?;
    let answers = doc
        .get("answers")?
        .as_array()?
        .iter()
        .map(|a| a.as_str().map(str::to_owned))
        .collect::<Option<Vec<_>>>()?;
    let sparql = doc.get("sparql").and_then(json::Value::as_str).map(str::to_owned);
    Some((answers, sparql))
}

/// Check one HTTP answer against the linear-scan oracle over `library`.
fn check_answer(
    report: &mut Report,
    done: &Done,
    question: &str,
    oracle: &TemplateLibrary,
    served: &Served,
) -> Option<Vec<String>> {
    if done.status != 200 {
        report.check(Some(format!("answer {question:?}: status {} {}", done.status, done.body)));
        return None;
    }
    let Some((answers, sparql)) = parse_answer(&done.body) else {
        report.check(Some(format!("answer {question:?}: malformed body {}", done.body)));
        return None;
    };
    let expected =
        answer_question(oracle, &served.dataset.kb.lexicon, &served.triples, question, 1.0);
    let expected_sparql = expected.sparql.as_ref().map(ToString::to_string);
    if answers != expected.answers || sparql != expected_sparql {
        report.check(Some(format!(
            "answer {question:?}: got {answers:?} via {sparql:?}, linear scan gives {:?} via {expected_sparql:?}",
            expected.answers
        )));
        return None;
    }
    report.check(None);
    Some(answers)
}

/// Count every non-2xx response or transport error as a failure.
fn check_status(report: &mut Report, done: &[Done], what: &str) {
    for d in done {
        report.check(
            (!(200..300).contains(&d.status))
                .then(|| format!("{what}: status {} {}", d.status, d.body)),
        );
    }
}

/// Requests a rung of the ladder sends at `rate`.
fn rung_len(rate: f64) -> usize {
    ((rate * RUNG_SECONDS).ceil() as usize).max(RUNG_MIN_REQUESTS)
}

/// Requests the ladder can send at most: every rung, and one rung again.
fn ladder_len() -> usize {
    LADDER.iter().map(|&r| rung_len(r)).sum::<usize>() + rung_len(LADDER[LADDER.len() - 1])
}

/// The rate ladder: the highest rung whose answer p99, or the highest
/// percentile with ten samples beyond it, meets the latency limit with
/// no failures and no growing backlog. The first rung that misses is
/// sent once more, so one disturbed rung does not end the climb. When
/// even the first rung misses, the result is 0 and the provenance says
/// so. Also returns every request sent and its result, for checking.
fn ladder(
    addr: std::net::SocketAddr,
    report: &mut Report,
    mut plan_for: impl FnMut(usize) -> Vec<Planned>,
) -> (f64, Vec<Planned>, Vec<Done>) {
    let (mut best, mut plans, mut dones) = (0.0, Vec::new(), Vec::new());
    let mut retried = false;
    let mut rungs = LADDER.iter().copied().peekable();
    while let Some(&rate) = rungs.peek() {
        let plan = plan_for(rung_len(rate));
        let done = load::open_loop(addr, &plan, rate);
        let failures = done.iter().filter(|d| d.status != 200).count();
        let lat = sorted(
            plan.iter()
                .zip(&done)
                .filter(|(p, _)| matches!(p.kind, Kind::Answer(_)))
                .map(|(_, d)| d.latency_us)
                .collect(),
        );
        let (pct, p99) = tail(&lat, 99.0);
        let behind = load::backlog_grew(&done, SLO_P99_US);
        eprintln!(
            "ladder {rate:>7.0}/s: p{pct:.1} {p99:>9.0} us over {} answers, {failures} failed, backlog {}",
            lat.len(),
            if behind { "growing" } else { "steady" }
        );
        plans.extend(plan);
        dones.extend(done);
        if failures == 0 && !behind && p99 <= SLO_P99_US {
            best = rate;
            rungs.next();
        } else if retried {
            break;
        } else {
            retried = true;
        }
    }
    report.note("slo_first_rung_missed", best == 0.0);
    (best, plans, dones)
}

/// Saturation throughput: every request of `plan` is due at once, so
/// each connection sends its next request as soon as the last returns.
/// Returns requests per second and the results, for checking.
fn capacity(addr: std::net::SocketAddr, plan: &[Planned], report: &mut Report) -> Vec<Done> {
    let t = Instant::now();
    let done = load::open_loop(addr, plan, f64::INFINITY);
    report.set("http.capacity_qps", plan.len() as f64 / t.elapsed().as_secs_f64());
    done
}

/// Scrape the HTTP server's counters after a phase; returns the cache hits.
fn scrape_counters(addr: std::net::SocketAddr, sent: f64, report: &mut Report) -> f64 {
    let text = load::scrape(addr);
    let hits = load::counter(&text, "uqsj_serve_cache_hits_total");
    let questions = load::counter(&text, "uqsj_serve_questions_total");
    report.set("net.shed_frac", ratio(load::counter(&text, "uqsj_net_shed_total"), sent));
    report.set(
        "net.deadline_frac",
        ratio(load::counter(&text, "uqsj_net_deadline_expired_total"), sent),
    );
    report.set("serve.cache_hit_ratio", ratio(hits, questions));
    hits
}

/// Run the reference phase: the plan is cut into `WINDOWS` consecutive
/// windows sent open loop at `rate`, with the machine's speed taken
/// between windows while the server is idle. `answer_p50_us` is the
/// median of the windows' p50s, scaled by the median speed; the
/// per-layer p90 and p99 are medians over windows too, unscaled, and
/// `http.answer_p50_worst_us` is the worst window's p50, so a stall that
/// hits only a few windows still shows. The provenance lists every
/// window's p50 and speed. Returns the results and the unscaled answer
/// p50 of the whole phase.
fn reference_phase(
    addr: std::net::SocketAddr,
    plan: &[Planned],
    rate: f64,
    report: &mut Report,
) -> (Vec<Done>, f64) {
    let mut done: Vec<Done> = Vec::with_capacity(plan.len());
    let mut windows: Vec<(Vec<f64>, f64)> = Vec::new();
    let mut before = speed();
    for chunk in plan.chunks(plan.len().div_ceil(WINDOWS).max(1)) {
        let results = load::open_loop(addr, chunk, rate);
        let after = speed();
        let answers: Vec<f64> = chunk
            .iter()
            .zip(&results)
            .filter(|(p, d)| matches!(p.kind, Kind::Answer(_)) && d.status == 200)
            .map(|(_, d)| d.latency_us)
            .collect();
        windows.push((sorted(answers), (before + after) / 2.0));
        before = after;
        done.extend(results);
    }
    windows.retain(|(w, _)| !w.is_empty());
    let per_window =
        |p: f64| -> Vec<f64> { windows.iter().map(|(w, _)| percentile(w, p)).collect() };
    let p50s = per_window(50.0);
    let speeds: Vec<f64> = windows.iter().map(|(_, f)| *f).collect();
    report.set_scaled("answer_p50_us", median(&p50s), &speeds);
    report.set("http.answer_p50_worst_us", p50s.iter().copied().fold(0.0, f64::max));
    report.set("http.answer_p90_us", median(&per_window(90.0)));
    let tails: Vec<(f64, f64)> = windows.iter().map(|(w, _)| tail(w, 99.0)).collect();
    report.set("http.answer_p99_us", median(&tails.iter().map(|t| t.1).collect::<Vec<_>>()));
    let pct = tails.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
    report.note(
        "answer_windows",
        format!(
            "median over {} windows of p50, p90 and p{pct:.1}, {} answers in all",
            windows.len(),
            windows.iter().map(|(w, _)| w.len()).sum::<usize>()
        ),
    );
    let listed = |values: &[f64], digits: usize| -> String {
        let v: Vec<String> = values.iter().map(|v| format!("{v:.digits$}")).collect();
        v.join(" ")
    };
    report.note("window_p50_us", listed(&p50s, 0));
    report.note("window_speed_factor", listed(&speeds, 2));
    let raw: Vec<f64> = windows.iter().flat_map(|(w, _)| w.iter().copied()).collect();
    let raw_p50 = percentile(&sorted(raw), 50.0);
    let lags = sorted(done.iter().map(|d| d.lag_us).collect());
    let lag_p99 = tail(&lags, 99.0).1;
    report.set("bench.generator_lag_p99_us", lag_p99);
    let behind = load::backlog_grew(&done, SLO_P99_US);
    report.note("generator_behind", behind || lag_p99 > SLO_P99_US);
    if behind {
        eprintln!("WARNING: the load generator fell behind its schedule (lag p99 {lag_p99:.0} us)");
    }
    (done, raw_p50)
}

/// Time `json::parse` over request bodies, µs per body.
fn json_parse_us(plan: &[Planned]) -> f64 {
    let t = Instant::now();
    for p in plan {
        std::hint::black_box(json::parse(&p.body).is_ok());
    }
    t.elapsed().as_secs_f64() * 1e6 / plan.len().max(1) as f64
}

/// Layer figures of the traced path plus the reconciliation against the
/// in-process answer times of the same questions.
fn layer_figures(
    samples: &[PathSample],
    serve_p50: f64,
    untraced_s: f64,
    traced_s: f64,
    report: &mut Report,
) {
    let n = samples.len() as f64;
    let per_q = |f: fn(&PathSample) -> f64| mean(&samples.iter().map(f).collect::<Vec<_>>());
    report.set("serve.cache_us", per_q(|s| s.cache));
    report.set("nlp.tokenize_us", per_q(|s| s.tokenize));
    report.set("nlp.signature_us", per_q(|s| s.signature));
    report.set("serve.filter_us", per_q(|s| s.filter));
    report.set("nlp.deptree_us", per_q(|s| s.deptree));
    report.set("template.align_us", per_q(|s| s.align));
    report.set("nlp.ted_us", per_q(|s| s.ted));
    report.set("rdf.bgp_us", per_q(|s| s.bgp));
    report.set("template.rank_us", per_q(|s| s.rank));
    report.set("template.rank_self_us", per_q(|s| s.rank_self));
    report.set("serve.bookkeeping_us", per_q(|s| s.bookkeeping));
    report.set("serve.candidates_per_q", per_q(|s| s.candidates as f64));
    report.set("nlp.ted_per_q", per_q(|s| s.ted_computed as f64));
    report.set("rdf.rows_per_q", per_q(|s| s.rows as f64));
    let candidates: f64 = samples.iter().map(|s| s.candidates as f64).sum();
    let aligned: f64 = samples.iter().map(|s| s.aligned as f64).sum();
    report.set("serve.filter_precision", ratio(aligned, candidates));
    let applied = samples.iter().filter(|s| s.aligned > 0).count() as f64;
    report.set("template.align_hit_ratio", ratio(applied, n));
    let total_p50 = median(&samples.iter().map(PathSample::total).collect::<Vec<_>>());
    let gap = ratio((total_p50 - serve_p50).abs(), serve_p50);
    report.set("bench.layer_sum_gap_frac", gap);
    report.set("bench.trace_overhead_frac", ratio(traced_s - untraced_s, untraced_s));
    report.note("layer_sum_p50_us", format!("{total_p50:.2}"));
    report.note("layer_sum_mean_us", format!("{:.2}", per_q(PathSample::total)));
    report.note("layer_sum_tolerance", crate::LAYER_SUM_TOLERANCE);
    // The sum checks the outer calls only: `rank_self` absorbs any error
    // in the inner split of `answer_across`. An inner split that costs
    // more than the call it splits makes `rank_self` negative.
    report.check((gap > crate::LAYER_SUM_TOLERANCE).then(|| {
        format!(
            "layer self times sum to {total_p50:.1} us at p50, {gap:.3} away from the in-process \
             answer p50 {serve_p50:.1} us (tolerance {})",
            crate::LAYER_SUM_TOLERANCE
        )
    }));
    let rank_self = per_q(|s| s.rank_self);
    report.check((rank_self < 0.0).then(|| {
        format!("the inner steps of answer_across cost {:.1} us more than the call", -rank_self)
    }));
    let negative = samples.iter().filter(|s| s.rank_self < 0.0).count();
    report.note("rank_self_negative_questions", negative);
}

/// Trace the miss path of `questions`: time each through a fresh
/// in-process server, then through the layer-by-layer replica, untimed
/// and timed. Returns the in-process answer times.
fn trace_path(served: &Served, questions: &[&str], report: &mut Report) -> Vec<f64> {
    let lexicon = &served.dataset.kb.lexicon;
    let fresh = ShardedQaServer::new(
        clone_library(served.library.templates()),
        lexicon.clone(),
        served.dataset.kb.triple_store(),
        SHARDS,
        ServeConfig::default(),
    );
    // Each question goes through the fresh server and the timed replica
    // back to back, so both see the same machine state; which goes first
    // alternates, since the second finds the question's data in cache.
    let mut shards = Shards::new(&served.library, SHARDS);
    let mut serve_us = Vec::with_capacity(questions.len());
    let mut samples: Vec<PathSample> = Vec::with_capacity(questions.len());
    for (i, q) in questions.iter().enumerate() {
        let mut replica = || layers::run(&mut shards, lexicon, &served.triples, q, 1.0, true).0;
        if i % 2 == 1 {
            samples.push(replica());
        }
        let t = Instant::now();
        std::hint::black_box(fresh.answer(q));
        serve_us.push(t.elapsed().as_secs_f64() * 1e6);
        if i % 2 == 0 {
            samples.push(replica());
        }
    }
    // Untimed and timed passes alternate, each on fresh serving state so
    // every question misses the cache; the fastest pass of each kind
    // gives the tracing overhead.
    let (mut untraced_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..TRACE_PASSES {
        for (timed, best) in [(false, &mut untraced_s), (true, &mut traced_s)] {
            let mut shards = Shards::new(&served.library, SHARDS);
            let t = Instant::now();
            for q in questions {
                layers::run(&mut shards, lexicon, &served.triples, q, 1.0, timed);
            }
            *best = best.min(t.elapsed().as_secs_f64());
        }
    }
    let serve_p50 = median(&serve_us);
    layer_figures(&samples, serve_p50, untraced_s, traced_s, report);
    let t = Instant::now();
    for q in questions {
        std::hint::black_box(analyze_question(lexicon, q).is_ok());
    }
    report.set("nlp.analyze_us", t.elapsed().as_secs_f64() * 1e6 / questions.len().max(1) as f64);
    serve_us
}

/// F1 of returned answers against gold, averaged over questions.
fn answer_f1(pairs: &[(&QaPair, Vec<String>)], triples: &TripleStore) -> f64 {
    let scores: Vec<f64> =
        pairs.iter().map(|(p, got)| f1(got, &gold_answers(triples, p))).collect();
    mean(&scores)
}

pub fn run_cold(args: &Args, report: &mut Report) {
    let served = set_up_repeated(false, report);
    let addr = served.handle.local_addr();
    let reference = (COLD_RATE * args.seconds as f64).ceil() as usize;
    let needed = WARMUP + reference + ladder_len() + CAPACITY_REQUESTS;
    let questions = data::held_out(
        &served.dataset.kb,
        args.seed,
        needed,
        &data::question_keys(&served.dataset),
    );
    report.note("questions", questions.len());
    report.note("distinct_questions", questions.len());
    report.note("reference_rate_per_s", COLD_RATE);
    if questions.len() < needed {
        report.check(Some(format!(
            "the KB yields {} distinct questions, {needed} needed",
            questions.len()
        )));
        tear_down(served);
        return;
    }
    let plan_of = |range: std::ops::Range<usize>| -> Vec<Planned> {
        range
            .map(|i| Planned {
                kind: Kind::Answer(i),
                path: "/v1/answer",
                body: load::answer_body(&questions[i].question),
            })
            .collect()
    };
    let warm_plan = plan_of(0..WARMUP);
    let warm = load::closed_loop(addr, &warm_plan);
    let ref_plan = plan_of(WARMUP..WARMUP + reference);
    let (done, http_p50) = reference_phase(addr, &ref_plan, COLD_RATE, report);
    let mut sent = (warm.len() + done.len()) as f64;

    let mut answered: Vec<(usize, Done)> =
        warm_plan.iter().zip(warm).map(|(p, d)| (index(p), d)).collect();
    let f1_range = answered.len()..answered.len() + done.len();
    answered.extend(ref_plan.iter().zip(done).map(|(p, d)| (index(p), d)));
    if args.trace {
        let mut next = WARMUP + reference;
        let (best, plans, dones) = ladder(addr, report, |n| {
            let plan = plan_of(next..next + n);
            next += n;
            plan
        });
        report.set("http.slo_qps", best);
        sent += dones.len() as f64;
        answered.extend(plans.iter().zip(dones).map(|(p, d)| (index(p), d)));
        let plan = plan_of(next..next + CAPACITY_REQUESTS);
        let dones = capacity(addr, &plan, report);
        sent += dones.len() as f64;
        answered.extend(plan.iter().zip(dones).map(|(p, d)| (index(p), d)));
    }
    let hits = scrape_counters(addr, sent, report);
    report.check(
        (hits > 0.0).then(|| format!("{hits} cache hits on a workload of distinct questions")),
    );
    let oracle = served.handle.qa().canonical_library();
    report.check((keys(&oracle) != keys(&served.library)).then(|| {
        format!("server holds {} templates, {} mined", oracle.len(), served.library.len())
    }));

    let mut scored = Vec::new();
    for (k, (i, d)) in answered.iter().enumerate() {
        let got = check_answer(report, d, &questions[*i].question, &oracle, &served);
        if let (Some(got), true) = (got, f1_range.contains(&k)) {
            scored.push((&questions[*i], got));
        }
    }
    report.set("answer_f1", answer_f1(&scored, &served.triples));

    if args.trace {
        let sample: Vec<&str> = questions[WARMUP..WARMUP + TRACE_SAMPLE.min(reference)]
            .iter()
            .map(|p| p.question.as_str())
            .collect();
        let serve_us = trace_path(&served, &sample, report);
        let s = sorted(serve_us);
        let serve_p50 = percentile(&s, 50.0);
        report.set("serve.answer_p50_us", serve_p50);
        report.set("serve.answer_p99_us", tail(&s, 99.0).1);
        report.set("net.overhead_p50_us", http_p50 - serve_p50);
        report.set("net.json_parse_us", json_parse_us(&ref_plan));
    }
    tear_down(served);
}

fn index(p: &Planned) -> usize {
    match p.kind {
        Kind::Answer(i) | Kind::Batch(i) | Kind::Ingest(i) => i,
    }
}

/// Draws the mixed workload's requests: Zipf-skewed popular questions,
/// a share of never-repeated cold ones, and small batches of both.
struct MixPlanner {
    rng: SmallRng,
    /// Cumulative Zipf weights over the popular set.
    zipf: Vec<f64>,
    /// Next unused cold question (indexes past the popular set).
    next_cold: usize,
    /// Question indexes of each batch, by batch number.
    batches: Vec<Vec<usize>>,
}

impl MixPlanner {
    fn new(seed: u64) -> Self {
        let mut zipf = Vec::with_capacity(POPULAR);
        let mut total = 0.0;
        for k in 0..POPULAR {
            total += 1.0 / ((k + 1) as f64).powf(ZIPF_S);
            zipf.push(total);
        }
        zipf.iter_mut().for_each(|w| *w /= total);
        Self {
            rng: SmallRng::seed_from_u64(data::sub_seed(seed, 11)),
            zipf,
            next_cold: POPULAR,
            batches: Vec::new(),
        }
    }

    fn popular(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        self.zipf.partition_point(|&w| w < u).min(POPULAR - 1)
    }

    fn cold(&mut self) -> usize {
        self.next_cold += 1;
        self.next_cold - 1
    }

    fn request(&mut self, questions: &[QaPair]) -> Planned {
        let u: f64 = self.rng.gen();
        if u < BATCH_SHARE {
            let mut items: Vec<usize> = (0..BATCH_SIZE - 1).map(|_| self.popular()).collect();
            items.push(self.cold());
            let texts: Vec<&str> = items.iter().map(|&i| questions[i].question.as_str()).collect();
            let body = load::batch_body(&texts, 2);
            self.batches.push(items);
            Planned { kind: Kind::Batch(self.batches.len() - 1), path: "/v1/answer", body }
        } else {
            let i = if u < BATCH_SHARE + COLD_SHARE { self.cold() } else { self.popular() };
            Planned {
                kind: Kind::Answer(i),
                path: "/v1/answer",
                body: load::answer_body(&questions[i].question),
            }
        }
    }
}

/// Total size of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn keys(library: &TemplateLibrary) -> HashSet<(String, String)> {
    library.templates().iter().map(Template::dedup_key).collect()
}

pub fn run_mixed(args: &Args, report: &mut Report) {
    let served = set_up_repeated(true, report);
    let addr = served.handle.local_addr();
    let dir = served.data_dir.clone().expect("durable set-up");
    let reference = (MIXED_RATE * args.seconds as f64).ceil() as usize;
    let cold_needed = ((WARMUP + reference + ladder_len() + CAPACITY_REQUESTS) as f64
        * (BATCH_SHARE + COLD_SHARE)
        * 1.5) as usize
        + 64;
    let questions = data::held_out(
        &served.dataset.kb,
        args.seed,
        POPULAR + cold_needed,
        &data::question_keys(&served.dataset),
    );
    if questions.len() < POPULAR + cold_needed {
        report.check(Some(format!(
            "the KB yields {} distinct questions, {} needed",
            questions.len(),
            POPULAR + cold_needed
        )));
        tear_down(served);
        return;
    }

    // Ingest supply: every new template, in near-equal batches spread
    // evenly over the reference phase.
    let ingests = INGESTS.min(served.new_templates.len());
    let chunks: Vec<&[Template]> = (0..ingests)
        .map(|j| {
            let n = served.new_templates.len();
            &served.new_templates[j * n / ingests..(j + 1) * n / ingests]
        })
        .collect();
    let texts: Vec<String> =
        chunks.iter().map(|c| uqsj::template::io::to_text(&clone_library(c))).collect();
    report.note("reference_rate_per_s", MIXED_RATE);
    report.note("ingests", ingests);
    report.note("new_templates", served.new_templates.len());

    let mut planner = MixPlanner::new(args.seed);
    let warm_plan: Vec<Planned> = (0..WARMUP).map(|_| planner.request(&questions)).collect();
    let mut ref_plan: Vec<Planned> = Vec::with_capacity(reference);
    let mut next_ingest = 0;
    for i in 0..reference {
        if next_ingest < ingests && i == (next_ingest + 1) * reference / (ingests + 1) {
            ref_plan.push(Planned {
                kind: Kind::Ingest(next_ingest),
                path: "/v1/templates",
                body: load::ingest_body(&texts[next_ingest]),
            });
            next_ingest += 1;
        } else {
            ref_plan.push(planner.request(&questions));
        }
    }
    let bytes_before = dir_bytes(&dir);

    let warm = load::closed_loop(addr, &warm_plan);
    check_status(report, &warm, "warm-up request");
    let (done, http_p50) = reference_phase(addr, &ref_plan, MIXED_RATE, report);
    let mut sent = (warm.len() + done.len()) as f64;

    // Ingests: each must be acknowledged with every template added.
    let mut ingest_us = Vec::new();
    let mut expected = keys(&served.library);
    let mut ingested_bytes = 0usize;
    for (p, d) in ref_plan.iter().zip(&done) {
        match p.kind {
            Kind::Ingest(j) => {
                let added = json::parse(&d.body)
                    .ok()
                    .and_then(|v| v.get("added").and_then(json::Value::as_usize));
                if d.status == 200 && added == Some(chunks[j].len()) {
                    report.check(None);
                    expected.extend(chunks[j].iter().map(Template::dedup_key));
                    ingested_bytes += texts[j].len();
                    ingest_us.push(d.latency_us);
                } else {
                    report.check(Some(format!("ingest {j}: status {} body {}", d.status, d.body)));
                }
            }
            Kind::Answer(i) => {
                check_status(report, std::slice::from_ref(d), &format!("answer {i}"))
            }
            Kind::Batch(_) => check_status(report, std::slice::from_ref(d), "batch"),
        }
    }
    let ingest_sorted = sorted(ingest_us);
    report.set("http.ingest_p50_us", percentile(&ingest_sorted, 50.0));
    report.set("http.ingest_p90_us", percentile(&ingest_sorted, 90.0));

    if args.trace {
        let (best, _, dones) =
            ladder(addr, report, |n| (0..n).map(|_| planner.request(&questions)).collect());
        check_status(report, &dones, "ladder request");
        report.set("http.slo_qps", best);
        sent += dones.len() as f64;
        let plan: Vec<Planned> =
            (0..CAPACITY_REQUESTS).map(|_| planner.request(&questions)).collect();
        let dones = capacity(addr, &plan, report);
        check_status(report, &dones, "saturation request");
        sent += dones.len() as f64;
    }
    scrape_counters(addr, sent, report);

    // Final pass after the last ingest: every distinct question asked
    // must match the linear scan over the library now in force.
    let oracle = served.handle.qa().canonical_library();
    report.check((keys(&oracle) != expected).then(|| {
        format!(
            "server holds {} templates, {} expected after the ingests",
            oracle.len(),
            expected.len()
        )
    }));
    let final_plan: Vec<Planned> = (0..planner.next_cold)
        .map(|i| Planned {
            kind: Kind::Answer(i),
            path: "/v1/answer",
            body: load::answer_body(&questions[i].question),
        })
        .collect();
    let final_done = load::closed_loop(addr, &final_plan);
    let mut scored = Vec::new();
    for (p, d) in final_plan.iter().zip(&final_done) {
        let question = &questions[index(p)];
        if let Some(answers) = check_answer(report, d, &question.question, &oracle, &served) {
            scored.push((question, answers));
        }
    }
    report.set("answer_f1", answer_f1(&scored, &served.triples));
    let asked: usize = ref_plan
        .iter()
        .map(|p| match p.kind {
            Kind::Answer(_) => 1,
            Kind::Batch(j) => planner.batches[j].len(),
            Kind::Ingest(_) => 0,
        })
        .sum();
    report.note("questions", asked);
    report.note("distinct_questions", final_plan.len());

    if args.trace {
        replay(&served, &ref_plan, &planner, &questions, &texts, http_p50, report);
    }

    // Durability: after a graceful shutdown the data directory must hold
    // every acknowledged template.
    let _ = served.handle.shutdown();
    let grown = dir_bytes(&dir).saturating_sub(bytes_before);
    report.set("storage.bytes_per_template", ratio(grown as f64, ingested_bytes as f64));
    let t = Instant::now();
    match ShardedQaServer::open(&dir, ServeConfig::default()) {
        Ok(recovered) => {
            report.set("storage.recover_s", t.elapsed().as_secs_f64());
            let got = keys(&recovered.canonical_library());
            report.check((got != expected).then(|| {
                format!("recovered {} templates, {} acknowledged", got.len(), expected.len())
            }));
        }
        Err(e) => report.check(Some(format!("reopening the data directory: {e}"))),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay the reference phase in process, one request at a time, on a
/// fresh in-memory server and (for ingests) a fresh durable one, timing
/// each serving call; then trace the miss path of the cold questions.
fn replay(
    served: &Served,
    plan: &[Planned],
    planner: &MixPlanner,
    questions: &[QaPair],
    texts: &[String],
    http_p50: f64,
    report: &mut Report,
) {
    let lexicon = &served.dataset.kb.lexicon;
    let fresh = |dir: Option<&Path>| {
        let library = clone_library(served.library.templates());
        let triples = served.dataset.kb.triple_store();
        match dir {
            Some(dir) => ShardedQaServer::create(
                dir,
                library,
                lexicon.clone(),
                triples,
                SHARDS,
                1,
                ServeConfig::default(),
            )
            .expect("create the replay's durable server"),
            None => ShardedQaServer::new(
                library,
                lexicon.clone(),
                triples,
                SHARDS,
                ServeConfig::default(),
            ),
        }
    };
    let memory = fresh(None);
    let dir = data_dir("replay");
    let _ = std::fs::remove_dir_all(&dir);
    let durable = fresh(Some(&dir));
    let (mut answer_us, mut batch_us, mut parse_us, mut insert_us, mut journal_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for p in plan {
        match p.kind {
            Kind::Answer(i) => {
                let t = Instant::now();
                std::hint::black_box(memory.answer(&questions[i].question));
                answer_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            Kind::Batch(j) => {
                let batch: Vec<String> =
                    planner.batches[j].iter().map(|&i| questions[i].question.clone()).collect();
                let t = Instant::now();
                std::hint::black_box(memory.answer_batch(&batch, 2));
                batch_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            Kind::Ingest(j) => {
                let t = Instant::now();
                let library = uqsj::template::io::from_text(&texts[j]).expect("ingest text parses");
                parse_us.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                memory
                    .insert_templates(library.templates().iter().cloned())
                    .expect("in-memory insert");
                let in_memory = t.elapsed().as_secs_f64() * 1e6;
                let t = Instant::now();
                durable
                    .insert_templates(library.templates().iter().cloned())
                    .expect("journaled insert");
                journal_us.push(t.elapsed().as_secs_f64() * 1e6 - in_memory);
                insert_us.push(in_memory);
            }
        }
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    let answers = sorted(answer_us);
    let serve_p50 = percentile(&answers, 50.0);
    report.set("serve.answer_p50_us", serve_p50);
    report.set("serve.answer_p99_us", tail(&answers, 99.0).1);
    report.set("serve.batch_us", median(&batch_us));
    report.set("serve.insert_us", median(&insert_us));
    report.set("storage.journal_us", median(&journal_us));
    report.set("template.io_parse_us", median(&parse_us));
    report.set("net.overhead_p50_us", http_p50 - serve_p50);
    report.set("net.json_parse_us", json_parse_us(plan));
    let cold: Vec<&str> = plan
        .iter()
        .filter_map(|p| match p.kind {
            Kind::Answer(i) if i >= POPULAR => Some(questions[i].question.as_str()),
            _ => None,
        })
        .take(TRACE_SAMPLE)
        .collect();
    trace_path(served, &cold, report);
}
