//! Fig. 11: effect of α on the WebQ-like workload, τ = 1.
//!
//! (a) response time (pruning / verification / overall) vs α — pruning
//! time is flat; verification shrinks as α grows.
//! (b) candidate ratio vs α for CSS-only / SimJ / SimJ+opt / Real —
//! SimJ+opt prunes hardest; CSS-only is α-insensitive.

use uqsj::prelude::*;
use uqsj_bench::{pct, scale, secs, webq};

fn main() {
    let s = scale();
    let d = webq(s);
    println!("Fig. 11 — WebQ-like, tau = 1 (|U| = {}, |D| = {})\n", d.u_len(), d.d_len());
    println!(
        "{:>5} | {:>10} {:>12} {:>10} | {:>9} {:>9} {:>9} {:>9}",
        "alpha", "prune(s)", "verify(s)", "total(s)", "CSS", "SimJ", "SimJ+opt", "Real"
    );
    for i in 1..=9 {
        let alpha = i as f64 / 10.0;
        let (_, css) = sim_join(
            &d.table,
            &d.d_graphs,
            &d.u_graphs,
            JoinParams { strategy: JoinStrategy::CssOnly, ..JoinParams::simj(1, alpha) },
        );
        let (_, simj) = sim_join(&d.table, &d.d_graphs, &d.u_graphs, JoinParams::simj(1, alpha));
        let (_, opt) = sim_join(
            &d.table,
            &d.d_graphs,
            &d.u_graphs,
            JoinParams {
                strategy: JoinStrategy::SimJOpt { group_count: 8 },
                ..JoinParams::simj(1, alpha)
            },
        );
        println!(
            "{:>5.1} | {:>10} {:>12} {:>10} | {:>9} {:>9} {:>9} {:>9}",
            alpha,
            secs(simj.pruning_time),
            secs(simj.verification_time),
            secs(simj.cpu_time()),
            pct(css.candidate_ratio()),
            pct(simj.candidate_ratio()),
            pct(opt.candidate_ratio()),
            pct(simj.result_ratio()),
        );
    }
}
