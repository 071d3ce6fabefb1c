//! Fig. 12: effect of the GED threshold τ ∈ [0, 5] on the ER synthetic
//! workload.
//!
//! (a) response time grows with τ (more candidates survive to the
//! expensive verification); (b) candidate ratio grows with τ, with
//! SimJ+opt < SimJ < CSS-only at every point.

use uqsj::prelude::*;
use uqsj::testkit::SyntheticSpec;
use uqsj::workload::RandomGraphConfig;
use uqsj_bench::{pct, scale, scaled, secs};

fn main() {
    let s = scale();
    let cfg = RandomGraphConfig {
        count: scaled(120, s, 40),
        vertices: 12,
        edges: 24,
        avg_labels: 3.0,
        perturbation: 2,
        ..Default::default()
    };
    let (table, d, u) = SyntheticSpec::er(12, cfg).generate_fresh();
    println!("Fig. 12 — ER, alpha = 0.5 (|D| = |U| = {}, |V| = {})\n", d.len(), cfg.vertices);
    println!(
        "{:>4} | {:>10} {:>12} {:>10} | {:>9} {:>9} {:>9} {:>9}",
        "tau", "prune(s)", "verify(s)", "total(s)", "CSS", "SimJ", "SimJ+opt", "Real"
    );
    for tau in 0..=5u32 {
        let (_, css) = sim_join(
            &table,
            &d,
            &u,
            JoinParams { strategy: JoinStrategy::CssOnly, ..JoinParams::simj(tau, 0.5) },
        );
        let (_, simj) = sim_join(&table, &d, &u, JoinParams::simj(tau, 0.5));
        let (_, opt) = sim_join(
            &table,
            &d,
            &u,
            JoinParams {
                strategy: JoinStrategy::SimJOpt { group_count: 8 },
                ..JoinParams::simj(tau, 0.5)
            },
        );
        println!(
            "{:>4} | {:>10} {:>12} {:>10} | {:>9} {:>9} {:>9} {:>9}",
            tau,
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
