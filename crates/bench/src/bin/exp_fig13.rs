//! Fig. 13: effect of the group number GN ∈ [1, 40] on the SF synthetic
//! workload (SimJ+opt only; CSS-only and SimJ are GN-insensitive).
//!
//! (a) more groups cost more pruning time; (b) more groups prune more
//! candidates (the candidate ratio of SimJ+opt falls with GN).

use uqsj::prelude::*;
use uqsj::testkit::SyntheticSpec;
use uqsj::workload::RandomGraphConfig;
use uqsj_bench::{pct, scale, scaled, secs};

fn main() {
    let s = scale();
    let cfg = RandomGraphConfig {
        count: scaled(120, s, 40),
        vertices: 12,
        edges: 2,
        avg_labels: 3.0,
        uncertain_fraction: 0.4,
        perturbation: 2,
        ..Default::default()
    };
    let (table, d, u) = SyntheticSpec::sf(13, cfg).generate_fresh();
    let (tau, alpha) = (2u32, 0.5);
    println!("Fig. 13 — SF, tau = {tau}, alpha = {alpha} (|D| = |U| = {})\n", d.len());

    // Reference lines (GN-insensitive).
    let (_, css) = sim_join(
        &table,
        &d,
        &u,
        JoinParams { strategy: JoinStrategy::CssOnly, ..JoinParams::simj(tau, alpha) },
    );
    let (_, simj) = sim_join(&table, &d, &u, JoinParams::simj(tau, alpha));
    println!(
        "reference: CSS-only candidates {} ({}), SimJ candidates {} ({}), Real {}\n",
        css.candidates,
        pct(css.candidate_ratio()),
        simj.candidates,
        pct(simj.candidate_ratio()),
        pct(simj.result_ratio()),
    );

    println!(
        "{:>4} | {:>10} {:>12} {:>10} | {:>10} {:>10}",
        "GN", "prune(s)", "verify(s)", "total(s)", "candidates", "ratio"
    );
    for gn in [1usize, 5, 10, 15, 20, 25, 30, 35, 40] {
        let (_, opt) = sim_join(
            &table,
            &d,
            &u,
            JoinParams {
                strategy: JoinStrategy::SimJOpt { group_count: gn },
                ..JoinParams::simj(tau, alpha)
            },
        );
        println!(
            "{:>4} | {:>10} {:>12} {:>10} | {:>10} {:>10}",
            gn,
            secs(opt.pruning_time),
            secs(opt.verification_time),
            secs(opt.cpu_time()),
            opt.candidates,
            pct(opt.candidate_ratio()),
        );
    }
}
