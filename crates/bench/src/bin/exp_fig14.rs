//! Fig. 14: effect of the number of possible labels |L(v)| ∈ [2, 6] on
//! the ER synthetic workload.
//!
//! (a) response time grows with |L(v)| (bigger bipartite matchings, more
//! worlds); (b) pruning power decreases as labels blur — until the
//! per-label probabilities get small enough that the probabilistic
//! filters recover (the paper's uptick past |L(v)| = 5).

use uqsj::prelude::*;
use uqsj::testkit::SyntheticSpec;
use uqsj::workload::RandomGraphConfig;
use uqsj_bench::{pct, scale, scaled, secs};

fn main() {
    let s = scale();
    let (tau, alpha) = (2u32, 0.5);
    println!("Fig. 14 — ER, tau = {tau}, alpha = {alpha}, |L(v)| sweep\n");
    println!(
        "{:>6} | {:>10} {:>12} {:>10} | {:>9} {:>9} {:>9} {:>9}",
        "|L(v)|", "prune(s)", "verify(s)", "total(s)", "CSS", "SimJ", "SimJ+opt", "Real"
    );
    for labels in [2.0f64, 3.0, 4.0, 5.0, 6.0] {
        let cfg = RandomGraphConfig {
            count: scaled(100, s, 30),
            vertices: 12,
            edges: 24,
            avg_labels: labels,
            label_pool: 12,
            uncertain_fraction: 0.25,
            perturbation: 2,
            ..Default::default()
        };
        let (table, d, u) = SyntheticSpec::er(14, cfg).generate_fresh();
        let (_, css) = sim_join(
            &table,
            &d,
            &u,
            JoinParams { strategy: JoinStrategy::CssOnly, ..JoinParams::simj(tau, alpha) },
        );
        let (_, simj) = sim_join(&table, &d, &u, JoinParams::simj(tau, alpha));
        let (_, opt) = sim_join(
            &table,
            &d,
            &u,
            JoinParams {
                strategy: JoinStrategy::SimJOpt { group_count: 8 },
                ..JoinParams::simj(tau, alpha)
            },
        );
        println!(
            "{:>6.1} | {:>10} {:>12} {:>10} | {:>9} {:>9} {:>9} {:>9}",
            labels,
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
