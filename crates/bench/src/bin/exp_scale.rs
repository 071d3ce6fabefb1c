//! Scaling: join response time vs |D| (the dimension the paper pushes to
//! 73,057 queries). `sim_join` enumerates candidates through the size
//! index on every available core, so the share of pairs it never touches
//! grows with |D|; a one-worker run of the same driver is checked for an
//! identical match list.

use uqsj::prelude::*;
use uqsj::simjoin::sim_join_parallel;
use uqsj::workload::DatasetConfig;
use uqsj_bench::{pct, scale, scaled, secs};

fn main() {
    let s = scale();
    println!("Join scaling — tau = 1, alpha = 0.8, |U| fixed\n");
    println!(
        "{:>7} {:>7} | {:>9} {:>14} | {:>9} {:>9}",
        "|D|", "|U|", "join(s)", "index skipped", "results", "agree"
    );
    for d_target in [250usize, 500, 1000, 2000] {
        let d_target = scaled(d_target, s, 100);
        let dataset = uqsj::workload::webq_like(&DatasetConfig {
            questions: scaled(150, s, 50),
            distractors: d_target,
            seed: 53,
            ..Default::default()
        });
        let params = JoinParams::simj(1, 0.8);
        let started = std::time::Instant::now();
        let (matches, stats) =
            sim_join(&dataset.table, &dataset.d_graphs, &dataset.u_graphs, params);
        let join_t = started.elapsed();
        let skipped = stats.cascade.as_ref().map_or(0, |r| r.pairs_skipped);
        let (one_worker, _) =
            sim_join_parallel(&dataset.table, &dataset.d_graphs, &dataset.u_graphs, params, 1);
        let agree = matches == one_worker;
        println!(
            "{:>7} {:>7} | {:>9} {:>14} | {:>9} {:>9}",
            dataset.d_len(),
            dataset.u_len(),
            secs(join_t),
            pct(skipped as f64 / stats.pairs_total.max(1) as f64),
            matches.len(),
            agree
        );
        assert!(agree, "the multi-core join diverged from a one-worker run");
    }
}
