//! Scaling: join response time vs |D| (the dimension the paper pushes to
//! 73,057 queries). `sim_join` enumerates candidates through the size
//! index, so the share of pairs it never touches grows with |D|; the
//! all-pairs parallel driver is run alongside as a result-set check.

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
        let (all_pairs, _) =
            sim_join_parallel(&dataset.table, &dataset.d_graphs, &dataset.u_graphs, params, 2);
        let agree = {
            let key = |m: &JoinMatch| (m.g_index, m.q_index);
            let a: Vec<_> = matches.iter().map(key).collect();
            let mut b: Vec<_> = all_pairs.iter().map(key).collect();
            b.sort_unstable();
            a == b
        };
        println!(
            "{:>7} {:>7} | {:>9} {:>14} | {:>9} {:>9}",
            dataset.d_len(),
            dataset.u_len(),
            secs(join_t),
            pct(skipped as f64 / stats.pairs_total.max(1) as f64),
            matches.len(),
            agree
        );
        assert!(agree, "size-indexed join diverged from the all-pairs parallel join");
    }
}
