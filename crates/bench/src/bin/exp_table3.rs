//! Table 3: effect of the GED threshold τ ∈ {0, 1, 2} at α = 0.9 on the
//! QALD-like and WebQ-like workloads: |R|, precision, response time.
//!
//! Paper shape: τ=0 gives 100% precision but few answers; τ=1 many more
//! answers at a small precision cost; τ=2 floods with noise (precision
//! drops to ~50%/38%).

use uqsj::pipeline::{generate_templates, join_quality};
use uqsj::prelude::*;
use uqsj_bench::{qald, scale, secs, webq};

fn main() {
    let s = scale();
    for (name, dataset) in [("QALD-3", qald(s)), ("WebQ", webq(s))] {
        println!(
            "\nTable 3 — {name} (|U| = {}, |D| = {}), alpha = 0.9",
            dataset.u_len(),
            dataset.d_len()
        );
        println!(
            "{:>4} {:>8} {:>11} {:>10} {:>10}",
            "tau", "|R|", "precision", "time(s)", "templates"
        );
        for tau in 0..=2u32 {
            let params = JoinParams::simj(tau, 0.9);
            let result = generate_templates(&dataset, params);
            let (_, precision) = join_quality(&dataset, &result.matches);
            println!(
                "{:>4} {:>8} {:>10.2}% {:>10} {:>10}",
                tau,
                result.matches.len(),
                precision * 100.0,
                secs(result.stats.cpu_time()),
                result.library.len()
            );
        }
    }
}
