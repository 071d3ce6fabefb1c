//! Parallel SimJ driver: workers pull uncertain graphs off a shared
//! atomic index (work stealing) under `std::thread::scope`. Per-pair cost is
//! heavily skewed — one expensive many-world uncertain graph can dwarf the
//! rest of the workload — so static chunking would serialize whole chunks
//! behind it; with dynamic dispatch the tail is bounded by one graph, not
//! one chunk. Pairs are independent, so results are simply concatenated
//! and counters merged.
//!
//! Time accounting: `pruning_time`/`verification_time` stay the *summed*
//! per-pair CPU times, matching the paper's single-threaded accounting
//! (the experiments in Sec. 7 are sequential, so there the sum *is* the
//! response time). Because worker intervals overlap, this driver
//! additionally stamps [`JoinStats::wall_time`] with its true elapsed
//! time, and [`JoinStats::response_time`] reports that instead — a
//! parallel join no longer claims a response time several times larger
//! than the clock on the wall.

use crate::cascade::{CascadeCursor, CascadeRuntime};
use crate::join::{join_pair, JoinMatch, JoinParams};
use crate::stats::JoinStats;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use uqsj_ged::GedEngine;
use uqsj_graph::{Graph, SymbolTable, UncertainGraph};

/// Run SimJ over `d × u` with `threads` workers.
///
/// # Panics
/// Panics if `threads == 0`.
pub fn sim_join_parallel(
    table: &SymbolTable,
    d: &[Graph],
    u: &[UncertainGraph],
    params: JoinParams,
    threads: usize,
) -> (Vec<JoinMatch>, JoinStats) {
    assert!(threads >= 1, "need at least one thread");
    if threads == 1 || u.len() <= 1 {
        return crate::join::sim_join(table, d, u, params);
    }
    let started = Instant::now();
    let shared: Mutex<(Vec<JoinMatch>, JoinStats)> = Mutex::new((Vec::new(), JoinStats::default()));
    let next = AtomicUsize::new(0);
    // One cascade runtime for the whole run: workers share the planner's
    // selectivity/cost estimates through its atomics and pick up adopted
    // plans through their per-worker cursors on the next epoch check.
    let cascade = CascadeRuntime::new(params.cascade, params.strategy);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(u.len()) {
            let shared = &shared;
            let next = &next;
            let cascade = &cascade;
            scope.spawn(move || {
                let mut local = Vec::new();
                let mut stats = JoinStats::default();
                // One search workspace per worker, reused across all the
                // uncertain graphs this worker claims.
                let mut engine = GedEngine::new();
                let mut cursor = CascadeCursor::new();
                loop {
                    let gi = next.fetch_add(1, Ordering::Relaxed);
                    let Some(g) = u.get(gi) else { break };
                    for (qi, q) in d.iter().enumerate() {
                        join_pair(
                            &mut engine,
                            cascade,
                            &mut cursor,
                            table,
                            qi,
                            q,
                            gi,
                            g,
                            params,
                            &mut local,
                            &mut stats,
                        );
                    }
                }
                let mut guard = shared.lock();
                guard.0.append(&mut local);
                guard.1.merge(&stats);
            });
        }
    });
    let (mut matches, mut stats) = shared.into_inner();
    stats.wall_time = started.elapsed();
    stats.cascade = Some(cascade.report());
    matches.sort_by_key(|m| (m.g_index, m.q_index));
    (matches, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::sim_join;
    use uqsj_graph::GraphBuilder;

    #[test]
    fn parallel_matches_sequential() {
        let mut t = SymbolTable::new();
        let mut d = Vec::new();
        let mut u = Vec::new();
        for i in 0..6 {
            let mut b = GraphBuilder::new(&mut t);
            b.vertex("x", "?x");
            b.vertex("a", if i % 2 == 0 { "Actor" } else { "Band" });
            b.edge("x", "a", "type");
            d.push(b.into_graph());
            let mut b = GraphBuilder::new(&mut t);
            b.vertex("x", "?y");
            b.uncertain_vertex("m", &[("Actor", 0.5), ("Band", 0.5)]);
            b.edge("x", "m", "type");
            u.push(b.into_uncertain());
        }
        let params = JoinParams::simj(1, 0.4);
        let (seq, seq_stats) = sim_join(&t, &d, &u, params);
        let (par, par_stats) = sim_join_parallel(&t, &d, &u, params, 3);
        let key = |m: &crate::join::JoinMatch| (m.g_index, m.q_index);
        let mut a: Vec<_> = seq.iter().map(key).collect();
        a.sort_unstable();
        let b: Vec<_> = par.iter().map(key).collect();
        assert_eq!(a, b);
        assert_eq!(seq_stats.pairs_total, par_stats.pairs_total);
        assert_eq!(seq_stats.results, par_stats.results);
        // The parallel driver measures its own wall clock and reports it
        // as the response time; sequential runs leave it unset and fall
        // back to the summed CPU time.
        assert!(par_stats.wall_time > std::time::Duration::ZERO);
        assert_eq!(par_stats.response_time(), par_stats.wall_time);
        assert_eq!(seq_stats.wall_time, std::time::Duration::ZERO);
        assert_eq!(seq_stats.response_time(), seq_stats.cpu_time());
    }

    #[test]
    fn more_workers_than_graphs_is_fine() {
        let mut t = SymbolTable::new();
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("x", "Actor");
        let d = vec![b.into_graph()];
        let mut u = Vec::new();
        for _ in 0..2 {
            let mut b = GraphBuilder::new(&mut t);
            b.vertex("x", "Actor");
            u.push(b.into_uncertain());
        }
        let (par, stats) = sim_join_parallel(&t, &d, &u, JoinParams::simj(0, 0.5), 16);
        assert_eq!(par.len(), 2);
        assert_eq!(stats.pairs_total, 2);
    }
}
