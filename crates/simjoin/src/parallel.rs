//! [`sim_join_parallel`]: the SimJ driver with an explicit worker count.

use crate::cascade::CascadeRuntime;
use crate::join::{drive, JoinMatch, JoinParams};
use crate::stats::JoinStats;
use uqsj_graph::{Graph, SymbolTable, UncertainGraph};

/// Run SimJ over `d × u` with `threads` workers (capped at `|U|`) instead
/// of one per available core. The output equals [`crate::sim_join`]'s.
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
    let cascade = CascadeRuntime::new(params.cascade, params.strategy);
    drive(&cascade, table, d, u, params, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let (seq, seq_stats) = sim_join_parallel(&t, &d, &u, params, 1);
        let (par, par_stats) = sim_join_parallel(&t, &d, &u, params, 3);
        assert_eq!(seq, par);
        assert_eq!(seq_stats.pairs_total, par_stats.pairs_total);
        assert_eq!(seq_stats.results, par_stats.results);
        // Every run measures its own wall clock and reports it as the
        // response time; the summed CPU time stays separately available.
        for stats in [&seq_stats, &par_stats] {
            assert!(stats.wall_time > std::time::Duration::ZERO);
            assert_eq!(stats.response_time(), stats.wall_time);
        }
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
