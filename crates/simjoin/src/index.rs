//! A size-signature index over the certain side `D`: the vertex/edge
//! count lower bound (Zeng et al.) prunes any pair with
//! `||V(q)|−|V(g)|| + ||E(q)|−|E(g)|| > τ`, so for a given uncertain
//! graph only queries inside a small size window need the (more
//! expensive) CSS bound at all. The index turns the quadratic
//! cross-product scan into per-question window lookups — the kind of
//! engineering the paper's 73,057-query workload demands.

use crate::cascade::CascadeRuntime;
use crate::join::{join_pair, JoinMatch, JoinParams};
use crate::obs::stage_handles;
use crate::stats::JoinStats;
use uqsj_ged::GedEngine;
use uqsj_graph::{Graph, SymbolTable, UncertainGraph};

/// The index: query ids sorted by vertex count, with edge counts kept for
/// the second component of the size bound.
pub struct JoinIndex<'a> {
    d: &'a [Graph],
    /// `(vertex_count, edge_count, index into d)` sorted by vertex count.
    by_size: Vec<(u32, u32, u32)>,
}

impl<'a> JoinIndex<'a> {
    /// Build the index over `d`.
    pub fn build(d: &'a [Graph]) -> Self {
        let mut by_size: Vec<(u32, u32, u32)> = d
            .iter()
            .enumerate()
            .map(|(i, g)| (g.vertex_count() as u32, g.edge_count() as u32, i as u32))
            .collect();
        by_size.sort_unstable();
        Self { d, by_size }
    }

    /// Query ids whose size bound against `(v, e)` is within `tau`.
    pub fn candidates(&self, v: u32, e: u32, tau: u32) -> impl Iterator<Item = usize> + '_ {
        let lo = self.by_size.partition_point(|&(qv, _, _)| qv + tau < v);
        let hi = self.by_size.partition_point(|&(qv, _, _)| qv <= v + tau);
        self.by_size[lo..hi]
            .iter()
            .filter(move |&&(qv, qe, _)| qv.abs_diff(v) + qe.abs_diff(e) <= tau)
            .map(|&(_, _, i)| i as usize)
    }

    /// The indexed side.
    pub fn queries(&self) -> &'a [Graph] {
        self.d
    }

    /// Join a single uncertain graph against the indexed `D` — the
    /// incremental-ingestion entry point (`uqsj-serve` joins each newly
    /// arriving question without re-running the whole workload join).
    /// `g_index` is stamped into the produced matches. Matches come back
    /// sorted by `q_index`, the same order a full batch join visits them,
    /// so downstream template insertion is order-identical to a re-join.
    ///
    /// The caller owns the [`GedEngine`] and the cascade runtime: a
    /// streaming ingester keeps both for its lifetime, so it reuses one
    /// search workspace and an adaptive planner calibrates once, on the
    /// first arrivals, instead of restarting cold on every question.
    pub fn join_one_in(
        &self,
        engine: &mut GedEngine,
        cascade: &CascadeRuntime,
        table: &SymbolTable,
        g_index: usize,
        g: &UncertainGraph,
        params: JoinParams,
    ) -> (Vec<JoinMatch>, JoinStats) {
        let mut out = Vec::new();
        let mut stats = JoinStats::default();
        self.join_into(engine, cascade, table, g_index, g, params, &mut out, &mut stats);
        stats.cascade = Some(cascade.report());
        (out, stats)
    }

    /// The loop behind [`JoinIndex::join_one_in`] and [`crate::sim_join_in`]:
    /// join `g` against the in-window queries, append its matches to `out`
    /// sorted by `q_index`, and accumulate into `stats`. Does not stamp
    /// `stats.cascade`; the caller snapshots the planner once per join.
    #[allow(clippy::too_many_arguments)] // the join loop's full context
    pub(crate) fn join_into(
        &self,
        engine: &mut GedEngine,
        cascade: &CascadeRuntime,
        table: &SymbolTable,
        g_index: usize,
        g: &UncertainGraph,
        params: JoinParams,
        out: &mut Vec<JoinMatch>,
        stats: &mut JoinStats,
    ) {
        let first = out.len();
        let v = g.vertex_count() as u32;
        let e = g.edge_count() as u32;
        let mut hits = 0u64;
        for qi in self.candidates(v, e, params.tau) {
            hits += 1;
            join_pair(engine, cascade, table, qi, &self.d[qi], g_index, g, params, out, stats);
        }
        // Pairs outside the window fail the size bound by construction, so
        // they land in the same `pruned_size` bucket the in-window cascade
        // uses — indexed and all-pairs joins report identical stage counts
        // under the fixed cascade. The planner counts them as skipped, not
        // seen: in-window pairs pass the size bound by construction, so
        // calibration correctly finds the size stage redundant here.
        let skipped = self.d.len() as u64 - hits;
        stats.pairs_total += skipped;
        stats.record_pruned("size", skipped);
        cascade.record_skipped(skipped);
        crate::obs::join_obs().pairs.add(skipped);
        stage_handles("size").pruned.add(skipped);
        // The window is in size order; matches go out in `D` order, the
        // order an all-pairs scan visits them.
        out[first..].sort_by_key(|m| m.q_index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::sim_join;
    use uqsj_graph::GraphBuilder;

    fn workload(t: &mut SymbolTable) -> (Vec<Graph>, Vec<UncertainGraph>) {
        let mut d = Vec::new();
        for n in 1..6usize {
            let mut b = GraphBuilder::new(t);
            for i in 0..n {
                b.vertex(&format!("v{i}"), "A");
            }
            for i in 0..n.saturating_sub(1) {
                b.edge(&format!("v{i}"), &format!("v{}", i + 1), "p");
            }
            d.push(b.into_graph());
        }
        let mut u = Vec::new();
        for n in [2usize, 4] {
            let mut b = GraphBuilder::new(t);
            for i in 0..n {
                b.uncertain_vertex(&format!("v{i}"), &[("A", 0.6), ("B", 0.4)]);
            }
            for i in 0..n - 1 {
                b.edge(&format!("v{i}"), &format!("v{}", i + 1), "p");
            }
            u.push(b.into_uncertain());
        }
        (d, u)
    }

    #[test]
    fn index_window_is_exactly_the_size_bound() {
        let mut t = SymbolTable::new();
        let (d, _) = workload(&mut t);
        let index = JoinIndex::build(&d);
        for tau in 0..4u32 {
            for (v, e) in [(2u32, 1u32), (4, 3), (1, 0)] {
                let mut got: Vec<usize> = index.candidates(v, e, tau).collect();
                got.sort_unstable();
                let expected: Vec<usize> = d
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| {
                        (q.vertex_count() as u32).abs_diff(v) + (q.edge_count() as u32).abs_diff(e)
                            <= tau
                    })
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(got, expected, "tau={tau} v={v} e={e}");
            }
        }
    }

    #[test]
    fn indexed_join_matches_plain_join() {
        // `sim_join` enumerates through the index; the reference is an
        // all-pairs brute force: every pair counted, the size bound
        // evaluated on each, exact SimP deciding membership.
        use uqsj_ged::bounds::{size::SizeBound, LowerBound};
        use uqsj_uncertain::similarity_probability;
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        for tau in 0..3u32 {
            let alpha = 0.3;
            let (indexed, stats) = sim_join(&t, &d, &u, JoinParams::simj(tau, alpha));
            let mut size_pruned = 0u64;
            let mut expected = Vec::new();
            for (gi, g) in u.iter().enumerate() {
                for (qi, q) in d.iter().enumerate() {
                    if SizeBound.uncertain(&t, q, g) > tau {
                        size_pruned += 1;
                    }
                    if similarity_probability(&t, q, g, tau) >= alpha {
                        expected.push((gi, qi));
                    }
                }
            }
            let got: Vec<_> = indexed.iter().map(|m| (m.g_index, m.q_index)).collect();
            assert_eq!(got, expected, "tau={tau}");
            assert_eq!(stats.pairs_total, (d.len() * u.len()) as u64, "tau={tau}");
            assert_eq!(stats.results, expected.len() as u64, "tau={tau}");
            assert_eq!(stats.pruned_size(), size_pruned, "tau={tau}");
        }
    }
}
