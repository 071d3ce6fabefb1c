//! Property tests for the join: all strategies return the same result
//! set, results really satisfy `SimP_τ >= α`, and no qualifying pair is
//! ever lost (completeness against brute force).

use proptest::prelude::*;
use uqsj_ged::bounds::{size::SizeBound, LowerBound};
use uqsj_graph::{Graph, LabelAlternative, SymbolTable, UncertainGraph, UncertainVertex, VertexId};
use uqsj_simjoin::{sim_join, sim_join_parallel, JoinParams, JoinStrategy};
use uqsj_uncertain::similarity_probability;

const VLABELS: [&str; 4] = ["A", "B", "C", "?x"];
const ELABELS: [&str; 2] = ["p", "q"];

type RawEdge = (u8, u8, u8);
type RawCertain = (Vec<u8>, Vec<RawEdge>);
type RawUncertainGraph = (Vec<Vec<u8>>, Vec<RawEdge>);

#[derive(Clone, Debug)]
struct RawWorkload {
    certain: Vec<RawCertain>,
    uncertain: Vec<RawUncertainGraph>,
}

fn workload_strategy() -> impl Strategy<Value = RawWorkload> {
    let certain = prop::collection::vec(
        (1usize..4).prop_flat_map(|n| {
            (
                prop::collection::vec(0u8..VLABELS.len() as u8, n),
                prop::collection::vec((0..n as u8, 0..n as u8, 0u8..2), 0..3),
            )
        }),
        1..4,
    );
    let uncertain = prop::collection::vec(
        (1usize..4).prop_flat_map(|n| {
            (
                prop::collection::vec(prop::collection::vec(0u8..VLABELS.len() as u8, 1..3), n),
                prop::collection::vec((0..n as u8, 0..n as u8, 0u8..2), 0..3),
            )
        }),
        1..4,
    );
    (certain, uncertain).prop_map(|(certain, uncertain)| RawWorkload { certain, uncertain })
}

fn build(raw: &RawWorkload) -> (SymbolTable, Vec<Graph>, Vec<UncertainGraph>) {
    let mut t = SymbolTable::new();
    let d: Vec<Graph> = raw
        .certain
        .iter()
        .map(|(vl, el)| {
            let mut g = Graph::new();
            for &v in vl {
                let s = t.intern(VLABELS[v as usize]);
                g.add_vertex(s);
            }
            for &(s, dst, l) in el {
                if s != dst {
                    let sym = t.intern(ELABELS[l as usize]);
                    g.add_edge(VertexId(s as u32), VertexId(dst as u32), sym);
                }
            }
            g
        })
        .collect();
    let u: Vec<UncertainGraph> = raw
        .uncertain
        .iter()
        .map(|(vls, el)| {
            let mut g = UncertainGraph::new();
            for alts in vls {
                let mut labels: Vec<u8> = alts.clone();
                labels.sort_unstable();
                labels.dedup();
                let p = 1.0 / labels.len() as f64;
                g.add_vertex(UncertainVertex {
                    alternatives: labels
                        .iter()
                        .map(|&l| LabelAlternative {
                            label: t.intern(VLABELS[l as usize]),
                            prob: p,
                        })
                        .collect(),
                });
            }
            for &(s, dst, l) in el {
                if s != dst {
                    let sym = t.intern(ELABELS[l as usize]);
                    g.add_edge(VertexId(s as u32), VertexId(dst as u32), sym);
                }
            }
            g
        })
        .collect();
    (t, d, u)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn join_is_sound_and_complete(
        raw in workload_strategy(),
        tau in 0u32..3,
        alpha10 in 1u32..10,
    ) {
        let alpha = f64::from(alpha10) / 10.0;
        let (t, d, u) = build(&raw);
        let params = JoinParams::simj(tau, alpha);
        let (matches, stats) = sim_join(&t, &d, &u, params);
        prop_assert_eq!(stats.pairs_total as usize, d.len() * u.len());
        let mut returned: Vec<(usize, usize)> =
            matches.iter().map(|m| (m.q_index, m.g_index)).collect();
        returned.sort_unstable();
        // Brute force: exact SimP for every pair.
        let mut expected = Vec::new();
        for (gi, g) in u.iter().enumerate() {
            for (qi, q) in d.iter().enumerate() {
                if similarity_probability(&t, q, g, tau) >= alpha {
                    expected.push((qi, gi));
                }
            }
        }
        expected.sort_unstable();
        prop_assert_eq!(returned, expected, "join result set mismatch");
        // Every match witness is within tau and the mapping is injective.
        for m in &matches {
            prop_assert!(m.mapping.distance <= tau);
            let mut seen = std::collections::HashSet::new();
            for v in m.mapping.mapping.iter().flatten() {
                prop_assert!(seen.insert(*v));
            }
        }
    }

    #[test]
    fn indexed_join_agrees_with_plain(
        raw in workload_strategy(),
        tau in 0u32..3,
    ) {
        // `sim_join` enumerates through the size index; the reference is
        // an all-pairs brute force over the size bound and exact SimP.
        let (t, d, u) = build(&raw);
        let alpha = 0.4;
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
        prop_assert_eq!(got, expected);
        prop_assert_eq!(stats.pairs_total as usize, d.len() * u.len());
        prop_assert_eq!(stats.pruned_size(), size_pruned);
    }

    #[test]
    fn top1_match_is_the_probability_maximizer(
        raw in workload_strategy(),
        tau in 0u32..3,
    ) {
        let (t, d, u) = build(&raw);
        let (results, _) = uqsj_simjoin::sim_join_topk(&t, &d, &u, tau, 1);
        for (gi, top) in results.iter().enumerate() {
            let best_brute = d
                .iter()
                .map(|q| similarity_probability(&t, q, &u[gi], tau))
                .fold(0.0f64, f64::max);
            match top.first() {
                Some(m) => prop_assert!((m.prob - best_brute).abs() < 1e-9,
                    "top1 {} vs brute {}", m.prob, best_brute),
                None => prop_assert!(best_brute == 0.0),
            }
        }
    }

    #[test]
    fn all_strategies_and_parallel_agree(
        raw in workload_strategy(),
        tau in 0u32..3,
    ) {
        let (t, d, u) = build(&raw);
        let collect = |strategy| {
            let (m, _) = sim_join(&t, &d, &u, JoinParams { tau, strategy, ..JoinParams::simj(tau, 0.5) });
            let mut pairs: Vec<(usize, usize)> = m.iter().map(|x| (x.q_index, x.g_index)).collect();
            pairs.sort_unstable();
            pairs
        };
        let css = collect(JoinStrategy::CssOnly);
        let simj = collect(JoinStrategy::SimJ);
        let opt = collect(JoinStrategy::SimJOpt { group_count: 4 });
        prop_assert_eq!(&css, &simj);
        prop_assert_eq!(&simj, &opt);
        let (par, _) = sim_join_parallel(&t, &d, &u, JoinParams::simj(tau, 0.5), 3);
        let mut ppairs: Vec<(usize, usize)> = par.iter().map(|x| (x.q_index, x.g_index)).collect();
        ppairs.sort_unstable();
        prop_assert_eq!(&ppairs, &css);
    }
}
