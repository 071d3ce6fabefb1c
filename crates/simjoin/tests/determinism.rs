//! Determinism and index-boundary guarantees the serving layer relies on:
//! the join's output must not depend on its worker count, and the
//! size-signature window must cut exactly at τ.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uqsj_graph::{Graph, GraphBuilder, SymbolTable, UncertainGraph};
use uqsj_simjoin::{
    sim_join, sim_join_parallel, CascadePolicy, JoinIndex, JoinMatch, JoinParams, JoinStats,
};

const LABELS: [&str; 4] = ["Actor", "Band", "Film", "Country"];
const PREDICATES: [&str; 3] = ["type", "starring", "memberOf"];

fn random_graph(t: &mut SymbolTable, rng: &mut SmallRng) -> Graph {
    let n = rng.gen_range(1..=4usize);
    let mut b = GraphBuilder::new(t);
    b.vertex("v0", "?x");
    for i in 1..n {
        b.vertex(&format!("v{i}"), LABELS[rng.gen_range(0..LABELS.len())]);
    }
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        b.edge(&format!("v{parent}"), &format!("v{i}"), PREDICATES[rng.gen_range(0..3usize)]);
    }
    b.into_graph()
}

fn random_uncertain(t: &mut SymbolTable, rng: &mut SmallRng) -> UncertainGraph {
    let n = rng.gen_range(1..=4usize);
    let mut b = GraphBuilder::new(t);
    b.vertex("v0", "?x");
    for i in 1..n {
        if rng.gen_bool(0.5) {
            let a = LABELS[rng.gen_range(0..LABELS.len())];
            let mut c = LABELS[rng.gen_range(0..LABELS.len())];
            if c == a {
                c = LABELS[(LABELS.iter().position(|&l| l == a).unwrap() + 1) % LABELS.len()];
            }
            let p = rng.gen_range(0.3..0.7);
            b.uncertain_vertex(&format!("v{i}"), &[(a, p), (c, 1.0 - p)]);
        } else {
            b.vertex(&format!("v{i}"), LABELS[rng.gen_range(0..LABELS.len())]);
        }
    }
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        b.edge(&format!("v{parent}"), &format!("v{i}"), PREDICATES[rng.gen_range(0..3usize)]);
    }
    b.into_uncertain()
}

/// The join's output must not depend on its worker count: 1, 2, 3, 4 and
/// 8 workers return exactly the same `Vec<JoinMatch>` (order, probability
/// bits, mappings) and the same counters as `sim_join`, on a randomly
/// generated workload, run after run.
#[test]
fn parallel_join_is_deterministic_and_equals_sequential() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_u64);
    let mut t = SymbolTable::new();
    let d: Vec<Graph> = (0..12).map(|_| random_graph(&mut t, &mut rng)).collect();
    let u: Vec<UncertainGraph> = (0..9).map(|_| random_uncertain(&mut t, &mut rng)).collect();
    let bits = |ms: &[JoinMatch]| -> Vec<(u64, u64)> {
        ms.iter().map(|m| (m.prob.to_bits(), m.world_prob.to_bits())).collect()
    };
    let counts = |s: &JoinStats| {
        (
            s.pairs_total,
            s.candidates,
            s.results,
            s.worlds_verified,
            s.ged_expanded,
            s.pruned_stages().to_vec(),
            s.stop_reasons().to_vec(),
        )
    };
    for tau in [0u32, 1, 2] {
        let params = JoinParams::simj(tau, 0.3);
        let (seq, seq_stats) = sim_join_parallel(&t, &d, &u, params, 1);
        let (default, default_stats) = sim_join(&t, &d, &u, params);
        assert_eq!(seq, default, "tau={tau}: sim_join differs from one worker");
        assert_eq!(bits(&seq), bits(&default));
        assert_eq!(counts(&seq_stats), counts(&default_stats));
        for workers in [2usize, 3, 4, 8] {
            for run in 0..2 {
                let (par, par_stats) = sim_join_parallel(&t, &d, &u, params, workers);
                assert_eq!(seq, par, "tau={tau} workers={workers} run={run}: matches differ");
                assert_eq!(bits(&seq), bits(&par), "tau={tau} workers={workers}: prob bits");
                assert_eq!(
                    counts(&seq_stats),
                    counts(&par_stats),
                    "tau={tau} workers={workers}: counters differ"
                );
            }
        }
    }
}

/// The adaptive planner calibrates on exactly its first
/// `calibration_pairs` pairs, ranks once and never changes its plan: a
/// stage the ranking drops is never evaluated again (no probe ever
/// re-measures it), so it reports exactly `k` evaluations, and the plan
/// froze at pair `k`. The result set equals the fixed cascade's at one
/// worker and at three.
#[test]
fn adaptive_plan_freezes_after_calibration() {
    let mut rng = SmallRng::seed_from_u64(0xf2ee_u64);
    let mut t = SymbolTable::new();
    let d: Vec<Graph> = (0..40).map(|_| random_graph(&mut t, &mut rng)).collect();
    let u: Vec<UncertainGraph> = (0..20).map(|_| random_uncertain(&mut t, &mut rng)).collect();
    let k = 16u64;
    let fixed = JoinParams::simj(1, 0.3);
    let adaptive = fixed.with_cascade(CascadePolicy::adaptive().with_calibration_pairs(k));
    let (want, _) = sim_join_parallel(&t, &d, &u, fixed, 1);
    for workers in [1usize, 3] {
        let (got, stats) = sim_join_parallel(&t, &d, &u, adaptive, workers);
        assert_eq!(got, want, "workers={workers}: adaptive result differs from fixed");
        let report = stats.cascade.expect("the driver stamps the report");
        assert!(report.pairs_seen > k, "workload too small to leave calibration");
        assert_eq!(report.frozen_at, Some(k), "workers={workers}");
        let dropped: Vec<_> = report.stages.iter().filter(|s| !s.in_plan).collect();
        // In-window pairs pass the size bound by construction, so the
        // ranking always drops the size stage here.
        assert!(dropped.iter().any(|s| s.label == "size"), "workers={workers}: {report}");
        for st in dropped {
            assert_eq!(
                st.evaluated, k,
                "workers={workers}: dropped stage {} evaluated after the freeze",
                st.label
            );
        }
    }
}

fn sized_graph(t: &mut SymbolTable, v: usize, e: usize) -> Graph {
    assert!(e < v || v == 0);
    let mut b = GraphBuilder::new(t);
    for i in 0..v {
        b.vertex(&format!("v{i}"), "A");
    }
    for i in 0..e {
        b.edge(&format!("v{i}"), &format!("v{}", i + 1), "p");
    }
    b.into_graph()
}

/// Satellite: window boundaries of `JoinIndex::candidates`. A query at
/// distance exactly τ is kept, τ+1 is pruned.
#[test]
fn index_keeps_distance_tau_and_prunes_tau_plus_one() {
    let mut t = SymbolTable::new();
    // d[0]: 3 vertices / 2 edges. Probe from (v=5, e=3): |Δv|+|Δe| = 3.
    let d = vec![sized_graph(&mut t, 3, 2)];
    let index = JoinIndex::build(&d);
    let at_tau: Vec<usize> = index.candidates(5, 3, 3).collect();
    assert_eq!(at_tau, vec![0], "distance == tau must be kept");
    let below: Vec<usize> = index.candidates(5, 3, 2).collect();
    assert!(below.is_empty(), "distance == tau + 1 must be pruned");
}

#[test]
fn index_tau_zero_keeps_only_exact_sizes() {
    let mut t = SymbolTable::new();
    let d = vec![
        sized_graph(&mut t, 2, 1),
        sized_graph(&mut t, 3, 2),
        sized_graph(&mut t, 3, 1),
        sized_graph(&mut t, 4, 3),
    ];
    let index = JoinIndex::build(&d);
    let mut got: Vec<usize> = index.candidates(3, 2, 0).collect();
    got.sort_unstable();
    assert_eq!(got, vec![1], "tau = 0 admits only exact (v, e)");
    // Same vertex count, different edge count: out at tau = 0, in at 1
    // (d[0] at (2,1) is also distance 1 away; d[3] at (4,3) stays out).
    let mut got: Vec<usize> = index.candidates(3, 1, 1).collect();
    got.sort_unstable();
    assert_eq!(got, vec![0, 1, 2]);
}

#[test]
fn index_over_empty_d_yields_nothing() {
    let d: Vec<Graph> = Vec::new();
    let index = JoinIndex::build(&d);
    assert_eq!(index.candidates(3, 2, 10).count(), 0);
    assert!(index.queries().is_empty());
}
