//! The SimJ procedure (Algorithm 1) and its group-optimized variant
//! (Algorithm 2).

use crate::cascade::{CascadeOutcome, CascadePolicy, CascadeRuntime};
use crate::index::JoinIndex;
use crate::obs::join_obs;
use crate::stats::JoinStats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use uqsj_ged::astar::GedResult;
use uqsj_ged::GedEngine;
use uqsj_graph::{Graph, SymbolTable, UncertainGraph};
use uqsj_sample::{pair_seed, verify_pair_with, SimpPolicy, Tier};

/// Which pruning pipeline to run (the three lines of Figs. 11–14).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinStrategy {
    /// CSS structural pruning only.
    CssOnly,
    /// CSS + Markov probabilistic pruning (Algorithm 1).
    SimJ,
    /// CSS + group-refined probabilistic pruning (Algorithm 2) with the
    /// given group budget `GN`.
    SimJOpt {
        /// Maximum number of possible-world groups per uncertain graph.
        group_count: usize,
    },
}

/// Join parameters: the GED threshold τ and probability threshold α of
/// Def. 7, plus the pruning strategy and the verification-tier policy.
#[derive(Clone, Copy, Debug)]
pub struct JoinParams {
    /// GED threshold τ.
    pub tau: u32,
    /// Similarity probability threshold α ∈ (0, 1].
    pub alpha: f64,
    /// Pruning pipeline.
    pub strategy: JoinStrategy,
    /// How `SimP ≥ α` is decided per candidate: exact enumeration,
    /// Monte-Carlo sampling, or world-count-adaptive dispatch between the
    /// two (see [`uqsj_sample::SimpPolicy`]).
    pub simp: SimpPolicy,
    /// How the filter stages are ordered and selected: the paper's fixed
    /// cascade, the calibrate-then-freeze selectivity/cost planner, or a seeded
    /// shuffle (see [`crate::cascade::CascadePolicy`]). Every choice
    /// yields the identical result pair set.
    pub cascade: CascadePolicy,
}

impl JoinParams {
    /// Algorithm-1 parameters (`SimJ`) with the paper's defaults:
    /// exact-only verification, fixed stage order.
    pub fn simj(tau: u32, alpha: f64) -> Self {
        Self {
            tau,
            alpha,
            strategy: JoinStrategy::SimJ,
            simp: SimpPolicy::exact(),
            cascade: CascadePolicy::fixed(),
        }
    }

    /// The same parameters with a different verification-tier policy.
    pub fn with_simp(self, simp: SimpPolicy) -> Self {
        Self { simp, ..self }
    }

    /// The same parameters with a different cascade policy.
    pub fn with_cascade(self, cascade: CascadePolicy) -> Self {
        Self { cascade, ..self }
    }
}

/// One qualifying pair `⟨q, g⟩` with `SimP_τ(q, g) >= α`.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinMatch {
    /// Index into `D`.
    pub q_index: usize,
    /// Index into `U`.
    pub g_index: usize,
    /// The similarity probability: on the exact tier a possibly
    /// early-exited value that is always `>= α`; on the sampling tier the
    /// certified point estimate, which may sit up to ε below α.
    pub prob: f64,
    /// GED mapping (q vertex → world vertex) of the most probable
    /// qualifying world — the input to template generation.
    pub mapping: GedResult,
    /// Probability of that world.
    pub world_prob: f64,
}

/// Run SimJ over `d × u` on every core this process may use. Returns the
/// qualifying pairs, ordered by `(g_index, q_index)`, and the join
/// statistics.
pub fn sim_join(
    table: &SymbolTable,
    d: &[Graph],
    u: &[UncertainGraph],
    params: JoinParams,
) -> (Vec<JoinMatch>, JoinStats) {
    let cascade = CascadeRuntime::new(params.cascade, params.strategy);
    sim_join_in(&cascade, table, d, u, params)
}

/// [`sim_join`] against a caller-owned cascade runtime, so several runs
/// (or a streaming driver) share one planner: an adaptive runtime
/// calibrates on the first run's pairs and keeps its frozen plan after. The runtime must have been built with the same strategy as
/// `params.strategy`.
///
/// Runs [`std::thread::available_parallelism`] workers (which respects
/// CPU affinity and cgroup quotas), capped at `|U|`. The output — match
/// list, order, counters — does not depend on that count.
pub fn sim_join_in(
    cascade: &CascadeRuntime,
    table: &SymbolTable,
    d: &[Graph],
    u: &[UncertainGraph],
    params: JoinParams,
) -> (Vec<JoinMatch>, JoinStats) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    drive(cascade, table, d, u, params, workers)
}

/// The one SimJ driver behind [`sim_join_in`] and
/// [`crate::sim_join_parallel`]: `workers` threads claim uncertain graphs
/// off a shared atomic index (work stealing) and join each one through a
/// [`JoinIndex`] over `d`, so pairs outside a graph's size window never
/// enter the cascade and are credited to the `size` stage.
///
/// Per-pair cost is heavily skewed — one many-world uncertain graph can
/// dwarf the rest — so static chunking would serialize whole chunks
/// behind it; with dynamic dispatch the tail is bounded by one graph.
/// Each worker owns its [`GedEngine`]; all share `cascade`. Every graph's matches and counters are kept apart and
/// concatenated/merged in `g_index` order, so the match list, its order
/// and (under the fixed cascade) every counter equal a one-worker run.
/// One worker runs on the calling thread.
///
/// `pruning_time`/`verification_time` stay summed per-pair CPU times;
/// [`JoinStats::wall_time`] is this call's elapsed time.
pub(crate) fn drive(
    cascade: &CascadeRuntime,
    table: &SymbolTable,
    d: &[Graph],
    u: &[UncertainGraph],
    params: JoinParams,
    workers: usize,
) -> (Vec<JoinMatch>, JoinStats) {
    let started = Instant::now();
    let index = JoinIndex::build(d);
    let next = AtomicUsize::new(0);
    let work = || {
        let mut engine = GedEngine::new();
        let mut done = Vec::new();
        loop {
            let gi = next.fetch_add(1, Ordering::Relaxed);
            let Some(g) = u.get(gi) else { break };
            let mut out = Vec::new();
            let mut stats = JoinStats::default();
            index.join_into(&mut engine, cascade, table, gi, g, params, &mut out, &mut stats);
            done.push((gi, out, stats));
        }
        done
    };
    let workers = workers.min(u.len());
    let mut done = if workers <= 1 {
        work()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            let joined = handles.into_iter().map(|h| h.join());
            joined.flat_map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e))).collect()
        })
    };
    done.sort_unstable_by_key(|&(gi, ..)| gi);
    let mut out = Vec::new();
    let mut stats = JoinStats::default();
    for (_, mut matches, graph_stats) in done {
        out.append(&mut matches);
        stats.merge(&graph_stats);
    }
    stats.wall_time = started.elapsed();
    stats.cascade = Some(cascade.report());
    (out, stats)
}

/// Process a single pair; shared by the batch driver and the streaming
/// ingester (both through [`JoinIndex`]).
#[allow(clippy::too_many_arguments)] // the join loop's full context
pub(crate) fn join_pair(
    engine: &mut GedEngine,
    cascade: &CascadeRuntime,
    table: &SymbolTable,
    qi: usize,
    q: &Graph,
    gi: usize,
    g: &UncertainGraph,
    params: JoinParams,
    out: &mut Vec<JoinMatch>,
    stats: &mut JoinStats,
) {
    stats.pairs_total += 1;
    let obs = join_obs();
    obs.pairs.inc();

    // Filtering: run the pair through the cascade (calibrating or on its
    // plan). Every stage is individually sound, so the plan only decides
    // *cost*, never the result set.
    let pruning_started = Instant::now();
    let outcome = cascade.run_pair(table, q, g, params.tau, params.alpha, stats);
    stats.pruning_time += pruning_started.elapsed();
    let groups = match outcome {
        CascadeOutcome::Pruned => return,
        CascadeOutcome::Candidate(groups) => groups,
    };

    // Refinement (lines 7-15), dispatched to the exact or sampling tier
    // by the policy. The sub-seed is a pure function of the pair indices,
    // so sampled decisions are identical whichever worker — or the
    // streaming ingester — reaches the pair, and replayable from
    // `params.simp.seed` alone.
    stats.candidates += 1;
    obs.candidates.inc();
    let verification_started = Instant::now();
    let expanded_before = engine.cumulative_stats().expanded;
    let outcome = verify_pair_with(
        engine,
        table,
        q,
        g,
        params.tau,
        params.alpha,
        groups.as_deref(),
        &params.simp,
        pair_seed(params.simp.seed, qi, gi),
    );
    let verify_elapsed = verification_started.elapsed();
    obs.t_verify.observe_duration(verify_elapsed);
    cascade.record_verify(verify_elapsed);
    stats.verification_time += verify_elapsed;
    stats.worlds_verified += outcome.worlds_verified as u64;
    stats.worlds_sampled += outcome.worlds_sampled;
    stats.ged_expanded += engine.cumulative_stats().expanded - expanded_before;
    stats.record_stop(outcome.stop.label());
    match outcome.tier {
        Tier::Exact => stats.verified_exact += 1,
        Tier::Sample => stats.verified_sampled += 1,
    }
    if outcome.passed {
        stats.results += 1;
        obs.results.inc();
        let mapping =
            outcome.best_mapping.expect("a passing pair has at least one qualifying world");
        out.push(JoinMatch {
            q_index: qi,
            g_index: gi,
            prob: outcome.prob,
            mapping,
            world_prob: outcome.best_world_prob,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uqsj_graph::GraphBuilder;

    fn workload(t: &mut SymbolTable) -> (Vec<Graph>, Vec<UncertainGraph>) {
        // q0: which Actor from Country (matches g0 loosely)
        let mut b = GraphBuilder::new(t);
        b.vertex("x", "?x");
        b.vertex("a", "Actor");
        b.vertex("c", "Country");
        b.edge("x", "a", "type");
        b.edge("x", "c", "birthPlace");
        let q0 = b.into_graph();
        // q1: totally different and bigger
        let mut b = GraphBuilder::new(t);
        for i in 0..6 {
            b.vertex(&format!("v{i}"), "Film");
        }
        for i in 0..5 {
            b.edge(&format!("v{i}"), &format!("v{}", i + 1), "starring");
        }
        let q1 = b.into_graph();

        // g0: uncertain version of q0
        let mut b = GraphBuilder::new(t);
        b.vertex("x", "?who");
        b.uncertain_vertex("m", &[("NBA_Player", 0.6), ("Actor", 0.4)]);
        b.vertex("c", "Country");
        b.edge("x", "m", "type");
        b.edge("x", "c", "birthPlace");
        let g0 = b.into_uncertain();
        // g1: small unrelated graph
        let mut b = GraphBuilder::new(t);
        b.vertex("x", "?x");
        b.vertex("b", "Band");
        b.edge("x", "b", "memberOf");
        let g1 = b.into_uncertain();

        (vec![q0, q1], vec![g0, g1])
    }

    #[test]
    fn join_finds_the_similar_pair() {
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let (matches, stats) = sim_join(&t, &d, &u, JoinParams::simj(1, 0.9));
        assert_eq!(stats.pairs_total, 4);
        assert!(matches.iter().any(|m| m.q_index == 0 && m.g_index == 0));
        // The big film chain should never match the small questions.
        assert!(matches.iter().all(|m| m.q_index != 1));
    }

    #[test]
    fn strategies_agree_on_results() {
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let collect = |strategy| {
            let (m, _) = sim_join(&t, &d, &u, JoinParams { strategy, ..JoinParams::simj(1, 0.3) });
            let mut pairs: Vec<(usize, usize)> = m.iter().map(|x| (x.q_index, x.g_index)).collect();
            pairs.sort_unstable();
            pairs
        };
        let css = collect(JoinStrategy::CssOnly);
        let simj = collect(JoinStrategy::SimJ);
        let opt = collect(JoinStrategy::SimJOpt { group_count: 4 });
        assert_eq!(css, simj, "pruning must not change results");
        assert_eq!(simj, opt, "grouping must not change results");
    }

    #[test]
    fn stronger_strategies_have_fewer_candidates() {
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let candidates = |strategy| {
            sim_join(&t, &d, &u, JoinParams { strategy, ..JoinParams::simj(0, 0.9) }).1.candidates
        };
        let css = candidates(JoinStrategy::CssOnly);
        let simj = candidates(JoinStrategy::SimJ);
        let opt = candidates(JoinStrategy::SimJOpt { group_count: 4 });
        assert!(simj <= css);
        assert!(opt <= simj);
    }

    #[test]
    fn alpha_monotonicity() {
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let count = |alpha| sim_join(&t, &d, &u, JoinParams::simj(1, alpha)).0.len();
        assert!(count(0.1) >= count(0.5));
        assert!(count(0.5) >= count(0.95));
    }

    #[test]
    fn cascade_policies_agree_on_results() {
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let collect = |cascade| {
            let params = JoinParams::simj(1, 0.3).with_cascade(cascade);
            let (m, _) = sim_join(&t, &d, &u, params);
            let mut pairs: Vec<(usize, usize)> = m.iter().map(|x| (x.q_index, x.g_index)).collect();
            pairs.sort_unstable();
            pairs
        };
        let fixed = collect(CascadePolicy::fixed());
        // A two-pair calibration so the adaptive planner calibrates and
        // then runs a frozen plan even on this small workload.
        let adaptive = collect(CascadePolicy::adaptive().with_calibration_pairs(2));
        assert_eq!(fixed, adaptive, "plan choice must not change results");
        for seed in 0..8 {
            assert_eq!(
                fixed,
                collect(CascadePolicy::shuffled(seed)),
                "shuffled plan (seed {seed}) changed the result set"
            );
        }
    }

    #[test]
    fn stats_carry_a_cascade_report() {
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let (_, stats) = sim_join(&t, &d, &u, JoinParams::simj(1, 0.5));
        let report = stats.cascade.expect("the driver stamps the report");
        assert_eq!(report.pairs_seen + report.pairs_skipped, stats.pairs_total);
        assert_eq!(report.plan.first(), Some(&"size"));
    }

    #[test]
    fn tau_monotonicity() {
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let count = |tau| sim_join(&t, &d, &u, JoinParams::simj(tau, 0.5)).0.len();
        assert!(count(0) <= count(1));
        assert!(count(1) <= count(3));
    }
}
