//! Adaptive filter-cascade planner.
//!
//! The join's filter pipeline is a cascade of sound prune stages: every
//! GED lower bound from the [`uqsj_ged::bounds::all_bounds`] registry
//! (τ-prunes, admissible in every possible world) plus the probabilistic
//! α-prunes (Markov upper bound, Theorem 4, and the group-refined bound,
//! Algorithm 2). Because each stage only ever discards pairs whose
//! `SimP_τ` provably falls below α, **any permutation or subset of the
//! stages yields the identical result pair set** — only candidate counts
//! and wall time change. That freedom is what this module exploits: it
//! orders stages by observed selectivity-per-cost and drops stages whose
//! expected benefit does not pay for their evaluation.
//!
//! # Planner lifecycle
//!
//! ```text
//!            pairs < calibration_pairs         pair calibration_pairs
//!  ┌─────────────┐  full-eval all stages  ┌──────────┐  runs the frozen plan
//!  │ CALIBRATING │ ─────────────────────▶ │ FROZEN   │  for the rest of the
//!  └─────────────┘   then rank once       └──────────┘  runtime's life
//! ```
//!
//! * **Calibration** — in `Adaptive` mode the first `calibration_pairs`
//!   pairs evaluate *every* enrolled stage (prune-if-any-fires, so the
//!   pair outcome is unchanged) to measure unconditional selectivity and
//!   per-pair cost.
//! * **Freeze** — the first pair past calibration ranks the stages once
//!   by `selectivity / cost` and applies the benefit-drop rule back to
//!   front (keep a stage iff `sel × tail_cost > cost`, where `tail_cost`
//!   is the expected cost of everything after it, seeded by the average
//!   verification cost measured during calibration). That plan is set
//!   once and never changes; every later pair runs it with short-circuit
//!   semantics. `Fixed` and `Shuffled` set their plan at construction.
//!
//! # Soundness
//!
//! The grouped stage is special twice over: it is pinned to the end of
//! the plan and never dropped, because beyond pruning it *partitions* the
//! possible worlds for the verifier (Algorithm 2's group-level skips),
//! a benefit the prune-rate cost model cannot see. In `Fixed` mode the
//! plan is the paper's hard-coded order (size → label-multiset → CSS →
//! probabilistic) and never changes. `Shuffled` mode derives a random
//! permutation-plus-subset plan from a seed — it exists for the
//! conformance oracles, which assert that every such plan produces
//! byte-identical join results.

use crate::join::JoinStrategy;
use crate::obs::{join_obs, stage_handles, StageHandles};
use crate::stats::JoinStats;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use uqsj_ged::bounds::css::css_terms_uncertain;
use uqsj_ged::bounds::{all_bounds, LowerBound};
use uqsj_graph::{Graph, SymbolTable, UncertainGraph};
use uqsj_uncertain::groups::{ub_simp_grouped, PossibleWorldGroup};
use uqsj_uncertain::prob_bound::ub_simp_with_terms;

/// Fallback expected verification cost (ns) when no calibration pair
/// reached verification. Deliberately on the expensive side (the deep
/// workloads average ~500 µs/pair), so the frozen plan keeps filters
/// rather than dropping them on no evidence.
const DEFAULT_VERIFY_COST_NS: f64 = 500_000.0;

/// How the cascade plan is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CascadeMode {
    /// The paper's hard-coded order: size → label-multiset → CSS →
    /// probabilistic stage(s). Byte-identical behavior (results *and*
    /// candidate counts) to the pre-planner pipeline.
    Fixed,
    /// Calibrate on the first pairs over the full bound registry, rank
    /// the stages by selectivity/cost once, then freeze that plan. Same
    /// results; candidate counts may differ (extra registry bounds can
    /// prune pairs CSS misses).
    Adaptive,
    /// A seed-derived random permutation + subset of the stages, fixed
    /// for the whole run. Conformance-test mode: exercises the claim
    /// that any plan yields identical results.
    Shuffled,
}

/// Cascade-planner policy, carried inside [`crate::JoinParams::cascade`].
#[derive(Clone, Copy, Debug)]
pub struct CascadePolicy {
    /// Plan-selection mode.
    pub mode: CascadeMode,
    /// Pairs that full-evaluate every stage before the adaptive plan
    /// freezes.
    pub calibration_pairs: u64,
    /// Seed for [`CascadeMode::Shuffled`] plan derivation.
    pub shuffle_seed: u64,
}

impl CascadePolicy {
    /// The paper's fixed stage order (the default).
    pub fn fixed() -> Self {
        Self { mode: CascadeMode::Fixed, calibration_pairs: 64, shuffle_seed: 0 }
    }

    /// Calibrate-then-freeze planning with the default sample size.
    pub fn adaptive() -> Self {
        Self { mode: CascadeMode::Adaptive, ..Self::fixed() }
    }

    /// A seed-derived random permutation/subset plan (conformance mode).
    pub fn shuffled(seed: u64) -> Self {
        Self { mode: CascadeMode::Shuffled, shuffle_seed: seed, ..Self::fixed() }
    }

    /// Override the calibration-sample size (at least one pair, so the
    /// ranking never runs on no evidence).
    pub fn with_calibration_pairs(self, calibration_pairs: u64) -> Self {
        Self { calibration_pairs: calibration_pairs.max(1), ..self }
    }
}

impl Default for CascadePolicy {
    fn default() -> Self {
        Self::fixed()
    }
}

/// What a cascade stage computes.
enum StageKind {
    /// A τ-prune: `lb(q, g) > τ` in every possible world.
    Bound(Box<dyn LowerBound + Send + Sync>),
    /// The single-group Markov α-prune (Theorem 4), as run by `SimJ`.
    Markov,
    /// The same Markov prune when it runs as `SimJOpt`'s pre-filter —
    /// separate stage identity so the two call sites are distinguishable
    /// in metrics and stats.
    MarkovOpt,
    /// The group-refined α-prune (Algorithm 2). Also yields the world
    /// partition the verifier consumes.
    Grouped,
}

/// One enrolled stage: its evaluator plus lock-free shared estimates.
struct Stage {
    kind: StageKind,
    label: &'static str,
    /// Pairs this stage was evaluated on.
    evaluated: AtomicU64,
    /// Evaluations on which the stage fired (would have pruned).
    fired: AtomicU64,
    /// Summed evaluation time, ns.
    cost_ns: AtomicU64,
    /// Process-global metric handles for this stage label.
    obs: StageHandles,
}

impl Stage {
    fn new(kind: StageKind, label: &'static str) -> Self {
        Self {
            kind,
            label,
            evaluated: AtomicU64::new(0),
            fired: AtomicU64::new(0),
            cost_ns: AtomicU64::new(0),
            obs: stage_handles(label),
        }
    }

    /// (selectivity, avg cost ns); cost is `+∞` with no observations.
    fn estimates(&self) -> (f64, f64) {
        let ev = self.evaluated.load(Ordering::Relaxed);
        if ev == 0 {
            return (0.0, f64::INFINITY);
        }
        let sel = (self.fired.load(Ordering::Relaxed) as f64 / ev as f64).clamp(0.0, 1.0);
        let cost = (self.cost_ns.load(Ordering::Relaxed) as f64 / ev as f64).max(1.0);
        (sel, cost)
    }
}

/// What one pair's trip through the cascade produced.
pub(crate) enum CascadeOutcome {
    /// Discarded by some stage (already credited in stats/metrics).
    Pruned,
    /// Survived every stage in the plan; carries the world partition if
    /// the grouped stage ran.
    Candidate(Option<Vec<PossibleWorldGroup>>),
}

/// Shared cascade state for one join run: the enrolled stages, their
/// estimates, and the plan. One runtime is shared by all workers of a
/// join (the counters are atomic and the plan is written once) and can
/// outlive a single driver call — the serving ingestor keeps one across
/// questions, so calibration happens once per ingestor, not per
/// question.
pub struct CascadeRuntime {
    policy: CascadePolicy,
    strategy: JoinStrategy,
    stages: Vec<Stage>,
    /// The plan: indexes into `stages`, in execution order. Set at
    /// construction in `Fixed`/`Shuffled` mode; in `Adaptive` mode set by
    /// the first pair past calibration. Never changed once set.
    plan: OnceLock<Vec<usize>>,
    /// Pairs that entered the cascade.
    pairs_done: AtomicU64,
    /// Pairs a size index answered without entering the cascade.
    pairs_skipped: AtomicU64,
    /// Verifications observed before the plan froze, and their summed
    /// time (ns) — the tail cost the single ranking charges.
    verify_count: AtomicU64,
    verify_cost_ns: AtomicU64,
}

impl CascadeRuntime {
    /// Enroll the stages valid for `strategy` and, outside `Adaptive`
    /// mode, set the plan for `policy.mode`.
    pub fn new(policy: CascadePolicy, strategy: JoinStrategy) -> Self {
        let mut stages: Vec<Stage> = all_bounds()
            .into_iter()
            .map(|b| {
                let label = b.stage_label();
                Stage::new(StageKind::Bound(b), label)
            })
            .collect();
        match strategy {
            JoinStrategy::CssOnly => {}
            JoinStrategy::SimJ => stages.push(Stage::new(StageKind::Markov, "markov")),
            JoinStrategy::SimJOpt { .. } => {
                stages.push(Stage::new(StageKind::MarkovOpt, "markov_opt"));
                stages.push(Stage::new(StageKind::Grouped, "grouped"));
            }
        }
        let plan = OnceLock::new();
        match policy.mode {
            CascadeMode::Fixed => {
                // The paper's order: size → label-multiset → CSS → the
                // probabilistic stage(s).
                let mut order = Vec::new();
                for want in ["size", "label_multiset", "css"] {
                    order.extend(stages.iter().position(|s| s.label == want));
                }
                order.extend(
                    (0..stages.len()).filter(|&i| !matches!(stages[i].kind, StageKind::Bound(_))),
                );
                let _ = plan.set(order);
            }
            CascadeMode::Shuffled => {
                let _ = plan.set(shuffled_plan(&stages, policy.shuffle_seed));
            }
            CascadeMode::Adaptive => {}
        }
        Self {
            policy,
            strategy,
            stages,
            plan,
            pairs_done: AtomicU64::new(0),
            pairs_skipped: AtomicU64::new(0),
            verify_count: AtomicU64::new(0),
            verify_cost_ns: AtomicU64::new(0),
        }
    }

    /// Count `n` pairs the size index pruned before they reached the
    /// cascade. They feed no estimate and do not count toward
    /// calibration.
    pub(crate) fn record_skipped(&self, n: u64) {
        self.pairs_skipped.fetch_add(n, Ordering::Relaxed);
    }

    /// Run one pair through the cascade. Credits exactly one stage in
    /// `stats` and the process metrics when the pair is pruned, so
    /// `pairs == pruned_total + candidates` holds in every mode.
    pub(crate) fn run_pair(
        &self,
        table: &SymbolTable,
        q: &Graph,
        g: &UncertainGraph,
        tau: u32,
        alpha: f64,
        stats: &mut JoinStats,
    ) -> CascadeOutcome {
        let n = self.pairs_done.fetch_add(1, Ordering::Relaxed);
        let calibrating =
            self.policy.mode == CascadeMode::Adaptive && n < self.policy.calibration_pairs;
        if calibrating {
            // Evaluate every enrolled stage (unconditional estimates) and
            // prune if any fired, crediting the first in enrollment order.
            // The pair's fate is identical to short-circuit execution —
            // each stage is individually sound.
            join_obs().cascade_calibration_pairs.inc();
            let mut first_fired = None;
            let mut groups = None;
            for idx in 0..self.stages.len() {
                let (hit, parts) = self.timed_eval(idx, table, q, g, tau, alpha);
                if hit && first_fired.is_none() {
                    first_fired = Some(idx);
                }
                groups = groups.or(parts);
            }
            return match first_fired {
                Some(idx) => {
                    self.credit_prune(idx, stats);
                    CascadeOutcome::Pruned
                }
                None => CascadeOutcome::Candidate(groups),
            };
        }
        let plan = self.plan.get_or_init(|| self.freeze());
        let mut groups = None;
        for &idx in plan {
            let (hit, parts) = self.timed_eval(idx, table, q, g, tau, alpha);
            if hit {
                self.credit_prune(idx, stats);
                return CascadeOutcome::Pruned;
            }
            groups = groups.or(parts);
        }
        CascadeOutcome::Candidate(groups)
    }

    /// Feed the ranking's tail-cost model with one verification. A no-op
    /// once the plan is set: nothing reads the model after that.
    pub(crate) fn record_verify(&self, elapsed: Duration) {
        if self.plan.get().is_none() {
            self.verify_count.fetch_add(1, Ordering::Relaxed);
            self.verify_cost_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    fn credit_prune(&self, idx: usize, stats: &mut JoinStats) {
        let st = &self.stages[idx];
        st.obs.pruned.inc();
        stats.record_pruned(st.label, 1);
    }

    /// Evaluate stage `idx` on the pair, timing it and feeding the
    /// shared estimates. Returns (fired, world partition).
    fn timed_eval(
        &self,
        idx: usize,
        table: &SymbolTable,
        q: &Graph,
        g: &UncertainGraph,
        tau: u32,
        alpha: f64,
    ) -> (bool, Option<Vec<PossibleWorldGroup>>) {
        let st = &self.stages[idx];
        let started = Instant::now();
        let (hit, parts) = match &st.kind {
            StageKind::Bound(b) => (b.uncertain(table, q, g) > tau, None),
            StageKind::Markov | StageKind::MarkovOpt => {
                let terms = css_terms_uncertain(table, q, g);
                (ub_simp_with_terms(table, q, g, tau, &terms) < alpha, None)
            }
            StageKind::Grouped => {
                let group_count = match self.strategy {
                    JoinStrategy::SimJOpt { group_count } => group_count,
                    _ => unreachable!("grouped stage only enrolls under SimJOpt"),
                };
                let (ub, parts) = ub_simp_grouped(table, q, g, tau, group_count);
                if ub < alpha {
                    (true, None)
                } else {
                    (false, Some(parts))
                }
            }
        };
        let elapsed = started.elapsed();
        st.evaluated.fetch_add(1, Ordering::Relaxed);
        st.cost_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        if hit {
            st.fired.fetch_add(1, Ordering::Relaxed);
        }
        st.obs.time.observe_duration(elapsed);
        (hit, parts)
    }

    /// The adaptive plan, computed once from the calibration estimates.
    fn freeze(&self) -> Vec<usize> {
        let plan = self.compute_plan();
        join_obs().cascade_bounds_skipped.add((self.stages.len() - plan.len()) as u64);
        plan
    }

    /// Rank stages by selectivity/cost and apply the benefit-drop rule.
    fn compute_plan(&self) -> Vec<usize> {
        let grouped = self.stages.iter().position(|s| matches!(s.kind, StageKind::Grouped));
        let mut order: Vec<usize> =
            (0..self.stages.len()).filter(|&i| Some(i) != grouped).collect();
        let rank = |i: usize| -> f64 {
            let (sel, cost) = self.stages[i].estimates();
            if cost.is_finite() {
                sel / cost
            } else {
                0.0
            }
        };
        // Stable sort: equal ranks keep registry (cheap-to-expensive)
        // order, so ties resolve deterministically.
        order.sort_by(|&a, &b| rank(b).partial_cmp(&rank(a)).unwrap_or(std::cmp::Ordering::Equal));
        // Benefit-drop rule, back to front: a stage pays for itself iff
        // the pairs it prunes would have cost more downstream than the
        // stage costs to run on everything that reaches it.
        let mut tail = self.verify_cost_estimate();
        if let Some(gidx) = grouped {
            // Grouped is pinned last and never dropped (it partitions
            // worlds for the verifier); upstream stages see its cost as
            // part of the tail.
            let (sel, cost) = self.stages[gidx].estimates();
            if cost.is_finite() {
                tail = cost + (1.0 - sel) * tail;
            }
        }
        let mut kept_rev: Vec<usize> = Vec::new();
        for &idx in order.iter().rev() {
            let (sel, cost) = self.stages[idx].estimates();
            if cost.is_finite() && sel * tail > cost {
                kept_rev.push(idx);
                tail = cost + (1.0 - sel) * tail;
            }
        }
        let mut plan: Vec<usize> = kept_rev.into_iter().rev().collect();
        plan.extend(grouped);
        plan
    }

    fn verify_cost_estimate(&self) -> f64 {
        let n = self.verify_count.load(Ordering::Relaxed);
        if n == 0 {
            DEFAULT_VERIFY_COST_NS
        } else {
            (self.verify_cost_ns.load(Ordering::Relaxed) as f64 / n as f64).max(1.0)
        }
    }

    /// Snapshot the planner state: the plan, per-stage estimates, and
    /// where the plan froze. This is what lands in
    /// [`crate::JoinStats::cascade`] and `BENCH_join.json`. While an
    /// adaptive runtime is still calibrating, every stage runs, so the
    /// reported plan lists them all.
    pub fn report(&self) -> CascadeReport {
        let plan = self.plan.get();
        let plan: Vec<usize> = plan.cloned().unwrap_or_else(|| (0..self.stages.len()).collect());
        let stages = self
            .stages
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let (sel, cost) = st.estimates();
                StageEstimate {
                    label: st.label,
                    evaluated: st.evaluated.load(Ordering::Relaxed),
                    fired: st.fired.load(Ordering::Relaxed),
                    selectivity: sel,
                    cost_ns: if cost.is_finite() { cost } else { 0.0 },
                    in_plan: plan.contains(&i),
                }
            })
            .collect();
        let frozen = self.policy.mode == CascadeMode::Adaptive && self.plan.get().is_some();
        CascadeReport {
            mode: self.policy.mode,
            plan: plan.iter().map(|&i| self.stages[i].label).collect(),
            stages,
            pairs_seen: self.pairs_done.load(Ordering::Relaxed),
            pairs_skipped: self.pairs_skipped.load(Ordering::Relaxed),
            frozen_at: frozen.then_some(self.policy.calibration_pairs),
        }
    }
}

/// Derive a seed-determined permutation + subset plan: each non-grouped
/// stage is kept with probability 2/3, the survivors are shuffled, and
/// the grouped stage (when enrolled) is appended at a random position.
/// At least one stage always survives so the plan is never degenerate
/// on large workloads (an empty plan is still *correct* — every pair
/// verifies — just slow).
fn shuffled_plan(stages: &[Stage], seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || -> u64 {
        // splitmix64 — same generator family the testkit seeds use.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut plan: Vec<usize> = (0..stages.len()).filter(|_| next() % 3 != 0).collect();
    if plan.is_empty() {
        plan.push(next() as usize % stages.len());
    }
    // Fisher–Yates.
    for i in (1..plan.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        plan.swap(i, j);
    }
    plan
}

/// One stage's estimate row in a [`CascadeReport`].
#[derive(Clone, Debug)]
pub struct StageEstimate {
    /// Stage label (`uqsj_join_pruned_total{stage=...}`).
    pub label: &'static str,
    /// Evaluations observed.
    pub evaluated: u64,
    /// Evaluations on which the stage fired.
    pub fired: u64,
    /// `fired / evaluated`.
    pub selectivity: f64,
    /// Average evaluation cost, ns (0 with no observations).
    pub cost_ns: f64,
    /// Whether the current plan includes the stage.
    pub in_plan: bool,
}

/// Final planner snapshot: the chosen plan and the per-stage
/// selectivity/cost table behind it.
#[derive(Clone, Debug)]
pub struct CascadeReport {
    /// Plan-selection mode the run used.
    pub mode: CascadeMode,
    /// Stage labels in execution order.
    pub plan: Vec<&'static str>,
    /// Estimate rows for every enrolled stage (in-plan or dropped).
    pub stages: Vec<StageEstimate>,
    /// Pairs that entered the cascade.
    pub pairs_seen: u64,
    /// Pairs the size index pruned without entering the cascade.
    pub pairs_skipped: u64,
    /// Pair count at which the adaptive plan froze (`None` for the
    /// fixed and shuffled modes, whose plan is set at construction, and
    /// for an adaptive runtime still calibrating).
    pub frozen_at: Option<u64>,
}

impl CascadeReport {
    /// Stage labels the planner left out of the final plan.
    pub fn dropped(&self) -> Vec<&'static str> {
        self.stages.iter().filter(|s| !s.in_plan).map(|s| s.label).collect()
    }

    /// Hand-formatted JSON object for `BENCH_join.json` (the bench
    /// crate's convention; no serde in-tree).
    pub fn to_json(&self, indent: &str) -> String {
        let mut s = String::new();
        let mode = match self.mode {
            CascadeMode::Fixed => "fixed",
            CascadeMode::Adaptive => "adaptive",
            CascadeMode::Shuffled => "shuffled",
        };
        s.push_str(&format!("{indent}{{\n"));
        s.push_str(&format!("{indent}  \"mode\": \"{mode}\",\n"));
        let plan: Vec<String> = self.plan.iter().map(|l| format!("\"{l}\"")).collect();
        s.push_str(&format!("{indent}  \"plan\": [{}],\n", plan.join(", ")));
        s.push_str(&format!("{indent}  \"pairs_seen\": {},\n", self.pairs_seen));
        s.push_str(&format!("{indent}  \"pairs_skipped\": {},\n", self.pairs_skipped));
        let frozen_at = self.frozen_at.map_or("null".to_owned(), |n| n.to_string());
        s.push_str(&format!("{indent}  \"frozen_at\": {frozen_at},\n"));
        s.push_str(&format!("{indent}  \"stages\": [\n"));
        for (i, st) in self.stages.iter().enumerate() {
            let comma = if i + 1 == self.stages.len() { "" } else { "," };
            s.push_str(&format!(
                "{indent}    {{\"stage\": \"{}\", \"evaluated\": {}, \"fired\": {}, \
                 \"selectivity\": {:.4}, \"cost_ns\": {:.0}, \"in_plan\": {}}}{comma}\n",
                st.label, st.evaluated, st.fired, st.selectivity, st.cost_ns, st.in_plan
            ));
        }
        s.push_str(&format!("{indent}  ]\n"));
        s.push_str(&format!("{indent}}}"));
        s
    }
}

impl fmt::Display for CascadeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cascade plan ({:?} mode): {}", self.mode, self.plan.join(" -> "))?;
        let dropped = self.dropped();
        if !dropped.is_empty() {
            writeln!(f, "dropped stages: {}", dropped.join(", "))?;
        }
        write!(f, "pairs {}  skipped by size index {}", self.pairs_seen, self.pairs_skipped)?;
        match self.frozen_at {
            Some(n) => writeln!(f, "  plan frozen at pair {n}")?,
            None => writeln!(f)?,
        }
        writeln!(
            f,
            "{:<16} {:>10} {:>8} {:>12} {:>12}  in plan",
            "stage", "evaluated", "fired", "selectivity", "cost"
        )?;
        for st in &self.stages {
            writeln!(
                f,
                "{:<16} {:>10} {:>8} {:>12.4} {:>10.2}µs  {}",
                st.label,
                st.evaluated,
                st.fired,
                st.selectivity,
                st.cost_ns / 1_000.0,
                if st.in_plan { "yes" } else { "no" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage_count(strategy: JoinStrategy) -> usize {
        CascadeRuntime::new(CascadePolicy::fixed(), strategy).stages.len()
    }

    #[test]
    fn enrollment_follows_strategy() {
        let bounds = all_bounds().len();
        assert_eq!(stage_count(JoinStrategy::CssOnly), bounds);
        assert_eq!(stage_count(JoinStrategy::SimJ), bounds + 1);
        assert_eq!(stage_count(JoinStrategy::SimJOpt { group_count: 4 }), bounds + 2);
    }

    #[test]
    fn fixed_plan_matches_paper_order() {
        let rt =
            CascadeRuntime::new(CascadePolicy::fixed(), JoinStrategy::SimJOpt { group_count: 4 });
        let report = rt.report();
        assert_eq!(report.plan, vec!["size", "label_multiset", "css", "markov_opt", "grouped"]);
        // The extra registry bounds are enrolled but not in the fixed
        // plan.
        assert!(report.dropped().contains(&"cstar"));
    }

    #[test]
    fn shuffled_plans_are_seed_deterministic_and_vary() {
        let plan = |seed| {
            CascadeRuntime::new(CascadePolicy::shuffled(seed), JoinStrategy::SimJ).report().plan
        };
        assert_eq!(plan(7), plan(7));
        // At least two of a handful of seeds must disagree, or the
        // shuffle is broken.
        let plans: Vec<_> = (0..6).map(plan).collect();
        assert!(plans.iter().any(|p| *p != plans[0]));
        for seed in 0..32 {
            assert!(!plan(seed).is_empty(), "seed {seed} produced an empty plan");
        }
    }

    #[test]
    fn benefit_rule_drops_useless_stages_and_keeps_winners() {
        let rt = CascadeRuntime::new(CascadePolicy::adaptive(), JoinStrategy::SimJ);
        // Fake estimates: css prunes everything cheaply, the rest never
        // fire.
        for st in &rt.stages {
            st.evaluated.store(100, Ordering::Relaxed);
            let (fired, cost) = match st.label {
                "css" => (95, 200_000u64),
                "size" => (0, 10_000),
                _ => (0, 500_000),
            };
            st.fired.store(fired, Ordering::Relaxed);
            st.cost_ns.store(cost, Ordering::Relaxed);
        }
        let plan = rt.compute_plan();
        let labels: Vec<&str> = plan.iter().map(|&i| rt.stages[i].label).collect();
        assert_eq!(labels, vec!["css"], "only the paying stage survives");
    }

    #[test]
    fn grouped_stage_is_pinned_last_and_never_dropped() {
        let rt = CascadeRuntime::new(
            CascadePolicy::adaptive(),
            JoinStrategy::SimJOpt { group_count: 4 },
        );
        for st in &rt.stages {
            st.evaluated.store(100, Ordering::Relaxed);
            let fired = if st.label == "css" { 90 } else { 0 };
            st.fired.store(fired, Ordering::Relaxed);
            st.cost_ns.store(100_000, Ordering::Relaxed);
        }
        let plan = rt.compute_plan();
        let labels: Vec<&str> = plan.iter().map(|&i| rt.stages[i].label).collect();
        assert_eq!(labels.last(), Some(&"grouped"));
    }

    #[test]
    fn report_json_is_balanced() {
        let rt = CascadeRuntime::new(CascadePolicy::adaptive(), JoinStrategy::SimJ);
        let json = rt.report().to_json("  ");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"mode\": \"adaptive\""));
    }
}
