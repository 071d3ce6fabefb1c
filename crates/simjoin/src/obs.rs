//! Metric handles for the join cascade.
//!
//! Per-stage handles (one prune counter + one time histogram, labelled
//! `stage=...`) are keyed by stage label instead of being hard-coded
//! fields, so any bound enrolled in the `ged::bounds::all_bounds()`
//! registry gets metrics without touching this file. The counters mirror
//! the per-run [`crate::JoinStats`] counters but accumulate process-wide,
//! so a serving process exposes its lifetime pruning profile without
//! threading stats through every call site.

use std::sync::{Mutex, OnceLock, PoisonError};

/// Stage-independent join counters plus the cascade-planner family.
pub(crate) struct JoinObs {
    pub pairs: uqsj_obs::Counter,
    pub candidates: uqsj_obs::Counter,
    pub results: uqsj_obs::Counter,
    /// Per-pair verification time (µs); counts every pair that survived
    /// all filters.
    pub t_verify: uqsj_obs::Histogram,
    /// Pairs evaluated with every candidate stage to measure the
    /// adaptive planner's selectivity/cost estimates.
    pub cascade_calibration_pairs: uqsj_obs::Counter,
    /// Candidate stages left out of a frozen adaptive plan, summed over
    /// planners (benefit-below-cost drops).
    pub cascade_bounds_skipped: uqsj_obs::Counter,
}

pub(crate) fn join_obs() -> &'static JoinObs {
    static OBS: OnceLock<JoinObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = uqsj_obs::global();
        JoinObs {
            pairs: r.counter("uqsj_join_pairs_total", "pairs considered by the join cascade"),
            candidates: r.counter("uqsj_join_candidates_total", "pairs surviving all filters"),
            results: r.counter("uqsj_join_results_total", "pairs verified with SimP >= alpha"),
            t_verify: r.histogram_with(
                "uqsj_join_stage_us",
                &[("stage", "verify")],
                "per-pair time in each cascade stage",
            ),
            cascade_calibration_pairs: r.counter(
                "uqsj_cascade_calibration_pairs_total",
                "pairs evaluated with every stage to calibrate the planner",
            ),
            cascade_bounds_skipped: r.counter(
                "uqsj_cascade_bounds_skipped_total",
                "candidate stages dropped from frozen plans (benefit below cost)",
            ),
        }
    })
}

/// Process-global handles for one cascade stage.
#[derive(Clone)]
pub(crate) struct StageHandles {
    /// Pairs discarded by this stage (`uqsj_join_pruned_total{stage=..}`).
    pub pruned: uqsj_obs::Counter,
    /// Per-pair time in this stage, µs (`uqsj_join_stage_us{stage=..}`);
    /// counts every pair that *reached* the stage.
    pub time: uqsj_obs::Histogram,
}

/// Handles for the stage labelled `label`, registered on first use.
///
/// The registry wants `&'static` label slices; each distinct stage label
/// leaks exactly one two-element slice, memoized here — stage labels come
/// from the fixed bound registry plus the probabilistic stages, so the
/// leak is bounded by that set, not by call volume.
pub(crate) fn stage_handles(label: &'static str) -> StageHandles {
    static CACHE: OnceLock<Mutex<Vec<(&'static str, StageHandles)>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let mut cache = cache.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, handles)) = cache.iter().find(|(l, _)| *l == label) {
        return handles.clone();
    }
    let labels: &'static [(&'static str, &'static str)] =
        Box::leak(vec![("stage", label)].into_boxed_slice());
    let r = uqsj_obs::global();
    let handles = StageHandles {
        pruned: r.counter_with(
            "uqsj_join_pruned_total",
            labels,
            "pairs discarded by each filter stage",
        ),
        time: r.histogram_with("uqsj_join_stage_us", labels, "per-pair time in each cascade stage"),
    };
    cache.push((label, handles.clone()));
    handles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_handles_are_memoized_per_label() {
        let a = stage_handles("size");
        a.pruned.add(2);
        let b = stage_handles("size");
        // Same underlying counter: the second lookup sees the first add.
        assert!(b.pruned.value() >= 2);
    }
}
