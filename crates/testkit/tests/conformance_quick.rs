//! The cross-crate conformance suite, quick profile — the same run CI
//! executes on every push and `uqsj-cli conformance` exposes on demand.

use uqsj_testkit::{run_conformance, ConformanceConfig};

/// Zero violations, and the coverage counters prove the run actually
/// exercised all seven lower bounds, both SimP evaluators, the sampling
/// tier, all six join drivers, and both cascade-plan oracles (shuffled
/// and adaptive) — an accidentally-skipped oracle fails here even if
/// nothing is wrong with the code under test.
#[test]
fn quick_profile_passes_with_full_coverage() {
    let report = run_conformance(&ConformanceConfig::quick(42));
    assert!(report.passed(), "{report}");

    let expected_bounds = ["Size", "LM", "CSS", "CStar", "Path", "Pars", "SEGOS"];
    assert_eq!(report.bound_checks.len(), expected_bounds.len(), "{:?}", report.bound_checks);
    for name in expected_bounds {
        assert!(
            report.bound_checks.get(name).copied().unwrap_or(0) > 0,
            "bound {name} never checked: {:?}",
            report.bound_checks
        );
    }

    assert!(report.simp_flat > 0, "flat SimP evaluator never exercised");
    assert!(report.simp_grouped > 0, "grouped SimP evaluator never exercised");

    let expected_joins = [
        "css_only",
        "simj",
        "simj_opt",
        "sequential",
        "parallel",
        "auto_tier",
        "shuffled_cascade",
        "adaptive_cascade",
    ];
    assert_eq!(report.join_runs.len(), expected_joins.len(), "{:?}", report.join_runs);
    for name in expected_joins {
        assert!(
            report.join_runs.get(name).copied().unwrap_or(0) > 0,
            "join variant {name} never run: {:?}",
            report.join_runs
        );
    }
    // The acceptance bar for cascade soundness: at least 20 distinct
    // randomized plans proven result-identical per conformance run.
    assert!(
        report.join_runs.get("shuffled_cascade").copied().unwrap_or(0) >= 20,
        "fewer than 20 shuffled cascade plans exercised: {:?}",
        report.join_runs
    );

    assert!(report.worlds > 0 && report.engine_checks > 0 && report.metamorphic_checks > 0);
    assert!(report.sample_trials > 0, "sampling-tier oracle never exercised");
}

/// Different base seeds generate different workloads but the suite stays
/// green — a smoke-level stand-in for the deep fuzz loop.
#[test]
fn alternate_seeds_pass() {
    for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
        let mut cfg = ConformanceConfig::quick(seed);
        cfg.pairs = 4;
        let report = run_conformance(&cfg);
        assert!(report.passed(), "seed {seed}: {report}");
    }
}
