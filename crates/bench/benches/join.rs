//! Join-strategy microbenchmarks: CSS-only vs SimJ vs SimJ+opt on a small
//! ER workload (the per-strategy cost behind Figs. 11–13), plus a
//! deep-verification group where every vertex is uncertain and τ sits at
//! the typical edit distance, so verification dominates.
//!
//! Besides the criterion runs, the binary writes `BENCH_join.json` at the
//! repo root: pairs/sec and worlds-verified/sec through the incremental
//! [`GedEngine`], p50/p99 per-pair verification time, and the speedup over
//! the retained naive reference (materialize every possible world, search
//! it from scratch) on the identical deep workload.

use criterion::{criterion_group, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use uqsj::ged::bounds::all_bounds;
use uqsj::ged::reference::ged_bounded_reference;
use uqsj::ged::upper::ged_upper_bipartite;
use uqsj::ged::GedEngine;
use uqsj::graph::{SymbolTable, UncertainGraph};
use uqsj::prelude::*;
use uqsj::sample::{sample_simp_with, SampleParams};
use uqsj::uncertain::verify_simp_with;
use uqsj::workload::{erdos_renyi, RandomGraphConfig};

fn bench_join(c: &mut Criterion) {
    let mut table = SymbolTable::new();
    let mut rng = SmallRng::seed_from_u64(21);
    let cfg = RandomGraphConfig {
        count: 24,
        vertices: 10,
        edges: 18,
        avg_labels: 3.0,
        ..Default::default()
    };
    let (d, u) = erdos_renyi(&mut table, &cfg, &mut rng);

    let mut group = c.benchmark_group("sim_join_24x24");
    group.sample_size(10);
    for (name, strategy) in [
        ("css_only", JoinStrategy::CssOnly),
        ("simj", JoinStrategy::SimJ),
        ("simj_opt", JoinStrategy::SimJOpt { group_count: 8 }),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| sim_join(&table, &d, &u, JoinParams { strategy, ..JoinParams::simj(2, 0.5) }))
        });
    }
    group.bench_function("simj_parallel_4", |b| {
        b.iter(|| uqsj::simjoin::sim_join_parallel(&table, &d, &u, JoinParams::simj(2, 0.5), 4))
    });
    group.bench_function("topk_1", |b| {
        b.iter(|| uqsj::simjoin::sim_join_topk(&table, &d, &u, 2, 1))
    });
    group.finish();

    // Deep-verification regime: every vertex uncertain (many worlds per
    // graph) and τ at the typical perturbation distance, so candidate
    // pairs survive the filters and A\* runs on most worlds.
    let (dd, du) = deep_workload(&mut table);
    let mut group = c.benchmark_group("deep_verify_10x10");
    group.sample_size(10);
    group.bench_function("simj", |b| {
        b.iter(|| sim_join(&table, &dd, &du, JoinParams::simj(3, 0.5)))
    });
    group.finish();

    // Skewed regime: the deep pairs drowned in distractors the first two
    // fixed stages cannot prune. The adaptive planner calibrates and
    // freezes its cascade order per iteration (a fresh runtime each call,
    // as any cold-started join would).
    let (sd, su, stau) = skewed_workload(&mut table);
    let mut group = c.benchmark_group("cascade_skewed");
    group.sample_size(10);
    group.bench_function("fixed", |b| {
        b.iter(|| sim_join(&table, &sd, &su, JoinParams::simj(stau, 0.5)))
    });
    group.bench_function("adaptive", |b| {
        b.iter(|| {
            let params = JoinParams::simj(stau, 0.5).with_cascade(CascadePolicy::adaptive());
            sim_join(&table, &sd, &su, params)
        })
    });
    group.finish();
}

fn deep_workload(table: &mut SymbolTable) -> (Vec<Graph>, Vec<UncertainGraph>) {
    let mut rng = SmallRng::seed_from_u64(33);
    let cfg = RandomGraphConfig {
        count: 10,
        vertices: 8,
        edges: 12,
        label_pool: 6,
        avg_labels: 2.0,
        uncertain_fraction: 1.0,
        perturbation: 3,
        ..Default::default()
    };
    erdos_renyi(table, &cfg, &mut rng)
}

/// The deep pairs plus a flood of distractor queries screened so that
/// (a) every flood pair is pruned by a cheap bound — no distractor ever
/// reaches verification — and (b) for at least half the uncertain graphs
/// the pair is *lm-blind*: the label-multiset bound passes (≤ τ) and
/// only CSS prunes it (> τ). A fixed cascade pays size + lm before CSS
/// can fire on every blind pair; an adaptive planner learns CSS has the
/// highest selectivity-per-cost and runs it first. Returns `(d, u, tau)`
/// with `d = 10 deep queries + the flood`.
fn skewed_workload(table: &mut SymbolTable) -> (Vec<Graph>, Vec<UncertainGraph>, u32) {
    let tau = 3u32;
    let (mut d, u) = deep_workload(table);
    let deep_d = d.len();
    let bounds = all_bounds();
    let by =
        |label: &str| bounds.iter().find(|b| b.stage_label() == label).expect("registry bound");
    let (lm, css) = (by("label_multiset"), by("css"));
    // Same shape and label pool as the deep pairs, so the size bound
    // stays blind; the screen below selects for label-compatible but
    // structurally divergent graphs (~3% of random candidates qualify,
    // hence the large candidate pool).
    let mut rng = SmallRng::seed_from_u64(77);
    let cfg = RandomGraphConfig {
        count: 60_000,
        vertices: 8,
        edges: 12,
        label_pool: 6,
        avg_labels: 2.0,
        ..Default::default()
    };
    let (cands, _) = erdos_renyi(table, &cfg, &mut rng);
    let target = deep_d + 1500;
    for q in cands {
        if d.len() >= target {
            break;
        }
        let mut cheaply_pruned = true;
        let mut blind = 0usize;
        for g in &u {
            let lm_passes = lm.uncertain(table, &q, g) <= tau;
            let css_fires = css.uncertain(table, &q, g) > tau;
            if lm_passes && !css_fires {
                cheaply_pruned = false; // would reach verification
                break;
            }
            if lm_passes && css_fires {
                blind += 1;
            }
        }
        if cheaply_pruned && blind * 2 >= u.len() {
            d.push(q);
        }
    }
    assert!(
        d.len() - deep_d >= 500,
        "skewed workload too thin: only {} qualifying distractors",
        d.len() - deep_d
    );
    (d, u, tau)
}

/// The pre-engine verification path: materialize each possible world as a
/// fresh `Graph`, CSS-filter it, and search it with the retained naive
/// reference A\* — the same decision procedure `verify_simp` runs, minus
/// every amortization this PR added.
fn verify_naive(
    table: &SymbolTable,
    q: &Graph,
    g: &UncertainGraph,
    tau: u32,
    alpha: f64,
) -> (f64, usize) {
    let total_mass: f64 = g.vertices().iter().map(|v| v.mass()).product();
    let mut acc = 0.0f64;
    let mut remaining = total_mass;
    let mut verified = 0usize;
    let mut worlds: Vec<_> = g.possible_worlds().collect();
    if g.vertex_count() > 0 && g.world_count() != 1 && g.world_count() <= 4096 {
        worlds.sort_by(|a, b| b.prob.partial_cmp(&a.prob).expect("finite probability"));
    }
    for w in &worlds {
        remaining -= w.prob;
        if lb_ged_css_certain(table, q, &w.graph) <= tau {
            verified += 1;
            let ub = ged_upper_bipartite(table, q, &w.graph);
            let hit = ub.distance == 0
                || ged_bounded_reference(table, q, &w.graph, tau.min(ub.distance)).is_some();
            if hit {
                acc += w.prob;
            }
        }
        if acc >= alpha || acc + remaining < alpha {
            break;
        }
    }
    (acc, verified)
}

/// A chain pair with `k` uncertain vertices of two alternatives each
/// (2^k possible worlds): the certain chain plus a per-vertex 0.7/0.3
/// label split, so a world's GED to `q` is its mismatch count.
fn chain_pair(t: &mut SymbolTable, k: usize) -> (Graph, UncertainGraph) {
    let mut bq = GraphBuilder::new(t);
    for i in 0..k {
        bq.vertex(&format!("v{i}"), &format!("L{}", i % 4));
    }
    for i in 1..k {
        bq.edge(&format!("v{}", i - 1), &format!("v{i}"), "e");
    }
    let q = bq.into_graph();
    let mut bg = GraphBuilder::new(t);
    for i in 0..k {
        let keep = format!("L{}", i % 4);
        let alt = format!("X{}", i % 3);
        bg.uncertain_vertex(&format!("v{i}"), &[(keep.as_str(), 0.7), (alt.as_str(), 0.3)]);
    }
    for i in 1..k {
        bg.edge(&format!("v{}", i - 1), &format!("v{i}"), "e");
    }
    (q, bg.into_uncertain())
}

/// Exact-vs-sample crossover on chain pairs of growing world count: the
/// same decision through full enumeration and through the Monte-Carlo
/// tier, timed on one engine. Returns the `sample_crossover` JSON array
/// embedded in `BENCH_join.json`. τ tracks k so the exact probability
/// (a binomial tail) stays far from α and the two tiers must agree.
fn sample_crossover_json() -> String {
    let mut table = SymbolTable::new();
    let mut engine = GedEngine::new();
    let (eps, alpha) = (0.05f64, 0.5f64);
    let params = SampleParams { epsilon: eps, delta: 0.02, ..SampleParams::default() };
    let mut rows = Vec::new();
    for k in [4usize, 8, 12, 14] {
        let (q, g) = chain_pair(&mut table, k);
        let tau = (3 * k / 10 + 1) as u32;

        let s = Instant::now();
        let exact = verify_simp_with(&mut engine, &table, &q, &g, tau, f64::INFINITY);
        let exact_us = s.elapsed().as_secs_f64() * 1e6;

        let s = Instant::now();
        let sampled =
            sample_simp_with(&mut engine, &table, &q, &g, tau, alpha, None, &params, 17 + k as u64);
        let sample_us = s.elapsed().as_secs_f64() * 1e6;

        let agree = sampled.passed == (exact.prob >= alpha);
        assert!(
            agree || (exact.prob - alpha).abs() <= eps,
            "k={k}: sampled verdict {} disagrees with exact SimP {} outside the ε band",
            sampled.passed,
            exact.prob
        );
        rows.push(format!(
            "{{\"uncertain_vertices\": {k}, \"world_count\": {wc}, \"tau\": {tau}, \
             \"exact_prob\": {p:.4}, \"exact_us\": {exact_us:.1}, \"sample_us\": {sample_us:.1}, \
             \"sample_draws\": {draws}, \"agree\": {agree}}}",
            wc = g.world_count(),
            p = exact.prob,
            draws = sampled.worlds_sampled,
        ));
    }
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

/// Fixed vs adaptive cascade on the skewed workload: alternate the two
/// modes, keep each one's best wall time (min-of-4 absorbs scheduler
/// noise), prove the match sets identical pair-for-pair, and require the
/// adaptive planner to be no slower than the fixed order it replaces.
/// Returns the `cascade` JSON object embedded in `BENCH_join.json`,
/// carrying both plans and the per-stage selectivity/cost table.
fn cascade_showdown_json() -> String {
    let mut table = SymbolTable::new();
    let (d, u, tau) = skewed_workload(&mut table);
    let alpha = 0.5f64;
    let fixed_params = JoinParams::simj(tau, alpha);
    let adaptive_params = fixed_params.with_cascade(CascadePolicy::adaptive());

    let key = |m: &JoinMatch| (m.g_index, m.q_index);
    let mut best: [Option<(Duration, JoinStats)>; 2] = [None, None];
    let mut match_sets: [Option<Vec<(usize, usize)>>; 2] = [None, None];
    for round in 0..8 {
        let mode = round % 2; // 0 = fixed, 1 = adaptive, interleaved
        let params = if mode == 0 { fixed_params } else { adaptive_params };
        let s = Instant::now();
        let (matches, stats) = sim_join(&table, &d, &u, params);
        let elapsed = s.elapsed();
        let mut set: Vec<_> = matches.iter().map(key).collect();
        set.sort_unstable();
        if let Some(prev) = &match_sets[mode] {
            assert_eq!(prev, &set, "cascade mode {mode} is not deterministic");
        } else {
            match_sets[mode] = Some(set);
        }
        if best[mode].as_ref().is_none_or(|(t, _)| elapsed < *t) {
            best[mode] = Some((elapsed, stats));
        }
    }
    assert_eq!(match_sets[0], match_sets[1], "adaptive cascade changed the join result set");
    let (fixed_time, fixed_stats) = best[0].take().expect("fixed runs");
    let (adaptive_time, adaptive_stats) = best[1].take().expect("adaptive runs");
    // The smoke bar CI relies on: adaptation must pay for itself. 10%
    // headroom tolerates scheduler noise on loaded runners.
    assert!(
        adaptive_time.as_secs_f64() <= fixed_time.as_secs_f64() * 1.10,
        "adaptive cascade slower than fixed on the skewed workload: {:?} vs {:?}",
        adaptive_time,
        fixed_time
    );
    let fixed_report = fixed_stats.cascade.as_ref().expect("fixed cascade report");
    let adaptive_report = adaptive_stats.cascade.as_ref().expect("adaptive cascade report");
    eprintln!("cascade showdown: fixed {fixed_time:?}, adaptive {adaptive_time:?}");
    eprintln!("{adaptive_report}");
    format!(
        "{{\n    \"bench\": \"deep_verify_skewed\",\n    \"tau\": {tau},\n    \
         \"alpha\": {alpha},\n    \"d_size\": {dn},\n    \"u_size\": {un},\n    \
         \"results\": {results},\n    \"fixed_ms\": {ft:.2},\n    \"adaptive_ms\": {at:.2},\n    \
         \"speedup_adaptive_vs_fixed\": {speedup:.2},\n    \"fixed\": {fr},\n    \
         \"adaptive\": {ar}\n  }}",
        dn = d.len(),
        un = u.len(),
        results = match_sets[0].as_ref().map_or(0, |s| s.len()),
        ft = fixed_time.as_secs_f64() * 1e3,
        at = adaptive_time.as_secs_f64() * 1e3,
        speedup = fixed_time.as_secs_f64() / adaptive_time.as_secs_f64().max(1e-9),
        fr = fixed_report.to_json("    ").trim_start(),
        ar = adaptive_report.to_json("    ").trim_start(),
    )
}

/// Template mining on a WebQ-like workload (600 questions, 1,200
/// distractor queries; SimJ τ = 1, α = 0.5): the join's pair accounting,
/// the best-of-3 `generate_templates` time, and the best-of-3 time to
/// insert the run's generated templates into a fresh library. Returns
/// the `mining` JSON object embedded in `BENCH_join.json`.
fn mining_json() -> String {
    let dataset = uqsj::workload::webq_like(&uqsj::workload::DatasetConfig {
        questions: 600,
        distractors: 1200,
        seed: 3,
        ..Default::default()
    });
    let params = JoinParams::simj(1, 0.5);
    let mut generate = Duration::MAX;
    let mut result: Option<uqsj::pipeline::PipelineResult> = None;
    for _ in 0..3 {
        let s = Instant::now();
        let r = uqsj::pipeline::generate_templates(&dataset, params);
        generate = generate.min(s.elapsed());
        if let Some(prev) = &result {
            assert_eq!(prev.matches, r.matches, "mining is not deterministic");
        }
        result = Some(r);
    }
    let result = result.expect("three mining runs");
    let generated: Vec<Template> = result
        .matches
        .iter()
        .filter_map(|m| {
            uqsj::template::generate_template(&uqsj::template::TemplateSource {
                analysis: &dataset.analyses[m.g_index],
                query: &dataset.d_queries[m.q_index],
                query_terms: &dataset.d_terms[m.q_index],
                mapping: &m.mapping,
                confidence: m.prob,
            })
        })
        .collect();
    let mut add = Duration::MAX;
    for _ in 0..3 {
        let batch = generated.clone();
        let mut library = TemplateLibrary::new();
        let s = Instant::now();
        for t in batch {
            library.add(t);
        }
        add = add.min(s.elapsed());
        assert_eq!(library.len(), result.library.len(), "library size diverged");
    }
    let stats = &result.stats;
    let skipped = stats.cascade.as_ref().map_or(0, |r| r.pairs_skipped);
    eprintln!(
        "mining: {} pairs ({skipped} skipped by the size index), {} matches, {} templates, \
         generate {generate:?}, library add {add:?}",
        stats.pairs_total,
        result.matches.len(),
        result.library.len()
    );
    format!(
        "{{\n    \"bench\": \"webq_like_600x1200\",\n    \"tau\": 1,\n    \"alpha\": 0.5,\n    \
         \"pairs_total\": {pairs},\n    \"size_index_skipped\": {skipped},\n    \
         \"matches\": {matches},\n    \"templates\": {templates},\n    \
         \"generate_ms\": {gen:.2},\n    \"library_add_ms\": {add:.3}\n  }}",
        pairs = stats.pairs_total,
        matches = result.matches.len(),
        templates = result.library.len(),
        gen = generate.as_secs_f64() * 1e3,
        add = add.as_secs_f64() * 1e3,
    )
}

/// Reference-vs-lftj showdown on the cyclic/star/path families over one
/// hub-skewed synthetic KB: alternate the two evaluators (min-of-4 each
/// absorbs scheduler noise), prove the solution sets identical, and
/// require the leapfrog join to beat the nested-loop reference ≥ 2x on
/// the triangle family and be no slower anywhere. Returns the `bgp`
/// JSON array embedded in `BENCH_join.json`.
fn bgp_showdown_json() -> String {
    use uqsj::rdf::{bgp, lftj, BgpEval};
    use uqsj::sparql::{SparqlQuery, Term, Triple};
    use uqsj::testkit::bgp::{build_store, gen_kb, BgpGenConfig};

    // Large enough that the reference's materialized 2-paths dominate on
    // cyclic shapes; the dense hub predicate comes from the generator.
    let cfg = BgpGenConfig { entities: 120, predicates: 6, triples: 6000 };
    let kb = gen_kb(&cfg, 4099);
    let store = build_store(&kb);

    let var = |v: &str| Term::Var(v.to_string());
    let iri = |x: &str| Term::Iri(x.to_string());
    let t = |s: Term, p: Term, o: Term| Triple { subject: s, predicate: p, object: o };
    let q = |triples: Vec<Triple>| SparqlQuery { select: vec![], triples };
    let families: [(&str, SparqlQuery); 3] = [
        (
            "triangle",
            q(vec![
                t(var("a"), iri("q0"), var("b")),
                t(var("b"), iri("q0"), var("c")),
                t(var("c"), iri("q0"), var("a")),
            ]),
        ),
        (
            "star",
            q(vec![
                t(var("x"), iri("q0"), var("o0")),
                t(var("x"), iri("q1"), var("o1")),
                t(var("x"), iri("q2"), var("o2")),
            ]),
        ),
        (
            "path",
            q(vec![
                t(var("a"), iri("q0"), var("b")),
                t(var("b"), iri("q1"), var("c")),
                t(var("c"), iri("q2"), var("d")),
            ]),
        ),
    ];

    let canon = |rows: Vec<uqsj::rdf::Bindings>| {
        let mut out: Vec<Vec<(String, u32)>> = rows
            .into_iter()
            .map(|b| {
                let mut row: Vec<(String, u32)> = b.into_iter().map(|(k, v)| (k, v.0)).collect();
                row.sort();
                row
            })
            .collect();
        out.sort();
        out.dedup();
        out
    };

    let mut entries = Vec::new();
    for (family, query) in &families {
        let mut best = [Duration::MAX; 2]; // 0 = reference, 1 = lftj
        let mut rows = [usize::MAX; 2];
        for round in 0..8 {
            let mode = round % 2;
            let eval = if mode == 0 { BgpEval::Reference } else { BgpEval::Lftj };
            let s = Instant::now();
            let sols = bgp::solutions_with(&store, query, eval);
            let elapsed = s.elapsed();
            best[mode] = best[mode].min(elapsed);
            let n = canon(sols).len();
            assert!(rows[mode] == usize::MAX || rows[mode] == n, "{family}: nondeterministic");
            rows[mode] = n;
        }
        assert_eq!(rows[0], rows[1], "{family}: evaluators disagree on the result set");
        let (_, stats) = lftj::solutions_stats(&store, query);
        let speedup = best[0].as_secs_f64() / best[1].as_secs_f64().max(1e-9);
        // The smoke bars CI relies on: worst-case-optimality must show on
        // the cyclic family, and never cost elsewhere (10% noise headroom).
        if *family == "triangle" {
            assert!(
                speedup >= 2.0,
                "triangle family: lftj only {speedup:.2}x over the reference \
                 ({:?} vs {:?})",
                best[1],
                best[0]
            );
        }
        assert!(
            best[1].as_secs_f64() <= best[0].as_secs_f64() * 1.10,
            "{family}: lftj slower than the nested-loop reference ({:?} vs {:?})",
            best[1],
            best[0]
        );
        eprintln!(
            "bgp showdown {family}: reference {:?}, lftj {:?} ({speedup:.2}x, {} rows)",
            best[0], best[1], rows[0]
        );
        entries.push(format!(
            "{{\"family\": \"{family}\", \"rows\": {rows}, \"reference_ms\": {rf:.3}, \
             \"lftj_ms\": {lf:.3}, \"speedup_lftj_vs_reference\": {speedup:.2}, \
             \"lftj_seeks\": {seeks}, \"estimated_rows\": {est:.1}}}",
            rows = rows[0],
            rf = best[0].as_secs_f64() * 1e3,
            lf = best[1].as_secs_f64() * 1e3,
            seeks = stats.seeks,
            est = stats.estimated_rows,
        ));
    }
    format!("[\n    {}\n  ]", entries.join(",\n    "))
}

fn percentile(sorted: &[Duration], p: usize) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

/// Measure the deep workload through the engine and through the naive
/// reference, then hand-format `BENCH_join.json` at the repo root.
fn emit_join_json() {
    let mut table = SymbolTable::new();
    let (d, u) = deep_workload(&mut table);
    let (tau, alpha) = (3u32, 0.5f64);

    let mut engine = GedEngine::new();
    let mut times: Vec<Duration> = Vec::new();
    let mut worlds = 0u64;
    let mut prob_sum = 0.0f64;
    let started = Instant::now();
    for g in &u {
        for q in &d {
            if lb_ged_css_uncertain(&table, q, g) <= tau {
                let s = Instant::now();
                let out = verify_simp_with(&mut engine, &table, q, g, tau, alpha);
                times.push(s.elapsed());
                worlds += out.worlds_verified as u64;
                prob_sum += out.prob;
            }
        }
    }
    let engine_total = started.elapsed();

    let mut naive_prob_sum = 0.0f64;
    let mut naive_worlds = 0u64;
    let started = Instant::now();
    for g in &u {
        for q in &d {
            if lb_ged_css_uncertain(&table, q, g) <= tau {
                let (p, w) = verify_naive(&table, q, g, tau, alpha);
                naive_prob_sum += p;
                naive_worlds += w as u64;
            }
        }
    }
    let naive_total = started.elapsed();
    assert_eq!(prob_sum.to_bits(), naive_prob_sum.to_bits(), "engine diverged from reference");
    assert_eq!(worlds, naive_worlds, "engine diverged from reference");

    times.sort();
    let secs = engine_total.as_secs_f64().max(1e-9);
    // Attach the process metric registry (GED engine + world-verification
    // counters accumulated by the run above) so a bench artifact carries
    // the same observability snapshot an operator would scrape.
    let crossover = sample_crossover_json();
    let cascade = cascade_showdown_json();
    let bgp = bgp_showdown_json();
    let mining = mining_json();
    let registry = uqsj::obs::global().snapshot_json();
    let json = format!(
        "{{\n  \"bench\": \"deep_verify_10x10\",\n  \"tau\": {tau},\n  \"alpha\": {alpha},\n  \
         \"verified_pairs\": {pairs},\n  \"pairs_per_sec\": {pps:.1},\n  \
         \"worlds_verified\": {worlds},\n  \"worlds_verified_per_sec\": {wps:.1},\n  \
         \"p50_pair_verify_us\": {p50:.1},\n  \"p99_pair_verify_us\": {p99:.1},\n  \
         \"engine_total_ms\": {et:.2},\n  \"naive_reference_total_ms\": {nt:.2},\n  \
         \"speedup_vs_reference\": {speedup:.2},\n  \"cascade\": {cascade},\n  \
         \"bgp\": {bgp},\n  \"mining\": {mining},\n  \
         \"sample_crossover\": {crossover},\n  \"registry\": {reg}\n}}\n",
        reg = registry.trim_end(),
        pairs = times.len(),
        pps = times.len() as f64 / secs,
        wps = worlds as f64 / secs,
        p50 = percentile(&times, 50).as_secs_f64() * 1e6,
        p99 = percentile(&times, 99).as_secs_f64() * 1e6,
        et = engine_total.as_secs_f64() * 1e3,
        nt = naive_total.as_secs_f64() * 1e3,
        speedup = naive_total.as_secs_f64() / engine_total.as_secs_f64().max(1e-9),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_join.json");
    std::fs::write(path, &json).expect("write BENCH_join.json");
    eprintln!("wrote {path}:\n{json}");
}

criterion_group!(benches, bench_join);

fn main() {
    benches();
    emit_join_json();
}
