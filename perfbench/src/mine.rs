//! The `mine` workload: offline template mining with the SimJ join
//! (τ = 1, α = 0.5, fixed cascade, exact SimP, sequential `sim_join` — the
//! CLI defaults) on a seeded WebQ-like dataset, repeated for the run's
//! duration. Between mining runs the mined library answers held-out
//! questions in process on a fresh (cold) server, which gives the
//! library's answer cost and quality.

use crate::data::{self, f1, gold_answers};
use crate::report::Report;
use crate::stats::{mean, median, percentile, ratio, sorted, speed, tail};
use crate::Args;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;
use uqsj::ged::bounds::all_bounds;
use uqsj::nlp::analyze_question;
use uqsj::pipeline::{generate_templates, join_quality, PipelineResult};
use uqsj::prelude::*;
use uqsj::serve::ShardedQaServer;
use uqsj::template::{generate_template, QaOutcome, TemplateSource};

/// Training questions and extra distractor queries of the mining run.
const QUESTIONS: usize = 600;
const DISTRACTORS: usize = 1200;
const TAU: u32 = 1;
const ALPHA: f64 = 0.5;
/// Dataset builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Join repetitions at least, whatever `--seconds` says.
const MIN_REPS: usize = 2;
/// Accepted and rejected pairs re-verified exactly.
const SAMPLE_PAIRS: usize = 100;
/// Held-out questions answered with the mined library.
const HELD_OUT: usize = 1000;
/// Pairs on which each cascade bound is timed.
const STAGE_PAIRS: usize = 4000;

/// The WebQ-like dataset: a fixed KB, questions and distractors drawn
/// from the seed.
fn dataset(seed: u64) -> Dataset {
    data::mining_dataset(data::fixed_kb(&data::MINE_KB), seed, 21, QUESTIONS, DISTRACTORS)
}

/// The pairs a run accepted, as `(q_index, g_index)`.
fn accepted(result: &PipelineResult) -> Vec<(usize, usize)> {
    result.matches.iter().map(|m| (m.q_index, m.g_index)).collect()
}

pub fn run(args: &Args, report: &mut Report) {
    let (mut setups, mut factors) = (Vec::new(), Vec::new());
    let mut ds = None;
    for _ in 0..SETUP_REPEATS {
        let before = speed();
        let t = Instant::now();
        ds = Some(dataset(args.seed));
        setups.push(t.elapsed().as_secs_f64());
        factors.push((before + speed()) / 2.0);
    }
    let ds = ds.expect("at least one set-up");
    report.set_scaled("setup_s", median(&setups), &factors);
    report.note("mining_graphs", format!("{} x {}", ds.d_len(), ds.u_len()));
    report.note("pairs", ds.d_len() * ds.u_len());
    report.note("questions", ds.u_len());
    report.note("distinct_questions", data::question_keys(&ds).len());

    // The timed phase: whole mining runs until the time is up, each
    // followed by a pass of held-out questions over the first library.
    let t = Instant::now();
    let triples = ds.kb.triple_store().len();
    report.set("rdf.store_build_s", t.elapsed().as_secs_f64());
    report.note("kb_triples", triples);
    let held_out = data::held_out(&ds.kb, args.seed, HELD_OUT, &data::question_keys(&ds));
    let params = JoinParams::simj(TAU, ALPHA);
    let started = Instant::now();
    let (mut times, mut factors) = (Vec::new(), Vec::new());
    let (mut passes, mut pass_factors): (Vec<Vec<f64>>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut first: Option<(PipelineResult, ShardedQaServer, Vec<QaOutcome>)> = None;
    while times.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds as f64 {
        let before = speed();
        let t = Instant::now();
        let result = generate_templates(&ds, params);
        times.push(t.elapsed().as_secs_f64());
        factors.push((before + speed()) / 2.0);
        if let Some((f, _, _)) = &first {
            report.check(
                (accepted(f) != accepted(&result) || f.library.len() != result.library.len()).then(
                    || "a repeated mining run returned different pairs or templates".to_owned(),
                ),
            );
        }
        let library = first.as_ref().map_or(&result.library, |f| &f.0.library);
        let server = ShardedQaServer::new(
            copy(library),
            ds.kb.lexicon.clone(),
            ds.kb.triple_store(),
            4,
            ServeConfig::default(),
        );
        let mut lat = Vec::with_capacity(held_out.len());
        let mut outcomes = Vec::with_capacity(held_out.len());
        let before = speed();
        for p in &held_out {
            let t = Instant::now();
            let got = server.answer(&p.question);
            lat.push(t.elapsed().as_secs_f64() * 1e6);
            outcomes.push(got.outcome);
        }
        pass_factors.push((before + speed()) / 2.0);
        passes.push(sorted(lat));
        if first.is_none() {
            report.check(None);
            first = Some((result, server, outcomes));
        }
    }
    let (result, server, outcomes) = first.expect("at least one run");
    report.set_scaled("mine_s", median(&times), &factors);
    report.set("mine_precision", join_quality(&ds, &result.matches).1);
    report.note("mining_runs", times.len());
    report.note("library_templates", result.library.len());

    // Answer latency: each pass gives its p50 and p99 (1,000 answers);
    // each metric is the median over the passes.
    let p50s: Vec<f64> = passes.iter().map(|w| percentile(w, 50.0)).collect();
    let tails: Vec<(f64, f64)> = passes.iter().map(|p| tail(p, 99.0)).collect();
    let p99 = median(&tails.iter().map(|t| t.1).collect::<Vec<_>>());
    report.set_scaled("answer_p50_us", median(&p50s), &pass_factors);
    report.set("serve.answer_p50_us", median(&p50s));
    report.set("serve.answer_p99_us", p99);
    report.note(
        "answer_passes",
        format!(
            "median over {} passes of p50 and p{:.1} of {} answers",
            passes.len(),
            tails[0].0,
            held_out.len()
        ),
    );

    verify_sample(&ds, &result, args.seed, report);
    check_answers(&ds, &server, &held_out, &outcomes, report);

    if args.trace {
        trace(&ds, &result, &held_out, args.seed, report);
    }
}

fn copy(library: &TemplateLibrary) -> TemplateLibrary {
    let mut out = TemplateLibrary::new();
    for t in library.templates() {
        out.add(t.clone());
    }
    out
}

/// Re-verify a seeded sample of accepted and rejected pairs with exact
/// `similarity_probability` against α.
fn verify_sample(ds: &Dataset, result: &PipelineResult, seed: u64, report: &mut Report) {
    let mut rng = SmallRng::seed_from_u64(data::sub_seed(seed, 22));
    let accepted: HashSet<(usize, usize)> = accepted(result).into_iter().collect();
    for _ in 0..SAMPLE_PAIRS.min(result.matches.len()) {
        let m = &result.matches[rng.gen_range(0..result.matches.len())];
        let p = similarity_probability(
            &ds.table,
            &ds.d_graphs[m.q_index],
            &ds.u_graphs[m.g_index],
            TAU,
        );
        report.check((p + 1e-9 < ALPHA).then(|| {
            format!("accepted pair ({}, {}) has SimP {p} < {ALPHA}", m.q_index, m.g_index)
        }));
    }
    // Rejected pairs: half drawn at random, half among pairs whose
    // vertex counts are within τ (the ones the size bound cannot prune).
    let mut checked = 0;
    let mut tries = 0;
    while checked < SAMPLE_PAIRS && tries < SAMPLE_PAIRS * 1000 {
        tries += 1;
        let (q, g) = (rng.gen_range(0..ds.d_len()), rng.gen_range(0..ds.u_len()));
        let near =
            ds.d_graphs[q].vertex_count().abs_diff(ds.u_graphs[g].vertex_count()) <= TAU as usize;
        if accepted.contains(&(q, g)) || (checked % 2 == 1 && !near) {
            continue;
        }
        checked += 1;
        let p = similarity_probability(&ds.table, &ds.d_graphs[q], &ds.u_graphs[g], TAU);
        report.check(
            (p >= ALPHA).then(|| format!("rejected pair ({q}, {g}) has SimP {p} >= {ALPHA}")),
        );
    }
}

/// Check each held-out answer against the linear scan over the server's
/// library, and score them against gold.
fn check_answers(
    ds: &Dataset,
    server: &ShardedQaServer,
    held_out: &[uqsj::workload::QaPair],
    outcomes: &[QaOutcome],
    report: &mut Report,
) {
    let oracle = server.canonical_library();
    let mut scores = Vec::with_capacity(held_out.len());
    for (p, got) in held_out.iter().zip(outcomes) {
        let want = answer_question(&oracle, &ds.kb.lexicon, server.triples(), &p.question, 1.0);
        report.check(
            (want.answers != got.answers || want.sparql != got.sparql)
                .then(|| format!("answer {:?} differs from the linear scan", p.question)),
        );
        scores.push(f1(&got.answers, &gold_answers(server.triples(), p)));
    }
    report.set("answer_f1", mean(&scores));
}

/// Per-layer figures: the join's own counters, a traced split of the
/// pipeline into join and template generation, and each cascade bound
/// timed on a seeded pair sample.
fn trace(
    ds: &Dataset,
    result: &PipelineResult,
    held_out: &[uqsj::workload::QaPair],
    seed: u64,
    report: &mut Report,
) {
    let st = &result.stats;
    report.set("simjoin.prune_s", st.pruning_time.as_secs_f64());
    report.set("simjoin.candidate_ratio", st.candidate_ratio());
    report.set("simjoin.pruned.size", st.pruned_size() as f64);
    report.set("simjoin.pruned.label_multiset", st.pruned_label_multiset() as f64);
    report.set("simjoin.pruned.css", st.pruned_structural() as f64);
    report.set("simjoin.pruned.markov", st.pruned_probabilistic() as f64);
    report.set("uncertain.verify_s", st.verification_time.as_secs_f64());
    report.set("uncertain.accept_ratio", ratio(st.results as f64, st.candidates as f64));
    report.set("uncertain.worlds_verified", st.worlds_verified as f64);
    report.set("ged.expanded_per_world", ratio(st.ged_expanded as f64, st.worlds_verified as f64));

    // The pipeline split in two public calls, the join and then template
    // generation over its matches, against the whole pipeline untimed
    // inside; the fastest of three rounds of each gives the overhead.
    let (mut whole_s, mut join_s, mut generate_s) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let (mut generated, mut distinct) = (0usize, 0usize);
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box(generate_templates(ds, JoinParams::simj(TAU, ALPHA)));
        whole_s = whole_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (matches, _) =
            sim_join(&ds.table, &ds.d_graphs, &ds.u_graphs, JoinParams::simj(TAU, ALPHA));
        join_s = join_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mut library = TemplateLibrary::new();
        generated = 0;
        for m in &matches {
            let source = TemplateSource {
                analysis: &ds.analyses[m.g_index],
                query: &ds.d_queries[m.q_index],
                query_terms: &ds.d_terms[m.q_index],
                mapping: &m.mapping,
                confidence: m.prob,
            };
            if let Some(tpl) = generate_template(&source) {
                generated += 1;
                library.add(tpl);
            }
        }
        generate_s = generate_s.min(t.elapsed().as_secs_f64());
        distinct = library.len();
    }
    report.set("template.generate_s", generate_s);
    report.set("template.distinct_ratio", ratio(distinct as f64, generated as f64));
    report.set("bench.trace_overhead_frac", ratio(join_s + generate_s - whole_s, whole_s));

    // Each cascade stage's public bound on a seeded sample of pairs,
    // one clock read per stage so the timer does not dominate.
    let mut rng = SmallRng::seed_from_u64(data::sub_seed(seed, 23));
    let pairs: Vec<(usize, usize)> = (0..STAGE_PAIRS)
        .map(|_| (rng.gen_range(0..ds.d_len()), rng.gen_range(0..ds.u_len())))
        .collect();
    let bounds = all_bounds();
    for (label, metric) in [
        ("size", "simjoin.stage_ns.size"),
        ("label_multiset", "simjoin.stage_ns.label_multiset"),
        ("css", "simjoin.stage_ns.css"),
    ] {
        let bound = bounds
            .iter()
            .find(|b| b.stage_label() == label)
            .expect("cascade stage in the registry");
        let t = Instant::now();
        for &(q, g) in &pairs {
            std::hint::black_box(bound.uncertain(&ds.table, &ds.d_graphs[q], &ds.u_graphs[g]));
        }
        report.set(metric, t.elapsed().as_secs_f64() * 1e9 / pairs.len() as f64);
    }
    let t = Instant::now();
    for &(q, g) in &pairs {
        std::hint::black_box(ub_simp(&ds.table, &ds.d_graphs[q], &ds.u_graphs[g], TAU));
    }
    report.set("simjoin.stage_ns.markov", t.elapsed().as_secs_f64() * 1e9 / pairs.len() as f64);

    let t = Instant::now();
    for p in held_out {
        std::hint::black_box(analyze_question(&ds.kb.lexicon, &p.question).is_ok());
    }
    report.set("nlp.analyze_us", t.elapsed().as_secs_f64() * 1e6 / held_out.len().max(1) as f64);
}
