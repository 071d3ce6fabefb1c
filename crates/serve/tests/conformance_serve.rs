//! Serving-layer conformance: restart and compaction answer equivalence
//! on the *testkit*'s seeded Q/A dataset, so the serving checks replay
//! from the same seed discipline as the rest of the conformance suite.

use std::path::PathBuf;
use uqsj_rdf::{bgp, BgpEval};
use uqsj_serve::{Ingestor, ServeConfig, ShardedQaServer};
use uqsj_simjoin::{sim_join, JoinParams};
use uqsj_template::{generate_template, QaOutcome, TemplateLibrary, TemplateSource};
use uqsj_testkit::gen::qa_dataset;
use uqsj_workload::Dataset;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uqsj-conf-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn batch_library(dataset: &Dataset, n: usize, params: JoinParams) -> TemplateLibrary {
    let (matches, _) = sim_join(&dataset.table, &dataset.d_graphs, &dataset.u_graphs[..n], params);
    let mut library = TemplateLibrary::new();
    for m in &matches {
        let source = TemplateSource {
            analysis: &dataset.analyses[m.g_index],
            query: &dataset.d_queries[m.q_index],
            query_terms: &dataset.d_terms[m.q_index],
            mapping: &m.mapping,
            confidence: m.prob,
        };
        if let Some(t) = generate_template(&source) {
            library.add(t);
        }
    }
    library
}

fn clone_library(library: &TemplateLibrary) -> TemplateLibrary {
    let mut clone = TemplateLibrary::new();
    for t in library.templates() {
        clone.add(t.clone());
    }
    clone
}

fn assert_same_outcome(got: &QaOutcome, want: &QaOutcome, context: &str) {
    assert_eq!(
        got.sparql.as_ref().map(ToString::to_string),
        want.sparql.as_ref().map(ToString::to_string),
        "sparql diverged: {context}"
    );
    assert_eq!(got.answers, want.answers, "answers diverged: {context}");
    assert_eq!(got.template_index, want.template_index, "template diverged: {context}");
    assert!((got.phi - want.phi).abs() < 1e-12, "phi diverged: {context}");
}

/// Restart + compaction equivalence on the conformance dataset: an
/// in-memory baseline, a durable server that restarts, and a durable
/// server that compacts mid-stream must answer every replayed question
/// identically.
#[test]
fn restart_and_compaction_preserve_answers_on_testkit_dataset() {
    let dataset = qa_dataset(4242, 40, 25);
    let params = JoinParams::simj(1, 0.5);
    let seed = 20usize;
    let library = batch_library(&dataset, seed, params);
    assert!(!library.is_empty(), "no templates generated from the testkit dataset");
    let lexicon = dataset.kb.lexicon.clone();
    let config = ServeConfig { min_phi: 1.0, cache_capacity: 64 };

    let baseline = ShardedQaServer::new(
        clone_library(&library),
        lexicon.clone(),
        dataset.kb.triple_store(),
        1,
        config,
    );
    let restart_dir = scratch_dir("restart");
    let compact_dir = scratch_dir("compact");
    let create = |dir| {
        ShardedQaServer::create(
            dir,
            clone_library(&library),
            lexicon.clone(),
            dataset.kb.triple_store(),
            1,
            1,
            config,
        )
    };
    let durable = create(&restart_dir).expect("bootstrap restart dir");
    let compacting = create(&compact_dir).expect("bootstrap compact dir");

    let mut ingestor = Ingestor::new(
        dataset.table.clone(),
        dataset.d_graphs.clone(),
        dataset.d_queries.clone(),
        dataset.d_terms.clone(),
        params,
        seed,
    );
    let mut ingested = 0usize;
    for (i, pair) in dataset.pairs[seed..].iter().enumerate() {
        let Ok(outcome) = ingestor.ingest(&lexicon, &pair.question) else {
            continue;
        };
        ingested += outcome.templates.len();
        baseline.insert_templates(outcome.templates.clone()).expect("in-memory insert");
        durable.insert_templates(outcome.templates.clone()).expect("journaled insert");
        compacting.insert_templates(outcome.templates).expect("journaled insert");
        // Compact mid-stream a couple of times, with live WAL entries on
        // both sides of each compaction.
        if i % 7 == 3 {
            compacting.compact().expect("mid-stream compaction");
        }
    }
    assert!(ingested > 0, "ingestion produced no templates");
    assert_eq!(baseline.template_count(), durable.template_count());
    assert_eq!(baseline.template_count(), compacting.template_count());

    // Crash-drop both durable servers and recover from disk; the
    // compacted directory must recover past its folded generations too.
    drop(durable);
    drop(compacting);
    let reopened = ShardedQaServer::open(&restart_dir, config).expect("recover restart dir");
    let recompacted = ShardedQaServer::open(&compact_dir, config).expect("recover compact dir");
    assert_eq!(reopened.template_count(), baseline.template_count());
    assert_eq!(recompacted.template_count(), baseline.template_count());
    assert!(
        recompacted.storage_generations() > reopened.storage_generations(),
        "compaction never advanced the snapshot generation"
    );

    let base: Vec<&str> = dataset.pairs.iter().map(|p| p.question.as_str()).collect();
    for i in 0..120usize {
        let question = if i % 17 == 0 {
            format!("Name every mountain on planet number {}", i % 5)
        } else {
            base[i % base.len()].to_owned()
        };
        let want = baseline.answer(&question).outcome;
        let restarted = reopened.answer(&question).outcome;
        assert_same_outcome(&restarted, &want, &format!("restart q{i}"));
        let compacted = recompacted.answer(&question).outcome;
        assert_same_outcome(&compacted, &want, &format!("compaction q{i}"));
    }

    let _ = std::fs::remove_dir_all(&restart_dir);
    let _ = std::fs::remove_dir_all(&compact_dir);
}

/// Every served answer must equal what the nested-loop reference
/// evaluator returns for the outcome's own SPARQL — on the single-question
/// path and on the batch path. The serving-layer face of the
/// lftj ≡ reference oracle.
#[test]
fn served_answers_equal_the_reference_evaluator() {
    let dataset = qa_dataset(77, 30, 20);
    let params = JoinParams::simj(1, 0.5);
    let library = batch_library(&dataset, dataset.pairs.len(), params);
    assert!(!library.is_empty(), "no templates generated from the testkit dataset");
    let triples = dataset.kb.triple_store();
    let server = ShardedQaServer::new(
        library,
        dataset.kb.lexicon.clone(),
        dataset.kb.triple_store(),
        1,
        ServeConfig { min_phi: 1.0, cache_capacity: 0 },
    );
    let assert_reference = |got: &QaOutcome, context: &str| {
        let Some(sparql) = &got.sparql else { return };
        let want: Vec<String> = bgp::evaluate_with(&triples, sparql, BgpEval::Reference)
            .into_iter()
            .map(|row| row.join("\t"))
            .collect();
        assert_eq!(got.answers, want, "answers diverged from the reference: {context}");
    };

    let mut with_sparql = 0usize;
    for (i, pair) in dataset.pairs.iter().enumerate() {
        let got = server.answer(&pair.question).outcome;
        with_sparql += usize::from(got.sparql.is_some());
        assert_reference(&got, &format!("q{i}"));
    }
    assert!(with_sparql > 0, "no question reached BGP evaluation");
    let questions: Vec<String> = dataset.pairs.iter().map(|p| p.question.clone()).collect();
    for (i, got) in server.answer_batch(&questions, 4).iter().enumerate() {
        assert_reference(got, &format!("batch q{i}"));
    }
}
