//! Engine lifecycle: initialization, snapshot round-trip, WAL replay,
//! and compaction generation rotation.

mod common;

use common::{assert_same_library, scratch_dir, small_state, template};
use std::fs;
use uqsj_storage::StorageEngine;

#[test]
fn fresh_directory_initializes_empty_generation_zero() {
    let dir = scratch_dir("fresh");
    let (engine, recovered) = StorageEngine::open(&dir).expect("open fresh");
    assert_eq!(engine.generation(), 0);
    assert!(recovered.state.library.is_empty());
    assert!(recovered.state.triples.is_empty());
    assert_eq!(recovered.wal_records, 0);
    // A second open sees the same (still empty) generation.
    drop(engine);
    let (engine, recovered) = StorageEngine::open(&dir).expect("reopen");
    assert_eq!(engine.generation(), 0);
    assert!(recovered.state.library.is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_and_wal_replay_roundtrip_the_full_state() {
    let dir = scratch_dir("roundtrip");
    let state = small_state();
    let (mut engine, _) = StorageEngine::open(&dir).expect("open");
    engine.compact(&state.library, &state.lexicon, &state.triples).expect("compact");
    assert_eq!(engine.generation(), 1);

    let extra = template(&["Who", "directed", "<_>", "?"], "director", 0.9);
    engine.append_templates(std::slice::from_ref(&extra)).expect("append");
    drop(engine);

    let (engine, recovered) = StorageEngine::open(&dir).expect("recover");
    assert_eq!(engine.generation(), 1);
    assert_eq!(recovered.wal_records, 1);
    assert_eq!(recovered.wal_torn_bytes, 0);
    let mut want = uqsj_template::TemplateLibrary::new();
    for t in state.library.templates() {
        want.add(t.clone());
    }
    want.add(extra);
    assert_same_library(&recovered.state.library, &want, "snapshot + wal replay");
    assert_eq!(recovered.state.lexicon.class_nouns, state.lexicon.class_nouns);
    assert_eq!(recovered.state.lexicon.surface_forms, state.lexicon.surface_forms);
    assert_eq!(recovered.state.triples.triples(), state.triples.triples());
    // Confidences survive bit-exactly (the text format rounds them).
    for (a, b) in recovered.state.library.templates().iter().zip(want.templates()) {
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compaction_folds_the_wal_and_rotates_generations() {
    let dir = scratch_dir("compact");
    let state = small_state();
    let (mut engine, _) = StorageEngine::open(&dir).expect("open");
    engine.compact(&state.library, &state.lexicon, &state.triples).expect("seed");

    let extra = template(&["Who", "directed", "<_>", "?"], "director", 0.9);
    engine.append_templates(std::slice::from_ref(&extra)).expect("append");
    drop(engine);

    // Recover (snapshot gen 1 + 1 WAL record), then compact the merged
    // state into generation 2.
    let (mut engine, recovered) = StorageEngine::open(&dir).expect("recover");
    let merged = recovered.state;
    let new_generation =
        engine.compact(&merged.library, &merged.lexicon, &merged.triples).expect("compact merged");
    assert_eq!(new_generation, 2);
    drop(engine);

    let (engine, recovered) = StorageEngine::open(&dir).expect("reopen gen 2");
    assert_eq!(engine.generation(), 2);
    assert_eq!(recovered.wal_records, 0, "wal was folded into the snapshot");
    assert_same_library(&recovered.state.library, &merged.library, "compacted state");

    // Exactly one generation's files remain (plus CURRENT).
    let names: Vec<String> = fs::read_dir(&dir)
        .expect("read dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    let snapshots = names.iter().filter(|n| n.starts_with("snapshot-")).count();
    let wals = names.iter().filter(|n| n.starts_with("wal-")).count();
    assert_eq!((snapshots, wals), (1, 1), "stale generations left behind: {names:?}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_templates_recover_the_same_library() {
    let dir = scratch_dir("duplicates");
    let a = |c| template(&["Which", "<_>", "graduated", "from", "<_>", "?"], "graduatedFrom", c);
    let b = |c| template(&["Who", "is", "married", "to", "<_>", "?"], "spouse", c);
    let c = |c| template(&["Who", "directed", "<_>", "?"], "director", c);
    // The snapshot holds a deduplicated prefix of the stream; the WAL
    // batch repeats snapshot keys and its own keys, with lower, tied and
    // higher confidences.
    let snapshot_part = [a(0.5), b(0.6), a(0.4)];
    let wal_batch = [c(0.3), a(0.9), b(0.6), c(0.7), b(0.2), c(0.7)];
    let mut want = uqsj_template::TemplateLibrary::new();
    for t in snapshot_part.iter().chain(&wal_batch) {
        want.add(t.clone());
    }
    let bits = |l: &uqsj_template::TemplateLibrary| {
        l.templates().iter().map(|t| t.confidence.to_bits()).collect::<Vec<_>>()
    };
    // First-seen order, each key at its highest confidence.
    assert_eq!(bits(&want), [0.9f64, 0.6, 0.7].map(f64::to_bits));
    assert_eq!(want.templates()[2].sparql, c(0.0).sparql);

    let mut state = small_state();
    state.library = uqsj_template::TemplateLibrary::new();
    for t in &snapshot_part {
        state.library.add(t.clone());
    }
    let (mut engine, _) = StorageEngine::open(&dir).expect("open");
    engine.compact(&state.library, &state.lexicon, &state.triples).expect("snapshot");
    engine.append_templates(&wal_batch).expect("append batch");
    drop(engine);

    // WAL replay over the snapshot.
    let (mut engine, recovered) = StorageEngine::open(&dir).expect("recover");
    assert_eq!(recovered.wal_records, wal_batch.len());
    assert_same_library(&recovered.state.library, &want, "wal replay of duplicates");
    assert_eq!(bits(&recovered.state.library), bits(&want));

    // Snapshot round trip of the merged library.
    let merged = recovered.state;
    engine.compact(&merged.library, &merged.lexicon, &merged.triples).expect("compact");
    drop(engine);
    let (_, reopened) = StorageEngine::open(&dir).expect("reopen");
    assert_eq!(reopened.wal_records, 0);
    assert_same_library(&reopened.state.library, &want, "snapshot round trip");
    assert_eq!(bits(&reopened.state.library), bits(&want));
    let _ = fs::remove_dir_all(&dir);
}
