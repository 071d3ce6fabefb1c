//! The CLI's one data-directory layout, end to end: `generate` →
//! `snapshot` → `serve --data-dir` must print exactly what
//! `answer_question` returns over the generated text artifacts, before
//! and after `compact`; a directory in any other layout is refused with
//! an error naming the missing `SHARDS` file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use uqsj::prelude::*;
use uqsj::storage::StorageEngine;

const CLI: &str = env!("CARGO_BIN_EXE_uqsj-cli");

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uqsj-cli-data-dir-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(args: &[&str], stdin: &str) -> Output {
    use std::io::Write;
    let mut child = Command::new(CLI)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn uqsj-cli");
    child.stdin.take().expect("stdin").write_all(stdin.as_bytes()).expect("write stdin");
    child.wait_with_output().expect("wait for uqsj-cli")
}

fn run_ok(args: &[&str], stdin: &str) -> String {
    let out = run(args, stdin);
    assert!(
        out.status.success(),
        "uqsj-cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The text artifacts `generate` wrote, loaded the way the CLI loads them.
fn load_artifacts(dir: &Path) -> (TemplateLibrary, uqsj::nlp::Lexicon, uqsj::rdf::TripleStore) {
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("read artifact");
    let library = uqsj::template::io::from_text(&read("templates.txt")).expect("templates");
    let lexicon = uqsj::nlp::lexicon_io::from_text(&read("lexicon.txt")).expect("lexicon");
    let mut triples = uqsj::rdf::TripleStore::new();
    uqsj::rdf::ntriples::load_str(&mut triples, &read("kb.nt")).expect("kb");
    (library, lexicon, triples)
}

/// One `serve` answer line per question, as the CLI prints it.
fn answer_line(question: &str, outcome: &uqsj::template::QaOutcome) -> String {
    let index = outcome.template_index.unwrap_or(0);
    match (&outcome.sparql, outcome.answers.is_empty()) {
        (None, _) => format!("{question}\t-\t(no template matched)"),
        (Some(_), true) => format!("{question}\t#{index}\t(no answers)"),
        (Some(_), false) => format!("{question}\t#{index}\t{}", outcome.answers.join("|")),
    }
}

fn answer_lines(stdout: &str) -> Vec<&str> {
    stdout.lines().filter(|l| l.contains('\t')).collect()
}

#[test]
fn snapshot_serves_what_the_artifacts_answer_and_old_layouts_are_refused() {
    let root = scratch_dir("roundtrip");
    let art = root.join("art");
    let data = root.join("data");
    let (art_s, data_s) = (art.to_str().expect("utf-8 path"), data.to_str().expect("utf-8 path"));
    run_ok(&["generate", "--out-dir", art_s, "--questions", "40", "--distractors", "30"], "");
    run_ok(&["snapshot", "--dir", art_s, "--data-dir", data_s], "");
    assert!(data.join("SHARDS").exists(), "snapshot must write the sharded layout");

    // The generated workload's own questions (same seed and size as the
    // `generate` run above) plus one no template matches.
    let dataset =
        qald_like(&DatasetConfig { questions: 40, distractors: 30, ..Default::default() });
    let mut questions: Vec<String> =
        dataset.pairs.iter().take(12).map(|p| p.question.clone()).collect();
    questions.push("Name every mountain on planet number 3".to_owned());
    let (library, lexicon, triples) = load_artifacts(&art);
    let want: Vec<String> = questions
        .iter()
        .map(|q| answer_line(q, &answer_question(&library, &lexicon, &triples, q, 1.0)))
        .collect();
    assert!(
        want.iter().any(|l| !l.ends_with("(no answers)") && !l.ends_with("(no template matched)")),
        "no question returns answers, so the comparison proves little: {want:#?}"
    );
    assert!(want.iter().any(|l| l.ends_with("(no template matched)")));

    let stdin = questions.join("\n");
    let served = run_ok(&["serve", "--data-dir", data_s, "--threads", "2"], &stdin);
    assert!(served.contains(&format!("recovered {} templates", library.len())), "{served}");
    assert_eq!(answer_lines(&served), want, "serve --data-dir diverged from the artifacts");

    run_ok(&["compact", "--data-dir", data_s], "");
    let compacted = run_ok(&["serve", "--data-dir", data_s], &stdin);
    assert_eq!(answer_lines(&compacted), want, "answers changed across compaction");

    // A directory in the retired single-store layout: a storage
    // generation directly under the data dir, no SHARDS file.
    let old = root.join("old");
    let (mut engine, _) = StorageEngine::open(&old).expect("open single store");
    engine.compact(&library, &lexicon, &triples).expect("write single store");
    drop(engine);
    let refused = run(&["serve", "--data-dir", old.to_str().expect("utf-8 path")], &stdin);
    assert!(!refused.status.success(), "an old-layout directory must be refused");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("SHARDS") && stderr.contains("snapshot"), "unhelpful error: {stderr}");
    let _ = std::fs::remove_dir_all(&root);
}
