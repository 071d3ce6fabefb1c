//! A malformed command line is refused, never silently defaulted: a
//! value that does not parse, a flag without a value, and an unknown
//! `--strategy`, `--cascade` or `--simp-mode` choice each exit with
//! status 2 and a message naming the flag.

use std::process::{Command, Output};

const CLI: &str = env!("CARGO_BIN_EXE_uqsj-cli");

fn run(args: &[&str]) -> Output {
    Command::new(CLI).args(args).output().expect("spawn uqsj-cli")
}

fn assert_usage_error(args: &[&str], flag: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "uqsj-cli {args:?} should be refused; stderr: {stderr}");
    assert!(stderr.contains(flag), "uqsj-cli {args:?}: message {stderr:?} does not name {flag}");
    assert!(out.stdout.is_empty(), "uqsj-cli {args:?} ran before refusing");
}

#[test]
fn unparsable_numbers_are_refused() {
    assert_usage_error(&["join", "--questions", "40x", "--tau", "1"], "--questions");
    assert_usage_error(&["join", "--questions", "20", "--tau", "-1"], "--tau");
    assert_usage_error(&["join", "--alpha", "high"], "--alpha");
    let out_dir = std::env::temp_dir().join(format!("uqsj-cli-usage-{}", std::process::id()));
    let out_dir = out_dir.to_str().expect("utf-8 temp path");
    assert_usage_error(&["generate", "--out-dir", out_dir, "--seed", "1.5"], "--seed");
    assert!(!std::path::Path::new(out_dir).exists(), "generate created {out_dir} before refusing");
}

#[test]
fn a_flag_without_a_value_is_refused() {
    assert_usage_error(&["join", "--questions", "20", "--distractors"], "--distractors");
    assert_usage_error(&["join", "--tau", "--alpha", "0.5"], "--tau");
}

#[test]
fn unknown_choices_are_refused() {
    assert_usage_error(&["join", "--strategy", "fast"], "--strategy");
    assert_usage_error(&["join", "--cascade", "random"], "--cascade");
    assert_usage_error(&["join", "--simp-mode", "approx"], "--simp-mode");
}

#[test]
fn a_well_formed_join_still_runs() {
    let out = run(&[
        "join",
        "--questions",
        "12",
        "--distractors",
        "6",
        "--tau",
        "1",
        "--cascade",
        "adaptive",
        "--calibration-pairs",
        "8",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cascade plan (Adaptive mode)"), "{stdout}");
}
