//! The metric catalogue, the per-run report, and `BENCHMARK.json`.
//!
//! Every name the benchmark prints is declared here once, with its unit
//! and direction; `--manifest` renders the same catalogue as
//! `BENCHMARK.json`, so the manifest and the output cannot drift apart.

use crate::stats::median;
use std::fmt::Write as _;

/// `(name, why)` of each workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "mine",
        "offline SimJ template mining (Sec. 2.1): simjoin, ged, uncertain and template generation \
         do the work; net, cache and storage do none",
    ),
    (
        "serve_cold",
        "open-loop HTTP answers of distinct held-out questions: every request misses the cache, so \
         nlp, filter, align, TED, slot fill and BGP do the work",
    ),
    (
        "serve_mixed",
        "open-loop HTTP mix of Zipf-repeated questions, cold ones, batches and ingests of new \
         templates on a durable server: cache, net, batch and WAL dominate",
    ),
];

/// `(name, unit, better, bound)` of each end-to-end metric. Every
/// workload reports every one of them.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_frac", "ratio", "higher", 0.01),
    ("mine_s", "s", "lower", 0.25),
    ("mine_precision", "ratio", "higher", 0.15),
    ("answer_p50_us", "us", "lower", 0.25),
    ("answer_f1", "ratio", "higher", 0.15),
];

/// `(name, unit, better)` of each per-layer metric, keyed by crate. A
/// layer that does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("http.answer_p90_us", "us", "lower"),
    ("http.answer_p99_us", "us", "lower"),
    ("http.answer_p50_worst_us", "us", "lower"),
    ("http.slo_qps", "1/s", "higher"),
    ("http.capacity_qps", "1/s", "higher"),
    ("http.ingest_p50_us", "us", "lower"),
    ("http.ingest_p90_us", "us", "lower"),
    ("net.overhead_p50_us", "us", "lower"),
    ("net.json_parse_us", "us", "lower"),
    ("net.shed_frac", "ratio", "lower"),
    ("net.deadline_frac", "ratio", "lower"),
    ("serve.answer_p50_us", "us", "lower"),
    ("serve.answer_p99_us", "us", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.cache_us", "us", "lower"),
    ("serve.bookkeeping_us", "us", "lower"),
    ("serve.filter_us", "us", "lower"),
    ("serve.candidates_per_q", "count", "lower"),
    ("serve.filter_precision", "ratio", "higher"),
    ("serve.insert_us", "us", "lower"),
    ("serve.batch_us", "us", "lower"),
    ("nlp.tokenize_us", "us", "lower"),
    ("nlp.signature_us", "us", "lower"),
    ("nlp.deptree_us", "us", "lower"),
    ("nlp.ted_us", "us", "lower"),
    ("nlp.ted_per_q", "count", "lower"),
    ("nlp.analyze_us", "us", "lower"),
    ("template.align_us", "us", "lower"),
    ("template.align_hit_ratio", "ratio", "higher"),
    ("template.rank_us", "us", "lower"),
    ("template.rank_self_us", "us", "lower"),
    ("template.generate_s", "s", "lower"),
    ("template.distinct_ratio", "ratio", "higher"),
    ("template.io_parse_us", "us", "lower"),
    ("rdf.bgp_us", "us", "lower"),
    ("rdf.rows_per_q", "count", "lower"),
    ("rdf.store_build_s", "s", "lower"),
    ("storage.journal_us", "us", "lower"),
    ("storage.bytes_per_template", "B/B", "lower"),
    ("storage.recover_s", "s", "lower"),
    ("simjoin.prune_s", "s", "lower"),
    ("simjoin.candidate_ratio", "ratio", "lower"),
    ("simjoin.pruned.size", "count", "higher"),
    ("simjoin.pruned.label_multiset", "count", "higher"),
    ("simjoin.pruned.css", "count", "higher"),
    ("simjoin.pruned.markov", "count", "higher"),
    ("simjoin.stage_ns.size", "ns", "lower"),
    ("simjoin.stage_ns.label_multiset", "ns", "lower"),
    ("simjoin.stage_ns.css", "ns", "lower"),
    ("simjoin.stage_ns.markov", "ns", "lower"),
    ("uncertain.verify_s", "s", "lower"),
    ("uncertain.accept_ratio", "ratio", "higher"),
    ("uncertain.worlds_verified", "count", "lower"),
    ("ged.expanded_per_world", "count", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.generator_lag_p99_us", "us", "lower"),
    ("bench.layer_sum_gap_frac", "ratio", "lower"),
];

/// Seconds one run measures, passed as `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// What one run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: requests, join repetitions, checks.
    pub attempted: u64,
    /// Operations that failed: non-2xx, transport errors, wrong answers.
    pub failed: u64,
    /// The first few failure descriptions (printed to stderr).
    failures: Vec<String>,
    /// Metric values by name.
    values: Vec<(&'static str, f64)>,
    /// Workload configuration and sizes, printed with the result.
    pub provenance: Vec<(String, String)>,
}

impl Report {
    /// Count one attempted operation, failed when `error` is `Some`.
    pub fn check(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }

    /// Set a metric (end-to-end or per-layer) by its catalogue name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not in the catalogue"
        );
        if let Some(slot) = self.values.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.values.push((name, value));
        }
    }

    /// A metric's value, 0 when the run did not set it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }

    /// Record a provenance field.
    pub fn note(&mut self, key: impl ToString, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Set a timed metric scaled to the nominal machine speed: its
    /// unscaled value (combined over repetitions by the caller) times the
    /// median of the speed factors taken around the repetitions. Both go
    /// into the provenance as `<name>_unscaled` and `<name>_speed_factor`.
    pub fn set_scaled(&mut self, name: &'static str, raw: f64, factors: &[f64]) {
        let factor = median(factors);
        self.set(name, raw * factor);
        self.note(format!("{name}_unscaled"), format!("{raw:.6}"));
        self.note(format!("{name}_speed_factor"), format!("{factor:.3}"));
    }

    /// Print provenance, the per-layer table when traced, and the result
    /// line (last line of stdout).
    pub fn print(&self, traced: bool) {
        for f in &self.failures {
            eprintln!("FAILED: {f}");
        }
        let mut prov = String::from("{\"provenance\":{");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            if i > 0 {
                prov.push(',');
            }
            let _ = write!(prov, "{}:{}", json_string(k), json_string(v));
        }
        prov.push_str("}}");
        println!("{prov}");

        let mut metrics = Vec::new();
        if traced {
            println!("{:<34} {:>16}  unit", "layer metric", "value");
            for &(name, unit, _) in PER_LAYER {
                let v = self.get(name);
                println!("{name:<34} {v:>16.4}  {unit}");
                metrics.push((name, v, unit));
            }
        } else {
            for &(name, unit, _, _) in END_TO_END {
                metrics.push((name, self.get(name), unit));
            }
        }
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, v, unit)) in metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                num(*v),
                json_string(unit)
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// A finite JSON number with every digit kept.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`, rendered from the catalogue.
pub fn manifest() -> String {
    let mut out = String::from("{\n  \"command\": [");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    out.push_str(&command.iter().map(|c| json_string(c)).collect::<Vec<_>>().join(", "));
    out.push_str("],\n  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, w)| format!("    {{\"name\": {}, \"why\": {}}}", json_string(n), json_string(w)))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                json_string(n),
                json_string(u),
                json_string(b)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(n),
                json_string(u),
                json_string(b)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Peak resident set (`VmHWM`) of this process in MB, 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit this checkout was taken from, read from `.git` when the
/// checkout is a git work tree.
pub fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let mut seen = std::collections::HashSet::new();
        for n in names {
            assert!(seen.insert(n), "{n} used twice");
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200));
    }
}
