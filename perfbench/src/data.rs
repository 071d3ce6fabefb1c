//! Seeded inputs: knowledge bases, mining datasets, held-out questions
//! and their gold answers. The same seed always gives the same inputs;
//! the program under test only ever sees the generated data.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;
use uqsj::rdf::{bgp, BgpEval, TripleStore};
use uqsj::serve::cache::normalize_question;
use uqsj::workload::datasets::assemble_dataset;
use uqsj::workload::{generate_pairs, Dataset, KbConfig, KnowledgeBase, QaPair, QuestionConfig};

/// The serving knowledge base: the WebQ-like open domain scaled up from
/// the default (150 instead of 30 entities per class), so held-out
/// questions are plentiful and BGP evaluation carries real weight.
pub const SERVE_KB: KbConfig = KbConfig {
    entities_per_class: 150,
    ambiguous_forms: 150,
    labels_per_form: 4,
    facts_per_entity: 3,
    domain: &[],
};

/// The mining workload's knowledge base: the WebQ-like defaults.
pub const MINE_KB: KbConfig = KbConfig {
    entities_per_class: 40,
    ambiguous_forms: 150,
    labels_per_form: 4,
    facts_per_entity: 3,
    domain: &[],
};

/// Questions and distractor queries of a serving library's mining run.
pub const SERVE_MINE_QUESTIONS: usize = 400;
pub const SERVE_MINE_DISTRACTORS: usize = 800;

/// Seed of the knowledge bases and of the serving libraries' mining
/// runs. They stay fixed across `--seed` values, the way a deployed KB
/// and template library do: `--seed` varies the traffic (and the mining
/// workload's questions), so the spread between seeds measures the
/// system rather than a different library each time.
pub const FIXED_SEED: u64 = 2015;

/// Derive an independent sub-seed, so the KB, the training questions
/// and the held-out questions never share a random stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A knowledge base of the given shape, generated from [`FIXED_SEED`].
pub fn fixed_kb(cfg: &KbConfig) -> KnowledgeBase {
    KnowledgeBase::generate(cfg, &mut SmallRng::seed_from_u64(sub_seed(FIXED_SEED, 1)))
}

/// A mining dataset over `kb`: `questions` training questions from
/// random stream `stream`, joined against their gold queries plus
/// `distractors` extra queries.
pub fn mining_dataset(
    kb: KnowledgeBase,
    seed: u64,
    stream: u64,
    questions: usize,
    distractors: usize,
) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, stream));
    let cfg = QuestionConfig { count: questions, ..QuestionConfig::default() };
    let pairs = generate_pairs(&kb, &cfg, &mut rng);
    assemble_dataset(kb, pairs, distractors, cfg.max_relations, &mut rng)
}

/// `n` held-out questions over `kb`, pairwise distinct after the answer
/// cache's normalization and disjoint from `exclude` (normalized). Fewer
/// are returned only if the KB cannot produce `n` distinct questions.
pub fn held_out(kb: &KnowledgeBase, seed: u64, n: usize, exclude: &HashSet<String>) -> Vec<QaPair> {
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 7));
    let mut seen = exclude.clone();
    let mut out = Vec::with_capacity(n);
    for _ in 0..8 {
        let cfg = QuestionConfig { count: (n - out.len()) * 2 + 64, ..QuestionConfig::default() };
        for p in generate_pairs(kb, &cfg, &mut rng) {
            if out.len() < n && seen.insert(normalize_question(&p.question)) {
                out.push(p);
            }
        }
        if out.len() >= n {
            break;
        }
    }
    out
}

/// Normalized texts of a dataset's training questions.
pub fn question_keys(dataset: &Dataset) -> HashSet<String> {
    dataset.pairs.iter().map(|p| normalize_question(&p.question)).collect()
}

/// Gold answers of a question: its gold SPARQL evaluated by the
/// reference (nested-loop) evaluator, rows joined the way the serving
/// path joins them.
pub fn gold_answers(store: &TripleStore, pair: &QaPair) -> Vec<String> {
    bgp::evaluate_with(store, &pair.sparql, BgpEval::Reference)
        .into_iter()
        .map(|row| row.join("\t"))
        .collect()
}

/// F1 of one returned answer set against gold: 1 when both are empty,
/// 0 when exactly one is.
pub fn f1(returned: &[String], gold: &[String]) -> f64 {
    if returned.is_empty() && gold.is_empty() {
        return 1.0;
    }
    let gold_set: HashSet<&String> = gold.iter().collect();
    let returned_set: HashSet<&String> = returned.iter().collect();
    let hits = returned_set.iter().filter(|a| gold_set.contains(*a)).count() as f64;
    if hits == 0.0 {
        return 0.0;
    }
    let precision = hits / returned_set.len() as f64;
    let recall = hits / gold_set.len() as f64;
    2.0 * precision * recall / (precision + recall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_edges() {
        let a = vec!["x".to_owned()];
        assert_eq!(f1(&[], &[]), 1.0);
        assert_eq!(f1(&a, &[]), 0.0);
        assert_eq!(f1(&a, &a), 1.0);
        let ab = vec!["x".to_owned(), "y".to_owned()];
        assert!((f1(&a, &ab) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn held_out_is_distinct_and_deterministic() {
        let kb = fixed_kb(&SERVE_KB);
        let a = held_out(&kb, 3, 300, &HashSet::new());
        let b = held_out(&kb, 3, 300, &HashSet::new());
        assert_eq!(a.len(), 300);
        let keys: HashSet<String> = a.iter().map(|p| normalize_question(&p.question)).collect();
        assert_eq!(keys.len(), 300);
        assert!(a.iter().zip(&b).all(|(x, y)| x.question == y.question));
    }
}
