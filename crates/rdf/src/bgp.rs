//! Basic-graph-pattern evaluation over the triple store.
//!
//! Two evaluators share this entry point:
//!
//! * [`crate::lftj`] — the default: a leapfrog-triejoin worst-case-optimal
//!   multiway join under a summary-based variable elimination order
//!   ([`crate::plan`]), which never materializes pairwise cross-products.
//! * [`mod@reference`] — the original selectivity-ordered index-nested-loop
//!   evaluator, retained as the differential-test oracle.
//!
//! [`evaluate`] and [`solutions`] always run the leapfrog join;
//! [`evaluate_with`] and [`solutions_with`] take the evaluator explicitly,
//! which is how the differential oracles reach the reference. Both
//! produce identical solution *sets*; the reference may emit duplicate
//! bindings when the store holds duplicate triples, which
//! [`evaluate_with`]'s dedup step absorbs.

pub mod reference;

use crate::dict::TermId;
use crate::lftj;
use crate::obs::rdf_obs;
use crate::plan::q_error;
use crate::store::TripleStore;
use std::collections::HashMap;
use uqsj_sparql::SparqlQuery;

/// One solution: variable name → bound term.
pub type Bindings = HashMap<String, TermId>;

/// Which BGP evaluator answers queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BgpEval {
    /// Leapfrog triejoin under the summary-based plan (default).
    Lftj,
    /// The nested-loop oracle — slower, but obviously correct.
    Reference,
}

impl BgpEval {
    /// Stable label (also the metric label value).
    pub fn label(self) -> &'static str {
        match self {
            Self::Lftj => "lftj",
            Self::Reference => "reference",
        }
    }
}

/// The projected column names of a query: its `SELECT` list, or for
/// `SELECT *` every variable of the pattern, sorted. Derived from the
/// query alone, so an empty solution set still has well-defined columns.
pub fn projection(query: &SparqlQuery) -> Vec<String> {
    if query.select.is_empty() {
        query.variables()
    } else {
        query.select.clone()
    }
}

/// Evaluate a query; returns the projected rows (decoded strings, one
/// column per `SELECT` variable; all pattern variables if `SELECT *`),
/// sorted and deduplicated.
///
/// ```
/// let mut store = uqsj_rdf::TripleStore::new();
/// store.insert("Alice", "type", "Artist");
/// store.insert("Alice", "graduatedFrom", "Harvard_University");
/// store.ensure_indexes();
/// let q = uqsj_sparql::parse(
///     "SELECT ?p WHERE { ?p type Artist . ?p graduatedFrom Harvard_University }",
/// ).unwrap();
/// assert_eq!(uqsj_rdf::bgp::evaluate(&store, &q), vec![vec!["Alice".to_string()]]);
/// ```
pub fn evaluate(store: &TripleStore, query: &SparqlQuery) -> Vec<Vec<String>> {
    evaluate_with(store, query, BgpEval::Lftj)
}

/// All variable bindings satisfying the pattern, via the leapfrog join.
pub fn solutions(store: &TripleStore, query: &SparqlQuery) -> Vec<Bindings> {
    solutions_with(store, query, BgpEval::Lftj)
}

/// As [`evaluate`], with an explicit evaluator choice.
pub fn evaluate_with(store: &TripleStore, query: &SparqlQuery, eval: BgpEval) -> Vec<Vec<String>> {
    let solutions = solutions_with(store, query, eval);
    let projection = projection(query);
    let mut rows: Vec<Vec<String>> = solutions
        .into_iter()
        .map(|b| {
            projection
                .iter()
                .map(|v| b.get(v).map(|&id| store.dict.decode(id).to_owned()).unwrap_or_default())
                .collect()
        })
        .collect();
    rows.sort();
    rows.dedup();
    rows
}

/// As [`solutions`], with an explicit evaluator choice. Records the
/// `uqsj_rdf_*` metric families.
pub fn solutions_with(store: &TripleStore, query: &SparqlQuery, eval: BgpEval) -> Vec<Bindings> {
    let obs = rdf_obs();
    obs.patterns.add(query.triples.len() as u64);
    match eval {
        BgpEval::Reference => {
            obs.queries_reference.inc();
            reference::solutions(store, query)
        }
        BgpEval::Lftj => {
            obs.queries_lftj.inc();
            let (sols, stats) = lftj::solutions_stats(store, query);
            obs.trie_seeks.add(stats.seeks);
            for &s in &stats.per_pattern_seeks {
                obs.pattern_seeks.observe(s);
            }
            let qe = q_error(stats.estimated_rows, stats.rows as f64);
            obs.estimate_qerror_x100.observe((qe * 100.0).ceil().min(1e15) as u64);
            sols
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uqsj_sparql::parse;

    fn store() -> TripleStore {
        let mut s = TripleStore::new();
        s.insert("Alice", "type", "Artist");
        s.insert("Alice", "graduatedFrom", "Harvard_University");
        s.insert("Bob", "type", "Artist");
        s.insert("Bob", "graduatedFrom", "MIT");
        s.insert("Carol", "type", "Politician");
        s.insert("Carol", "graduatedFrom", "Harvard_University");
        s.insert("Harvard_University", "type", "University");
        s.ensure_indexes();
        s
    }

    #[test]
    fn answers_the_papers_intro_query() {
        let s = store();
        let q = parse(
            "SELECT ?person WHERE { ?person type Artist . ?person graduatedFrom Harvard_University . }",
        )
        .unwrap();
        let rows = evaluate(&s, &q);
        assert_eq!(rows, vec![vec!["Alice".to_string()]]);
    }

    #[test]
    fn join_over_shared_variable() {
        let s = store();
        let q = parse(
            "SELECT ?person ?school WHERE { ?person graduatedFrom ?school . ?school type University . }",
        )
        .unwrap();
        let rows = evaluate(&s, &q);
        assert_eq!(rows.len(), 2); // Alice + Carol, both Harvard
        assert!(rows.iter().all(|r| r[1] == "Harvard_University"));
    }

    #[test]
    fn unknown_constant_yields_empty() {
        let s = store();
        let q = parse("SELECT ?x WHERE { ?x type Dragon . }").unwrap();
        assert!(evaluate(&s, &q).is_empty());
    }

    #[test]
    fn repeated_variable_within_triple() {
        let mut s = TripleStore::new();
        s.insert("a", "knows", "a");
        s.insert("a", "knows", "b");
        s.ensure_indexes();
        let q = parse("SELECT ?x WHERE { ?x knows ?x . }").unwrap();
        let rows = evaluate(&s, &q);
        assert_eq!(rows, vec![vec!["a".to_string()]]);
    }

    #[test]
    fn select_star_projects_all_variables_sorted() {
        let s = store();
        let q = parse("SELECT * WHERE { ?p graduatedFrom ?u . ?u type University }").unwrap();
        let rows = evaluate(&s, &q);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 2); // ?p, ?u
    }

    #[test]
    fn select_star_has_columns_even_with_no_solutions() {
        // Regression: the projection used to be derived from
        // `solutions.first()`, so an empty solution set silently lost its
        // column structure. It now comes from the query's variables.
        let empty = TripleStore::new();
        let q = parse("SELECT * WHERE { ?p graduatedFrom ?u . ?u type University }").unwrap();
        assert_eq!(projection(&q), vec!["p".to_string(), "u".into()]);
        let mut s = TripleStore::new();
        s.insert("x", "unrelated", "y");
        s.ensure_indexes();
        assert!(evaluate(&s, &q).is_empty());
        let _ = empty; // no indexes built: projection needs no store
    }

    #[test]
    fn results_are_deduplicated() {
        let mut s = TripleStore::new();
        s.insert("a", "p", "b");
        s.insert("a", "p", "c");
        s.ensure_indexes();
        let q = parse("SELECT ?x WHERE { ?x p ?y . }").unwrap();
        assert_eq!(evaluate(&s, &q).len(), 1);
    }

    #[test]
    fn both_evaluators_agree_through_the_dispatcher() {
        let s = store();
        let q = parse("SELECT * WHERE { ?p graduatedFrom ?u . ?u type University }").unwrap();
        assert_eq!(evaluate_with(&s, &q, BgpEval::Lftj), evaluate_with(&s, &q, BgpEval::Reference));
    }

    #[test]
    fn eval_labels_roundtrip() {
        let labels = [BgpEval::Lftj.label(), BgpEval::Reference.label()];
        assert_eq!(labels, ["lftj", "reference"], "labels are metric values: keep them stable");
        assert_ne!(labels[0], labels[1]);
    }
}
