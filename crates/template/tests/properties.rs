//! Property tests for template machinery: the text format round-trips
//! arbitrary template libraries, and slot filling is consistent with the
//! alignment that produced the slots.

use proptest::prelude::*;
use uqsj_sparql::{SparqlQuery, Term, Triple};
use uqsj_template::io::{from_text, to_text};
use uqsj_template::template::slot_term;
use uqsj_template::{SlotBinding, Template, TemplateLibrary};

const WORDS: [&str; 8] = ["Which", "graduated", "from", "married", "to", "born", "in", "?"];
const PREDICATES: [&str; 4] = ["type", "graduatedFrom", "spouse", "birthPlace"];

#[derive(Clone, Debug)]
struct RawTemplate {
    words: Vec<u8>,
    slot_positions: Vec<u8>,
    predicates: Vec<u8>,
    confidence: f64,
}

fn template_strategy() -> impl Strategy<Value = RawTemplate> {
    (
        prop::collection::vec(0u8..WORDS.len() as u8, 2..8),
        prop::collection::vec(0u8..8, 1..3),
        prop::collection::vec(0u8..PREDICATES.len() as u8, 1..4),
        0.0f64..1.0,
    )
        .prop_map(|(words, slot_positions, predicates, confidence)| RawTemplate {
            words,
            slot_positions,
            predicates,
            confidence,
        })
}

fn build(raw: &RawTemplate) -> Template {
    let mut nl: Vec<String> = raw.words.iter().map(|&i| WORDS[i as usize].to_owned()).collect();
    // Insert slots at (deduplicated, in-range) positions.
    let mut positions: Vec<usize> =
        raw.slot_positions.iter().map(|&p| p as usize % nl.len()).collect();
    positions.sort_unstable();
    positions.dedup();
    for (offset, p) in positions.iter().enumerate() {
        nl.insert(p + offset, "<_>".to_owned());
    }
    let slot_count = positions.len();
    // SPARQL pattern referencing each slot once.
    let mut triples = Vec::new();
    for (i, &p) in raw.predicates.iter().enumerate() {
        let object = if i < slot_count { slot_term(i) } else { Term::Iri("Thing".into()) };
        triples.push(Triple {
            subject: Term::Var("x".into()),
            predicate: Term::Iri(PREDICATES[p as usize].into()),
            object,
        });
    }
    // Any slot beyond the triples count is unbound.
    let slots: Vec<SlotBinding> = (0..slot_count)
        .map(|i| if i < raw.predicates.len() { SlotBinding::Bound } else { SlotBinding::Unbound })
        .collect();
    Template::new(nl, SparqlQuery { select: vec!["x".into()], triples }, slots, raw.confidence)
}

proptest! {
    #[test]
    fn io_roundtrips_arbitrary_libraries(raws in prop::collection::vec(template_strategy(), 1..6)) {
        let mut lib = TemplateLibrary::new();
        for raw in &raws {
            lib.add(build(raw));
        }
        let text = to_text(&lib);
        let parsed = from_text(&text).expect("own output parses");
        prop_assert_eq!(parsed.len(), lib.len());
        for (a, b) in lib.templates().iter().zip(parsed.templates()) {
            prop_assert_eq!(&a.nl_tokens, &b.nl_tokens);
            prop_assert_eq!(&a.sparql, &b.sparql);
            prop_assert_eq!(&a.slots, &b.slots);
            prop_assert!((a.confidence - b.confidence).abs() < 1e-6);
        }
        // Fixpoint.
        prop_assert_eq!(to_text(&parsed), text);
    }

    #[test]
    fn dedup_is_idempotent(raw in template_strategy()) {
        let mut lib = TemplateLibrary::new();
        let t = build(&raw);
        prop_assert!(lib.add(t.clone()));
        prop_assert!(!lib.add(t));
        prop_assert_eq!(lib.len(), 1);
    }
}

/// The pre-index `TemplateLibrary::add`: a linear scan comparing every
/// stored template's dedup key. The oracle for the hashed library.
fn reference_add(lib: &mut Vec<Template>, t: Template) -> bool {
    let key = t.dedup_key();
    if let Some(existing) = lib.iter_mut().find(|x| x.dedup_key() == key) {
        if t.confidence > existing.confidence {
            existing.confidence = t.confidence;
        }
        return false;
    }
    lib.push(t);
    true
}

proptest! {
    /// Streams drawn from a small pool repeat keys often; each insert
    /// either ties the pool entry's confidence, rises with the stream
    /// position, or takes one of a few shared values.
    #[test]
    fn hashed_dedup_matches_linear_scan(
        pool in prop::collection::vec(template_strategy(), 1..6),
        stream in prop::collection::vec((0usize..6, 0u8..3, 0usize..4), 1..40),
    ) {
        const SHARED: [f64; 4] = [0.25, 0.5, 0.5, 0.9];
        let pool: Vec<Template> = pool.iter().map(build).collect();
        let mut lib = TemplateLibrary::new();
        let mut reference = Vec::new();
        for (i, &(pick, kind, shared)) in stream.iter().enumerate() {
            let mut t = pool[pick % pool.len()].clone();
            t.confidence = match kind {
                0 => t.confidence,
                1 => i as f64 / stream.len() as f64,
                _ => SHARED[shared],
            };
            prop_assert_eq!(lib.add(t.clone()), reference_add(&mut reference, t), "insert {}", i);
        }
        prop_assert_eq!(lib.len(), reference.len());
        for (a, b) in lib.templates().iter().zip(&reference) {
            prop_assert_eq!(a.dedup_key(), b.dedup_key());
            prop_assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
    }
}
