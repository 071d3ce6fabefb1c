//! The lexicon: everything the question pipeline knows about language.
//!
//! The paper's pipeline leans on three external resources: a class
//! vocabulary, a relation-paraphrase dictionary (gAnswer's graph-mined
//! phrases \[33\]) and an entity linker with confidence scores \[4\]. The
//! lexicon packages all three; workload generators construct it together
//! with the synthetic knowledge base so that questions, SPARQL queries and
//! RDF data agree.

use std::collections::HashMap;

/// One candidate resolution of an entity surface form, with the linker's
/// confidence. Confidences of one surface form sum to at most 1.
#[derive(Clone, Debug, PartialEq)]
pub struct EntityCandidate {
    /// The knowledge-base entity (e.g. `Michael_Jordan_basketball`).
    pub entity: String,
    /// Its class (e.g. `NBA_Player`) — the label the uncertain graph
    /// vertex takes (Sec. 2.1: "We use the corresponding type of entities
    /// to denote the vertex label").
    pub class: String,
    /// Linking confidence.
    pub prob: f64,
}

/// A predicate with its natural-language relation phrases.
#[derive(Clone, Debug, PartialEq)]
pub struct PredicateInfo {
    /// Predicate local name (e.g. `graduatedFrom`).
    pub name: String,
    /// Relation phrases, lowercase (e.g. `graduated from`).
    pub phrases: Vec<String>,
}

/// The full lexicon.
#[derive(Clone, Debug, Default)]
pub struct Lexicon {
    /// Class noun → class name (`"actor"` → `"Actor"`).
    pub class_nouns: HashMap<String, String>,
    /// Predicates with their phrases.
    pub predicates: Vec<PredicateInfo>,
    /// Lowercased surface form → linking candidates.
    pub surface_forms: HashMap<String, Vec<EntityCandidate>>,
    /// Inverse noun phrase → predicate, for "What is the ⟨noun⟩ of E?"
    /// questions (the paper's "What is the ruling party in Lisbon?" case,
    /// Fig. 10): the entity is the *subject* of the predicate.
    pub inverse_nouns: HashMap<String, String>,
}

impl Lexicon {
    /// Empty lexicon.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a class with its noun.
    pub fn add_class(&mut self, noun: &str, class: &str) {
        self.class_nouns.insert(noun.to_lowercase(), class.to_owned());
    }

    /// Register a predicate with phrases.
    pub fn add_predicate(&mut self, name: &str, phrases: &[&str]) {
        self.predicates.push(PredicateInfo {
            name: name.to_owned(),
            phrases: phrases.iter().map(|p| p.to_lowercase()).collect(),
        });
    }

    /// Register an entity surface form with candidates.
    ///
    /// # Panics
    /// Panics if the candidate probabilities exceed 1.
    pub fn add_surface_form(&mut self, phrase: &str, candidates: Vec<EntityCandidate>) {
        let total: f64 = candidates.iter().map(|c| c.prob).sum();
        assert!(total <= 1.0 + 1e-9, "linking confidences exceed 1 for {phrase:?}");
        self.surface_forms.insert(phrase.to_lowercase(), candidates);
    }

    /// Look up a class noun.
    pub fn class_of_noun(&self, noun: &str) -> Option<&str> {
        self.class_nouns.get(&noun.to_lowercase()).map(String::as_str)
    }

    /// Find the predicate whose phrase matches exactly.
    pub fn predicate_of_phrase(&self, phrase: &str) -> Option<&str> {
        let p = phrase.to_lowercase();
        self.predicates.iter().find(|pi| pi.phrases.contains(&p)).map(|pi| pi.name.as_str())
    }

    /// Register an inverse noun phrase for a predicate ("spouse" →
    /// `spouse`, so "Who is the spouse of E?" emits `E spouse ?x`).
    pub fn add_inverse_noun(&mut self, noun: &str, predicate: &str) {
        self.inverse_nouns.insert(noun.to_lowercase(), predicate.to_owned());
    }

    /// Look up an inverse noun phrase.
    pub fn inverse_predicate(&self, noun: &str) -> Option<&str> {
        self.inverse_nouns.get(&noun.to_lowercase()).map(String::as_str)
    }

    /// Entity-link a phrase: the paper's step "Applying entity linking
    /// techniques \[4\], an argument ... may be linked to multiple entities
    /// associated with different existence confidences".
    pub fn link(&self, phrase: &str) -> Option<&[EntityCandidate]> {
        self.surface_forms.get(&phrase.to_lowercase()).map(Vec::as_slice)
    }

    /// Longest phrase length (in words) across relation phrases and
    /// surface forms — the scanner's lookahead window.
    pub fn max_phrase_words(&self) -> usize {
        let rel = self
            .predicates
            .iter()
            .flat_map(|p| p.phrases.iter())
            .map(|p| p.split_whitespace().count())
            .max()
            .unwrap_or(1);
        let ent =
            self.surface_forms.keys().map(|p| p.split_whitespace().count()).max().unwrap_or(1);
        rel.max(ent)
    }
}

/// A small lexicon mirroring the paper's running examples (Figs. 2–4),
/// used across the workspace's tests and the quickstart example.
pub fn paper_lexicon() -> Lexicon {
    let mut lex = Lexicon::new();
    lex.add_class("actor", "Actor");
    lex.add_class("politician", "Politician");
    lex.add_class("city", "City");
    lex.add_class("physicist", "Physicist");
    lex.add_class("movies", "Film");
    lex.add_class("movie", "Film");
    lex.add_predicate("birthPlace", &["from", "born in"]);
    lex.add_predicate("spouse", &["married to", "is married to"]);
    lex.add_predicate("locatedIn", &["of", "located in", "in"]);
    lex.add_predicate("graduatedFrom", &["graduated from"]);
    lex.add_predicate("director", &["directed by"]);
    lex.add_inverse_noun("spouse", "spouse");
    lex.add_inverse_noun("birth place", "birthPlace");
    lex.add_inverse_noun("director", "director");
    lex.add_surface_form(
        "michael jordan",
        vec![
            EntityCandidate {
                entity: "Michael_Jordan".into(),
                class: "NBA_Player".into(),
                prob: 0.6,
            },
            EntityCandidate {
                entity: "Michael_I_Jordan".into(),
                class: "Professor".into(),
                prob: 0.3,
            },
            EntityCandidate { entity: "Michael_B_Jordan".into(), class: "Actor".into(), prob: 0.1 },
        ],
    );
    lex.add_surface_form(
        "ny",
        vec![
            EntityCandidate { entity: "New_York".into(), class: "State".into(), prob: 0.7 },
            EntityCandidate { entity: "New_York_City".into(), class: "City".into(), prob: 0.3 },
        ],
    );
    lex.add_surface_form(
        "usa",
        vec![EntityCandidate {
            entity: "United_States".into(),
            class: "Country".into(),
            prob: 1.0,
        }],
    );
    lex.add_surface_form(
        "cit",
        vec![
            EntityCandidate {
                entity: "California_Institute_of_Technology".into(),
                class: "University".into(),
                prob: 0.8,
            },
            EntityCandidate { entity: "CIT_Group".into(), class: "Company".into(), prob: 0.2 },
        ],
    );
    lex.add_surface_form(
        "cmu",
        vec![EntityCandidate {
            entity: "Carnegie_Mellon_University".into(),
            class: "University".into(),
            prob: 1.0,
        }],
    );
    lex.add_surface_form(
        "francis ford coppola",
        vec![EntityCandidate {
            entity: "Francis_Ford_Coppola".into(),
            class: "Director".into(),
            prob: 1.0,
        }],
    );
    lex
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_lexicon_links_michael_jordan_three_ways() {
        let lex = paper_lexicon();
        let cands = lex.link("Michael Jordan").unwrap();
        assert_eq!(cands.len(), 3);
        let total: f64 = cands.iter().map(|c| c.prob).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(cands[0].class, "NBA_Player");
    }

    #[test]
    fn phrase_lookups() {
        let lex = paper_lexicon();
        assert_eq!(lex.class_of_noun("Actor"), Some("Actor"));
        assert_eq!(lex.predicate_of_phrase("graduated from"), Some("graduatedFrom"));
        assert_eq!(lex.predicate_of_phrase("married to"), Some("spouse"));
        assert!(lex.predicate_of_phrase("teleported to").is_none());
        assert!(lex.max_phrase_words() >= 3);
    }

    #[test]
    #[should_panic(expected = "linking confidences exceed 1")]
    fn rejects_overweight_surface_form() {
        let mut lex = Lexicon::new();
        lex.add_surface_form(
            "x",
            vec![
                EntityCandidate { entity: "A".into(), class: "C".into(), prob: 0.7 },
                EntityCandidate { entity: "B".into(), class: "C".into(), prob: 0.7 },
            ],
        );
    }
}
