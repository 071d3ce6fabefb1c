//! Line-based N-Triples-style loader.
//!
//! Accepts full `<iri>` terms, `"literals"` and bare local names; IRIs are
//! reduced to local names to match the rest of the system. Lines starting
//! with `#` and blank lines are skipped.

use crate::store::TripleStore;
use std::fmt;

/// Loader error with line number and the offending line's text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadError {
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed (empty when no single line is at
    /// fault, e.g. an encoding error over the whole buffer).
    pub line_text: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N-Triples error on line {}: {}", self.line, self.message)?;
        if !self.line_text.is_empty() {
            write!(f, " in {:?}", self.line_text)?;
        }
        Ok(())
    }
}

impl std::error::Error for LoadError {}

/// Load triples from text into `store`. Returns the number of triples
/// loaded.
pub fn load_str(store: &mut TripleStore, text: &str) -> Result<usize, LoadError> {
    let mut n = 0;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let terms = tokenize(line, i + 1)?;
        let [s, p, o] = terms;
        store.insert(&s, &p, &o);
        n += 1;
    }
    store.ensure_indexes();
    Ok(n)
}

/// Load from a byte buffer (the entry point used when a dataset is
/// shipped as one blob); the bytes must be UTF-8.
pub fn load_bytes(store: &mut TripleStore, data: &[u8]) -> Result<usize, LoadError> {
    let text = std::str::from_utf8(data).map_err(|e| LoadError {
        line: 0,
        line_text: String::new(),
        message: format!("invalid UTF-8: {e}"),
    })?;
    load_str(store, text)
}

fn tokenize(line: &str, lineno: usize) -> Result<[String; 3], LoadError> {
    let err = |message: String| LoadError { line: lineno, line_text: line.to_owned(), message };
    let mut out: Vec<String> = Vec::with_capacity(3);
    let mut rest = line;
    while out.len() < 3 {
        rest = rest.trim_start();
        if rest.is_empty() {
            return Err(err(format!("expected 3 terms, found {}", out.len())));
        }
        if let Some(tail) = rest.strip_prefix('<') {
            let end = tail.find('>').ok_or_else(|| err("unterminated IRI".into()))?;
            out.push(local_name(&tail[..end]).to_owned());
            rest = &tail[end + 1..];
        } else if let Some(tail) = rest.strip_prefix('"') {
            let end = tail.find('"').ok_or_else(|| err("unterminated literal".into()))?;
            out.push(tail[..end].to_owned());
            rest = &tail[end + 1..];
        } else {
            let end = rest.find(|c: char| c.is_whitespace()).unwrap_or(rest.len());
            let word = rest[..end].trim_end_matches('.');
            if word.is_empty() {
                return Err(err("empty term".into()));
            }
            out.push(word.to_owned());
            rest = &rest[end..];
        }
    }
    let rest = rest.trim();
    if !rest.is_empty() && rest != "." {
        return Err(err(format!("trailing content {rest:?}")));
    }
    Ok([out[0].clone(), out[1].clone(), out[2].clone()])
}

fn local_name(iri: &str) -> &str {
    iri.rsplit(['/', '#']).next().unwrap_or(iri)
}

/// Serialize the whole store in the loader's format (one triple per line,
/// bare local names, terminating periods). Round-trips through
/// [`load_str`].
pub fn to_ntriples(store: &TripleStore) -> String {
    let mut out = String::new();
    for &(s, p, o) in store.scan(None, None, None).iter() {
        out.push_str(store.dict.decode(s));
        out.push(' ');
        out.push_str(store.dict.decode(p));
        out.push(' ');
        // Quote terms containing whitespace as literals.
        let obj = store.dict.decode(o);
        if obj.contains(char::is_whitespace) {
            out.push('"');
            out.push_str(obj);
            out.push('"');
        } else {
            out.push_str(obj);
        }
        out.push_str(" .\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_mixed_syntax() {
        let mut s = TripleStore::new();
        let n = load_str(
            &mut s,
            "# a comment\n\
             <http://ex/Alice> <http://ex/type> <http://ex/Artist> .\n\
             Alice graduatedFrom Harvard_University .\n\
             \n\
             Alice label \"Alice Smith\" .\n",
        )
        .unwrap();
        assert_eq!(n, 3);
        assert_eq!(s.len(), 3);
        let ty = s.dict.get("type").unwrap();
        assert_eq!(s.scan(None, Some(ty), None).len(), 1);
    }

    #[test]
    fn reports_line_numbers_and_offending_text() {
        let mut s = TripleStore::new();
        let err = load_str(&mut s, "ok p v .\nbroken line").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.line_text, "broken line");
        let shown = err.to_string();
        assert!(shown.contains("line 2"), "{shown}");
        assert!(shown.contains("broken line"), "{shown}");
        let err = load_str(&mut s, "a <unclosed p o .").unwrap_err();
        assert!(err.message.contains("unterminated IRI"));
        assert_eq!(err.line_text, "a <unclosed p o .");
    }

    #[test]
    fn loads_from_bytes() {
        let mut s = TripleStore::new();
        assert_eq!(load_bytes(&mut s, b"a p b .\n").unwrap(), 1);
    }

    #[test]
    fn export_roundtrips() {
        let mut s = TripleStore::new();
        load_str(&mut s, "Alice type Artist .\nAlice label \"Alice Smith\" .\n").unwrap();
        let text = to_ntriples(&s);
        let mut s2 = TripleStore::new();
        assert_eq!(load_str(&mut s2, &text).unwrap(), 2);
        assert_eq!(to_ntriples(&s2), text);
    }
}
