//! The traced answer path: the benchmark's own calls into each layer's
//! public functions, timed one by one, in the order and with the inputs
//! the serving core uses for a cache miss.
//!
//! `ShardedQaServer::answer` on a miss normalizes the question and looks
//! it up in the answer cache, tokenizes it, computes
//! its signature, asks every shard's `TemplateStore::candidates`, and
//! ranks the survivors with `answer_across`. Inside `answer_across` it
//! tokenizes again, parses the dependency tree, aligns each candidate,
//! computes signatures for the TED lower bound, runs TED lazily, and
//! fills slots and evaluates BGPs; the outcome then goes into the cache,
//! and the server records its spans, serve metrics, EXPLAIN report and
//! slow-query log entry. Those inner steps are re-run here
//! separately on the same inputs to split `answer_across` into layers;
//! what remains is its self time (ranking, linking, bookkeeping).

use std::time::Instant;
use uqsj::nlp::align::align_with_slots;
use uqsj::nlp::deptree::parse_dependency_tokens;
use uqsj::nlp::{tokenize, tree_edit_distance, Lexicon, NlSignature};
use uqsj::rdf::{bgp, TripleStore};
use uqsj::serve::cache::normalize_question;
use uqsj::serve::{
    shard_of_tokens, AnswerCache, QueryReport, ServeConfig, ServeMetrics, SlowLog, StageReport,
    TemplateStore,
};
use uqsj::template::{answer_across, CandidateRef, MultiAnswer, QaOutcome, TemplateLibrary};

/// The serving state the miss path reads: the library split into
/// per-shard stores exactly as `ShardedQaServer` partitions it (template
/// order within a shard preserved), an answer cache of the server's
/// default capacity, and the server's bookkeeping: serve metrics and a
/// slow-query log of its size.
pub struct Shards {
    stores: Vec<TemplateStore>,
    cache: AnswerCache<(QaOutcome, Option<usize>)>,
    metrics: ServeMetrics,
    slow_log: SlowLog,
}

impl Shards {
    pub fn new(library: &TemplateLibrary, shards: usize) -> Self {
        let mut stores: Vec<TemplateStore> = (0..shards).map(|_| TemplateStore::new()).collect();
        for t in library.templates() {
            stores[shard_of_tokens(&t.nl_tokens, shards)].insert(t.clone());
        }
        Self {
            stores,
            cache: AnswerCache::new(ServeConfig::default().cache_capacity),
            metrics: ServeMetrics::new(),
            slow_log: SlowLog::new(32),
        }
    }
}

/// One question's time per layer, µs, and its work counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct PathSample {
    /// Key normalization, the cache lookup and the insert of the outcome.
    pub cache: f64,
    pub tokenize: f64,
    pub signature: f64,
    pub filter: f64,
    pub deptree: f64,
    pub align: f64,
    pub ted: f64,
    pub bgp: f64,
    /// The whole `answer_across` call.
    pub rank: f64,
    /// `rank` minus the inner steps timed separately.
    pub rank_self: f64,
    /// Spans, serve metrics, the EXPLAIN report and the slow-query log.
    pub bookkeeping: f64,
    pub candidates: usize,
    pub aligned: usize,
    pub ted_computed: usize,
    pub rows: usize,
}

impl PathSample {
    /// Sum of the layer self times: the traced path's total.
    pub fn total(&self) -> f64 {
        self.cache
            + self.tokenize
            + self.signature
            + self.filter
            + self.deptree
            + self.align
            + self.ted
            + self.bgp
            + self.rank_self
            + self.bookkeeping
    }
}

/// A stopwatch that reads the clock only when tracing; untimed, the same
/// calls run with no clock read, which gives the tracing overhead.
#[derive(Clone, Copy)]
struct Watch(bool);

impl Watch {
    fn start(self) -> Option<Instant> {
        self.0.then(Instant::now)
    }

    fn us(self, since: Option<Instant>) -> f64 {
        since.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e6)
    }
}

/// Run the miss path for one question, each layer timed when `timed`.
pub fn run(
    shards: &mut Shards,
    lexicon: &Lexicon,
    triples: &TripleStore,
    question: &str,
    min_phi: f64,
    timed: bool,
) -> (PathSample, MultiAnswer) {
    let w = Watch(timed);
    let mut s = PathSample::default();
    let t = w.start();
    let key = normalize_question(question);
    std::hint::black_box(shards.cache.get(&key));
    let generation = shards.cache.generation();
    s.cache = w.us(t);
    let t = w.start();
    let tokens = tokenize(question);
    s.tokenize = w.us(t);
    let t = w.start();
    let sig = NlSignature::of_tokens(&tokens);
    s.signature = w.us(t);
    let t = w.start();
    let candidates = candidates(shards, &sig, min_phi);
    s.filter = w.us(t);
    s.candidates = candidates.len();
    let libraries: Vec<&TemplateLibrary> = shards.stores.iter().map(|st| st.library()).collect();

    let t = w.start();
    let (answer, stats) =
        answer_across(&libraries, candidates.iter().copied(), lexicon, triples, question, min_phi);
    s.rank = w.us(t);
    s.ted_computed = stats.ted_computed;

    // The inner steps of `answer_across`, re-run on the same inputs.
    let t = w.start();
    let tokens = tokenize(question);
    let inner_tokenize = w.us(t);
    let t = w.start();
    let tree = parse_dependency_tokens(&tokens);
    s.deptree = w.us(t);
    let t = w.start();
    let question_sig = NlSignature::of_tokens(&tokens);
    let mut inner_signature = w.us(t);
    let mut aligned: Vec<(u32, CandidateRef)> = Vec::new();
    for c in &candidates {
        let template = &libraries[c.library].templates()[c.index];
        let t = w.start();
        let hit = align_with_slots(&template.nl_tokens, &tokens).is_some();
        s.align += w.us(t);
        if hit {
            let t = w.start();
            let lb = NlSignature::of_tokens(&template.nl_tokens).ted_lower_bound(&question_sig);
            inner_signature += w.us(t);
            aligned.push((lb, *c));
        }
    }
    s.aligned = aligned.len();
    // Lazy TED visits aligned candidates by (lower bound, shard, index);
    // the call reported how many it computed.
    aligned.sort_by_key(|&(lb, c)| (lb, c.library, c.index));
    for &(_, c) in aligned.iter().take(stats.ted_computed) {
        let template = &libraries[c.library].templates()[c.index];
        let t = w.start();
        std::hint::black_box(tree_edit_distance(&template.dep_tree, &tree));
        s.ted += w.us(t);
    }
    if let Some(sparql) = &answer.outcome.sparql {
        let t = w.start();
        s.rows = bgp::evaluate(triples, sparql).len();
        s.bgp = w.us(t);
    }
    let t = w.start();
    shards.cache.put_at(generation, key, (answer.outcome.clone(), answer.library));
    s.cache += w.us(t);
    s.tokenize += inner_tokenize;
    s.signature += inner_signature;
    s.rank_self = s.rank - (inner_tokenize + s.deptree + inner_signature + s.align + s.ted + s.bgp);

    // What the server records for every miss.
    let t = w.start();
    for name in ["serve.answer", "serve.filter", "serve.rank"] {
        drop(uqsj::obs::span(name));
    }
    let library_size: usize = shards.stores.iter().map(TemplateStore::len).sum();
    let total = std::time::Duration::from_secs_f64(s.total() / 1e6);
    shards.metrics.record_miss(total, s.candidates, library_size, stats.ted_computed);
    let stage = |label, input: usize, kept: usize| StageReport {
        label,
        input: input as u64,
        pruned: input.saturating_sub(kept) as u64,
        us: 0,
    };
    let report = QueryReport {
        trace_id: uqsj::obs::ctx::trace_id(),
        question: question.to_owned(),
        shard: answer.library,
        total_us: total.as_micros() as u64,
        stages: vec![
            stage("signature", library_size, stats.candidates_examined),
            stage("align", stats.candidates_examined, stats.candidates_aligned),
            stage(
                "ted",
                stats.candidates_aligned,
                usize::from(answer.outcome.template_index.is_some()),
            ),
        ],
        ted_computed: stats.ted_computed as u64,
        answers: answer.outcome.answers.len(),
        phi: answer.outcome.phi,
        template_index: answer.outcome.template_index,
        ..QueryReport::default()
    };
    if shards.slow_log.offer(report.clone()) {
        shards.metrics.record_slow_query();
    }
    s.bookkeeping = w.us(t);
    (s, answer)
}

fn candidates(shards: &Shards, sig: &NlSignature, min_phi: f64) -> Vec<CandidateRef> {
    let mut out = Vec::new();
    for (library, store) in shards.stores.iter().enumerate() {
        out.extend(
            store.candidates(sig, min_phi).into_iter().map(|index| CandidateRef { library, index }),
        );
    }
    out
}
