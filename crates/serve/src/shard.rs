//! The Q/A server: a sharded, optionally replicated template store behind
//! both the CLI and the network front end.
//!
//! [`ShardedQaServer`] partitions the template library by a stable hash
//! of each template's NL pattern into `N` shards. Every shard is an
//! independent [`TemplateStore`] behind its own lock, and — when durable —
//! an independent snapshot + WAL data directory *per replica*:
//!
//! ```text
//! data-dir/
//!   SHARDS                         # "shards=N\nreplicas=R\n"
//!   shard-0000/replica-00/         # a full uqsj-storage generation dir
//!   shard-0000/replica-01/         #   (CURRENT, snapshot-*.uqsj, wal-*.log)
//!   shard-0001/replica-00/
//!   ...
//! ```
//!
//! This is the only data-directory layout; `uqsj-cli snapshot` writes it
//! with one shard and one replica. Opening a directory without `SHARDS`
//! fails with [`StorageError::MissingTopology`].
//!
//! **Ingestion** fans a batch out to the owning shards: write locks are
//! taken in ascending shard order (so concurrent batches and the
//! all-shards read path cannot deadlock), each shard's records are
//! journaled to *every* replica WAL before they are applied, and the
//! whole batch becomes visible atomically with respect to any reader
//! that snapshots the shard set (readers take all read locks before
//! looking at any shard).
//!
//! **Answering** snapshots all shard locks (shared, cheap), runs the
//! per-shard signature filter, and ranks the surviving candidates with
//! [`uqsj_template::answer_across`] — producing *exactly* the outcome a
//! single [`TemplateStore`] over the shard libraries concatenated in
//! shard order would produce. The filter prunes non-owning shards down to
//! nothing for most questions, so verification work (alignment + TED)
//! lands on the few shards — usually one — that hold plausible templates;
//! `uqsj_shard_touched` tracks that number.
//!
//! **Recovery** opens every replica of a shard, adopts the replica with
//! the most templates (a crash can leave late replicas one append
//! behind), re-initializes any replica that fails to open (bit-flipped
//! snapshot, lost directory), and compacts all replicas to a fresh
//! common generation — after which every replica of the shard is
//! byte-equivalent again. Per shard, the adopted state is always the
//! replay of one surviving WAL over its snapshot.

use crate::cache::{normalize_question, AnswerCache};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::report::{QueryReport, SlowLog, StageReport};
use crate::store::TemplateStore;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;
use uqsj_nlp::signature::NlSignature;
use uqsj_nlp::token::tokenize;
use uqsj_nlp::Lexicon;
use uqsj_obs::{span, Gauge, Histogram};
use uqsj_rdf::TripleStore;
use uqsj_simjoin::cascade::{CascadeReport, CascadeRuntime};
use uqsj_storage::{StorageEngine, StorageError};
use uqsj_template::{answer_across, CandidateRef, QaOutcome, Template, TemplateLibrary};

/// Serving knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Minimum matching proportion φ (Table 5's knob; 1.0 = full matches).
    pub min_phi: f64,
    /// Answer-cache capacity; 0 disables caching.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { min_phi: 1.0, cache_capacity: 1024 }
    }
}

/// How many worst-latency reports the slow-query log retains.
const SLOW_LOG_CAPACITY: usize = 32;

/// Name of the shard-topology file under a sharded data directory.
const SHARDS_FILE: &str = "SHARDS";

/// Stable FNV-1a hash of a template's NL pattern — the shard routing key.
/// Independent of process, platform, and `HashMap` seeding, so a data
/// directory written by one process routes identically in the next.
fn route_hash(tokens: &[String]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for t in tokens {
        for &b in t.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        // Token separator so ["ab","c"] and ["a","bc"] route apart.
        h ^= 0x1f;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The shard owning a template with the given NL tokens.
pub fn shard_of_tokens(tokens: &[String], shards: usize) -> usize {
    (route_hash(tokens) % shards.max(1) as u64) as usize
}

/// One shard: an indexed store plus its replica storage engines
/// (empty for an in-memory server; `replicas[0]` is the primary).
struct Shard {
    store: RwLock<TemplateStore>,
    replicas: Vec<Mutex<StorageEngine>>,
}

/// How a sharded server answers, beyond the plain [`QaOutcome`].
#[derive(Clone, Debug, Default)]
pub struct ShardedAnswer {
    /// The outcome; `template_index` is *local to* `shard`.
    pub outcome: QaOutcome,
    /// Which shard the chosen template lives in, if one applied.
    pub shard: Option<usize>,
    /// Shards whose signature filter left at least one candidate — the
    /// number of shards verification actually touched.
    pub shards_touched: usize,
}

/// A sharded, optionally replicated Q/A server: the one serving core,
/// behind `uqsj-cli serve` and the `uqsj-net` HTTP front end alike.
pub struct ShardedQaServer {
    shards: Vec<Shard>,
    lexicon: Arc<Lexicon>,
    triples: Arc<TripleStore>,
    config: ServeConfig,
    replicas: usize,
    /// Caches the answering shard alongside the outcome, so a cache hit
    /// keeps the (shard, local template index) attribution an uncached
    /// answer carries.
    cache: Mutex<AnswerCache<(QaOutcome, Option<usize>)>>,
    metrics: ServeMetrics,
    shard_touched: Histogram,
    ingest_fanout: Histogram,
    shard_templates: Gauge,
    /// Worst-N answer reports, behind `GET /debug/slow`.
    slow_log: SlowLog,
    /// Labelled cascade planners attached for `/debug/cascade` — the
    /// serving path itself never joins, but the ingest pipeline feeding
    /// this server does, and its live plan is operator-relevant.
    cascades: Mutex<Vec<(String, Arc<CascadeRuntime>)>>,
}

// Poison-tolerant lock access: a panic inside one critical section
// leaves the guarded state observable instead of wedging the shard for
// every later request.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

fn shard_dir(data_dir: &Path, shard: usize) -> PathBuf {
    data_dir.join(format!("shard-{shard:04}"))
}

fn replica_dir(data_dir: &Path, shard: usize, replica: usize) -> PathBuf {
    shard_dir(data_dir, shard).join(format!("replica-{replica:02}"))
}

/// Parse the `SHARDS` topology file: `shards=N\nreplicas=R\n`. A
/// directory without one is not a data directory at all.
fn read_topology(data_dir: &Path) -> Result<(usize, usize), StorageError> {
    let path = data_dir.join(SHARDS_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => StorageError::MissingTopology { path },
        _ => StorageError::Io(e),
    })?;
    let mut shards = None;
    let mut replicas = None;
    for line in text.lines() {
        match line.trim().split_once('=') {
            Some(("shards", v)) => shards = v.parse().ok(),
            Some(("replicas", v)) => replicas = v.parse().ok(),
            _ => {}
        }
    }
    match (shards, replicas) {
        (Some(s), Some(r)) if s >= 1 && r >= 1 => Ok((s, r)),
        _ => Err(StorageError::corrupt(format!("malformed SHARDS topology file: {text:?}"))),
    }
}

fn write_topology(data_dir: &Path, shards: usize, replicas: usize) -> Result<(), StorageError> {
    std::fs::write(data_dir.join(SHARDS_FILE), format!("shards={shards}\nreplicas={replicas}\n"))?;
    Ok(())
}

/// Partition a library into per-shard stores by NL-pattern hash.
fn partition(library: &TemplateLibrary, shards: usize) -> Vec<TemplateStore> {
    let mut stores: Vec<TemplateStore> = (0..shards).map(|_| TemplateStore::new()).collect();
    for t in library.templates() {
        stores[shard_of_tokens(&t.nl_tokens, shards)].insert(t.clone());
    }
    stores
}

impl ShardedQaServer {
    fn build(
        stores: Vec<TemplateStore>,
        replicas: Vec<Vec<StorageEngine>>,
        lexicon: Arc<Lexicon>,
        triples: Arc<TripleStore>,
        config: ServeConfig,
        replica_count: usize,
    ) -> Self {
        let metrics = ServeMetrics::new();
        let registry = metrics.registry();
        let shard_count = registry.gauge("uqsj_shard_count", "number of template-store shards");
        shard_count.set(stores.len() as i64);
        let replica_gauge = registry.gauge("uqsj_shard_replicas", "replica dirs per shard");
        replica_gauge.set(replica_count as i64);
        let shard_touched = registry.histogram(
            "uqsj_shard_touched",
            "shards with surviving candidates per answered question",
        );
        let ingest_fanout =
            registry.histogram("uqsj_shard_ingest_fanout", "shards written per ingest batch");
        let shard_templates = registry.gauge("uqsj_shard_templates", "templates across all shards");
        let shards: Vec<Shard> = stores
            .into_iter()
            .zip(replicas)
            .map(|(store, engines)| Shard {
                store: RwLock::new(store),
                replicas: engines.into_iter().map(Mutex::new).collect(),
            })
            .collect();
        let server = Self {
            shards,
            lexicon,
            triples,
            config,
            replicas: replica_count,
            cache: Mutex::new(AnswerCache::new(config.cache_capacity)),
            metrics,
            shard_touched,
            ingest_fanout,
            shard_templates,
            slow_log: SlowLog::new(SLOW_LOG_CAPACITY),
            cascades: Mutex::new(Vec::new()),
        };
        server.shard_templates.set(server.template_count() as i64);
        server
    }

    /// An in-memory sharded server: the library is partitioned by
    /// NL-pattern hash; restarts lose ingested templates.
    pub fn new(
        library: TemplateLibrary,
        lexicon: Lexicon,
        triples: TripleStore,
        shards: usize,
        config: ServeConfig,
    ) -> Self {
        let shards = shards.max(1);
        let stores = partition(&library, shards);
        let engines = (0..shards).map(|_| Vec::new()).collect();
        Self::build(stores, engines, Arc::new(lexicon), Arc::new(triples), config, 0)
    }

    /// Bootstrap (or overwrite) a sharded data directory from in-memory
    /// artifacts: the library is partitioned, every shard's state is
    /// written as a fresh snapshot generation in each of its `replicas`
    /// directories, and the topology is recorded in `SHARDS`.
    pub fn create(
        data_dir: &Path,
        library: TemplateLibrary,
        lexicon: Lexicon,
        triples: TripleStore,
        shards: usize,
        replicas: usize,
        config: ServeConfig,
    ) -> Result<Self, StorageError> {
        let shards = shards.max(1);
        let replicas = replicas.max(1);
        std::fs::create_dir_all(data_dir)?;
        write_topology(data_dir, shards, replicas)?;
        let stores = partition(&library, shards);
        let lexicon = Arc::new(lexicon);
        let triples = Arc::new(triples);
        let mut engines: Vec<Vec<StorageEngine>> = Vec::with_capacity(shards);
        for (si, store) in stores.iter().enumerate() {
            let mut shard_engines = Vec::with_capacity(replicas);
            for ri in 0..replicas {
                let (mut engine, _) = StorageEngine::open(&replica_dir(data_dir, si, ri))?;
                engine.compact(store.library(), &lexicon, &triples)?;
                shard_engines.push(engine);
            }
            engines.push(shard_engines);
        }
        Ok(Self::build(stores, engines, lexicon, triples, config, replicas))
    }

    /// Recover a sharded data directory: per shard, open every replica,
    /// adopt the most advanced one, re-initialize unreadable replicas,
    /// and compact all replicas to a common fresh generation. The lexicon
    /// and RDF store are taken from shard 0 (every replica snapshot
    /// carries a full copy, so each shard directory is self-contained).
    pub fn open(data_dir: &Path, config: ServeConfig) -> Result<Self, StorageError> {
        let (shards, replicas) = read_topology(data_dir)?;
        let mut stores = Vec::with_capacity(shards);
        let mut engines = Vec::with_capacity(shards);
        let mut shared: Option<(Arc<Lexicon>, Arc<TripleStore>)> = None;
        for si in 0..shards {
            let mut opened: Vec<(StorageEngine, uqsj_storage::RecoveredState)> =
                Vec::with_capacity(replicas);
            for ri in 0..replicas {
                let dir = replica_dir(data_dir, si, ri);
                let result = StorageEngine::open(&dir).or_else(|_| {
                    // A replica that cannot open (corrupt snapshot, torn
                    // header) is re-initialized empty and caught up by the
                    // convergence compaction below. At least one replica
                    // per shard must recover for `?` not to fire here.
                    std::fs::remove_dir_all(&dir)?;
                    StorageEngine::open(&dir)
                })?;
                opened.push((result.0, result.1));
            }
            // Adopt the replica holding the most templates: a crash
            // between replica appends leaves later replicas at most one
            // batch behind the first.
            let best = opened
                .iter()
                .enumerate()
                .max_by_key(|(ri, (_, r))| (r.state.library.len(), usize::MAX - ri))
                .map(|(ri, _)| ri)
                .expect("replicas >= 1");
            let state = std::mem::take(&mut opened[best].1.state);
            let library = state.library;
            if shared.is_none() {
                // Every replica snapshot carries the full lexicon + RDF
                // store; adopt the first recovered copy for the whole
                // server (they are identical by construction).
                shared = Some((Arc::new(state.lexicon), Arc::new(state.triples)));
            }
            let (lexicon, triples) = shared.as_ref().expect("set above");
            // Converge every replica on the adopted state.
            let mut shard_engines = Vec::with_capacity(replicas);
            for (mut engine, _) in opened {
                engine.compact(&library, lexicon, triples)?;
                shard_engines.push(engine);
            }
            stores.push(TemplateStore::from_library(library));
            engines.push(shard_engines);
        }
        let (lexicon, triples) =
            shared.unwrap_or_else(|| (Arc::new(Lexicon::default()), Arc::new(TripleStore::new())));
        Ok(Self::build(stores, engines, lexicon, triples, config, replicas))
    }

    /// Answer one question across the shards. Equivalent to answering
    /// over the shard libraries concatenated in shard order — see the
    /// module docs for the consistency argument.
    pub fn answer(&self, question: &str) -> ShardedAnswer {
        self.answer_explained(question).0
    }

    /// [`ShardedQaServer::answer`] plus the per-question EXPLAIN report.
    /// The report is built for every answer (its counters are ones the
    /// pipeline tracks anyway) and offered to the slow-query log; callers
    /// that requested EXPLAIN get it back verbatim.
    pub fn answer_explained(&self, question: &str) -> (ShardedAnswer, QueryReport) {
        let _span = span("serve.answer");
        let started = Instant::now();
        let trace_id = uqsj_obs::ctx::trace_id();
        let key = normalize_question(question);
        let generation = {
            let mut cache = lock(&self.cache);
            if let Some((outcome, shard)) = cache.get(&key) {
                let elapsed = started.elapsed();
                self.metrics.record_hit(elapsed);
                let report = QueryReport {
                    trace_id,
                    question: question.to_owned(),
                    cache_hit: true,
                    shard,
                    shards_touched: 0,
                    total_us: elapsed.as_micros() as u64,
                    ted_computed: 0,
                    answers: outcome.answers.len(),
                    phi: outcome.phi,
                    template_index: outcome.template_index,
                    ..Default::default()
                };
                return (ShardedAnswer { outcome, shard, shards_touched: 0 }, report);
            }
            cache.generation()
        };
        let filter_started = Instant::now();
        let tokens = tokenize(question);
        let sig = NlSignature::of_tokens(&tokens);
        // Snapshot the shard set: all read locks, ascending shard order
        // (the same order ingestion takes write locks), so a concurrent
        // batch is either fully visible or not at all — no torn reads.
        let guards: Vec<_> = self.shards.iter().map(|s| read(&s.store)).collect();
        let mut candidates: Vec<CandidateRef> = Vec::new();
        let mut shards_touched = 0usize;
        let mut library_size = 0usize;
        {
            let _span = span("serve.filter");
            for (si, guard) in guards.iter().enumerate() {
                library_size += guard.len();
                let local = guard.candidates(&sig, self.config.min_phi);
                if !local.is_empty() {
                    shards_touched += 1;
                }
                candidates
                    .extend(local.into_iter().map(|index| CandidateRef { library: si, index }));
            }
        }
        let filter_us = filter_started.elapsed().as_micros() as u64;
        let n_candidates = candidates.len();
        let libraries: Vec<&TemplateLibrary> = guards.iter().map(|g| g.library()).collect();
        let rank_started = Instant::now();
        let (multi, stats) = {
            let _span = span("serve.rank");
            answer_across(
                &libraries,
                candidates,
                &self.lexicon,
                &self.triples,
                question,
                self.config.min_phi,
            )
        };
        let rank_us = rank_started.elapsed().as_micros() as u64;
        drop(guards);
        let elapsed = started.elapsed();
        self.metrics.record_miss(elapsed, n_candidates, library_size, stats.ted_computed);
        self.shard_touched.observe(shards_touched as u64);
        lock(&self.cache).put_at(generation, key, (multi.outcome.clone(), multi.library));
        // The serving funnel: pruned counts plus the chosen template sum
        // back to the library size, so EXPLAIN output reconciles with the
        // aggregated `uqsj_serve_*` counters.
        let examined = stats.candidates_examined as u64;
        let aligned = stats.candidates_aligned as u64;
        let chosen = u64::from(multi.outcome.template_index.is_some());
        let report = QueryReport {
            trace_id,
            question: question.to_owned(),
            cache_hit: false,
            shard: multi.library,
            shards_touched,
            total_us: elapsed.as_micros() as u64,
            stages: vec![
                StageReport {
                    label: "signature",
                    input: library_size as u64,
                    pruned: (library_size as u64).saturating_sub(examined),
                    us: filter_us,
                },
                StageReport {
                    label: "align",
                    input: examined,
                    pruned: examined.saturating_sub(aligned),
                    us: rank_us,
                },
                StageReport {
                    label: "ted",
                    input: aligned,
                    pruned: aligned.saturating_sub(chosen),
                    us: 0,
                },
            ],
            ted_computed: stats.ted_computed as u64,
            answers: multi.outcome.answers.len(),
            phi: multi.outcome.phi,
            template_index: multi.outcome.template_index,
            join: None,
        };
        if self.slow_log.offer(report.clone()) {
            self.metrics.record_slow_query();
        }
        (ShardedAnswer { outcome: multi.outcome, shard: multi.library, shards_touched }, report)
    }

    /// Answer a batch across worker threads. Output order matches input
    /// order; each worker takes a contiguous chunk of the questions.
    ///
    /// # Contract
    /// `threads` is a *hint*: it is clamped to `1..=questions.len()`
    /// (never below one worker, never more workers than questions), so
    /// `threads == 0`, oversized thread counts, and empty batches are all
    /// well-defined and never spawn an idle worker.
    pub fn answer_batch(&self, questions: &[String], threads: usize) -> Vec<QaOutcome> {
        let threads = threads.max(1).min(questions.len().max(1));
        if threads == 1 {
            return questions.iter().map(|q| self.answer(q).outcome).collect();
        }
        let chunk = questions.len().div_ceil(threads);
        // Re-install the caller's request context on each worker: the
        // batch's trace id (and EXPLAIN/deadline flags) must follow the
        // questions across threads for `events_for` and exemplars.
        let ctx = uqsj_obs::ctx::current();
        std::thread::scope(|scope| {
            let workers: Vec<_> = questions
                .chunks(chunk)
                .map(|slice| {
                    scope.spawn(move || {
                        let _ctx = ctx.map(uqsj_obs::ctx::install);
                        slice.iter().map(|q| self.answer(q).outcome).collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("answer worker panicked")).collect()
        })
    }

    /// Ingest a template batch. The batch is grouped by owning shard;
    /// write locks are taken in ascending shard order, each group is
    /// journaled to every replica WAL of its shard (fsynced before
    /// apply), and all groups are applied before any lock is released —
    /// so any reader that snapshots the shard set sees the whole batch
    /// or none of it. Returns how many templates were new.
    pub fn insert_templates(
        &self,
        templates: impl IntoIterator<Item = Template>,
    ) -> Result<usize, StorageError> {
        let mut groups: Vec<Vec<Template>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for t in templates.into_iter() {
            groups[shard_of_tokens(&t.nl_tokens, self.shards.len())].push(t);
        }
        let touched: Vec<usize> = (0..groups.len()).filter(|&si| !groups[si].is_empty()).collect();
        if touched.is_empty() {
            return Ok(0);
        }
        // Ascending shard order, matching the answer path's read-lock
        // order — the global lock order that makes the snapshot safe.
        let mut guards: Vec<_> = touched.iter().map(|&si| write(&self.shards[si].store)).collect();
        for &si in &touched {
            for engine in &self.shards[si].replicas {
                lock(engine).append_templates(&groups[si])?;
            }
        }
        let mut added = 0usize;
        for (slot, &si) in touched.iter().enumerate() {
            for t in std::mem::take(&mut groups[si]) {
                if guards[slot].insert(t) {
                    added += 1;
                }
            }
        }
        drop(guards);
        self.ingest_fanout.observe(touched.len() as u64);
        if added > 0 {
            self.shard_templates.set(self.template_count() as i64);
            lock(&self.cache).invalidate();
        }
        Ok(added)
    }

    /// Fold every shard's WAL into a fresh snapshot generation on each of
    /// its replicas. Returns the new generation per shard (empty for an
    /// in-memory server).
    pub fn compact(&self) -> Result<Vec<u64>, StorageError> {
        let mut generations = Vec::new();
        for shard in &self.shards {
            if shard.replicas.is_empty() {
                continue;
            }
            let store = read(&shard.store);
            let mut generation = 0;
            for engine in &shard.replicas {
                generation = lock(engine).compact(store.library(), &self.lexicon, &self.triples)?;
            }
            generations.push(generation);
        }
        Ok(generations)
    }

    /// Fsync barrier across every replica WAL — the drain path's explicit
    /// flush point. Appends are already durable when `insert_templates`
    /// returns, so this never loses or gains records.
    pub fn sync_wals(&self) -> Result<(), StorageError> {
        for shard in &self.shards {
            for engine in &shard.replicas {
                lock(engine).sync()?;
            }
        }
        Ok(())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Replica directories per shard (0 for an in-memory server).
    pub fn replica_count(&self) -> usize {
        self.replicas
    }

    /// The active storage generation of each shard's primary replica, in
    /// shard order (empty for an in-memory server).
    pub fn storage_generations(&self) -> Vec<u64> {
        self.shards
            .iter()
            .filter_map(|s| s.replicas.first().map(|engine| lock(engine).generation()))
            .collect()
    }

    /// Templates currently served, across all shards.
    pub fn template_count(&self) -> usize {
        self.shards.iter().map(|s| read(&s.store).len()).sum()
    }

    /// Per-shard template counts, in shard order.
    pub fn shard_template_counts(&self) -> Vec<usize> {
        self.shards.iter().map(|s| read(&s.store).len()).collect()
    }

    /// The shard libraries concatenated in shard order — the canonical
    /// single-library view of the sharded store. `answer` is exactly
    /// equivalent to `uqsj_template::answer_question` over this library
    /// (the conformance tests' oracle).
    pub fn canonical_library(&self) -> TemplateLibrary {
        let mut library = TemplateLibrary::new();
        for shard in &self.shards {
            for t in read(&shard.store).library().templates() {
                library.add(t.clone());
            }
        }
        library
    }

    /// The worst-N slow-query log behind `GET /debug/slow`.
    pub fn slow_log(&self) -> &SlowLog {
        &self.slow_log
    }

    /// Attach a labelled cascade planner (typically the ingest
    /// pipeline's) so [`ShardedQaServer::cascade_reports`] — and thus
    /// `GET /debug/cascade` — can snapshot its live plan and estimates.
    pub fn attach_cascade(&self, label: impl Into<String>, cascade: Arc<CascadeRuntime>) {
        lock(&self.cascades).push((label.into(), cascade));
    }

    /// Live plan + estimate snapshots of every attached cascade planner.
    pub fn cascade_reports(&self) -> Vec<(String, CascadeReport)> {
        lock(&self.cascades).iter().map(|(label, rt)| (label.clone(), rt.report())).collect()
    }

    /// Answer-cache introspection for `GET /debug/cache`:
    /// `(entries, capacity, generation)`.
    pub fn cache_debug(&self) -> (usize, usize, u64) {
        let cache = lock(&self.cache);
        (cache.len(), self.config.cache_capacity, cache.generation())
    }

    /// Current serving counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The serving metrics handles (counter access for the front end).
    pub fn serve_metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// This server's private metric registry (`uqsj_serve_*` plus the
    /// `uqsj_shard_*` families).
    pub fn metrics_registry(&self) -> &uqsj_obs::Registry {
        self.metrics.registry()
    }

    /// The serving configuration.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// The shared lexicon.
    pub fn lexicon(&self) -> &Arc<Lexicon> {
        &self.lexicon
    }

    /// The shared RDF store.
    pub fn triples(&self) -> &Arc<TripleStore> {
        &self.triples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        let tokens: Vec<String> =
            ["Which", "<_>", "graduated", "from", "<_>", "?"].map(String::from).to_vec();
        for shards in [1, 2, 7, 16] {
            let s = shard_of_tokens(&tokens, shards);
            assert!(s < shards);
            assert_eq!(s, shard_of_tokens(&tokens, shards), "routing must be deterministic");
        }
        // Separator matters: re-splitting token bytes must not collide by
        // construction of the hash.
        let a: Vec<String> = ["ab", "c"].map(String::from).to_vec();
        let b: Vec<String> = ["a", "bc"].map(String::from).to_vec();
        assert_ne!(route_hash(&a), route_hash(&b));
    }

    #[test]
    fn a_panicked_critical_section_does_not_wedge_the_server() {
        let qa = ShardedQaServer::new(
            TemplateLibrary::default(),
            Lexicon::new(),
            TripleStore::new(),
            2,
            ServeConfig::default(),
        );
        // Poison the answer cache, a shard store and the cascade list.
        std::thread::scope(|scope| {
            let _ = scope
                .spawn(|| {
                    let _cache = lock(&qa.cache);
                    let _store = write(&qa.shards[0].store);
                    let _cascades = lock(&qa.cascades);
                    panic!("poison every lock held");
                })
                .join();
        });
        assert!(qa.cache.is_poisoned() && qa.shards[0].store.is_poisoned());
        assert!(qa.answer("Which stadium of Country 1?").outcome.sparql.is_none());
        assert_eq!(qa.template_count(), 0);
        assert!(qa.cascade_reports().is_empty());
    }

    #[test]
    fn topology_roundtrip() {
        let dir = std::env::temp_dir().join(format!("uqsj-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_topology(&dir, 4, 2).unwrap();
        assert_eq!(read_topology(&dir).unwrap(), (4, 2));
        std::fs::write(dir.join(SHARDS_FILE), "shards=0\nreplicas=1\n").unwrap();
        assert!(read_topology(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
