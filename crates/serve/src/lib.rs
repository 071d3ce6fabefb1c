//! uqsj-serve: the online Q/A serving layer.
//!
//! The batch pipeline (`uqsj::pipeline`) produces a `TemplateLibrary`
//! offline; this crate turns that artifact into a long-lived service:
//!
//! - [`TemplateStore`]: signature index over templates (token-count window
//!   and label-multiset bounds) so each question is verified against a
//!   pruned candidate set instead of the whole library.
//! - [`ShardedQaServer`]: the one serving core, behind the CLI and the
//!   HTTP front end alike. It partitions the library into `N` stores
//!   (one is the plain single-store server) and adds a bounded LRU answer
//!   cache, a scoped-thread `answer_batch`, EXPLAIN reports and
//!   latency/candidate metrics.
//! - [`Ingestor`]: incremental SimJ of a newly arrived question against the
//!   existing `D` side via `JoinIndex` — no full re-join — feeding freshly
//!   mined templates back into the live store.
//! - Durability (via `uqsj-storage`): [`ShardedQaServer::create`] writes a
//!   data directory, [`ShardedQaServer::open`] recovers it (snapshot + WAL
//!   per shard replica), `insert_templates` journals accepted templates
//!   before applying them, and [`ShardedQaServer::compact`] folds the WALs
//!   into fresh snapshot generations.

pub mod cache;
pub mod ingest;
pub mod metrics;
pub mod report;
pub mod shard;
pub mod store;

pub use cache::AnswerCache;
pub use ingest::{IngestError, IngestOutcome, Ingestor};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use report::{JoinReport, QueryReport, SlowLog, StageReport};
pub use shard::{shard_of_tokens, ServeConfig, ShardedAnswer, ShardedQaServer};
pub use store::TemplateStore;
