//! uqsj-net: the HTTP/JSON wire protocol over a sharded Q/A server.
//!
//! Everything below `uqsj-serve` treats the template store as an
//! in-process library; this crate puts a network in front of it with no
//! runtime or framework — a hand-rolled HTTP/1.1 server on
//! `std::net::TcpListener`, a fixed worker-thread pool, and a JSON codec
//! written against [`json::Value`] (the workspace has no serde, so
//! nothing derives).
//!
//! The pieces:
//!
//! - [`http`]: incremental request reader + response writer with size
//!   caps and keep-alive.
//! - [`json`]: strict parser / deterministic writer for the protocol
//!   bodies.
//! - [`routes`]: `POST /v1/answer` (single and batch), `POST
//!   /v1/templates` (journaled ingest through the sharded store's
//!   replica WALs), `GET /metrics` (Prometheus text: `uqsj_net_*` +
//!   `uqsj_serve_*`/`uqsj_shard_*` + the process-global families),
//!   `GET /healthz`, `GET /readyz`.
//! - [`server`]: bounded accept queue with 429 load-shedding, a
//!   per-request deadline checked at stage boundaries (503 on overrun),
//!   and graceful drain — stop accepting, finish in-flight work, fsync
//!   the shard WALs.
//! - [`client`]: a minimal blocking client for benches and tests.
//!
//! Start one with [`serve`] (or [`serve_on`] for a pre-bound listener):
//!
//! ```no_run
//! use std::sync::Arc;
//! use uqsj_serve::{ServeConfig, ShardedQaServer};
//!
//! let qa = Arc::new(ShardedQaServer::new(
//!     uqsj_template::TemplateLibrary::new(),
//!     uqsj_nlp::Lexicon::default(),
//!     uqsj_rdf::TripleStore::new(),
//!     4,
//!     ServeConfig::default(),
//! ));
//! let handle = uqsj_net::serve(qa, "127.0.0.1:8080", uqsj_net::NetConfig::default())?;
//! println!("listening on {}", handle.local_addr());
//! handle.shutdown()?;
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
pub mod routes;
pub mod server;

pub use client::{Client, ClientResponse};
pub use http::{Request, Response};
pub use json::Value;
pub use metrics::NetMetrics;
pub use server::{serve, serve_on, NetConfig, ServerHandle};
