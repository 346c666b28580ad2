#![warn(missing_docs)]

//! # fia-serve — the deployed prediction boundary
//!
//! The paper's adversary is not handed a `VflSystem` — it *queries a
//! deployed prediction API* and accumulates `(x_adv, v)` pairs from what
//! the API releases. This crate models that boundary as a real network
//! service, std-only (`std::net` + threads + channels):
//!
//! * [`wire`] — a length-prefixed binary codec whose matrices travel as
//!   raw IEEE-754 bits, so over-the-wire attack replays reproduce
//!   in-process results to the last ulp.
//! * [`Coalescer`] — greedy micro-batch coalescing: a round is the
//!   first queued request plus whatever is already queued behind it, up
//!   to a row budget, amortizing the per-round protocol cost a real VFL
//!   deployment pays.
//! * [`PredictionServer`] — the TCP service: a single *reactor* thread
//!   (nonblocking sockets multiplexed through an in-tree `epoll` shim,
//!   with a portable `poll` fallback selectable via `FIA_FORCE_POLL=1`)
//!   owns the listener and every client connection — incremental frame
//!   assembly, classified accept-error backoff, in-order response
//!   writes ([`reactor`], which `fia-campaignd` runs its job ops on
//!   too) — and queues one job per request for a single batcher thread,
//!   which owns the deployment and applies the
//!   [`fia_defense::DefensePipeline`] once per round at the
//!   score-release boundary. Shutdown is graceful, and live
//!   [`ServerMetrics`] report throughput, p50/p99 latency, batch fill,
//!   cache hit rate and connection gauges. Four thousand idle clients
//!   cost four thousand fds, not four thousand threads.
//! * [`ScoreCache`] — the bounded, seeded released-score cache
//!   ([`ServeConfig::cache_capacity`]). It sits strictly *after* the
//!   defense pipeline: what it stores is what crossed the release
//!   boundary, and a re-queried row is re-released bit-identically —
//!   repetition gives the adversary nothing fresh to average over,
//!   and costs the deployment no joint round.
//! * [`RemoteOracle`] — the client half: it implements
//!   [`fia_core::PredictionOracle`], so ESA, PRA and GRNA run unchanged
//!   against a live endpoint via `fia_core::accumulate_batch` /
//!   `run_over_oracle`, and it meters its campaign's
//!   [`fia_core::QueryCost`] (including server-cached rows). [`run_load`]
//!   drives closed-loop benchmark traffic at a server; [`run_load_open`]
//!   drives a fixed-arrival-rate (open-loop) schedule.
//!
//! Servers in tests and examples bind port `0` (ephemeral) and read the
//! real address back from [`ServerHandle::addr`], keeping parallel test
//! runs collision-free.
//!
//! Everything above the wire codec is behind [`PredictionServer::spawn`],
//! so the serving internals change without changing a client.

pub mod audit;
mod cache;
mod client;
mod coalesce;
mod metrics;
mod pool;
mod predict;
pub mod reactor;
mod server;
pub mod sys;
pub mod wire;

pub use audit::{AuditLedger, AuditSummary, ClientAudit};
pub use cache::ScoreCache;
pub use client::{
    run_load, run_load_open, ClientError, LoadConfig, LoadReport, OpenLoadConfig, OpenLoadReport,
    RemoteOracle,
};
pub use coalesce::{Coalescer, Coalescible};
pub use metrics::{MetricsReport, ServerMetrics};
pub use server::{PredictionServer, ServeConfig, ServerHandle, SERVER_SPAN_ID_BASE};
pub use wire::{JobState, JobStatusInfo, ServerInfo, WireError};
