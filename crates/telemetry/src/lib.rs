#![warn(missing_docs)]

//! # fia-telemetry — the workspace's observability layer
//!
//! The paper's threat model is ultimately about what a deployed VFL
//! prediction service *leaks per query*; answering that requires seeing
//! every layer of one query's life — kernel, attack phase, campaign
//! chunk, serving round, cache — in a single correlated surface. This
//! crate is that surface, std-only and dependency-free:
//!
//! * [`Registry`] — a set of typed instruments: monotonic [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket log2 [`Histogram`]s, all lock-free
//!   atomics on the hot path (registration takes a lock once; recording
//!   never does). Each `fia-serve` server owns its own registry so
//!   parallel deployments in one process stay isolated; process-wide
//!   instruments (kernels, campaigns, attack phases) live on
//!   [`global()`].
//! * [`Tracer`] / [`Span`] — hierarchical scoped timers with *explicit*
//!   parent handles: no thread-local magic, so a span crosses
//!   `AttackEngine`'s scoped workers and batcher threads by ordinary
//!   borrows. Finished spans collect into [`SpanRecord`]s and render to
//!   JSONL ([`Tracer::to_jsonl`]).
//! * [`TelemetrySnapshot`] — a plain-old-data point-in-time view
//!   ([`Registry::snapshot`]) with counter-exact deltas
//!   ([`TelemetrySnapshot::delta_since`]) and hand-rolled JSON, the
//!   artifact campaign reports attach.
//! * [`encode_prometheus`] — a Prometheus-style text exposition encoder,
//!   what the server's `MetricsText` wire op returns so any scraper can
//!   poll a live deployment.
//!
//! Recording can be switched off per registry
//! ([`Registry::set_recording`]); the serve bench uses that to price the
//! instrumentation itself (`telemetry_overhead_frac`).

mod expo;
mod instrument;
pub mod json;
mod registry;
mod snapshot;
mod span;

pub use expo::encode_prometheus;
pub use instrument::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{global, Registry};
pub use snapshot::{InstrumentSnapshot, InstrumentValue, TelemetrySnapshot};
pub use span::{FieldValue, Span, SpanRecord, Tracer};
