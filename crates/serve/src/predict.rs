//! The prediction handler: what a [`crate::PredictionServer`]'s
//! [`Transport`] does with each request.
//!
//! Every prediction request that needs a round becomes one job on the
//! batcher's queue (`crate::pool`), and its released rows come back as
//! one [`Completion`] through the transport's [`Notifier`]. Around that
//! it answers the cheap ops inline, keeps the per-client audit ledger
//! and session labels, and opens the `serve.request` spans of traced
//! requests.
//!
//! The [`ScoreCache`] lives here, on the loop thread, strictly *after*
//! the defense pipeline in dataflow terms: what it stores is what the
//! batcher *released* (post-defense), keyed by stored-sample index.
//! Hits are answered without a job — no joint round, no simulated
//! protocol cost — and re-release the first-released bytes
//! bit-identically.

use crate::audit::{AuditLedger, AuditSummary};
use crate::cache::ScoreCache;
use crate::pool::{Completion, Job, ReactorReply, ReplyTo, RoundInput};
use crate::reactor::{Handler, Notifier, Ticket, Transport};
use crate::server::Shared;
use crate::wire::{Request, Response};
use fia_core::TraceContext;
use fia_linalg::Matrix;
use fia_telemetry::Span;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One prediction request whose job is on the batcher's queue.
struct PendingRound {
    ticket: Ticket,
    /// With the cache on, a stored-index request's response is merged:
    /// the request-ordered output with the hit rows filled, and the
    /// `(request pos, sample index)` of each row the job computes.
    /// `None` when the job's release is the whole response.
    merge: Option<(Matrix, Vec<(usize, usize)>)>,
    hits: u64,
    /// The `serve.request` span (traced requests only); finishes when
    /// the response is staged.
    req_span: Option<Span>,
    /// The `serve.dispatch` span, finished when the job completes.
    dispatch_span: Option<Span>,
    /// What the audit ledger records if the round succeeds (`None` when
    /// auditing is off).
    audit: Option<AuditKind>,
}

/// Audit-ledger accounting deferred until a round's response stages.
enum AuditKind {
    /// Stored-index query: the queried identities plus cache hits.
    Stored { indices: Vec<u32>, cached: u64 },
    /// Ad-hoc feature query: row count only (no stored identity).
    Features { rows: u64 },
}

/// The prediction server's [`Handler`]: request validation, dispatch,
/// and the bookkeeping of rounds in flight.
pub(crate) struct Predict {
    shared: Shared,
    /// The released-score cache; `None` when caching is disabled.
    cache: Option<ScoreCache>,
    notify: Notifier<Completion>,
    pending: HashMap<u64, PendingRound>,
    next_pending: u64,
    /// Per-client leakage audit ledger; `None` when [`crate::ServeConfig`]
    /// disables auditing. Owned by the loop thread — counters are plain
    /// integers, no locks on the request path.
    ledger: Option<AuditLedger>,
    /// Audit-ledger label per connection: `conn-{id}` until the client
    /// declares a session tag (`DeclareSession`), which survives as the
    /// stable identity across reconnects.
    labels: HashMap<u64, String>,
}

impl Predict {
    pub fn new(shared: Shared, cache: Option<ScoreCache>, notify: Notifier<Completion>) -> Predict {
        let ledger = shared
            .audit
            .then(|| AuditLedger::new(Arc::clone(shared.metrics.registry())));
        Predict {
            shared,
            cache,
            notify,
            pending: HashMap::new(),
            next_pending: 0,
            ledger,
            labels: HashMap::new(),
        }
    }

    /// Opens the `serve.request` span for a traced request: a
    /// server-side root *linked* to the client-side span id carried in
    /// the frame, which is what joins the two JSONL streams after a
    /// merge. Untraced requests cost no span at all.
    fn open_request_span(&self, ctx: Option<TraceContext>, op: &str) -> Option<Span> {
        ctx.map(|c| {
            let s = self
                .shared
                .tracer
                .root_with_parent("serve.request", c.parent_span);
            s.record_u64("trace_id", c.trace_id);
            s.record_str("op", op);
            s
        })
    }

    /// Records one successfully answered query against the connection's
    /// ledger entry. Called exactly where a `Scores` response stages to
    /// a live connection — the same event the client meters — which is
    /// what the server/client `QueryCost` parity guarantee rests on.
    fn audit(&mut self, io: &Transport<Completion>, conn: u64, kind: AuditKind) {
        let Some(ledger) = self.ledger.as_mut() else {
            return;
        };
        if !io.is_open(conn) {
            return;
        }
        let label = self
            .labels
            .entry(conn)
            .or_insert_with(|| format!("conn-{conn}"));
        match kind {
            AuditKind::Stored { indices, cached } => {
                ledger.record_stored(label, &indices, cached, Instant::now())
            }
            AuditKind::Features { rows } => ledger.record_features(label, rows, Instant::now()),
        }
    }

    /// Answers a request refused before any dispatch.
    ///
    /// Like every reply path, it consumes the request span, which
    /// finishes it, *before* staging the reply: a client that has read
    /// the reply always finds its `serve.request` span in the trace.
    fn reject(
        &mut self,
        io: &mut Transport<Completion>,
        ticket: Ticket,
        req_span: Option<Span>,
        why: String,
    ) {
        if let Some(s) = req_span {
            s.record_str("outcome", "rejected");
        }
        self.shared.metrics.record_error();
        io.reply(ticket, &Response::Error(why));
    }

    fn start_stored(
        &mut self,
        io: &mut Transport<Completion>,
        ticket: Ticket,
        indices: Vec<u32>,
        trace: Option<TraceContext>,
    ) {
        let req_span = self.open_request_span(trace, "predict_by_index");
        if let Some(s) = &req_span {
            s.record_u64("rows", indices.len() as u64);
        }
        let n = self.shared.info.n_samples;
        if let Some(&bad) = indices.iter().find(|&&i| (i as usize) >= n) {
            let why = format!("sample index {bad} out of range (n_samples = {n})");
            self.reject(io, ticket, req_span, why);
            return;
        }
        // Keep the u32 identities: the audit ledger tracks distinct and
        // repeated stored rows by exactly what the client asked for.
        let raw = indices;
        let indices: Vec<usize> = raw.iter().map(|&i| i as usize).collect();
        if indices.is_empty() {
            // Nothing to compute or defend: answer the empty round
            // directly. It still counts as one query in the ledger,
            // exactly as the client meters it.
            self.audit(
                io,
                ticket.conn(),
                AuditKind::Stored {
                    indices: raw,
                    cached: 0,
                },
            );
            if let Some(s) = req_span {
                s.record_str("outcome", "ok");
            }
            let resp = Response::Scores {
                scores: Matrix::zeros(0, self.shared.info.n_classes),
                cached_rows: 0,
            };
            io.reply(ticket, &resp);
            return;
        }
        // Cache hits fill their rows of the response now; the misses
        // become the job.
        let cache_span = req_span.as_ref().map(|s| s.child("serve.cache"));
        let merge = self.cache.as_ref().map(|cache| {
            let mut out = Matrix::zeros(indices.len(), self.shared.info.n_classes);
            let mut misses = Vec::new();
            for (pos, &idx) in indices.iter().enumerate() {
                match cache.get(idx) {
                    Some(row) => out.row_mut(pos).copy_from_slice(row),
                    None => misses.push((pos, idx)),
                }
            }
            (out, misses)
        });
        let miss_rows = merge.as_ref().map_or(indices.len(), |(_, m)| m.len());
        let hits = (indices.len() - miss_rows) as u64;
        if merge.is_some() {
            self.shared.metrics.record_cache(hits, miss_rows as u64);
        }
        if let Some(cs) = cache_span {
            cs.record_u64("hit_rows", hits);
            cs.record_u64("miss_rows", miss_rows as u64);
        }
        let audit = AuditKind::Stored {
            indices: raw,
            cached: hits,
        };
        let (job_indices, merge) = match merge {
            Some((out, _)) if miss_rows == 0 => {
                // Fully cache-served: no round, no protocol cost.
                self.audit(io, ticket.conn(), audit);
                if let Some(s) = req_span {
                    s.record_str("outcome", "ok");
                    s.record_u64("cached_rows", hits);
                }
                let resp = Response::Scores {
                    scores: out,
                    cached_rows: hits as u32,
                };
                io.reply(ticket, &resp);
                return;
            }
            Some((out, misses)) => {
                let job = misses.iter().map(|&(_, idx)| idx).collect();
                (job, Some((out, misses)))
            }
            None => (indices, None),
        };
        let round = PendingRound {
            ticket,
            merge,
            hits,
            req_span,
            dispatch_span: None,
            audit: self.ledger.is_some().then_some(audit),
        };
        self.dispatch(RoundInput::Stored(job_indices), miss_rows, round);
    }

    fn start_adhoc(
        &mut self,
        io: &mut Transport<Completion>,
        ticket: Ticket,
        slices: Vec<Matrix>,
        trace: Option<TraceContext>,
    ) {
        let req_span = self.open_request_span(trace, "predict_features");
        let widths = &self.shared.info.party_widths;
        if slices.len() != widths.len() {
            let why = format!(
                "expected {} party feature blocks, got {}",
                widths.len(),
                slices.len()
            );
            self.reject(io, ticket, req_span, why);
            return;
        }
        let rows = slices.first().map(|s| s.rows()).unwrap_or_default();
        if let Some(s) = &req_span {
            s.record_u64("rows", rows as u64);
        }
        let bad_block = slices
            .iter()
            .zip(widths)
            .enumerate()
            .find_map(|(p, (block, &width))| {
                if block.cols() != width {
                    Some(format!(
                        "party {p} block is {} wide, expected {width}",
                        block.cols()
                    ))
                } else {
                    (block.rows() != rows).then(|| "party blocks must be row-aligned".to_string())
                }
            });
        if let Some(why) = bad_block {
            self.reject(io, ticket, req_span, why);
            return;
        }
        if rows == 0 {
            self.audit(io, ticket.conn(), AuditKind::Features { rows: 0 });
            if let Some(s) = req_span {
                s.record_str("outcome", "ok");
            }
            let resp = Response::Scores {
                scores: Matrix::zeros(0, self.shared.info.n_classes),
                cached_rows: 0,
            };
            io.reply(ticket, &resp);
            return;
        }
        let round = PendingRound {
            ticket,
            merge: None,
            hits: 0,
            req_span,
            dispatch_span: None,
            audit: self
                .ledger
                .is_some()
                .then_some(AuditKind::Features { rows: rows as u64 }),
        };
        self.dispatch(RoundInput::AdHoc(slices), rows, round);
    }

    /// Queues one request's job on the batcher and registers it as in
    /// flight. The job carries the request's `serve.dispatch` span id
    /// (if traced) so the batcher's round span can link back.
    fn dispatch(&mut self, input: RoundInput, rows: usize, mut round: PendingRound) {
        let pid = self.next_pending;
        self.next_pending += 1;
        round.dispatch_span = round.req_span.as_ref().map(|s| {
            let d = s.child("serve.dispatch");
            d.record_u64("rows", rows as u64);
            d
        });
        let trace_parent = round.dispatch_span.as_ref().map(|d| d.id());
        self.pending.insert(pid, round);
        self.shared.batcher.send(Job {
            input,
            rows,
            reply: ReplyTo::Reactor(ReactorReply::new(self.notify.clone(), pid)),
            trace_parent,
            enqueued: Instant::now(),
        });
    }
}

impl Handler for Predict {
    type Completion = Completion;

    fn request(&mut self, io: &mut Transport<Completion>, ticket: Ticket, req: Request) {
        match req {
            Request::Ping => io.reply(ticket, &Response::Pong),
            Request::Info => io.reply(ticket, &Response::Info(self.shared.info.clone())),
            Request::MetricsText => {
                let text = self.shared.metrics.exposition();
                io.reply(ticket, &Response::MetricsText(text));
            }
            Request::Shutdown => {
                io.reply(ticket, &Response::ShuttingDown);
                io.stop_reading(ticket.conn());
                self.shared.stop.store(true, Ordering::SeqCst);
                // The drain starts on the next loop turn.
            }
            Request::PredictByIndex { indices, trace } => {
                self.start_stored(io, ticket, indices, trace)
            }
            Request::PredictFeatures { blocks, trace } => {
                self.start_adhoc(io, ticket, blocks, trace)
            }
            Request::TraceExport => {
                let text = self.shared.tracer.to_jsonl();
                io.reply(ticket, &Response::TraceJsonl(text));
            }
            Request::AuditReport => {
                let n = self.shared.info.n_samples as u64;
                let summary = match &mut self.ledger {
                    Some(ledger) => ledger.summary(n, Instant::now()),
                    // Auditing off: an empty report, not an error — the
                    // op stays probeable either way.
                    None => AuditSummary {
                        n_samples: n,
                        clients: Vec::new(),
                    },
                };
                io.reply(ticket, &Response::Audit(summary));
            }
            Request::JobSubmit(_)
            | Request::JobStatus(_)
            | Request::JobList
            | Request::JobCancel(_)
            | Request::JobAttach { .. }
            | Request::JobReport(_) => {
                // Job ops share the tag space but are a campaign-daemon
                // surface; a prediction server rejects them with a typed
                // error so a misdirected client fails loudly, not oddly.
                self.shared.metrics.record_error();
                let why = "job ops are served by fia-campaignd, not a prediction server";
                io.reply(ticket, &Response::Error(why.to_string()));
            }
            Request::DeclareSession(tag) => {
                // An empty tag reverts to the per-connection default.
                if tag.is_empty() {
                    self.labels.remove(&ticket.conn());
                } else {
                    self.labels.insert(ticket.conn(), tag);
                }
                io.reply(ticket, &Response::SessionAck);
            }
        }
    }

    fn completion(&mut self, io: &mut Transport<Completion>, c: Completion) {
        let Some(mut p) = self.pending.remove(&c.pending_id) else {
            return; // request's connection is long gone
        };
        // The dispatch span ends now, success or not.
        drop(p.dispatch_span.take());
        let resp = match c.result {
            Ok(released) => {
                let scores = match (p.merge.take(), self.cache.as_mut()) {
                    (Some((mut out, misses)), Some(cache)) => {
                        // Admit the released rows and send the
                        // *canonical* bytes: `admit` returns the resident
                        // row when a concurrent request populated the
                        // entry first, so duplicate in-flight queries
                        // for one sample all release identical bytes.
                        for (r, &(pos, idx)) in misses.iter().enumerate() {
                            let canonical = cache.admit(idx, released.row(r).to_vec());
                            out.row_mut(pos).copy_from_slice(&canonical);
                        }
                        out
                    }
                    _ => released,
                };
                Response::Scores {
                    scores,
                    cached_rows: p.hits as u32,
                }
            }
            Err(why) => Response::Error(why),
        };
        let is_error = matches!(resp, Response::Error(_));
        // Taking the span finishes it before the reply stages.
        if let Some(s) = p.req_span.take() {
            s.record_str("outcome", if is_error { "error" } else { "ok" });
            if p.hits > 0 {
                s.record_u64("cached_rows", p.hits);
            }
        }
        // Ledger accounting happens only when a `Scores` response really
        // stages to a live connection — the exact event the client's own
        // cost metering counts, so the two stay equal by construction.
        if let (false, Some(kind)) = (is_error, p.audit.take()) {
            self.audit(io, p.ticket.conn(), kind);
        }
        io.reply(p.ticket, &resp);
    }

    fn closed(&mut self, conn: u64) {
        self.labels.remove(&conn);
    }
}
