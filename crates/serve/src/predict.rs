//! The prediction handler: what a [`crate::PredictionServer`]'s
//! [`Transport`] does with each request.
//!
//! Prediction work flows to the [`crate::dispatch::Dispatcher`] →
//! replica-pool batchers by channel; completed sub-rounds come back as
//! [`Completion`]s through the transport's [`Notifier`]. Around that it
//! answers the cheap ops inline, keeps the per-client audit ledger and
//! session labels, and opens the `serve.request` spans of traced
//! requests.

use crate::audit::{AuditLedger, AuditSummary};
use crate::dispatch::StoredPlan;
use crate::pool::{Completion, ReactorReply, ReplyTo};
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

/// One prediction request fanned out as per-shard sub-rounds.
struct PendingRound {
    ticket: Ticket,
    /// Request-ordered output; cache hits prefilled, miss rows filled
    /// as sub-rounds complete.
    out: Matrix,
    hits: u64,
    /// `(shard, [(request pos, sample index)])` per part, as planned.
    groups: Vec<(usize, Vec<(usize, usize)>)>,
    remaining: usize,
    /// Ad-hoc requests have a single part whose release *is* the output.
    adhoc: bool,
    failed: Option<String>,
    /// The `serve.request` span (traced requests only); finishes when
    /// the response is staged.
    req_span: Option<Span>,
    /// Per-part `serve.dispatch` spans, finished as parts complete.
    dispatch_spans: Vec<Option<Span>>,
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
    shared: Arc<Shared>,
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
    pub fn new(shared: Arc<Shared>, notify: Notifier<Completion>) -> Predict {
        let ledger = shared
            .audit
            .then(|| AuditLedger::new(Arc::clone(shared.metrics.registry())));
        Predict {
            shared,
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
        let StoredPlan { out, hits, groups } = {
            let cache_span = req_span.as_ref().map(|s| s.child("serve.cache"));
            let plan = self.shared.dispatcher.plan_stored(&indices);
            if let Some(cs) = &cache_span {
                cs.record_u64("hit_rows", plan.hits);
                cs.record_u64(
                    "miss_rows",
                    (indices.len() as u64).saturating_sub(plan.hits),
                );
            }
            plan
        };
        if groups.is_empty() {
            // Fully cache-served: no round, no protocol cost.
            self.audit(
                io,
                ticket.conn(),
                AuditKind::Stored {
                    indices: raw,
                    cached: hits,
                },
            );
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
        let pid = self.next_pending;
        self.next_pending += 1;
        let remaining = groups.len();
        let dispatch_spans: Vec<Option<Span>> = groups
            .iter()
            .map(|(shard, group)| {
                req_span.as_ref().map(|s| {
                    let d = s.child("serve.dispatch");
                    d.record_u64("shard", *shard as u64);
                    d.record_u64("rows", group.len() as u64);
                    d
                })
            })
            .collect();
        let audit = self.ledger.is_some().then_some(AuditKind::Stored {
            indices: raw,
            cached: hits,
        });
        self.pending.insert(
            pid,
            PendingRound {
                ticket,
                out,
                hits,
                groups,
                remaining,
                adhoc: false,
                failed: None,
                req_span,
                dispatch_spans,
                audit,
            },
        );
        let round = self.pending.get(&pid).expect("just inserted");
        for (part, (shard, group)) in round.groups.iter().enumerate() {
            let reply = ReplyTo::Reactor(ReactorReply::new(self.notify.clone(), pid, part));
            let parent = round.dispatch_spans[part].as_ref().map(|d| d.id());
            self.shared
                .dispatcher
                .send_stored_part(*shard, group, reply, parent);
        }
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
        let pid = self.next_pending;
        self.next_pending += 1;
        let dispatch_span = req_span.as_ref().map(|s| {
            let d = s.child("serve.dispatch");
            d.record_u64("rows", rows as u64);
            d
        });
        let parent = dispatch_span.as_ref().map(|d| d.id());
        let audit = self
            .ledger
            .is_some()
            .then_some(AuditKind::Features { rows: rows as u64 });
        self.pending.insert(
            pid,
            PendingRound {
                ticket,
                out: Matrix::zeros(0, 0),
                hits: 0,
                groups: Vec::new(),
                remaining: 1,
                adhoc: true,
                failed: None,
                req_span,
                dispatch_spans: vec![dispatch_span],
                audit,
            },
        );
        let reply = ReplyTo::Reactor(ReactorReply::new(self.notify.clone(), pid, 0));
        self.shared
            .dispatcher
            .send_adhoc(slices, rows, reply, parent);
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
        let finished = {
            let Some(p) = self.pending.get_mut(&c.pending_id) else {
                return; // request's connection is long gone
            };
            p.remaining -= 1;
            // This part's dispatch span ends now, success or not.
            if let Some(slot) = p.dispatch_spans.get_mut(c.part) {
                drop(slot.take());
            }
            match c.result {
                Ok(part) => {
                    if p.adhoc {
                        p.out = part;
                    } else {
                        let group = &p.groups[c.part].1;
                        self.shared
                            .dispatcher
                            .finish_stored_part(group, &part, &mut p.out);
                    }
                }
                Err(why) => {
                    if p.failed.is_none() {
                        p.failed = Some(why);
                    }
                }
            }
            p.remaining == 0
        };
        if !finished {
            return;
        }
        let mut p = self.pending.remove(&c.pending_id).expect("checked above");
        let resp = match p.failed.take() {
            Some(why) => Response::Error(why),
            None => Response::Scores {
                scores: std::mem::replace(&mut p.out, Matrix::zeros(0, 0)),
                cached_rows: p.hits as u32,
            },
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
