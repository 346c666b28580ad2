//! The batcher: one thread that owns the deployment, drains the one
//! job queue through a [`Coalescer`] and runs each round.
//!
//! One round is in flight at a time, which is the modelled deployment
//! (the `m` parties run one secure computation at a time). The batcher
//! applies the [`DefensePipeline`] once per round at the score-release
//! boundary, then splits the released rows back to the jobs that asked
//! for them.
//!
//! The thread hop exists so that [`crate::ServeConfig::round_cost`]'s
//! simulated protocol round trip sleeps here, never on the reactor's
//! event loop.

use crate::coalesce::{Coalescer, Coalescible};
use crate::metrics::ServerMetrics;
use crate::reactor::Notifier;
use fia_defense::{DefensePipeline, ScoreDefense};
use fia_linalg::Matrix;
use fia_models::PredictProba;
use fia_telemetry::Tracer;
use fia_vfl::VflSystem;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the blocked batcher re-checks the stop flag.
const POLL_TICK: Duration = Duration::from_millis(20);

/// One queued prediction job: the round input plus where its released
/// rows travel back to.
pub(crate) struct Job {
    pub input: RoundInput,
    pub rows: usize,
    pub reply: ReplyTo,
    /// Server-side span id of the dispatch that enqueued this job, when
    /// the originating request carried a trace context. The batcher's
    /// `serve.round` span links to it, joining the round into the
    /// request's trace.
    pub trace_parent: Option<u64>,
    /// When the job entered the queue — prices the coalescer's batch
    /// wait into the round span.
    pub enqueued: Instant,
}

/// Where a job's released rows go.
pub(crate) enum ReplyTo {
    /// A blocking caller waiting on an mpsc receiver (unit tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Channel(Sender<Result<Matrix, String>>),
    /// The reactor's completion queue: the batcher pushes the result
    /// and nudges the event loop awake.
    Reactor(ReactorReply),
}

impl ReplyTo {
    /// Delivers the job's outcome to whoever is waiting.
    pub fn send(self, result: Result<Matrix, String>) {
        match self {
            ReplyTo::Channel(tx) => {
                let _ = tx.send(result);
            }
            ReplyTo::Reactor(mut r) => r.deliver(result),
        }
    }
}

/// One job's route back to the reactor. If the job is dropped
/// unanswered — a queue torn down mid-shutdown, a send that never
/// happened — `Drop` delivers an error completion, so a connection can
/// never wait forever on a reply that isn't coming.
pub(crate) struct ReactorReply {
    notify: Notifier<Completion>,
    pending_id: u64,
    sent: bool,
}

impl ReactorReply {
    pub fn new(notify: Notifier<Completion>, pending_id: u64) -> Self {
        ReactorReply {
            notify,
            pending_id,
            sent: false,
        }
    }

    fn deliver(&mut self, result: Result<Matrix, String>) {
        if self.sent {
            return;
        }
        self.sent = true;
        self.notify.send(Completion {
            pending_id: self.pending_id,
            result,
        });
    }
}

impl Drop for ReactorReply {
    fn drop(&mut self) {
        self.deliver(Err("server is shutting down".to_string()));
    }
}

/// A finished job flowing back to the reactor's event loop.
pub(crate) struct Completion {
    pub pending_id: u64,
    pub result: Result<Matrix, String>,
}

pub(crate) enum RoundInput {
    /// Stored-sample queries (already range-checked).
    Stored(Vec<usize>),
    /// Ad-hoc per-party feature blocks (already shape-checked).
    AdHoc(Vec<Matrix>),
}

impl Coalescible for Job {
    fn rows(&self) -> usize {
        self.rows
    }
}

/// The reactor-side handle to the batcher's queue.
pub(crate) struct Batcher {
    tx: Sender<Job>,
}

impl Batcher {
    /// Spawns the batcher thread over `system` and returns the queue
    /// handle plus the thread's join handle.
    pub fn spawn<M>(
        system: &Arc<VflSystem<M>>,
        defense: &Arc<DefensePipeline>,
        metrics: &Arc<ServerMetrics>,
        stop: &Arc<AtomicBool>,
        tracer: &Tracer,
        coalescer: Coalescer,
        round_cost: Duration,
    ) -> std::io::Result<(Batcher, JoinHandle<()>)>
    where
        M: PredictProba + Send + Sync + 'static,
    {
        let (tx, rx) = mpsc::channel::<Job>();
        let partition = system.partition();
        let ctx = BatcherCtx {
            system: Arc::clone(system),
            defense: Arc::clone(defense),
            metrics: Arc::clone(metrics),
            stop: Arc::clone(stop),
            party_widths: (0..partition.n_parties())
                .map(|p| partition.features_of(fia_vfl::PartyId(p)).len())
                .collect(),
            coalescer,
            round_cost,
            tracer: tracer.clone(),
        };
        let handle = std::thread::Builder::new()
            .name("fia-serve-batcher".to_string())
            .spawn(move || batcher_loop(&ctx, &rx))?;
        Ok((Batcher { tx }, handle))
    }

    /// Enqueues `job`. A send that fails mid-shutdown drops the job,
    /// whose reply guard delivers the error completion.
    pub fn send(&self, job: Job) {
        let _ = self.tx.send(job);
    }
}

/// Everything the batcher thread owns.
struct BatcherCtx<M: PredictProba> {
    system: Arc<VflSystem<M>>,
    defense: Arc<DefensePipeline>,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    /// Per-party feature widths, precomputed once (round hot path).
    party_widths: Vec<usize>,
    coalescer: Coalescer,
    round_cost: Duration,
    tracer: Tracer,
}

fn batcher_loop<M: PredictProba>(ctx: &BatcherCtx<M>, rx: &Receiver<Job>) {
    // A job the coalescer refused to pack past the row cap; it becomes
    // the next round's first job, preserving arrival order.
    let mut pending: Option<Job> = None;
    loop {
        let first = match pending.take() {
            Some(job) => job,
            None => match rx.recv_timeout(POLL_TICK) {
                Ok(job) => job,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if ctx.stop.load(Ordering::SeqCst) {
                        // Drain stragglers so no connection hangs, then exit.
                        while let Ok(job) = rx.try_recv() {
                            run_round(ctx, vec![job]);
                        }
                        return;
                    }
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            },
        };
        let round = ctx.coalescer.drain(rx, first, &mut pending);
        run_round(ctx, round);
    }
}

/// Executes one joint-prediction round over the coalesced jobs.
fn run_round<M: PredictProba>(ctx: &BatcherCtx<M>, jobs: Vec<Job>) {
    let total: usize = jobs.iter().map(|j| j.rows).sum();

    // A round is traced when any coalesced job carried a trace context:
    // the span links to the *first* traced job's dispatch span (one
    // parent is enough to join the client and server streams; a round
    // may serve many requests) and prices that job's queue wait.
    let round_span = jobs
        .iter()
        .find_map(|j| j.trace_parent.map(|p| (p, j.enqueued)))
        .map(|(parent, enqueued)| {
            let s = ctx.tracer.root_with_parent("serve.round", parent);
            s.record_u64("jobs", jobs.len() as u64);
            s.record_u64("rows", total as u64);
            s.record_u64("batch_wait_us", enqueued.elapsed().as_micros() as u64);
            s
        });

    // Assemble each party's contribution for the whole round, consuming
    // the jobs so ad-hoc blocks are moved, not cloned.
    let mut slices: Vec<Matrix> = ctx
        .party_widths
        .iter()
        .map(|&w| Matrix::zeros(total, w))
        .collect();
    let mut replies = Vec::with_capacity(jobs.len());
    let mut offset = 0;
    for job in jobs {
        let blocks: Vec<Matrix> = match job.input {
            RoundInput::Stored(indices) => ctx.system.party_slices(&indices),
            RoundInput::AdHoc(blocks) => blocks,
        };
        for (slice, block) in slices.iter_mut().zip(&blocks) {
            for r in 0..job.rows {
                slice.row_mut(offset + r).copy_from_slice(block.row(r));
            }
        }
        offset += job.rows;
        replies.push((job.rows, job.reply));
    }

    // The simulated secure-computation round trip: paid once per round,
    // however many queries the round answers.
    if ctx.round_cost > Duration::ZERO {
        std::thread::sleep(ctx.round_cost);
    }

    let scores = {
        let _predict = round_span.as_ref().map(|s| s.child("serve.predict"));
        ctx.system.predict_features_batch(&slices)
    };
    // Defense at the score-release boundary: one batch hook per round,
    // exactly where a deployment would apply it.
    let released = {
        let _defense = round_span.as_ref().map(|s| s.child("serve.defense"));
        ctx.defense.defend_batch(&scores)
    };
    ctx.metrics.record_round(total);

    let mut offset = 0;
    for (job_rows, reply) in replies {
        let rows: Vec<usize> = (offset..offset + job_rows).collect();
        let part = released
            .select_rows(&rows)
            .expect("round rows were assembled in range");
        offset += job_rows;
        reply.send(Ok(part));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fia_models::LogisticRegression;
    use fia_vfl::VerticalPartition;

    fn toy_system() -> Arc<VflSystem<LogisticRegression>> {
        let w = Matrix::from_fn(4, 3, |i, j| 0.1 * (i as f64 + 1.0) - 0.05 * j as f64);
        let model = LogisticRegression::from_parameters(w, vec![0.0, 0.1, -0.1], 3);
        let partition = VerticalPartition::contiguous(&[2, 2]);
        let global = Matrix::from_fn(6, 4, |i, j| ((i + 2 * j) % 5) as f64 * 0.2);
        Arc::new(VflSystem::from_global(model, partition, &global))
    }

    fn spawn_batcher(stop: &Arc<AtomicBool>) -> (Batcher, JoinHandle<()>, Tracer) {
        let metrics = Arc::new(ServerMetrics::new());
        let tracer = Tracer::new();
        let (batcher, handle) = Batcher::spawn(
            &toy_system(),
            &Arc::new(DefensePipeline::new()),
            &metrics,
            stop,
            &tracer,
            Coalescer::new(16),
            Duration::ZERO,
        )
        .expect("spawn batcher");
        (batcher, handle, tracer)
    }

    fn job(input: RoundInput, rows: usize, reply: ReplyTo) -> Job {
        Job {
            input,
            rows,
            reply,
            trace_parent: None,
            enqueued: Instant::now(),
        }
    }

    fn shutdown(stop: &Arc<AtomicBool>, handle: JoinHandle<()>) {
        stop.store(true, Ordering::SeqCst);
        handle.join().expect("batcher thread panicked");
    }

    #[test]
    fn queued_jobs_are_answered_before_shutdown() {
        let stop = Arc::new(AtomicBool::new(false));
        let (batcher, handle, _) = spawn_batcher(&stop);
        let mut rxs = Vec::new();
        for i in 0..5 {
            let (tx, rx) = mpsc::channel();
            batcher.send(job(RoundInput::Stored(vec![i]), 1, ReplyTo::Channel(tx)));
            rxs.push(rx);
        }
        shutdown(&stop, handle);
        for rx in rxs {
            assert!(rx.recv().expect("answered before exit").is_ok());
        }
    }

    #[test]
    fn traced_jobs_open_a_round_span_linked_to_the_dispatch() {
        let stop = Arc::new(AtomicBool::new(false));
        let (batcher, handle, tracer) = spawn_batcher(&stop);
        let (tx, rx) = mpsc::channel();
        batcher.send(Job {
            input: RoundInput::Stored(vec![0, 1]),
            rows: 2,
            reply: ReplyTo::Channel(tx),
            trace_parent: Some(77),
            enqueued: Instant::now(),
        });
        rx.recv().expect("reply").expect("round ok");
        // The round span finishes when run_round returns, a hair after
        // the reply lands — wait for it rather than racing the batcher.
        let deadline = Instant::now() + Duration::from_secs(5);
        let round = loop {
            let recs = tracer.records();
            if let Some(r) = recs.iter().find(|r| r.name == "serve.round") {
                break r.clone();
            }
            assert!(Instant::now() < deadline, "no serve.round span appeared");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(round.parent, Some(77), "round links to the dispatch span");
        let recs = tracer.records();
        for child in ["serve.predict", "serve.defense"] {
            let c = recs
                .iter()
                .find(|r| r.name == child)
                .unwrap_or_else(|| panic!("missing {child} span"));
            assert_eq!(c.parent, Some(round.id));
        }
        shutdown(&stop, handle);
    }

    #[test]
    fn untraced_rounds_record_no_spans() {
        let stop = Arc::new(AtomicBool::new(false));
        let (batcher, handle, tracer) = spawn_batcher(&stop);
        let (tx, rx) = mpsc::channel();
        batcher.send(job(RoundInput::Stored(vec![0]), 1, ReplyTo::Channel(tx)));
        rx.recv().expect("reply").expect("round ok");
        shutdown(&stop, handle);
        assert!(tracer.records().is_empty(), "legacy traffic costs no spans");
    }
}
