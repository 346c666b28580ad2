//! The campaign daemon: a durable, multi-tenant scheduler for attack
//! campaigns.
//!
//! One daemon process runs many campaigns concurrently on a bounded
//! worker pool, serves all client traffic as a [`Handler`] on
//! `fia-serve`'s connection reactor (the same event loop the
//! prediction server runs on), and survives `SIGKILL`:
//!
//! - **Accept/submit**: clients speak the `fia-serve` wire protocol's
//!   job ops (`JOB_SUBMIT` … `JOB_REPORT`). A submitted [`JobSpec`] is
//!   persisted (atomically) before the daemon acknowledges it.
//! - **Shared deployments**: jobs are keyed by scenario fingerprint.
//!   Jobs with the same fingerprint share one resolved scenario — and,
//!   for [`JobOracle::Shared`] jobs, one spawned
//!   [`fia_serve::PredictionServer`] that all of them query over TCP.
//! - **Durability**: each worker appends a campaign checkpoint to the
//!   job's write-ahead log (fsync'd) after every corpus chunk, *before*
//!   publishing that chunk's events. A killed daemon restarts, replays
//!   each job log to its last intact checkpoint, validates the scenario
//!   fingerprint, and resumes — bit-identically for the deterministic
//!   defenses the job spec admits.
//! - **Event streams**: every campaign event is appended to the job's
//!   `events.jsonl` under a gapless per-job sequence number; `JOB_ATTACH`
//!   replays from any sequence and then streams live, so a client that
//!   attaches mid-run (or re-attaches after a daemon restart) sees every
//!   event exactly once, in order. A graceful shutdown ends every open
//!   stream with `JOB_EVENTS_END` once the workers have suspended.

use crate::outcome::JobOutcome;
use crate::spec::{JobOracle, JobSpec};
use crate::wal::{self, JobLog};
use fia_campaign::{Campaign, CampaignCheckpoint, CampaignEvent, ResolvedScenario, StepOutcome};
use fia_serve::reactor::{Handler, Notifier, Ticket, Transport};
use fia_serve::wire::{Request, Response};
use fia_serve::{JobState, JobStatusInfo, RemoteOracle, ServerHandle, ServerMetrics};
use fia_telemetry::{global, Counter, Tracer};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs::OpenOptions;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How the daemon is stood up.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Address to bind; use port `0` for an ephemeral port.
    pub bind: String,
    /// State directory: job specs, write-ahead logs, event streams and
    /// outcomes all live here, and a restart with the same directory
    /// resumes whatever was in flight.
    pub state_dir: PathBuf,
    /// Campaign worker threads (concurrent jobs).
    pub workers: usize,
}

impl DaemonConfig {
    /// Ephemeral-port daemon over `state_dir` with two workers.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            bind: "127.0.0.1:0".to_string(),
            state_dir: state_dir.into(),
            workers: 2,
        }
    }
}

/// A running daemon: bound address plus the shutdown switch.
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon stops (a client sent `Shutdown`).
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Stops the daemon and joins its threads. Running jobs checkpoint
    /// at their current chunk and return to `Pending`; a restart over
    /// the same state directory resumes them. Attached streams end with
    /// `JobEventsEnd` before their connections close.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// One job's in-memory row.
struct JobEntry {
    spec: JobSpec,
    fingerprint: String,
    state: JobState,
    chunks_done: u64,
    rows_done: u64,
    rows_planned: u64,
    queries: u64,
    rows: u64,
    cached_rows: u64,
    resumes: u64,
    events: u64,
    detail: String,
    cancel: bool,
    /// Open `JobAttach` streams, each answered by `JobEventsEnd`.
    subscribers: Vec<Ticket>,
    events_file: Option<std::fs::File>,
}

impl JobEntry {
    fn row(&self, id: u64) -> JobStatusInfo {
        JobStatusInfo {
            id,
            state: self.state,
            fingerprint: self.fingerprint.clone(),
            chunks_done: self.chunks_done,
            rows_done: self.rows_done,
            rows_planned: self.rows_planned,
            queries: self.queries,
            rows: self.rows,
            cached_rows: self.cached_rows,
            resumes: self.resumes,
            events: self.events,
            detail: self.detail.clone(),
        }
    }
}

/// A resolved scenario shared by every job with its fingerprint, plus
/// the one prediction server `Shared`-oracle jobs query.
struct Deployment {
    scenario: ResolvedScenario,
    server: Option<ServerHandle>,
}

struct Shared {
    state_dir: PathBuf,
    jobs: Mutex<BTreeMap<u64, JobEntry>>,
    next_id: Mutex<u64>,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    deployments: Mutex<HashMap<String, Arc<Deployment>>>,
    /// Stream frames from workers to the connection reactor.
    notify: Notifier<StreamFrame>,
    /// Set once: workers suspend their jobs and the reactor drains.
    shutdown: Arc<AtomicBool>,
    /// Workers not yet exited; the last one out ends open streams.
    workers_live: AtomicUsize,
    jobs_total: Arc<Counter>,
    resumes_total: Arc<Counter>,
    replays_total: Arc<Counter>,
    tracer: Tracer,
}

impl Shared {
    fn job_dir(&self, id: u64) -> PathBuf {
        self.state_dir.join("jobs").join(id.to_string())
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        self.notify.wake();
    }

    /// Appends one event to the job's durable stream and sends it to
    /// attached connections. The jobs lock serializes this against
    /// attach replay, which is what keeps every subscriber's view
    /// gapless.
    fn emit_event(&self, id: u64, event: &CampaignEvent) {
        let line = event.to_json();
        let mut jobs = self.jobs.lock().unwrap();
        let Some(entry) = jobs.get_mut(&id) else {
            return;
        };
        let seq = entry.events;
        if let Some(f) = entry.events_file.as_mut() {
            let _ = f.write_all(line.as_bytes());
            let _ = f.write_all(b"\n");
        }
        entry.events += 1;
        for &ticket in &entry.subscribers {
            let json = line.clone();
            self.notify
                .send((ticket, Response::JobEvent { id, seq, json }));
        }
    }

    /// Moves a job to a terminal state: durable marker first, then the
    /// table row, then `JobEventsEnd` to every subscriber.
    fn finish_job(&self, id: u64, state: JobState, detail: &str) {
        let marker = match state {
            JobState::Completed => "completed".to_string(),
            JobState::Canceled => "canceled".to_string(),
            _ => format!("failed:{detail}"),
        };
        let _ = wal::write_atomic(&self.job_dir(id).join("state"), marker.as_bytes());
        self.close_job(id, state, detail);
    }

    /// Updates the row and ends its streams without writing a terminal
    /// marker — shared by finish and suspend paths.
    fn close_job(&self, id: u64, state: JobState, detail: &str) {
        let mut jobs = self.jobs.lock().unwrap();
        let Some(entry) = jobs.get_mut(&id) else {
            return;
        };
        entry.state = state;
        entry.detail = detail.to_string();
        entry.events_file = None;
        self.end_streams(id, entry);
    }

    fn end_streams(&self, id: u64, entry: &mut JobEntry) {
        let next_seq = entry.events;
        for ticket in std::mem::take(&mut entry.subscribers) {
            self.notify
                .send((ticket, Response::JobEventsEnd { id, next_seq }));
        }
    }
}

/// A frame for one attached stream: a `JobEvent`, or the
/// `JobEventsEnd` that answers the attach.
type StreamFrame = (Ticket, Response);

/// Starts a daemon: recovers the state directory, binds the listener,
/// spawns the reactor and worker threads, and records the bound address
/// in `state_dir/endpoint`.
pub fn start(config: DaemonConfig) -> io::Result<DaemonHandle> {
    std::fs::create_dir_all(config.state_dir.join("jobs"))?;
    let listener = TcpListener::bind(&config.bind)?;
    let addr = listener.local_addr()?;
    let metrics = Arc::new(ServerMetrics::new());
    let shutdown = Arc::new(AtomicBool::new(false));
    let transport = Transport::new(listener, Arc::clone(&metrics), Arc::clone(&shutdown))?;
    let workers = config.workers.max(1);

    let shared = Arc::new(Shared {
        state_dir: config.state_dir.clone(),
        jobs: Mutex::new(BTreeMap::new()),
        next_id: Mutex::new(1),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        deployments: Mutex::new(HashMap::new()),
        notify: transport.notifier(),
        shutdown,
        workers_live: AtomicUsize::new(workers),
        jobs_total: global().counter(
            "fia_campaignd_jobs_total",
            "Campaign jobs accepted by the daemon",
        ),
        resumes_total: global().counter(
            "fia_campaignd_resumes_total",
            "Jobs resumed from a write-ahead checkpoint after a restart",
        ),
        replays_total: global().counter(
            "fia_campaignd_replays_total",
            "Attach requests that replayed buffered events to a client",
        ),
        tracer: Tracer::new(),
    });

    recover_state(&shared)?;
    wal::write_atomic(
        &config.state_dir.join("endpoint"),
        addr.to_string().as_bytes(),
    )?;

    let mut threads = Vec::new();
    let handler = Jobs {
        shared: Arc::clone(&shared),
        metrics,
    };
    threads.push(
        std::thread::Builder::new()
            .name("fia-campaignd-reactor".to_string())
            .spawn(move || transport.run(handler))?,
    );
    for i in 0..workers {
        let worker_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("fia-campaignd-worker-{i}"))
                .spawn(move || worker_loop(worker_shared))?,
        );
    }

    Ok(DaemonHandle {
        addr,
        shared,
        threads,
    })
}

/// Scans `state_dir/jobs` and rebuilds the job table: terminal jobs
/// load their durable facts, everything else is re-enqueued to resume.
/// Torn tails on event streams (a crash mid-append) are truncated to
/// the last complete line so sequence numbers stay consistent.
fn recover_state(shared: &Shared) -> io::Result<()> {
    let jobs_dir = shared.state_dir.join("jobs");
    let mut max_id = 0u64;
    let mut recovered: Vec<(u64, JobEntry)> = Vec::new();
    for dir_entry in std::fs::read_dir(&jobs_dir)? {
        let dir_entry = dir_entry?;
        let Ok(id) = dir_entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        let dir = dir_entry.path();
        let Ok(spec_blob) = std::fs::read(dir.join("spec.bin")) else {
            continue;
        };
        let Ok(spec) = JobSpec::from_blob(&spec_blob) else {
            continue;
        };
        max_id = max_id.max(id);
        let events = repair_event_stream(&dir.join("events.jsonl"))?;
        let mut entry = JobEntry {
            fingerprint: spec.fingerprint(),
            spec,
            state: JobState::Pending,
            chunks_done: 0,
            rows_done: 0,
            rows_planned: 0,
            queries: 0,
            rows: 0,
            cached_rows: 0,
            resumes: 0,
            events,
            detail: String::new(),
            cancel: false,
            subscribers: Vec::new(),
            events_file: None,
        };
        match std::fs::read_to_string(dir.join("state")) {
            Ok(marker) => {
                if marker == "completed" {
                    entry.state = JobState::Completed;
                    if let Ok(blob) = std::fs::read(dir.join("outcome.bin")) {
                        if let Ok(outcome) = JobOutcome::from_blob(&blob) {
                            entry.rows_done = outcome.rows_done;
                            entry.rows_planned = outcome.rows_planned;
                            entry.queries = outcome.cost.queries;
                            entry.rows = outcome.cost.rows;
                            entry.cached_rows = outcome.cost.cached_rows;
                        }
                    }
                } else if marker == "canceled" {
                    entry.state = JobState::Canceled;
                    entry.detail = "canceled".to_string();
                } else {
                    entry.state = JobState::Failed;
                    entry.detail = marker
                        .strip_prefix("failed:")
                        .unwrap_or(marker.as_str())
                        .to_string();
                }
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        recovered.push((id, entry));
    }
    recovered.sort_by_key(|(id, _)| *id);
    let mut jobs = shared.jobs.lock().unwrap();
    let mut queue = shared.queue.lock().unwrap();
    for (id, entry) in recovered {
        if !entry.state.is_terminal() {
            queue.push_back(id);
        }
        jobs.insert(id, entry);
    }
    *shared.next_id.lock().unwrap() = max_id + 1;
    Ok(())
}

/// Truncates a torn trailing line (no `\n`) and returns the stream's
/// line count — the next event sequence number.
fn repair_event_stream(path: &Path) -> io::Result<u64> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let keep = match bytes.iter().rposition(|&b| b == b'\n') {
        Some(last_nl) => last_nl + 1,
        None => 0,
    };
    if keep != bytes.len() {
        std::fs::write(path, &bytes[..keep])?;
    }
    Ok(bytes[..keep].iter().filter(|&&b| b == b'\n').count() as u64)
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

enum JobEnd {
    Completed,
    Canceled,
    Suspended,
}

fn worker_loop(shared: Arc<Shared>) {
    while let Some(id) = next_job(&shared) {
        run_job(&shared, id);
    }
    // Last worker out: every job is parked, so streams still open (on
    // jobs no worker picked up) end here and the reactor can drain.
    if shared.workers_live.fetch_sub(1, Ordering::SeqCst) == 1 {
        let mut jobs = shared.jobs.lock().unwrap();
        for (&id, entry) in jobs.iter_mut() {
            shared.end_streams(id, entry);
        }
    }
}

/// Blocks for the next queued job; `None` once the daemon shuts down.
fn next_job(shared: &Shared) -> Option<u64> {
    let mut queue = shared.queue.lock().unwrap();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        if let Some(id) = queue.pop_front() {
            return Some(id);
        }
        let (guard, _) = shared
            .queue_cv
            .wait_timeout(queue, Duration::from_millis(200))
            .unwrap();
        queue = guard;
    }
}

fn run_job(shared: &Arc<Shared>, id: u64) {
    let spec = {
        let mut jobs = shared.jobs.lock().unwrap();
        let Some(entry) = jobs.get_mut(&id) else {
            return;
        };
        if entry.state != JobState::Pending {
            return;
        }
        if entry.cancel {
            drop(jobs);
            shared.finish_job(id, JobState::Canceled, "canceled before start");
            return;
        }
        entry.state = JobState::Running;
        entry.spec.clone()
    };
    let span = shared.tracer.root("campaignd.job");
    span.record_u64("job.id", id);
    match drive_job(shared, id, &spec) {
        Ok(JobEnd::Completed) => {
            span.record_str("job.end", "completed");
            shared.finish_job(id, JobState::Completed, "");
        }
        Ok(JobEnd::Canceled) => {
            span.record_str("job.end", "canceled");
            shared.finish_job(id, JobState::Canceled, "canceled");
        }
        Ok(JobEnd::Suspended) => {
            // Daemon is shutting down: the job goes back to Pending with
            // no terminal marker, so a restart resumes it from its log.
            span.record_str("job.end", "suspended");
            shared.close_job(id, JobState::Pending, "");
        }
        Err(detail) => {
            span.record_str("job.end", "failed");
            span.record_str("job.error", &detail);
            shared.finish_job(id, JobState::Failed, &detail);
        }
    }
    span.finish();
}

fn drive_job(shared: &Arc<Shared>, id: u64, spec: &JobSpec) -> Result<JobEnd, String> {
    let dir = shared.job_dir(id);
    let scenario_spec = spec.to_scenario();
    let fingerprint = scenario_spec.fingerprint();

    // Resolve (or reuse) the deployment for this fingerprint. The lock
    // is held across the build so two jobs racing on the same scenario
    // share one model and one server rather than each paying the build.
    let deployment = {
        let mut deployments = shared.deployments.lock().unwrap();
        match deployments.get(&fingerprint) {
            Some(d) => Arc::clone(d),
            None => {
                let scenario = scenario_spec.build();
                let server = match spec.oracle {
                    JobOracle::Shared { .. } => Some(
                        scenario
                            .spawn_server()
                            .map_err(|e| format!("could not spawn shared deployment: {e}"))?,
                    ),
                    JobOracle::InProcess => None,
                };
                let d = Arc::new(Deployment { scenario, server });
                deployments.insert(fingerprint.clone(), Arc::clone(&d));
                d
            }
        }
    };

    // Resume from the write-ahead log when it holds a checkpoint.
    let log_path = dir.join("job.log");
    let recovered = JobLog::recover(&log_path).map_err(|e| format!("job log: {e}"))?;
    let mut campaign = match recovered {
        Some(blob) => {
            let cp = CampaignCheckpoint::from_blob(&blob)
                .map_err(|e| format!("checkpoint decode: {e}"))?;
            let c = Campaign::restore(deployment.scenario.clone(), &cp)
                .map_err(|e| format!("checkpoint restore: {e}"))?;
            shared.resumes_total.inc();
            if let Some(entry) = shared.jobs.lock().unwrap().get_mut(&id) {
                entry.resumes += 1;
            }
            c
        }
        None => Campaign::new(deployment.scenario.clone()),
    };
    campaign = campaign
        .with_attacks(spec.attack_specs())
        .with_budget(spec.budget())
        .with_chunk(spec.chunk as usize);

    // Shared-oracle jobs query the deployment's one server over TCP,
    // each under its own audit session tag.
    if let Some(server) = deployment.server.as_ref() {
        let mut client =
            RemoteOracle::connect(server.addr()).map_err(|e| format!("deployment connect: {e}"))?;
        client
            .declare_session(&format!("job-{id}"))
            .map_err(|e| format!("deployment session: {e}"))?;
        campaign.attach_oracle(Box::new(client));
    }

    let events_file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("events.jsonl"))
        .map_err(|e| format!("event stream: {e}"))?;
    update_row(shared, id, &campaign, Some(events_file));

    let mut log = JobLog::open(&log_path).map_err(|e| format!("job log: {e}"))?;
    let mut pending: Vec<CampaignEvent> = Vec::new();
    campaign
        .begin(&mut |e: &CampaignEvent| pending.push(e.clone()))
        .map_err(|e| e.to_string())?;
    flush_events(shared, id, &mut pending);

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(JobEnd::Suspended);
        }
        let canceled = shared
            .jobs
            .lock()
            .unwrap()
            .get(&id)
            .is_some_and(|e| e.cancel);
        if canceled {
            return Ok(JobEnd::Canceled);
        }
        let outcome = campaign
            .step(&mut |e: &CampaignEvent| pending.push(e.clone()))
            .map_err(|e| e.to_string())?;
        // Durability order: the checkpoint hits the log (fsync) before
        // the chunk's events become visible anywhere. A kill between the
        // two loses at most the event line, never accumulated state.
        log.append(&campaign.checkpoint().to_blob())
            .map_err(|e| format!("checkpoint append: {e}"))?;
        update_row(shared, id, &campaign, None);
        flush_events(shared, id, &mut pending);
        match outcome {
            StepOutcome::Chunk => {
                if spec.throttle_ms > 0 {
                    std::thread::sleep(Duration::from_millis(u64::from(spec.throttle_ms)));
                }
            }
            StepOutcome::Exhausted | StepOutcome::Done => break,
        }
    }

    let report = campaign
        .finalize(&mut |e: &CampaignEvent| pending.push(e.clone()))
        .map_err(|e| e.to_string())?;
    let outcome = JobOutcome::from_report(&report);
    wal::write_atomic(&dir.join("outcome.bin"), &outcome.to_blob())
        .map_err(|e| format!("outcome write: {e}"))?;
    update_row(shared, id, &campaign, None);
    flush_events(shared, id, &mut pending);
    Ok(JobEnd::Completed)
}

fn update_row(shared: &Shared, id: u64, campaign: &Campaign, events_file: Option<std::fs::File>) {
    let spent = campaign.spent();
    let mut jobs = shared.jobs.lock().unwrap();
    if let Some(entry) = jobs.get_mut(&id) {
        entry.chunks_done = campaign.chunks_issued() as u64;
        entry.rows_done = campaign.rows_done() as u64;
        entry.rows_planned = campaign.rows_planned() as u64;
        entry.queries = spent.queries;
        entry.rows = spent.rows;
        entry.cached_rows = spent.cached_rows;
        if let Some(f) = events_file {
            entry.events_file = Some(f);
        }
    }
}

fn flush_events(shared: &Shared, id: u64, pending: &mut Vec<CampaignEvent>) {
    for event in pending.drain(..) {
        shared.emit_event(id, &event);
    }
}

// ---------------------------------------------------------------------------
// Job ops
// ---------------------------------------------------------------------------

/// The daemon's [`Handler`] on `fia-serve`'s connection reactor: the
/// job ops, `Ping`, `MetricsText` and `Shutdown`.
struct Jobs {
    shared: Arc<Shared>,
    metrics: Arc<ServerMetrics>,
}

impl Handler for Jobs {
    type Completion = StreamFrame;

    fn request(&mut self, io: &mut Transport<StreamFrame>, ticket: Ticket, req: Request) {
        let resp = match req {
            Request::Ping => Response::Pong,
            // The reactor's `fia_serve_*` series plus the process-global
            // registry (the daemon's `fia_campaignd_*` counters).
            Request::MetricsText => Response::MetricsText(self.metrics.exposition()),
            Request::Shutdown => {
                io.reply(ticket, &Response::ShuttingDown);
                io.stop_reading(ticket.conn());
                self.shared.begin_shutdown();
                return;
            }
            Request::JobSubmit(blob) => self.submit(&blob),
            Request::JobStatus(id) => {
                let jobs = self.shared.jobs.lock().unwrap();
                match jobs.get(&id) {
                    Some(entry) => Response::JobInfo(entry.row(id)),
                    None => Response::Error(format!("no such job: {id}")),
                }
            }
            Request::JobList => {
                let jobs = self.shared.jobs.lock().unwrap();
                Response::JobTable(jobs.iter().map(|(&id, e)| e.row(id)).collect())
            }
            Request::JobCancel(id) => self.cancel(id),
            Request::JobAttach { id, from_seq } => {
                self.attach(io, ticket, id, from_seq);
                return;
            }
            Request::JobReport(id) => self.report(id),
            _ => Response::Error(
                "fia-campaignd serves job ops; prediction ops are served by fia-serve deployments"
                    .to_string(),
            ),
        };
        if matches!(resp, Response::Error(_)) {
            self.metrics.record_error();
        }
        io.reply(ticket, &resp);
    }

    fn completion(&mut self, io: &mut Transport<StreamFrame>, (ticket, resp): StreamFrame) {
        if matches!(resp, Response::JobEventsEnd { .. }) {
            io.reply(ticket, &resp);
        } else {
            io.stream(ticket, &resp);
        }
    }

    fn closed(&mut self, conn: u64) {
        let mut jobs = self.shared.jobs.lock().unwrap();
        for entry in jobs.values_mut() {
            entry.subscribers.retain(|t| t.conn() != conn);
        }
    }
}

impl Jobs {
    fn submit(&self, blob: &[u8]) -> Response {
        let spec = match JobSpec::from_blob(blob) {
            Ok(spec) => spec,
            Err(e) => return Response::Error(format!("bad job spec: {e}")),
        };
        let id = {
            let mut next = self.shared.next_id.lock().unwrap();
            let id = *next;
            *next += 1;
            id
        };
        let dir = self.shared.job_dir(id);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            return Response::Error(format!("job dir: {e}"));
        }
        // The spec is durable before the id is acknowledged: a daemon
        // killed right after replying still knows the job on restart.
        if let Err(e) = wal::write_atomic(&dir.join("spec.bin"), &spec.to_blob()) {
            return Response::Error(format!("job spec write: {e}"));
        }
        let entry = JobEntry {
            fingerprint: spec.fingerprint(),
            spec,
            state: JobState::Pending,
            chunks_done: 0,
            rows_done: 0,
            rows_planned: 0,
            queries: 0,
            rows: 0,
            cached_rows: 0,
            resumes: 0,
            events: 0,
            detail: String::new(),
            cancel: false,
            subscribers: Vec::new(),
            events_file: None,
        };
        self.shared.jobs.lock().unwrap().insert(id, entry);
        self.shared.queue.lock().unwrap().push_back(id);
        self.shared.queue_cv.notify_one();
        self.shared.jobs_total.inc();
        Response::JobAccepted(id)
    }

    fn cancel(&self, id: u64) -> Response {
        let pending_cancel = {
            let mut jobs = self.shared.jobs.lock().unwrap();
            let Some(entry) = jobs.get_mut(&id) else {
                return Response::Error(format!("no such job: {id}"));
            };
            if !entry.state.is_terminal() {
                entry.cancel = true;
            }
            entry.state == JobState::Pending
        };
        if pending_cancel {
            // Never started: terminal immediately, no worker involved.
            self.shared
                .finish_job(id, JobState::Canceled, "canceled before start");
        }
        let jobs = self.shared.jobs.lock().unwrap();
        match jobs.get(&id) {
            Some(entry) => Response::JobInfo(entry.row(id)),
            None => Response::Error(format!("no such job: {id}")),
        }
    }

    fn report(&self, id: u64) -> Response {
        let state = {
            let jobs = self.shared.jobs.lock().unwrap();
            match jobs.get(&id) {
                Some(entry) => entry.state,
                None => return Response::Error(format!("no such job: {id}")),
            }
        };
        if state != JobState::Completed {
            return Response::Error(format!("job {id} has no report (state: {})", state.name()));
        }
        match std::fs::read(self.shared.job_dir(id).join("outcome.bin")) {
            Ok(blob) => Response::JobReportBlob(blob),
            Err(e) => Response::Error(format!("outcome read: {e}")),
        }
    }

    /// Streams the job's buffered events from `from_seq` and, for live
    /// jobs, subscribes the ticket for everything after. Both happen
    /// under the jobs lock — the same lock every `emit_event` takes — so
    /// the replayed prefix and the live tail meet with no gap and no
    /// duplicate. Once the daemon is shutting down nothing subscribes:
    /// the stream ends where the durable log does.
    fn attach(&self, io: &mut Transport<StreamFrame>, ticket: Ticket, id: u64, from_seq: u64) {
        let mut jobs = self.shared.jobs.lock().unwrap();
        let Some(entry) = jobs.get_mut(&id) else {
            drop(jobs);
            self.metrics.record_error();
            io.reply(ticket, &Response::Error(format!("no such job: {id}")));
            return;
        };
        let mut replayed = 0u64;
        if from_seq < entry.events {
            let text = std::fs::read_to_string(self.shared.job_dir(id).join("events.jsonl"))
                .unwrap_or_default();
            for (seq, line) in text.lines().enumerate().skip(from_seq as usize) {
                let json = line.to_string();
                io.stream(
                    ticket,
                    &Response::JobEvent {
                        id,
                        seq: seq as u64,
                        json,
                    },
                );
                replayed += 1;
            }
        }
        if entry.state.is_terminal() || self.shared.shutdown.load(Ordering::SeqCst) {
            let next_seq = entry.events;
            drop(jobs);
            io.reply(ticket, &Response::JobEventsEnd { id, next_seq });
        } else {
            entry.subscribers.push(ticket);
        }
        if replayed > 0 {
            self.shared.replays_total.inc();
        }
    }
}
