//! The readiness-driven connection reactor: one event-loop thread owns
//! a listener and every client socket, and hands each decoded request
//! to a [`Handler`]. Both servers in the workspace run on it: the
//! prediction server (`crate::predict`) and `fia-campaignd`'s job ops.
//!
//! The [`Transport`] is everything about sockets and nothing about what
//! a request means:
//!
//! * all sockets are nonblocking and multiplexed through the [`sys`]
//!   shim (`epoll`, or `poll` under `FIA_FORCE_POLL=1`), so 4096 idle
//!   connections cost four thousand fds and zero threads;
//! * inbound bytes are assembled *incrementally* per connection and
//!   complete frames are decoded with the `wire.rs` codec, a bounded
//!   number of read passes per readable event (`MAX_READ_PASSES`) and
//!   a bounded number of unanswered requests per connection
//!   (`PIPELINE_CAP`) before reads pause;
//! * responses are emitted strictly in per-connection request order.
//!   A request may be answered at once, later (work finished on another
//!   thread comes back through a [`Notifier`]: a completion channel plus
//!   a [`Waker`] nudge), or as a *stream* of frames that ends with its
//!   reply; whatever was pipelined behind it waits its turn. Writes go
//!   through writable-readiness interest, so a slow reader buffers its
//!   own responses and never blocks a worker thread;
//! * accept errors are classified (`classify_accept_error`) and
//!   counted per kind (`fia_serve_accept_errors_total{kind=}`); fd
//!   exhaustion backs off exponentially with listener interest
//!   suspended, so the EMFILE regime is a counted, paced retry instead
//!   of a silent hot loop;
//! * shutdown drains: the listener closes immediately, reads stop,
//!   unanswered requests and open streams are still answered, buffered
//!   responses are flushed (bounded by `DRAIN_DEADLINE`), and the loop
//!   exits with every connection accounted for.
//!
//! The handler is a type parameter, so the seam costs no dynamic call
//! per request.

use crate::metrics::{AcceptErrorKind, ServerMetrics};
use crate::sys::{self, drain_wake_pipe, fd_of, Event, Interest, Poller, Waker};
use crate::wire::{decode_request, encode_response_frame, Request, Response, MAX_FRAME_LEN};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token for the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token for the wake pipe's read end.
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// Idle tick: the loop re-checks the stop flag at least this often even
/// if the waker is never fired (a safety net, not the signal path).
const TICK: Duration = Duration::from_millis(50);

/// How long a draining server waits for buffered responses to flush
/// before force-closing the stragglers.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Accept-error backoff window under resource exhaustion: starts here,
/// doubles per consecutive exhausted accept, caps at the max.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Unanswered requests per connection before the reactor stops reading
/// from it — backpressure for pipelining clients, so one greedy
/// connection cannot queue unbounded work.
const PIPELINE_CAP: usize = 256;

/// Bounded read passes per readable event, so one firehose connection
/// cannot starve the rest of the loop.
const MAX_READ_PASSES: usize = 16;

/// Flushed-prefix length past which the output buffer is compacted.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// The service a [`Transport`] carries.
pub trait Handler {
    /// Work finished off the loop thread, sent back through the
    /// transport's [`Notifier`].
    type Completion: Send + 'static;

    /// Serves one decoded request. The handler answers every ticket
    /// exactly once with [`Transport::reply`] — now, or from a later
    /// [`Handler::completion`] — after any number of
    /// [`Transport::stream`] frames.
    fn request(&mut self, io: &mut Transport<Self::Completion>, ticket: Ticket, req: Request);

    /// Handles one completion, on the loop thread.
    fn completion(&mut self, io: &mut Transport<Self::Completion>, done: Self::Completion);

    /// A connection has closed; replies to its tickets go nowhere.
    fn closed(&mut self, _conn: u64) {}
}

/// One request's place in its connection's response order.
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    conn: u64,
    seq: u64,
    t0: Instant,
}

impl Ticket {
    /// The connection the request arrived on.
    pub fn conn(&self) -> u64 {
        self.conn
    }
}

/// The way back into the loop from other threads: a completion channel
/// plus a [`Waker`] nudge.
pub struct Notifier<C> {
    tx: Sender<C>,
    waker: Waker,
}

impl<C> Clone for Notifier<C> {
    fn clone(&self) -> Self {
        Notifier {
            tx: self.tx.clone(),
            waker: self.waker.clone(),
        }
    }
}

impl<C> Notifier<C> {
    /// Queues one completion for [`Handler::completion`] and wakes the
    /// loop. A completion sent after the loop has exited is dropped.
    pub fn send(&self, done: C) {
        let _ = self.tx.send(done);
        self.waker.wake();
    }

    /// Wakes the loop, so it re-reads its stop flag now.
    pub fn wake(&self) {
        self.waker.wake();
    }
}

/// One client connection's entire state — a struct, not a thread.
struct Conn {
    stream: TcpStream,
    /// Unparsed inbound bytes (incremental frame assembly).
    buf: Vec<u8>,
    /// Outbound bytes; `out[out_pos..]` is still unwritten.
    out: Vec<u8>,
    out_pos: usize,
    /// Sequence number assigned to the next parsed request.
    next_seq: u64,
    /// Sequence number of the request whose frames go out next.
    emit_seq: u64,
    /// Frames of later requests, waiting for their turn.
    staged: BTreeMap<u64, Staged>,
    /// Requests read and not yet replied to.
    open: usize,
    /// No more requests will be parsed (peer EOF, framing corruption,
    /// or server drain).
    read_done: bool,
    /// Close once everything staged and buffered has been written.
    close_when_flushed: bool,
    /// Reads suspended at `PIPELINE_CAP`.
    paused_read: bool,
    /// Interest currently registered with the poller.
    reg: Interest,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            emit_seq: 0,
            staged: BTreeMap::new(),
            open: 0,
            read_done: false,
            close_when_flushed: false,
            paused_read: false,
            reg: Interest::READ,
        }
    }

    fn out_drained(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    fn removable(&self) -> bool {
        self.close_when_flushed && self.open == 0 && self.staged.is_empty() && self.out_drained()
    }
}

/// Encoded frames of one request that is not yet next in order.
struct Staged {
    bytes: Vec<u8>,
    t0: Instant,
    /// The reply is among `bytes`: the request is finished.
    done: bool,
    error: bool,
}

/// Moves `frame` onto the end of `buf`, without a copy when `buf` is
/// empty.
fn append(buf: &mut Vec<u8>, frame: Vec<u8>) {
    if buf.is_empty() {
        *buf = frame;
    } else {
        buf.extend_from_slice(&frame);
    }
}

/// The event loop's socket side: the listener, every client socket, the
/// poller and the completion queue. A [`Handler`] reaches it through
/// [`Transport::reply`] and friends; other threads through a
/// [`Notifier`].
pub struct Transport<C> {
    poller: Poller,
    listener: Option<TcpListener>,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    notifier: Notifier<C>,
    completion_rx: Receiver<C>,
    wake_rx: UnixStream,
    scratch: Vec<u8>,
    accept_backoff: Duration,
    accept_paused_until: Option<Instant>,
    /// Drain deadline, set once the stop flag is noticed.
    draining: Option<Instant>,
    /// Connections whose pipeline cap lifted; their buffered frames are
    /// parsed at the end of the loop turn.
    resumed: Vec<u64>,
    /// Connections with streamed frames not yet flushed.
    dirty: Vec<u64>,
    /// Connections closed since the handler last heard.
    closed: Vec<u64>,
}

impl<C> Transport<C> {
    /// Builds the transport around a bound listener (switched to
    /// nonblocking here). Counters go to `metrics`; setting `stop` and
    /// waking the [`Transport::notifier`] starts the drain.
    pub fn new(
        listener: TcpListener,
        metrics: Arc<ServerMetrics>,
        stop: Arc<AtomicBool>,
    ) -> io::Result<Transport<C>> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        let (waker, wake_rx) = sys::wake_pair()?;
        poller.register(fd_of(&listener), LISTENER_TOKEN, Interest::READ)?;
        poller.register(fd_of(&wake_rx), WAKER_TOKEN, Interest::READ)?;
        let (tx, completion_rx) = mpsc::channel();
        Ok(Transport {
            poller,
            listener: Some(listener),
            metrics,
            stop,
            conns: HashMap::new(),
            next_conn: 0,
            notifier: Notifier { tx, waker },
            completion_rx,
            wake_rx,
            scratch: vec![0u8; 64 * 1024],
            accept_backoff: ACCEPT_BACKOFF_MIN,
            accept_paused_until: None,
            draining: None,
            resumed: Vec::new(),
            dirty: Vec::new(),
            closed: Vec::new(),
        })
    }

    /// A handle other threads use to send completions and wake the loop.
    pub fn notifier(&self) -> Notifier<C> {
        self.notifier.clone()
    }

    /// The event loop body; runs `handler` until shutdown has drained.
    pub fn run<H: Handler<Completion = C>>(mut self, mut handler: H) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.stop.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if let Some(deadline) = self.draining {
                if self.conns.is_empty() {
                    break;
                }
                if Instant::now() >= deadline {
                    // Slow readers don't get to hold shutdown hostage.
                    let ids: Vec<u64> = self.conns.keys().copied().collect();
                    for id in ids {
                        self.remove_conn(id);
                    }
                    break;
                }
            }
            self.maybe_resume_accept();
            events.clear();
            if self
                .poller
                .wait(&mut events, Some(self.wait_timeout()))
                .is_err()
            {
                // A wait that cannot make progress is fatal: drain out.
                self.stop.store(true, Ordering::SeqCst);
                continue;
            }
            for ev in std::mem::take(&mut events) {
                match ev.token {
                    LISTENER_TOKEN => self.on_accept(),
                    WAKER_TOKEN => drain_wake_pipe(&self.wake_rx),
                    id => {
                        if ev.closed {
                            // Full hangup: nothing is deliverable.
                            self.remove_conn(id);
                            continue;
                        }
                        if ev.readable {
                            self.on_conn_readable(id, &mut handler);
                        }
                        if ev.writable {
                            self.flush_and_update(id);
                        }
                    }
                }
            }
            while let Ok(done) = self.completion_rx.try_recv() {
                handler.completion(&mut self, done);
            }
            self.settle(&mut handler);
        }
        // Completions past this point belong to connections that no
        // longer exist.
    }

    /// End-of-turn bookkeeping: parse what backpressure held back, flush
    /// streamed frames, and tell the handler which connections closed.
    fn settle<H: Handler<Completion = C>>(&mut self, handler: &mut H) {
        while let Some(id) = self.resumed.pop() {
            // No readable event will announce frames buffered while the
            // pipeline cap held.
            self.parse_frames(id, handler);
            self.flush_and_update(id);
        }
        self.dirty.sort_unstable();
        self.dirty.dedup();
        for id in std::mem::take(&mut self.dirty) {
            self.flush_and_update(id);
        }
        for id in std::mem::take(&mut self.closed) {
            handler.closed(id);
        }
    }

    fn wait_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut t = TICK;
        if let Some(until) = self.accept_paused_until {
            t = t.min(until.saturating_duration_since(now));
        }
        if let Some(deadline) = self.draining {
            t = t.min(deadline.saturating_duration_since(now));
        }
        t
    }

    // -----------------------------------------------------------------
    // Accepting.

    fn on_accept(&mut self) {
        if self.draining.is_some() || self.accept_paused_until.is_some() {
            return;
        }
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_MIN;
                    // A socket that can't go nonblocking can't be driven
                    // by the event loop: close it rather than proceed
                    // with a mode that would hang the loop.
                    if stream.set_nonblocking(true).is_err() {
                        self.metrics.record_accept_error(AcceptErrorKind::Setup);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn;
                    self.next_conn += 1;
                    if self
                        .poller
                        .register(fd_of(&stream), id, Interest::READ)
                        .is_err()
                    {
                        self.metrics.record_accept_error(AcceptErrorKind::Setup);
                        continue;
                    }
                    self.conns.insert(id, Conn::new(stream));
                    self.metrics
                        .record_connection_opened(self.conns.len() as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) => {
                    let kind = classify_accept_error(&e);
                    self.metrics.record_accept_error(kind);
                    match kind {
                        // Per-connection failures consume the pending
                        // connection; keep accepting.
                        AcceptErrorKind::Aborted | AcceptErrorKind::Interrupted => continue,
                        // Resource exhaustion: back off exponentially.
                        AcceptErrorKind::Exhausted => {
                            self.pause_accept(true);
                            return;
                        }
                        // Unknown persistent errors: pace retries at the
                        // floor instead of spinning.
                        AcceptErrorKind::Setup | AcceptErrorKind::Other => {
                            self.pause_accept(false);
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Suspends accepting for one backoff window. Listener *interest*
    /// is dropped too: under level-triggered readiness a still-pending
    /// connection would otherwise wake the loop hot for the whole pause.
    fn pause_accept(&mut self, exponential: bool) {
        let pause = if exponential {
            let p = self.accept_backoff;
            self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
            p
        } else {
            ACCEPT_BACKOFF_MIN
        };
        self.accept_paused_until = Some(Instant::now() + pause);
        if let Some(l) = &self.listener {
            let _ = self.poller.modify(fd_of(l), LISTENER_TOKEN, Interest::NONE);
        }
    }

    fn maybe_resume_accept(&mut self) {
        let Some(until) = self.accept_paused_until else {
            return;
        };
        if Instant::now() < until {
            return;
        }
        self.accept_paused_until = None;
        if let Some(l) = &self.listener {
            let _ = self.poller.modify(fd_of(l), LISTENER_TOKEN, Interest::READ);
        }
        self.on_accept();
    }

    // -----------------------------------------------------------------
    // Reading and frame assembly.

    fn on_conn_readable<H: Handler<Completion = C>>(&mut self, id: u64, handler: &mut H) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            for _ in 0..MAX_READ_PASSES {
                match conn.stream.read(&mut self.scratch) {
                    Ok(0) => {
                        // Peer half-closed: no more requests, but
                        // everything already queued still gets answered
                        // and flushed before the socket closes.
                        conn.read_done = true;
                        conn.close_when_flushed = true;
                        break;
                    }
                    Ok(n) => {
                        if !conn.read_done {
                            conn.buf.extend_from_slice(&self.scratch[..n]);
                        }
                        if n < self.scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.remove_conn(id);
            return;
        }
        self.parse_frames(id, handler);
        self.flush_and_update(id);
    }

    /// Hands every complete frame in `buf` to the handler, up to the
    /// pipeline cap.
    fn parse_frames<H: Handler<Completion = C>>(&mut self, id: u64, handler: &mut H) {
        loop {
            let (payload, ticket) = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if conn.read_done || conn.buf.len() < 4 {
                    return;
                }
                if conn.open >= PIPELINE_CAP {
                    // Backpressure: stop reading until requests finish.
                    conn.paused_read = true;
                    return;
                }
                let len = u32::from_le_bytes(conn.buf[..4].try_into().expect("4 bytes")) as usize;
                if len > MAX_FRAME_LEN {
                    // Framing corruption: not a decodable request, so
                    // there is nothing to answer — stop reading and
                    // close once prior responses have flushed.
                    conn.read_done = true;
                    conn.close_when_flushed = true;
                    conn.buf.clear();
                    return;
                }
                if conn.buf.len() < 4 + len {
                    return; // incomplete frame: wait for more bytes
                }
                let payload = conn.buf[4..4 + len].to_vec();
                conn.buf.drain(..4 + len);
                let ticket = Ticket {
                    conn: id,
                    seq: conn.next_seq,
                    t0: Instant::now(),
                };
                conn.next_seq += 1;
                conn.open += 1;
                (payload, ticket)
            };
            match decode_request(&payload) {
                Ok(req) => handler.request(self, ticket, req),
                Err(e) => {
                    self.metrics.record_error();
                    self.reply(ticket, &Response::Error(format!("bad request: {e}")));
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // The handler's side.

    /// Answers `ticket`: its last frame. Frames of requests pipelined
    /// behind it go out as soon as they are next in order.
    pub fn reply(&mut self, ticket: Ticket, resp: &Response) {
        self.stage(ticket, resp, true);
        self.flush_and_update(ticket.conn);
    }

    /// Sends one frame of a streamed response to `ticket`; more frames
    /// and then the [`Transport::reply`] follow. Written at the end of
    /// the loop turn.
    pub fn stream(&mut self, ticket: Ticket, resp: &Response) {
        self.stage(ticket, resp, false);
        self.dirty.push(ticket.conn);
    }

    /// Stops reading from `conn`: it closes once every request already
    /// read is answered and flushed.
    pub fn stop_reading(&mut self, conn: u64) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.read_done = true;
            c.close_when_flushed = true;
        }
        self.flush_and_update(conn);
    }

    /// Whether `conn` is still connected.
    pub fn is_open(&self, conn: u64) -> bool {
        self.conns.contains_key(&conn)
    }

    // -----------------------------------------------------------------
    // Response emission and writing.

    /// Encodes `resp` and queues it in per-connection request order.
    fn stage(&mut self, ticket: Ticket, resp: &Response, last: bool) {
        let Some(conn) = self.conns.get_mut(&ticket.conn) else {
            return;
        };
        let frame = encode_response_frame(resp).unwrap_or_else(|_| {
            encode_response_frame(&Response::Error("response encoding failed".to_string()))
                .expect("error responses always encode")
        });
        let error = matches!(resp, Response::Error(_));
        if last {
            conn.open -= 1;
            if conn.paused_read && conn.open < PIPELINE_CAP {
                conn.paused_read = false;
                self.resumed.push(ticket.conn);
            }
        }
        if ticket.seq != conn.emit_seq {
            // Not its turn yet: hold the frame until earlier requests
            // have finished.
            let slot = conn.staged.entry(ticket.seq).or_insert_with(|| Staged {
                bytes: Vec::new(),
                t0: ticket.t0,
                done: false,
                error: false,
            });
            append(&mut slot.bytes, frame);
            slot.done = last;
            slot.error = error;
            return;
        }
        append(&mut conn.out, frame);
        let mut finished = last.then_some((ticket.t0, error));
        while let Some((t0, error)) = finished {
            if !error {
                self.metrics.record_request(t0.elapsed().as_micros() as u64);
            }
            conn.emit_seq += 1;
            // The next request's frames, if any, are now next in order;
            // if it is still streaming, its later frames go straight out.
            let Some(slot) = conn.staged.remove(&conn.emit_seq) else {
                break;
            };
            append(&mut conn.out, slot.bytes);
            finished = slot.done.then_some((slot.t0, slot.error));
        }
    }

    /// Greedily writes buffered output, then reconciles poller interest
    /// and the close-when-flushed state.
    fn flush_and_update(&mut self, id: u64) {
        let mut dead = false;
        let removable = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if conn.out_drained() {
                conn.out.clear();
                conn.out_pos = 0;
            } else if conn.out_pos > COMPACT_THRESHOLD {
                conn.out.drain(..conn.out_pos);
                conn.out_pos = 0;
            }
            conn.removable()
        };
        if dead || removable {
            self.remove_conn(id);
            return;
        }
        self.update_interest(id);
    }

    fn update_interest(&mut self, id: u64) {
        let mut broken = false;
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let desired = Interest {
                read: !conn.read_done && !conn.paused_read,
                write: !conn.out_drained(),
            };
            if desired != conn.reg {
                if self.poller.modify(fd_of(&conn.stream), id, desired).is_ok() {
                    conn.reg = desired;
                } else {
                    broken = true; // unwatchable socket: drop it
                }
            }
        }
        if broken {
            self.remove_conn(id);
        }
    }

    fn remove_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = self.poller.deregister(fd_of(&conn.stream));
            self.metrics
                .record_connection_closed(self.conns.len() as u64);
            self.closed.push(id);
        }
    }

    // -----------------------------------------------------------------
    // Shutdown.

    /// Enters drain mode (idempotent): close the listener now, stop
    /// reading everywhere, let unanswered requests finish and flush.
    fn begin_drain(&mut self) {
        if self.draining.is_some() {
            return;
        }
        self.draining = Some(Instant::now() + DRAIN_DEADLINE);
        self.accept_paused_until = None;
        if let Some(l) = self.listener.take() {
            let _ = self.poller.deregister(fd_of(&l));
            // Dropping the listener closes it: new connects are refused
            // from this instant, which is what the shutdown contract
            // promises.
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.read_done = true;
                conn.close_when_flushed = true;
                conn.buf.clear();
            }
            self.flush_and_update(id);
        }
    }
}

/// What went wrong in `accept()`, coarse enough to be a counter label
/// and precise enough to pick a policy: per-connection failures are
/// retried immediately, resource exhaustion backs off.
pub(crate) fn classify_accept_error(e: &io::Error) -> AcceptErrorKind {
    // Raw errno values (Linux; EMFILE/ENFILE/ENOMEM are identical on
    // the other unices this crate compiles for).
    const EMFILE: i32 = 24;
    const ENFILE: i32 = 23;
    const ENOMEM: i32 = 12;
    #[cfg(target_os = "linux")]
    const ENOBUFS: i32 = 105;
    #[cfg(not(target_os = "linux"))]
    const ENOBUFS: i32 = 55;

    if matches!(e.raw_os_error(), Some(EMFILE | ENFILE | ENOMEM | ENOBUFS))
        || e.kind() == io::ErrorKind::OutOfMemory
    {
        return AcceptErrorKind::Exhausted;
    }
    match e.kind() {
        io::ErrorKind::ConnectionAborted | io::ErrorKind::ConnectionReset => {
            AcceptErrorKind::Aborted
        }
        io::ErrorKind::Interrupted => AcceptErrorKind::Interrupted,
        _ => AcceptErrorKind::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_errors_classify_by_errno_and_kind() {
        // EMFILE / ENFILE / ENOMEM / ENOBUFS are the fd-or-memory
        // exhaustion regime thousands of clients actually hit.
        for errno in [24, 23, 12, if cfg!(target_os = "linux") { 105 } else { 55 }] {
            assert_eq!(
                classify_accept_error(&io::Error::from_raw_os_error(errno)),
                AcceptErrorKind::Exhausted,
                "errno {errno}"
            );
        }
        assert_eq!(
            classify_accept_error(&io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "peer gave up in the backlog"
            )),
            AcceptErrorKind::Aborted
        );
        assert_eq!(
            classify_accept_error(&io::Error::new(io::ErrorKind::Interrupted, "signal")),
            AcceptErrorKind::Interrupted
        );
        assert_eq!(
            classify_accept_error(&io::Error::new(io::ErrorKind::PermissionDenied, "firewall")),
            AcceptErrorKind::Other
        );
        // WouldBlock never reaches the classifier in the accept loop,
        // but if it did it must not be misread as exhaustion.
        assert_eq!(
            classify_accept_error(&io::Error::new(io::ErrorKind::WouldBlock, "empty backlog")),
            AcceptErrorKind::Other
        );
    }

    #[test]
    fn exhaustion_backoff_doubles_and_caps() {
        // The policy the reactor applies via pause_accept(true).
        let mut backoff = ACCEPT_BACKOFF_MIN;
        let mut seen = Vec::new();
        for _ in 0..10 {
            seen.push(backoff);
            backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
        }
        assert_eq!(seen[0], Duration::from_millis(10));
        assert_eq!(seen[1], Duration::from_millis(20));
        assert!(seen.windows(2).all(|w| w[1] >= w[0]), "monotone");
        assert_eq!(*seen.last().unwrap(), ACCEPT_BACKOFF_MAX, "capped");
    }
}
