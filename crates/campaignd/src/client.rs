//! The daemon's client library: typed calls over the job wire ops.

use crate::outcome::JobOutcome;
use crate::spec::{BlobError, JobSpec};
use fia_serve::wire::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, WireError,
};
use fia_serve::{JobState, JobStatusInfo};
use std::fmt;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Everything that can go wrong talking to a campaign daemon.
#[derive(Debug)]
pub enum DaemonClientError {
    /// Transport or codec failure.
    Wire(WireError),
    /// The daemon answered with a typed rejection.
    Rejected(String),
    /// The daemon answered with a response the call did not expect.
    Protocol(&'static str),
    /// A returned blob failed to decode.
    Blob(BlobError),
    /// A wait deadline elapsed before the job turned terminal.
    Timeout,
}

impl fmt::Display for DaemonClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonClientError::Wire(e) => write!(f, "daemon transport failure: {e}"),
            DaemonClientError::Rejected(why) => write!(f, "daemon rejected the request: {why}"),
            DaemonClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            DaemonClientError::Blob(e) => write!(f, "daemon blob failed to decode: {e}"),
            DaemonClientError::Timeout => write!(f, "timed out waiting for the job"),
        }
    }
}

impl std::error::Error for DaemonClientError {}

impl From<WireError> for DaemonClientError {
    fn from(e: WireError) -> Self {
        DaemonClientError::Wire(e)
    }
}

/// A blocking client connection to a `fia-campaignd` daemon.
pub struct CampaignClient {
    stream: TcpStream,
}

impl CampaignClient {
    /// Connects to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<CampaignClient, DaemonClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| DaemonClientError::Wire(e.into()))?;
        stream
            .set_nodelay(true)
            .map_err(|e| DaemonClientError::Wire(e.into()))?;
        Ok(CampaignClient { stream })
    }

    fn call(&mut self, req: &Request) -> Result<Response, DaemonClientError> {
        let payload = encode_request(req)?;
        write_frame(&mut self.stream, &payload)?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, DaemonClientError> {
        let frame = read_frame(&mut self.stream)?
            .ok_or(DaemonClientError::Protocol("daemon closed the connection"))?;
        let resp = decode_response(&frame)?;
        if let Response::Error(why) = resp {
            return Err(DaemonClientError::Rejected(why));
        }
        Ok(resp)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), DaemonClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(DaemonClientError::Protocol("expected Pong")),
        }
    }

    /// Submits a job; returns the daemon-assigned job id. The spec is
    /// durable on the daemon's disk before this returns.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, DaemonClientError> {
        spec.validate().map_err(DaemonClientError::Blob)?;
        match self.call(&Request::JobSubmit(spec.to_blob()))? {
            Response::JobAccepted(id) => Ok(id),
            _ => Err(DaemonClientError::Protocol("expected JobAccepted")),
        }
    }

    /// One job's status row.
    pub fn status(&mut self, id: u64) -> Result<JobStatusInfo, DaemonClientError> {
        match self.call(&Request::JobStatus(id))? {
            Response::JobInfo(row) => Ok(row),
            _ => Err(DaemonClientError::Protocol("expected JobInfo")),
        }
    }

    /// The daemon's full job table, in id order.
    pub fn list(&mut self) -> Result<Vec<JobStatusInfo>, DaemonClientError> {
        match self.call(&Request::JobList)? {
            Response::JobTable(rows) => Ok(rows),
            _ => Err(DaemonClientError::Protocol("expected JobTable")),
        }
    }

    /// Requests cancellation; returns the job's row after the request.
    pub fn cancel(&mut self, id: u64) -> Result<JobStatusInfo, DaemonClientError> {
        match self.call(&Request::JobCancel(id))? {
            Response::JobInfo(row) => Ok(row),
            _ => Err(DaemonClientError::Protocol("expected JobInfo")),
        }
    }

    /// Fetches a completed job's durable outcome.
    pub fn report(&mut self, id: u64) -> Result<JobOutcome, DaemonClientError> {
        match self.call(&Request::JobReport(id))? {
            Response::JobReportBlob(blob) => {
                JobOutcome::from_blob(&blob).map_err(DaemonClientError::Blob)
            }
            _ => Err(DaemonClientError::Protocol("expected JobReportBlob")),
        }
    }

    /// The daemon's telemetry surface as Prometheus-style text.
    pub fn metrics_text(&mut self) -> Result<String, DaemonClientError> {
        match self.call(&Request::MetricsText)? {
            Response::MetricsText(text) => Ok(text),
            _ => Err(DaemonClientError::Protocol("expected MetricsText")),
        }
    }

    /// Attaches to a job's event stream from `from_seq`: already-buffered
    /// events are replayed first, then live events stream as the job
    /// runs, gaplessly. `on_event` receives `(seq, json_line)` for each;
    /// the call returns the next sequence number once the job ends (use
    /// it to resume a later attach without re-reading anything).
    pub fn attach(
        &mut self,
        id: u64,
        from_seq: u64,
        mut on_event: impl FnMut(u64, &str),
    ) -> Result<u64, DaemonClientError> {
        let payload = encode_request(&Request::JobAttach { id, from_seq })?;
        write_frame(&mut self.stream, &payload)?;
        loop {
            match self.read_response()? {
                Response::JobEvent { id: eid, seq, json } if eid == id => on_event(seq, &json),
                Response::JobEventsEnd { id: eid, next_seq } if eid == id => return Ok(next_seq),
                _ => return Err(DaemonClientError::Protocol("unexpected attach response")),
            }
        }
    }

    /// Polls until the job reaches a terminal state (or the deadline
    /// elapses) and returns its final row.
    pub fn wait_terminal(
        &mut self,
        id: u64,
        deadline: Duration,
    ) -> Result<JobStatusInfo, DaemonClientError> {
        let start = Instant::now();
        loop {
            let row = self.status(id)?;
            if row.state.is_terminal() {
                return Ok(row);
            }
            if start.elapsed() > deadline {
                return Err(DaemonClientError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Asks the daemon to shut down gracefully (running jobs suspend to
    /// their checkpoints and resume on the next start).
    pub fn shutdown_daemon(&mut self) -> Result<(), DaemonClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(DaemonClientError::Protocol("expected ShuttingDown")),
        }
    }

    /// The wait state [`JobState`] helper tests use; re-exported here so
    /// callers need not depend on `fia-serve` directly.
    pub fn is_terminal(state: JobState) -> bool {
        state.is_terminal()
    }
}
