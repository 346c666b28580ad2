//! The daemon probe of `esa-lr-stream`'s traced iterations: two ESA/LR
//! jobs of one scenario fingerprint on an in-process `fia-campaignd` with
//! two workers. The jobs share one served deployment (two concurrent
//! connections into one coalescer) and each checkpoints every 32-row
//! chunk to its fsync'd WAL (CreditCard at scale 0.5: 7,500 rows, 235
//! chunks per job).
//!
//! It feeds only the unbounded `campaignd.*` layer metrics. As a workload
//! of its own its end-to-end times spread 0.19–0.62 (interquartile range
//! over median, ten seeds), because `fdatasync` latency on the VM disk
//! drifts between 140 and 550 µs over seconds; no bound could hold it.
//!
//! The daemon is driven only through `fia_campaignd::start` and
//! `CampaignClient`. Job times come from `CampaignClient::attach`, which
//! returns at the job's last event, not from `wait_terminal`'s 25 ms poll.

use crate::probe::{self, maybe_span, Trace};
use crate::{Gate, Options, Sample, Size, SCENARIO_SEED};
use fia_campaign::{Campaign, NullObserver, OracleSpec};
use fia_campaignd::{
    start, CampaignClient, DaemonClientError, DaemonConfig, JobAttack, JobDefense, JobModel,
    JobOracle, JobOutcome, JobSpec,
};
use fia_core::{baseline, metrics};
use fia_data::PaperDataset;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Jobs per probe; the daemon gets as many workers.
pub const JOBS: usize = 2;

/// One job spec submitted twice, plus what an in-process `Campaign` of
/// the same spec computed.
pub struct DaemonProbe {
    spec: JobSpec,
    state_dir: PathBuf,
    /// ESA MSE of the in-process reference campaign.
    reference_mse: f64,
    /// MSE of the uniform random guess on the same prediction set.
    guess_mse: f64,
    rows_planned: u64,
}

impl DaemonProbe {
    /// Computes the in-process reference result (before measuring).
    pub fn new(opts: &Options, gate: &mut Gate) -> DaemonProbe {
        let scale = match opts.size {
            Size::Paper => 0.5,
            Size::Tiny => 0.02,
        };
        let spec = JobSpec {
            dataset: PaperDataset::CreditCard,
            scale,
            target_fraction: 0.3,
            seed: SCENARIO_SEED,
            model: JobModel::Logistic,
            defense: JobDefense::None,
            attacks: vec![JobAttack::Esa],
            max_queries: None,
            max_rows: None,
            chunk: 32,
            oracle: JobOracle::Shared {
                replicas: 1,
                cache_capacity: 0,
            },
            throttle_ms: 0,
        };
        let resolved = spec
            .to_scenario()
            .with_oracle(OracleSpec::InProcess)
            .build();
        let data = resolved.data();
        let guess =
            baseline::random_guess_uniform(data.n_predictions(), data.d_target(), SCENARIO_SEED);
        let guess_mse = metrics::mse_per_feature(&guess, &data.truth);
        let mut reference = Campaign::new(resolved)
            .with_attacks(spec.attack_specs())
            .with_chunk(spec.chunk as usize);
        let (reference_mse, rows_planned) = match reference.run(&mut NullObserver) {
            Ok(r) => (
                r.attacks.first().map_or(f64::NAN, |a| a.mse),
                r.rows_planned as u64,
            ),
            Err(e) => {
                gate.check(false, || format!("in-process reference failed: {e}"));
                (f64::NAN, 0)
            }
        };
        DaemonProbe {
            spec,
            state_dir: opts.state_dir.clone(),
            reference_mse: if opts.sabotage {
                reference_mse + 1.0
            } else {
                reference_mse
            },
            guess_mse,
            rows_planned,
        }
    }

    /// Runs both jobs on a fresh daemon over a cleaned state directory
    /// and returns the `campaignd.*` metrics and the jobs that failed.
    pub fn probe(&mut self, trace: &mut Option<Trace>, gate: &mut Gate) -> (Sample, u64) {
        let all_failed = (Sample::new(), JOBS as u64);
        let cleaned = maybe_span(trace, "bench.clean", || {
            match std::fs::remove_dir_all(&self.state_dir) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
                _ => Ok(()),
            }
        });
        if let Err(e) = cleaned {
            gate.check(false, || format!("cannot clean the state directory: {e}"));
            return all_failed;
        }
        let config = DaemonConfig {
            workers: JOBS,
            ..DaemonConfig::new(&self.state_dir)
        };
        let daemon = match maybe_span(trace, "campaignd.start", || start(config)) {
            Ok(d) => d,
            Err(e) => {
                gate.check(false, || format!("daemon start failed: {e}"));
                return all_failed;
            }
        };
        let jobs = maybe_span(trace, "campaignd.jobs", || self.run_jobs(daemon.addr()));
        maybe_span(trace, "campaignd.shutdown", || daemon.shutdown());
        let (job_s, events, outcomes) = match jobs {
            Ok(x) => x,
            Err(e) => {
                gate.check(false, || format!("daemon client failed: {e}"));
                return all_failed;
            }
        };
        maybe_span(trace, "bench.check", || {
            let failed = (0..outcomes.len())
                .filter(|&k| !self.check(k, &outcomes[k], gate))
                .count() as u64;
            let mut s = Sample::new();
            s.insert("campaignd.job_s", probe::median(&job_s));
            s.insert("campaignd.events", events as f64);
            s.insert("campaignd.wal_bytes", wal_bytes(&self.state_dir) as f64);
            (s, failed)
        })
    }

    /// Submits the jobs, attaches to each in turn until its last event,
    /// and fetches the outcomes: `(job seconds, events, outcomes)`.
    fn run_jobs(&self, addr: SocketAddr) -> Result<JobsRun, DaemonClientError> {
        let mut client = CampaignClient::connect(addr)?;
        let mut submitted = Vec::with_capacity(JOBS);
        for _ in 0..JOBS {
            submitted.push((client.submit(&self.spec)?, Instant::now()));
        }
        let mut events = 0u64;
        let mut job_s = Vec::with_capacity(JOBS);
        for &(id, at) in &submitted {
            client.attach(id, 0, |_, _| events += 1)?;
            job_s.push(at.elapsed().as_secs_f64());
        }
        let outcomes = submitted
            .iter()
            .map(|&(id, _)| client.report(id))
            .collect::<Result<_, _>>()?;
        Ok((job_s, events, outcomes))
    }

    /// One job's gate: complete, every planned row released and metered,
    /// the MSE bit-equal to the in-process reference and below the
    /// random guess. Returns whether the job passed.
    fn check(&self, k: usize, o: &JobOutcome, gate: &mut Gate) -> bool {
        let mut ok = gate.check(o.complete, || format!("job {k} did not complete"));
        ok &= gate.check(
            o.rows_done == self.rows_planned && o.rows_planned == self.rows_planned,
            || {
                format!(
                    "job {k} released {} of {} rows (reference plans {})",
                    o.rows_done, o.rows_planned, self.rows_planned
                )
            },
        );
        ok &= gate.check(o.cost.rows == o.rows_done, || {
            format!(
                "job {k} metered {} rows for {} released",
                o.cost.rows, o.rows_done
            )
        });
        let mse = o.attacks.first().map_or(f64::NAN, |a| a.mse);
        ok &= gate.check(mse.to_bits() == self.reference_mse.to_bits(), || {
            format!(
                "job {k} mse {mse} differs from the in-process campaign's {}",
                self.reference_mse
            )
        });
        ok &= gate.check(mse < self.guess_mse, || {
            format!(
                "job {k} mse {mse} is not below the random-guess mse {}",
                self.guess_mse
            )
        });
        ok
    }
}

/// Per-job wall seconds (submit to `attach` return), events streamed,
/// and the jobs' outcomes.
type JobsRun = (Vec<f64>, u64, Vec<JobOutcome>);

impl Drop for DaemonProbe {
    /// Removes the last probe's daemon state (about 30 MB of WAL).
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// Summed size of every job's write-ahead log under `state_dir`.
fn wal_bytes(state_dir: &Path) -> u64 {
    let Ok(jobs) = std::fs::read_dir(state_dir.join("jobs")) else {
        return 0;
    };
    jobs.filter_map(Result::ok)
        .filter_map(|job| std::fs::metadata(job.path().join("job.log")).ok())
        .map(|m| m.len())
        .sum()
}
