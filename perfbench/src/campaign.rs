//! The two single-session workloads, driven through
//! `ScenarioSpec::build` → `Campaign::begin` / `step` / `finalize`
//! (and `rerun`) against a served oracle at `round_cost = 0`.

use crate::durable::{DaemonProbe, JOBS};
use crate::probe::{self, gemm_totals, maybe_span, us, Stamp, Trace};
use crate::{Gate, Iteration, Options, Sample, Size, MIN_ITERATIONS, SCENARIO_SEED};
use fia_campaign::{
    AttackSpec, Campaign, CampaignEvent, CampaignOutcome, CampaignReport, ModelSpec, NullObserver,
    OracleSpec, ScenarioSpec, ServedConfig, StepOutcome,
};
use fia_core::{baseline, metrics, GrnaConfig};
use fia_data::PaperDataset;
use fia_linalg::Matrix;
use fia_models::MlpConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A campaign workload: one scenario, one attack, a chunk size, and
/// whether the campaign reruns against a released-score cache.
pub struct CampaignBench {
    spec: ScenarioSpec,
    /// GRNA's configuration; `None` mounts ESA.
    grna: Option<GrnaConfig>,
    chunk: usize,
    rerun: bool,
    /// The daemon probe traced iterations run (`esa-lr-stream` only).
    daemon: Option<DaemonProbe>,
    sabotage: bool,
    seed: u64,
}

impl CampaignBench {
    /// `grna-nn`: the quick-profile GRNA against the quick-profile MLP
    /// on DriveDiagnosis (11 classes) at scale 0.1, in 64-row chunks: a
    /// step's own work then outweighs the thread wake-ups around it, whose
    /// cost on a VM moves with host load (4-row steps moved 70 → 92 µs
    /// between two half-hours).
    pub fn grna_nn(opts: &Options) -> CampaignBench {
        let scale = match opts.size {
            Size::Paper => 0.1,
            Size::Tiny => 0.01,
        };
        CampaignBench {
            spec: ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
                .with_scale(scale)
                .with_model(ModelSpec::Mlp(MlpConfig::fast()))
                .with_oracle(served(0))
                .with_seed(SCENARIO_SEED),
            grna: Some(GrnaConfig::fast()),
            chunk: 64,
            rerun: false,
            daemon: None,
            sabotage: opts.sabotage,
            seed: opts.seed,
        }
    }

    /// `esa-lr-stream`: ESA against LR on the full DriveDiagnosis
    /// prediction set in 4-row chunks, then one rerun answered by a
    /// released-score cache sized to the prediction set. Traced runs also
    /// run the daemon probe.
    pub fn esa_lr_stream(opts: &Options, gate: &mut Gate) -> CampaignBench {
        let scale = match opts.size {
            Size::Paper => 1.0,
            Size::Tiny => 0.01,
        };
        // Sized to the whole dataset, so the prediction set (half of it)
        // fits and the rerun never evicts.
        let rows = (PaperDataset::DriveDiagnosis.paper_samples() as f64 * scale) as usize;
        CampaignBench {
            spec: ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
                .with_scale(scale)
                .with_oracle(served(rows))
                .with_seed(SCENARIO_SEED),
            grna: None,
            chunk: 4,
            rerun: true,
            daemon: opts.trace.then(|| DaemonProbe::new(opts, gate)),
            sabotage: opts.sabotage,
            seed: opts.seed,
        }
    }
}

/// A served oracle with the default coalescer and no modelled round
/// cost, so every number comes from real compute.
fn served(cache_capacity: usize) -> OracleSpec {
    OracleSpec::Served(ServedConfig {
        cache_capacity,
        round_cost: Duration::ZERO,
        ..ServedConfig::default()
    })
}

/// Times the event stream of a `run`/`rerun` from outside: the instant
/// each event reached the observer.
#[derive(Default)]
struct EventClock {
    started: Option<Instant>,
    chunk_at: Vec<Instant>,
}

impl EventClock {
    fn observe(&mut self, event: &CampaignEvent) {
        match event {
            CampaignEvent::Started { .. } => self.started = Some(Instant::now()),
            CampaignEvent::ChunkDone { .. } => self.chunk_at.push(Instant::now()),
            _ => {}
        }
    }

    /// Per-chunk latencies, microseconds: each chunk's arrival minus the
    /// previous event's.
    fn chunk_us(&self) -> Vec<f64> {
        let Some(start) = self.started else {
            return Vec::new();
        };
        let mut prev = start;
        self.chunk_at
            .iter()
            .map(|&t| {
                let d = us(t - prev);
                prev = t;
                d
            })
            .collect()
    }

    /// Started → last chunk, seconds.
    fn accumulate_s(&self) -> f64 {
        match (self.started, self.chunk_at.last()) {
            (Some(s), Some(&e)) => (e - s).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// The server's cumulative request-latency histogram `(sum µs, count)`,
/// read from its public metrics text.
fn server_latency(campaign: &mut Campaign) -> (f64, f64) {
    let text = campaign.server_metrics_text().unwrap_or_default();
    let series = |name: &str| {
        text.lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().last()?.parse().ok())
            .unwrap_or(0.0)
    };
    (
        series("fia_serve_request_duration_us_sum"),
        series("fia_serve_request_duration_us_count"),
    )
}

/// Mean request latency between two cumulative histogram scrapes.
fn window_mean(from: (f64, f64), to: (f64, f64)) -> f64 {
    (to.0 - from.0) / (to.1 - from.1).max(1.0)
}

/// Median wall time, microseconds, of appending one `chunk`-row block to
/// a corpus of `chunks` chunks — the copy `Campaign::step` makes of the
/// whole corpus on every chunk.
fn vstack_us(chunks: usize, width: usize, chunk: usize) -> f64 {
    let corpus = Matrix::from_fn(chunks * chunk, width, |i, j| (i + j) as f64);
    let block = Matrix::from_fn(chunk, width, |i, j| (i * j) as f64);
    let times: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            black_box(corpus.vstack(&block).expect("equal widths"));
            us(t.elapsed())
        })
        .collect();
    probe::median(&times)
}

impl CampaignBench {
    /// The attack of iteration `index`. GRNA's own seed (generator
    /// init, batch order, noise) cycles through [`MIN_ITERATIONS`]
    /// values drawn from the workload seed, so a run's `attack_mse`
    /// averages that many trainings.
    fn attack(&self, index: usize) -> AttackSpec {
        match &self.grna {
            Some(cfg) => {
                let k = (index % MIN_ITERATIONS) as u64;
                AttackSpec::grna(
                    cfg.clone()
                        .with_seed(self.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                )
            }
            None => AttackSpec::esa(),
        }
    }
}

impl CampaignBench {
    /// Runs one whole iteration, set-up included; `trace` is `Some` on
    /// traced iterations. `index` picks GRNA's seed from the cycle.
    pub fn iterate(
        &mut self,
        index: usize,
        trace: &mut Option<Trace>,
        gate: &mut Gate,
    ) -> Iteration {
        let mut s = Sample::new();
        let traced = trace.is_some();
        let t0 = Stamp::now();

        // ---- set-up: build (materialize + train + deploy) and begin ----
        let mut probe_s = 0.0;
        if let Some(t) = trace.as_mut() {
            // `build` materializes internally; a separate materialize
            // splits it into data and training time.
            t.span("data.materialize", || black_box(self.spec.materialize()));
            probe_s = t.wall("data.materialize");
        }
        let scenario = maybe_span(trace, "models.build", || self.spec.clone().build());
        let rows_planned = scenario.data().n_predictions();
        let mut campaign = Campaign::new(scenario)
            .with_attack(self.attack(index))
            .with_chunk(self.chunk);
        let begun = maybe_span(trace, "serve.spawn", || campaign.begin(&mut NullObserver));
        let setup_s = t0.wall_s() - probe_s;
        if let Err(e) = begun {
            gate.check(false, || format!("begin failed: {e}"));
            return Iteration::failed(1, probe_s);
        }

        // ---- first pass: one closed-loop oracle round per step ----
        let first_query = Instant::now();
        let n_chunks = rows_planned.div_ceil(self.chunk);
        let tenth = probe::tenth(n_chunks);
        let mut step_us = Vec::with_capacity(n_chunks);
        // Traced runs scrape the server's latency histogram at the edges
        // of the first and last tenth of the chunks, so the step-time
        // growth splits into server-side and client-side parts.
        let mut scrapes = Vec::new();
        let stepped = maybe_span(trace, "campaign.accumulate", || loop {
            let i = step_us.len();
            if traced && (i == 0 || i == tenth || i == n_chunks - tenth) {
                scrapes.push(server_latency(&mut campaign));
            }
            let t = Instant::now();
            let out = campaign.step(&mut NullObserver);
            step_us.push(us(t.elapsed()));
            match out {
                Ok(StepOutcome::Chunk) => {}
                Ok(_) => {
                    if traced {
                        scrapes.push(server_latency(&mut campaign));
                    }
                    break Ok(());
                }
                Err(e) => break Err(e),
            }
        });
        let accumulate_s = first_query.elapsed().as_secs_f64();
        let mut units = step_us.len() as u64;
        if let Err(e) = stepped {
            gate.check(false, || format!("step failed: {e}"));
            return Iteration::failed(units, probe_s);
        }
        let report = match maybe_span(trace, "core.attack", || {
            campaign.finalize(&mut NullObserver)
        }) {
            Ok(r) => r,
            Err(e) => {
                gate.check(false, || format!("finalize failed: {e}"));
                return Iteration::failed(units, probe_s);
            }
        };
        let first_metrics = if traced {
            maybe_span(trace, "serve.metrics", || campaign.server_metrics())
        } else {
            None
        };

        // ---- rerun against the released-score cache ----
        let mut clock = EventClock::default();
        let rerun = if self.rerun {
            match maybe_span(trace, "campaign.rerun", || {
                campaign.rerun(&mut |e: &CampaignEvent| clock.observe(e))
            }) {
                Ok(r) => Some(r),
                Err(e) => {
                    gate.check(false, || format!("rerun failed: {e}"));
                    return Iteration::failed(units, probe_s);
                }
            }
        } else {
            None
        };
        let campaign_s = first_query.elapsed().as_secs_f64();
        let cpu_s = t0.cpu_s();
        let rerun_us = clock.chunk_us();
        units += rerun_us.len() as u64;
        let last_metrics = if traced && self.rerun {
            maybe_span(trace, "serve.metrics", || campaign.server_metrics())
        } else {
            None
        };

        // ---- correctness gate ----
        let mut rows_released = report.cost.rows as f64;
        let mut accumulated_s = accumulate_s;
        maybe_span(trace, "bench.check", || {
            self.check(&campaign, &report, rerun.as_ref(), gate);
        });
        if let Some(r) = &rerun {
            rows_released += r.cost.rows as f64;
            accumulated_s += clock.accumulate_s();
        }
        let mse = report.attacks.first().map_or(0.0, |a| a.mse);

        s.insert("setup_s", setup_s);
        s.insert("campaign_s", campaign_s);
        s.insert("cpu_s", cpu_s);
        s.insert("rows_per_s", rows_released / accumulated_s);
        s.insert("query_p50_us", probe::median(&step_us));
        s.insert("query_p90_us", probe::quantile(&step_us, 0.9));
        s.insert("attack_mse", mse);

        if let Some(t) = trace.as_mut() {
            let build_s = t.wall("models.build");
            s.insert("data.materialize_s", probe_s);
            s.insert("models.train_s", build_s - probe_s);
            s.insert(
                "models.train_cpu_s",
                t.cpu("models.build") - t.cpu("data.materialize"),
            );
            s.insert("serve.spawn_s", t.wall("serve.spawn"));
            s.insert("campaign.accumulate_s", t.wall("campaign.accumulate"));
            s.insert("campaign.accumulate_cpu_s", t.cpu("campaign.accumulate"));
            s.insert("campaign.chunks", step_us.len() as f64);
            s.insert("campaign.step_p99_us", probe::quantile(&step_us, 0.99));
            // Attribute the growth only where there is some to attribute.
            if let Some((first_us, last_us)) = probe::tenths(&step_us) {
                s.insert("campaign.step_growth", last_us / first_us);
                let grown_us = last_us - first_us;
                if let (&[first0, first1, last0, last1], true) = (&scrapes[..], grown_us > 0.0) {
                    let server_us = window_mean(last0, last1) - window_mean(first0, first1);
                    s.insert("serve.server_growth_frac", server_us / grown_us);
                }
                let width = campaign.scenario().data().n_classes;
                let vstack_us = t.span("bench.vstack_probe", || {
                    vstack_us(n_chunks - tenth / 2, width, self.chunk)
                        - vstack_us(tenth / 2, width, self.chunk)
                });
                if grown_us > 0.0 {
                    s.insert("campaign.vstack_growth_frac", vstack_us / grown_us);
                }
            }
            if let Some(m) = &first_metrics {
                s.insert("serve.server_p50_us", m.p50_latency_us);
                s.insert("serve.rounds", m.rounds as f64);
                s.insert("serve.errors", m.errors as f64);
                s.insert("serve.mean_batch_fill", m.mean_batch_fill);
                if let Some(last) = &last_metrics {
                    let hits = (last.cache_hits - m.cache_hits) as f64;
                    let misses = (last.cache_misses - m.cache_misses) as f64;
                    s.insert("serve.cache_hit_frac", hits / (hits + misses).max(1.0));
                    s.insert("serve.cached_query_p50_us", probe::median(&rerun_us));
                }
            }
            let attack_s = t.wall("core.attack");
            let (calls, flops) = gemm_totals(&report.telemetry);
            let gflop = flops as f64 / 1e9;
            s.insert("core.attack_s", attack_s);
            s.insert("core.attack_cpu_s", t.cpu("core.attack"));
            s.insert("linalg.gemm_calls", calls as f64);
            s.insert("linalg.gemm_gflop", gflop);
            s.insert("linalg.gflops", gflop / attack_s);
            let trace_bytes = t.span("bench.trace_bytes", || {
                report.merged_trace_jsonl().len()
                    + rerun.as_ref().map_or(0, |r| r.merged_trace_jsonl().len())
            });
            s.insert("telemetry.trace_bytes", trace_bytes as f64);
        }
        maybe_span(trace, "serve.shutdown", || campaign.shutdown());
        let mut failed_units = 0;
        let mut daemon_s = 0.0;
        if let (Some(daemon), true) = (self.daemon.as_mut(), traced) {
            let t = Instant::now();
            let (metrics, failed_jobs) = daemon.probe(trace, gate);
            daemon_s = t.elapsed().as_secs_f64();
            s.extend(metrics);
            units += JOBS as u64;
            failed_units += failed_jobs;
        }
        Iteration {
            sample: s,
            units,
            failed_units,
            probe_s: daemon_s
                + trace.as_ref().map_or(0.0, |t| {
                    t.wall("data.materialize")
                        + t.wall("bench.vstack_probe")
                        + t.wall("bench.trace_bytes")
                }),
        }
    }
}

impl CampaignBench {
    /// The gate: complete outcome, every planned row released, the
    /// client's meter equal to the server's audit ledger, an attack that
    /// beats the uniform random guess, and (with a rerun) cached
    /// estimates bit-identical to the first pass.
    fn check(
        &self,
        campaign: &Campaign,
        report: &CampaignReport,
        rerun: Option<&CampaignReport>,
        gate: &mut Gate,
    ) {
        for (pass, r) in std::iter::once(("first", report)).chain(rerun.map(|r| ("rerun", r))) {
            gate.check(r.outcome == CampaignOutcome::Completed, || {
                format!("{pass} pass ended {:?}", r.outcome)
            });
            gate.check(r.rows_done == r.rows_planned, || {
                format!(
                    "{pass} pass released {} of {} rows",
                    r.rows_done, r.rows_planned
                )
            });
        }
        // The ledger accumulates over both passes of the session.
        let mut client = report.cost;
        let last = rerun.unwrap_or(report);
        if let Some(r) = rerun {
            client.queries += r.cost.queries;
            client.rows += r.cost.rows;
            client.cached_rows += r.cost.cached_rows;
        }
        let server = last
            .session_tag
            .as_deref()
            .and_then(|tag| last.server_audit.as_ref()?.client(tag))
            .map(|c| c.cost());
        gate.check(server == Some(client), || {
            format!("client meter {client:?} != server ledger {server:?}")
        });

        let data = campaign.scenario().data();
        let guess =
            baseline::random_guess_uniform(data.n_predictions(), data.d_target(), SCENARIO_SEED);
        let mut ceiling = metrics::mse_per_feature(&guess, &data.truth);
        if self.sabotage {
            ceiling = 0.0;
        }
        let Some(attack) = report.attacks.first() else {
            gate.check(false, || "report carries no attack".to_string());
            return;
        };
        gate.check(attack.mse < ceiling, || {
            format!(
                "{} mse {} is not below the random-guess mse {ceiling}",
                attack.attack, attack.mse
            )
        });
        if let Some(r) = rerun {
            let same = r.attacks.first().is_some_and(|b| {
                b.estimates.shape() == attack.estimates.shape()
                    && b.estimates
                        .as_slice()
                        .iter()
                        .zip(attack.estimates.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            });
            gate.check(same, || {
                "cached rerun estimates differ from the first pass".to_string()
            });
            gate.check(r.cost.cached_rows == r.cost.rows, || {
                format!(
                    "rerun served {} of {} rows from the cache",
                    r.cost.cached_rows, r.cost.rows
                )
            });
        }
    }
}
