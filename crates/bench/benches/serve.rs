//! Serving-boundary bench (`BENCH_serve.json`), every server at
//! `round_cost = 0`, so each number is real compute and hand-offs, not
//! a modelled sleep.
//!
//! Section 1: requests/sec at 1/4/8 closed-loop client threads against
//! the live TCP service, batched (`batch_cap` 32) vs unbatched
//! (`batch_cap` 1). The headline is `batched_speedup_8t`. Every
//! closed-loop number is the median of `REPS` interleaved runs.
//!
//! Section 2: the same 8-thread traffic against a fully warm
//! released-score cache vs the cold server (`cache_speedup_warm_8t`):
//! a hit is answered on the reactor with no round at all.
//!
//! Section 3: an open-loop arrival schedule at 1× and 2× the measured
//! 8-thread closed-loop capacity. A closed loop caps queue depth at the
//! client count; an open loop keeps arrivals coming while a round runs,
//! so its batch fill reflects the offered rate (`openloop_fill_gain`).
//!
//! Section 4: `telemetry_overhead_frac` prices the fia-telemetry
//! instrumentation — the 8-thread cold scenario with every registry
//! recording vs the recording flag off, as the median of 15 alternating
//! pairs.
//!
//! Wall-clock ratios are noisy on shared runners, so the acceptance bars
//! are report-only under `FIA_BENCH_NO_ASSERT=1` (CI) and enforced
//! locally; the JSON is written first either way.

use fia_bench::harness::Harness;
use fia_linalg::Matrix;
use fia_models::LogisticRegression;
use fia_serve::{LoadConfig, MetricsReport, OpenLoadConfig, PredictionServer, ServeConfig};
use fia_vfl::{VerticalPartition, VflSystem};
use std::sync::Arc;

/// Credit-card-shaped deployment (23 features, binary LR) with a stored
/// prediction set big enough that index traffic never repeats within a
/// round.
fn deployment() -> Arc<VflSystem<LogisticRegression>> {
    let d = 23;
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let w = Matrix::from_fn(d, 1, |_, _| next());
    let model = LogisticRegression::from_parameters(w, vec![0.0], 2);
    let global = Matrix::from_fn(512, d, |_, _| 0.5 + 0.49 * next());
    let partition = VerticalPartition::contiguous(&[16, 7]);
    Arc::new(VflSystem::from_global(model, partition, &global))
}

/// Acceptance bar for `batched_speedup_8t`. At `round_cost = 0` a round
/// is a few µs of compute and the reactor, not the batcher, limits
/// throughput, so batching measured 0.91–1.15× over nine runs on 2
/// vCPUs: the bar holds batching to costing at most 20%.
const BATCHED_SPEEDUP_BAR: f64 = 0.8;

/// Acceptance bar for `cache_speedup_warm_8t`, below the 1.20–1.63×
/// measured over nine runs on 2 vCPUs.
const CACHE_SPEEDUP_BAR: f64 = 1.1;

/// Timed closed-loop requests per client thread.
const REQUESTS_PER_THREAD: usize = 2000;

/// Interleaved repetitions per closed-loop arm; each arm reports its
/// median, which a single slow run on a shared host cannot move.
const REPS: usize = 5;

/// Off/on pairs behind `telemetry_overhead_frac`, which is the median of
/// the per-pair fractions: one closed-loop run at `round_cost = 0`
/// varies by about ±10% on a shared 2-vCPU host, more than the
/// overhead being priced.
const OVERHEAD_PAIRS: usize = 15;

/// Acceptance bar for `telemetry_overhead_frac`. On 2 vCPUs the
/// estimate read −0.09 to +0.10 across seven runs, and single pairs
/// spread ±8% even with four times longer runs, so a cost of a few
/// percent is not resolvable at `round_cost = 0`; the bar sits above
/// that spread and catches a cost of 15% or more.
const OVERHEAD_BAR: f64 = 0.15;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn spawn(
    system: &Arc<VflSystem<LogisticRegression>>,
    config: ServeConfig,
) -> fia_serve::ServerHandle {
    PredictionServer::spawn(
        Arc::clone(system),
        Arc::new(fia_defense::DefensePipeline::new()),
        config,
    )
    .expect("bind ephemeral port")
}

fn load(server: &fia_serve::ServerHandle, threads: usize, requests_per_thread: usize) -> f64 {
    fia_serve::run_load(
        server.addr(),
        &LoadConfig {
            threads,
            requests_per_thread,
            rows_per_request: 1,
        },
    )
    .expect("closed-loop load")
    .rps
}

/// One closed-loop scenario: warm up, then time `threads` clients of
/// 1-row requests. Returns the achieved rps and the server's metrics
/// over the timed run alone.
fn closed_loop(
    system: &Arc<VflSystem<LogisticRegression>>,
    config: ServeConfig,
    threads: usize,
    recording: bool,
) -> (f64, MetricsReport) {
    let server = spawn(system, config);
    server.set_telemetry_recording(recording);
    fia_telemetry::global().set_recording(recording);
    // Warmup: steady-state threads, and — when the cache is on — one
    // full pass over the 512-row stored set (8 threads × 64 requests
    // covers rows 0..511 exactly once) so the timed run is entirely
    // cache-served.
    load(&server, 8, 64);
    let warm = server.metrics();
    let rps = load(&server, threads, REQUESTS_PER_THREAD);
    let m = server.metrics();
    server.shutdown();
    let timed = MetricsReport {
        rounds: m.rounds - warm.rounds,
        rows: m.rows - warm.rows,
        cache_hits: m.cache_hits - warm.cache_hits,
        cache_misses: m.cache_misses - warm.cache_misses,
        mean_batch_fill: (m.rows - warm.rows) as f64 / (m.rounds - warm.rounds).max(1) as f64,
        ..m
    };
    (rps, timed)
}

fn batched(batch_cap: usize) -> ServeConfig {
    ServeConfig {
        batch_cap,
        ..ServeConfig::default()
    }
}

/// One open-loop scenario: a fixed `offered_rps` arrival schedule
/// spread over 16 sender connections against a cold batched server.
/// Returns the load report and the batch fill of the open-loop rounds.
fn open_loop(
    system: &Arc<VflSystem<LogisticRegression>>,
    offered_rps: f64,
) -> (fia_serve::OpenLoadReport, f64) {
    let server = spawn(system, batched(32));
    load(&server, 8, 64);
    // Server metrics are cumulative since spawn; snapshot after warmup
    // so the fill covers only the open-loop rounds.
    let warm = server.metrics();
    // ~0.4 s of schedule, bounded so extreme rates stay cheap.
    let total_requests = ((offered_rps * 0.4) as usize).clamp(200, 20_000);
    let report = fia_serve::run_load_open(
        server.addr(),
        &OpenLoadConfig {
            connections: 16,
            arrival_rps: offered_rps,
            total_requests,
            rows_per_request: 1,
        },
    )
    .expect("open-loop load");
    let m = server.metrics();
    server.shutdown();
    let fill = (m.rows - warm.rows) as f64 / (m.rounds - warm.rounds).max(1) as f64;
    (report, fill)
}

fn main() {
    let mut h = Harness::new("serve", 1, 0);
    let system = deployment();

    // Section 1: batched vs unbatched.
    let mut speedup_8t = 0.0;
    let mut rps_cold_8t = 0.0;
    let mut fill_8t = 0.0;
    for &threads in &[1usize, 4, 8] {
        let (mut unbatched, mut batched_rps, mut fills) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..REPS {
            unbatched.push(closed_loop(&system, batched(1), threads, true).0);
            let (rps, m) = closed_loop(&system, batched(32), threads, true);
            batched_rps.push(rps);
            fills.push(m.mean_batch_fill);
        }
        let (rps_unbatched, rps_batched) = (median(unbatched), median(batched_rps));
        h.metric(&format!("rps_unbatched_{threads}t"), rps_unbatched);
        h.metric(&format!("rps_batched_{threads}t"), rps_batched);
        h.metric(&format!("batched_fill_{threads}t"), median(fills.clone()));
        let speedup = rps_batched / rps_unbatched;
        h.metric(&format!("batched_speedup_{threads}t"), speedup);
        if threads == 8 {
            speedup_8t = speedup;
            rps_cold_8t = rps_batched;
            fill_8t = median(fills);
        }
    }

    // Section 2: a fully warm released-score cache.
    let warm_config = ServeConfig {
        cache_capacity: 1024,
        ..batched(32)
    };
    let mut warm = Vec::new();
    let mut hit_rate: f64 = 1.0;
    for _ in 0..REPS {
        let (rps, m) = closed_loop(&system, warm_config.clone(), 8, true);
        warm.push(rps);
        hit_rate = hit_rate.min(m.cache_hit_rate());
    }
    let rps_warm = median(warm);
    h.metric("rps_warm_8t", rps_warm);
    h.metric("cache_hit_rate_warm", hit_rate);
    let cache_speedup = rps_warm / rps_cold_8t;
    h.metric("cache_speedup_warm_8t", cache_speedup);

    // Section 3: open loop at multiples of the closed-loop capacity, so
    // the section is machine-relative.
    let mut fill_2x = 0.0;
    for &mult in &[1.0f64, 2.0] {
        let (report, fill) = open_loop(&system, mult * rps_cold_8t);
        let tag = format!("{mult}x");
        h.metric(&format!("openloop_offered_rps_{tag}"), report.offered_rps);
        h.metric(&format!("openloop_achieved_rps_{tag}"), report.achieved_rps);
        h.metric(&format!("openloop_fill_{tag}"), fill);
        h.metric(&format!("openloop_p99_us_{tag}"), report.p99_latency_us);
        h.metric(
            &format!("openloop_late_frac_{tag}"),
            report.late_sends as f64 / report.total_requests.max(1) as f64,
        );
        if mult == 2.0 {
            fill_2x = fill;
        }
    }
    // Open-loop fill at 2× vs the closed-loop fill of `batched_fill_8t`.
    h.metric("openloop_fill_gain", fill_2x / fill_8t.max(1e-9));

    // Section 4: telemetry overhead. Each record call with recording
    // off degrades to one relaxed load and a branch.
    let telemetry_overhead_frac = median(
        (0..OVERHEAD_PAIRS)
            .map(|pair| {
                let rps = |recording| closed_loop(&system, batched(32), 8, recording).0;
                // Alternate which arm runs first, splitting drift.
                let (off, on) = if pair % 2 == 0 {
                    let off = rps(false);
                    (off, rps(true))
                } else {
                    let on = rps(true);
                    (rps(false), on)
                };
                1.0 - on / off
            })
            .collect(),
    );
    fia_telemetry::global().set_recording(true);
    h.metric("telemetry_overhead_frac", telemetry_overhead_frac);
    h.write_json("BENCH_serve.json");

    if std::env::var_os("FIA_BENCH_NO_ASSERT").is_none() {
        assert!(
            speedup_8t >= BATCHED_SPEEDUP_BAR,
            "batched server speedup {speedup_8t:.2}x at 8 threads is below the \
             {BATCHED_SPEEDUP_BAR}x acceptance bar"
        );
        assert!(
            cache_speedup >= CACHE_SPEEDUP_BAR,
            "warm-cache speedup {cache_speedup:.2}x over the cold server is below the \
             {CACHE_SPEEDUP_BAR}x acceptance bar"
        );
        assert!(
            telemetry_overhead_frac <= OVERHEAD_BAR,
            "telemetry overhead {telemetry_overhead_frac:.4} exceeds the {OVERHEAD_BAR} \
             acceptance bar"
        );
    }
}
