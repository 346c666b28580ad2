//! Always-on gemm instrumentation.
//!
//! Every dispatched gemm call bumps three process-global counters —
//! calls, output rows, flops (`2·m·k·n`) — labeled by the backend arm
//! that actually ran, so a `MetricsText` scrape shows where the compute
//! went and which arm carried it. The counters are cached in per-backend
//! `OnceLock`s: the steady-state cost is three relaxed `fetch_add`s per
//! gemm, negligible next to any gemm worth counting.
//!
//! Setting `FIA_PROFILE=1` (read once per process) additionally times
//! each call into a per-backend log2 histogram
//! (`fia_kernel_gemm_duration_us`). Timing is opt-in because two
//! `Instant` reads per call are *not* negligible for the small products
//! GRNA's tape issues.

use super::Backend;
use fia_telemetry::{global, Counter, Histogram};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

struct GemmInstruments {
    calls: Arc<Counter>,
    rows: Arc<Counter>,
    flops: Arc<Counter>,
    duration: Option<Arc<Histogram>>,
}

fn profiling() -> bool {
    static PROFILING: OnceLock<bool> = OnceLock::new();
    *PROFILING.get_or_init(|| {
        std::env::var("FIA_PROFILE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

fn instruments(backend: Backend) -> &'static GemmInstruments {
    static SCALAR: OnceLock<GemmInstruments> = OnceLock::new();
    static AVX2: OnceLock<GemmInstruments> = OnceLock::new();
    let cell = match backend {
        Backend::Scalar => &SCALAR,
        Backend::Avx2 => &AVX2,
    };
    cell.get_or_init(|| {
        let labels = [("backend", backend.name())];
        GemmInstruments {
            calls: global().counter_with(
                "fia_kernel_gemm_calls_total",
                "Dispatched gemm kernel calls, by backend arm.",
                &labels,
            ),
            rows: global().counter_with(
                "fia_kernel_gemm_rows_total",
                "Output rows produced by gemm calls, by backend arm.",
                &labels,
            ),
            flops: global().counter_with(
                "fia_kernel_gemm_flops_total",
                "Floating-point operations (2·m·k·n) issued to gemm, by backend arm.",
                &labels,
            ),
            duration: profiling().then(|| {
                global().histogram_with(
                    "fia_kernel_gemm_duration_us",
                    "Per-call gemm wall time, microseconds (FIA_PROFILE=1 only).",
                    &labels,
                )
            }),
        }
    })
}

/// Counts one gemm on the (already resolved) `backend` arm and runs it,
/// timing it when `FIA_PROFILE=1`.
pub(super) fn record_gemm(backend: Backend, m: usize, k: usize, n: usize, f: impl FnOnce()) {
    let ins = instruments(backend);
    ins.calls.inc();
    ins.rows.add(m as u64);
    ins.flops.add(2 * (m as u64) * (k as u64) * (n as u64));
    match &ins.duration {
        Some(hist) => {
            let t0 = Instant::now();
            f();
            hist.record(t0.elapsed().as_micros() as u64);
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_counters_accumulate_calls_rows_and_flops() {
        let before = instruments(Backend::Scalar).flops.get();
        let mut ran = false;
        record_gemm(Backend::Scalar, 4, 8, 2, || ran = true);
        assert!(ran);
        let ins = instruments(Backend::Scalar);
        assert!(ins.calls.get() >= 1);
        assert!(ins.rows.get() >= 4);
        assert_eq!(ins.flops.get() - before, 2 * 4 * 8 * 2);
    }
}
