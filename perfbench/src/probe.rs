//! Outside-in measurement: process CPU time and peak RSS from
//! `getrusage`, wall/CPU stamps around calls into the program, the span
//! list a traced run records, and the order statistics the report uses.

use fia_telemetry::{InstrumentValue, TelemetrySnapshot};
use std::os::raw::{c_int, c_long};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// Linux `struct rusage`: two timevals followed by fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` laid out as the
    // C declaration (`#[repr(C)]`, two timevals then fourteen longs), and
    // `RUSAGE_SELF` is a valid `who`; the call writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage
}

/// User + system CPU time of the whole process (every thread), seconds.
fn process_cpu_s() -> f64 {
    let u = rusage();
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&u.utime) + tv(&u.stime)
}

/// Peak resident set size of the process, MiB (Linux reports KiB).
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss as f64 / 1024.0
}

/// A wall + process-CPU start stamp.
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: f64,
}

impl Stamp {
    /// Stamps now.
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// Seconds of wall time since the stamp.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Seconds of process CPU time since the stamp.
    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu
    }
}

/// One finished span: a layer call timed from outside.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer name, e.g. `models.build`.
    pub name: &'static str,
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

/// The spans of one traced iteration, kept in memory until the run ends.
/// Spans are recorded back to back around the top-level layer calls, so
/// they do not nest and their sum is what the iteration's wall time
/// should be made of.
#[derive(Debug, Default)]
pub struct Trace {
    /// Finished spans, in call order.
    pub spans: Vec<SpanRec>,
}

impl Trace {
    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Stamp::now();
        let out = f();
        self.spans.push(SpanRec {
            name,
            wall_s: start.wall_s(),
            cpu_s: start.cpu_s(),
        });
        out
    }

    /// Summed wall seconds of every span named `name`.
    pub fn wall(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.wall_s)
            .sum()
    }

    /// Summed CPU seconds of every span named `name`.
    pub fn cpu(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.cpu_s)
            .sum()
    }

    /// Summed wall seconds of every span.
    pub fn total_wall(&self) -> f64 {
        self.spans.iter().map(|s| s.wall_s).sum()
    }
}

/// Runs `f` in a span when a trace is being recorded, bare otherwise.
pub fn maybe_span<T>(trace: &mut Option<Trace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Summed gemm calls and flops (every backend arm) in a telemetry delta.
pub fn gemm_totals(snapshot: &TelemetrySnapshot) -> (u64, u64) {
    let sum = |name: &str| {
        snapshot
            .entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match e.value {
                InstrumentValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    };
    (
        sum("fia_kernel_gemm_calls_total"),
        sum("fia_kernel_gemm_flops_total"),
    )
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How many samples make a tenth of `len` (at least one).
pub fn tenth(len: usize) -> usize {
    (len / 10).max(1)
}

/// Means of the first and the last tenth of `values`; `None` when there
/// are fewer than two values.
pub fn tenths(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let k = tenth(values.len());
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    Some((mean(&values[..k]), mean(&values[values.len() - k..])))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tenths_average_both_ends() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // first tenth = [1, 2], last tenth = [19, 20]
        assert_eq!(tenths(&v), Some((1.5, 19.5)));
        assert_eq!(tenths(&[1.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(tenths(&[1.0]), None);
    }

    #[test]
    fn cpu_and_rss_are_live() {
        let start = Stamp::now();
        let mut x = 0u64;
        while start.wall_s() < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(start.cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
