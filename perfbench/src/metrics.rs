//! The metric catalogue: every name the benchmark reports, its unit, and
//! whether it is an end-to-end or a per-layer metric. `BENCHMARK.json`
//! lists the same names; the smoke test holds the two in step.

/// Which output a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reported by untraced runs (`--trace 0`).
    EndToEnd,
    /// Reported by traced runs (`--trace 1`).
    Layer,
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit string printed with every value.
    pub unit: &'static str,
    /// End-to-end or per-layer.
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        kind: Kind::Layer,
    }
}

/// Every metric, end-to-end first. Layers the workload does not run
/// (the rerun pass and the daemon probe outside `esa-lr-stream`) report
/// `0`.
pub const ALL: &[Metric] = &[
    e2e("setup_s", "s"),
    e2e("campaign_s", "s"),
    e2e("cpu_s", "s"),
    e2e("rows_per_s", "1/s"),
    e2e("query_p50_us", "us"),
    e2e("query_p90_us", "us"),
    e2e("attack_mse", "mse"),
    e2e("peak_rss_mb", "MiB"),
    layer("data.materialize_s", "s"),
    layer("models.train_s", "s"),
    layer("models.train_cpu_s", "s"),
    layer("serve.spawn_s", "s"),
    layer("campaign.accumulate_s", "s"),
    layer("campaign.accumulate_cpu_s", "s"),
    layer("campaign.chunks", "count"),
    layer("campaign.step_p99_us", "us"),
    layer("campaign.step_growth", "ratio"),
    layer("campaign.vstack_growth_frac", "frac"),
    layer("serve.server_growth_frac", "frac"),
    layer("serve.server_p50_us", "us"),
    layer("serve.rounds", "count"),
    layer("serve.errors", "count"),
    layer("serve.mean_batch_fill", "rows/round"),
    layer("serve.cache_hit_frac", "frac"),
    layer("serve.cached_query_p50_us", "us"),
    layer("core.attack_s", "s"),
    layer("core.attack_cpu_s", "s"),
    layer("linalg.gemm_calls", "count"),
    layer("linalg.gemm_gflop", "GFLOP"),
    layer("linalg.gflops", "GFLOP/s"),
    layer("telemetry.trace_bytes", "bytes"),
    layer("telemetry.overhead_frac", "frac"),
    layer("campaignd.job_s", "s"),
    layer("campaignd.events", "count"),
    layer("campaignd.wal_bytes", "bytes"),
    layer("coverage_frac", "frac"),
];

/// The metrics of one kind, in catalogue order.
pub fn of_kind(kind: Kind) -> impl Iterator<Item = &'static Metric> {
    ALL.iter().filter(move |m| m.kind == kind)
}
