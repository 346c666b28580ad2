//! Over-the-wire scrape of the `MetricsText` op: a live server must
//! answer with well-formed Prometheus-style exposition, and the report
//! a client parses from it must equal the one the server parses from
//! its own text.

use fia_linalg::Matrix;
use fia_models::LogisticRegression;
use fia_serve::{PredictionServer, RemoteOracle, ServeConfig};
use fia_vfl::{VerticalPartition, VflSystem};
use std::sync::Arc;

const D: usize = 6;
const C: usize = 3;
const N: usize = 48;

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 32) as f64
    }
}

fn deployed_lr() -> Arc<VflSystem<LogisticRegression>> {
    let mut next = lcg(0x5C4A9E);
    let w = Matrix::from_fn(D, C, |_, _| next() * 2.0 - 1.0);
    let model = LogisticRegression::from_parameters(w, vec![0.0; C], C);
    let global = Matrix::from_fn(N, D, |_, _| 0.05 + 0.9 * next());
    let partition = VerticalPartition::from_assignments(vec![vec![0, 2, 4], vec![1, 3, 5]], D);
    Arc::new(VflSystem::from_global(model, partition, &global))
}

fn take_sample(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .unwrap_or_else(|| panic!("no sample line for {name} in:\n{text}"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap_or_else(|e| panic!("sample for {name} not integral: {e}"))
}

#[test]
fn scrape_is_well_formed_and_both_parsed_views_agree() {
    let server = PredictionServer::spawn(
        deployed_lr(),
        Arc::new(fia_defense::DefensePipeline::new()),
        ServeConfig {
            cache_capacity: 2 * N,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut oracle = RemoteOracle::connect(server.addr()).expect("connect");

    oracle.predict_batch(&[1, 30, 35, 40]).expect("round 1");
    oracle
        .predict_batch(&[1, 30, 35, 40])
        .expect("round 2 (cached)");
    assert!(oracle.predict_batch(&[999]).is_err(), "oob rejected");

    // The server-side view first: the scrape's own request is counted
    // only once its reply is staged, after its text was rendered, so
    // both views see the same counters and the same latency sample.
    let local = server.metrics();
    let remote = oracle.server_metrics().expect("scrape");
    assert!(remote.uptime_secs >= local.uptime_secs);
    assert_eq!(
        fia_serve::MetricsReport {
            uptime_secs: local.uptime_secs,
            throughput_rps: local.throughput_rps,
            ..remote.clone()
        },
        local,
        "client and server parse the same report"
    );
    assert_eq!(remote.requests, 3, "Info handshake + two predict rounds");
    assert_eq!(remote.errors, 1);
    assert_eq!(remote.cache_hits, 4, "second round was fully cached");
    assert_eq!(remote.cache_misses, 4);
    assert_eq!(
        (remote.rounds, remote.rows),
        (1, 4),
        "one round, then a cached one"
    );
    assert_eq!((remote.open_connections, remote.total_connections), (1, 1));
    assert!(remote.p50_latency_us <= remote.p99_latency_us);

    let text = oracle.metrics_text().expect("scrape");

    // Structure: every sample's metric name has exactly one TYPE header.
    for name in [
        "fia_serve_requests_total",
        "fia_serve_errors_total",
        "fia_serve_cache_hit_rows_total",
        "fia_serve_cache_miss_rows_total",
        "fia_serve_rounds_total",
        "fia_serve_rows_total",
        "fia_serve_request_duration_us",
        "fia_serve_request_latency_p50_us",
        "fia_serve_request_latency_p99_us",
        "fia_serve_uptime_seconds",
    ] {
        assert_eq!(
            text.lines()
                .filter(|l| l.starts_with(&format!("# TYPE {name} ")))
                .count(),
            1,
            "TYPE header for {name}"
        );
    }

    // The latency histogram saw every completed request, the earlier
    // scrape included, and its +Inf bucket equals its count.
    let count = take_sample(&text, "fia_serve_request_duration_us_count");
    assert_eq!(count, remote.requests + 1);
    assert_eq!(
        take_sample(&text, "fia_serve_request_duration_us_bucket{le=\"+Inf\"}"),
        count
    );

    // ServerHandle::metrics_text is the same surface, server-side.
    assert!(server
        .metrics_text()
        .contains("# TYPE fia_serve_requests_total counter"));
    server.shutdown();
}
