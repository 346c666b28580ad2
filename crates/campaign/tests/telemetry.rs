//! The campaign-level telemetry surface, over the wire and in-process:
//! a served session's `MetricsText` scrape covers serve, campaign and
//! kernel instruments; the report's snapshot delta is deterministic for
//! identically-seeded runs; chunk events carry monotone wall-clock
//! timings; the event log renders to JSONL.
//!
//! Campaign/kernel/attack instruments live on the process-global
//! registry, so the tests in this file serialize on one lock — a
//! concurrent test mutating the globals would pollute another's
//! snapshot delta.

use fia_campaign::{
    AttackSpec, Campaign, CampaignEvent, EventLog, NullObserver, OracleSpec, PartitionSpec,
    ScenarioSpec, ServedConfig,
};
use fia_data::PaperDataset;
use std::sync::Mutex;
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

fn lr_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
        .with_scale(0.005)
        .with_partition(PartitionSpec::two_block_random(0.2))
        .with_seed(seed)
}

#[test]
fn served_scrape_covers_serve_campaign_and_kernel_instruments() {
    let _guard = LOCK.lock().unwrap();
    let scenario = lr_spec(53)
        .with_oracle(OracleSpec::Served(ServedConfig {
            cache_capacity: 4096,
            ..ServedConfig::default()
        }))
        .build();
    let mut campaign = Campaign::new(scenario)
        .with_attack(AttackSpec::esa())
        .with_chunk(32);

    let first = campaign.run(&mut NullObserver).unwrap();
    assert_eq!(first.cost.cached_rows, 0);
    let second = campaign.rerun(&mut NullObserver).unwrap();
    assert_eq!(
        second.cost.cached_rows, second.cost.rows,
        "repeat pass should be fully cache-served"
    );

    let text = campaign
        .server_metrics_text()
        .expect("served session scrapes");
    // One exposition covers all three layers: the server's own registry
    // plus the process-global registry (campaign + kernel instruments).
    for name in [
        "fia_serve_requests_total",
        "fia_serve_cache_hit_rows_total",
        "fia_serve_request_duration_us_bucket",
        "fia_campaign_chunks_total",
        "fia_campaign_rows_total",
        "fia_campaign_cached_rows_total",
        "fia_kernel_gemm_calls_total",
        "fia_attack_phase_total",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(name)),
            "scrape is missing {name}:\n{text}"
        );
    }
    // Well-formed: every non-comment line is `name{labels} value`.
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let value = line.rsplit(' ').next().unwrap();
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
            "unparseable sample: {line}"
        );
    }

    // The report's delta carries exactly this run's campaign counters.
    let chunks = second
        .telemetry
        .counters()
        .into_iter()
        .find(|(k, _)| k.starts_with("fia_campaign_chunks_total"))
        .map(|(_, v)| v)
        .expect("delta carries the chunk counter");
    assert_eq!(chunks, second.cost.queries);
    campaign.shutdown();
}

#[test]
fn identically_seeded_runs_have_identical_counter_deltas() {
    let _guard = LOCK.lock().unwrap();
    let run = || {
        Campaign::new(lr_spec(29).build())
            .with_attack(AttackSpec::esa())
            .with_chunk(48)
            .run(&mut NullObserver)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert!(!a.telemetry.is_empty());
    let ca = a.telemetry.counters();
    let cb = b.telemetry.counters();
    assert!(
        ca.iter().any(|(k, _)| k.starts_with("fia_kernel_gemm")),
        "kernel counters present: {ca:?}"
    );
    assert_eq!(
        ca, cb,
        "counter deltas of identically-seeded runs must agree"
    );
}

#[test]
fn chunk_timings_are_monotone() {
    let _guard = LOCK.lock().unwrap();
    let mut log = EventLog::new();
    Campaign::new(lr_spec(59).build())
        .with_attack(AttackSpec::esa())
        .with_chunk(32)
        .run(&mut log)
        .unwrap();
    let mut last_elapsed = Duration::ZERO;
    let mut chunks = 0usize;
    for e in &log.events {
        if let CampaignEvent::ChunkDone {
            duration, elapsed, ..
        } = e
        {
            assert!(duration <= elapsed, "chunk outlives the run: {e:?}");
            assert!(*elapsed >= last_elapsed, "elapsed went backwards: {e:?}");
            last_elapsed = *elapsed;
            chunks += 1;
        }
    }
    assert!(chunks > 1, "expected multiple chunks, saw {chunks}");
}

#[test]
fn spans_and_event_log_render_to_jsonl() {
    let _guard = LOCK.lock().unwrap();
    let mut log = EventLog::new();
    let mut campaign = Campaign::new(lr_spec(61).build())
        .with_attack(AttackSpec::esa())
        .with_chunk(64);
    campaign.run(&mut log).unwrap();

    let events = log.to_jsonl();
    assert_eq!(events.lines().count(), log.events.len());
    assert!(events.contains("\"event\":\"started\""));
    assert!(events.contains("\"event\":\"chunk-done\""));
    assert!(events.contains("\"event\":\"attack-done\""));
    assert!(events.contains("\"event\":\"finished\""));

    let trace = campaign.trace_jsonl();
    assert!(trace
        .lines()
        .any(|l| l.contains("\"name\":\"campaign.run\"")));
    assert!(trace
        .lines()
        .any(|l| l.contains("\"name\":\"campaign.chunk\"")));
    assert!(trace
        .lines()
        .any(|l| l.contains("\"name\":\"campaign.attack\"") && l.contains("\"attack\":\"esa\"")));
    // Every chunk/attack span points at the one root.
    let records = campaign.tracer().records();
    let root = records
        .iter()
        .find(|r| r.name == "campaign.run")
        .expect("root span");
    assert!(records
        .iter()
        .filter(|r| r.name != "campaign.run")
        .all(|r| r.parent == Some(root.id)));
}
