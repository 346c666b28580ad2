//! Golden pins for every byte format and every FNV-1a-derived value.
//!
//! Each assertion compares against a fixed literal, never against a
//! second run of the same code, so a change to the shared codec or hash
//! that alters a single byte or bit fails here. Small blobs are pinned
//! byte for byte; large ones as `(length, digest)`, where the digest is
//! a test-local mixer that shares nothing with the code under test.

use fia_bench::profiles::ExperimentConfig;
use fia_campaign::{
    AttackSpec, BudgetMeter, Campaign, CampaignCheckpoint, NullObserver, PartitionSpec,
    QueryBudget, ScenarioSpec,
};
use fia_campaignd::wal::JobLog;
use fia_campaignd::{
    AttackOutcome, JobAttack, JobDefense, JobModel, JobOracle, JobOutcome, JobSpec,
};
use fia_core::{row_seed, QueryCost};
use fia_data::{Dataset, PaperDataset};
use fia_defense::{NoiseDefense, ScoreDefense};
use fia_linalg::Matrix;
use fia_models::{
    Activation, DecisionTree, LogisticRegression, Mlp, MlpConfig, RandomForest, TreeNode,
};

/// A test-local 64-bit digest: multiply-rotate over each byte, seeded
/// with the length. Only used to shorten long pinned blobs.
fn digest(bytes: &[u8]) -> (usize, u64) {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ bytes.len() as u64;
    for &b in bytes {
        h = (h ^ u64::from(b))
            .wrapping_mul(0xD6E8_FEB8_6659_FD93)
            .rotate_left(23);
    }
    (bytes.len(), h)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn custom_dataset() -> Dataset {
    let features = Matrix::from_fn(6, 3, |i, j| (i as f64) * 0.5 - (j as f64) * 0.25);
    Dataset::new("pinned", features, vec![0, 1, 2, 0, 1, 2], 3)
}

fn checkpoint() -> CampaignCheckpoint {
    CampaignCheckpoint {
        fingerprint: "0123456789abcdef".to_string(),
        seed: 42,
        budget: QueryBudget::queries(7).with_rows(500),
        spent: QueryCost {
            queries: 3,
            rows: 96,
            cached_rows: 5,
        },
        rows_done: 3,
        chunks_issued: 3,
        chunk: 32,
        confidences: Matrix::from_fn(3, 4, |i, j| (i as f64 + 0.125) / (j as f64 + 1.0)),
    }
}

fn job_spec() -> JobSpec {
    JobSpec {
        dataset: PaperDataset::DriveDiagnosis,
        scale: 0.005,
        target_fraction: 0.4,
        seed: 41,
        model: JobModel::DecisionTree,
        defense: JobDefense::RoundingCoarse,
        attacks: vec![JobAttack::Pra, JobAttack::Esa],
        max_queries: Some(12),
        max_rows: None,
        chunk: 16,
        oracle: JobOracle::Shared {
            replicas: 2,
            cache_capacity: 0,
        },
        throttle_ms: 5,
    }
}

fn job_outcome() -> JobOutcome {
    JobOutcome {
        fingerprint: "00deadbeef00".into(),
        seed: 29,
        complete: false,
        rows_done: 96,
        rows_planned: 128,
        cost: QueryCost {
            queries: 3,
            rows: 96,
            cached_rows: 0,
        },
        attacks: vec![AttackOutcome {
            attack: "esa".into(),
            rows: 96,
            degraded_rows: 2,
            mse: 0.0125,
            per_feature_mse: vec![0.5, 0.25],
        }],
    }
}

fn tree() -> DecisionTree {
    DecisionTree::from_nodes(
        vec![
            TreeNode::Internal {
                feature: 1,
                threshold: 0.375,
            },
            TreeNode::Leaf { label: 0 },
            TreeNode::Internal {
                feature: 0,
                threshold: -1.5,
            },
            TreeNode::Absent,
            TreeNode::Absent,
            TreeNode::Leaf { label: 1 },
            TreeNode::Leaf { label: 2 },
        ],
        2,
        3,
    )
}

fn mlp() -> Mlp {
    let cfg = MlpConfig {
        hidden: vec![3],
        activation: Activation::Tanh,
        layer_norm: true,
        dropout: Some(0.25),
        seed: 11,
        ..MlpConfig::fast()
    };
    Mlp::new(2, 3, &cfg)
}

#[test]
fn scenario_fingerprints_are_pinned() {
    let paper = ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
        .with_scale(0.005)
        .with_partition(PartitionSpec::two_block_random(0.2))
        .with_seed(67);
    assert_eq!(paper.fingerprint(), "d9f188471ee21e6a");
    let custom = ScenarioSpec::custom(custom_dataset()).with_seed(5);
    assert_eq!(custom.fingerprint(), "157e7e5ee896b57c");
}

#[test]
fn row_seed_and_experiment_seeds_are_pinned() {
    assert_eq!(
        row_seed(9, &[0.5, -1.25], &[0.75, 0.25]),
        13634886363189998158
    );
    assert_eq!(row_seed(0, &[], &[]), 14695981039346656037);
    let cfg = ExperimentConfig::smoke();
    assert_eq!(cfg.seed_for("fig5", 0), 12303483957194747648);
    assert_eq!(cfg.seed_for("table3", 4), 16312539072797838436);
}

#[test]
fn campaign_trace_id_is_pinned() {
    let scenario = ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
        .with_scale(0.005)
        .with_partition(PartitionSpec::two_block_random(0.2))
        .with_seed(67)
        .build();
    let mut campaign = Campaign::new(scenario)
        .with_attack(AttackSpec::esa())
        .with_chunk(64);
    let report = campaign.run(&mut NullObserver).unwrap();
    assert_eq!(report.trace_id, 12224898481948774827);
}

#[test]
fn noise_defense_batch_bits_are_pinned() {
    let scores = Matrix::from_fn(2, 3, |i, j| (1 + i + j) as f64 / 6.0);
    let released = NoiseDefense::new(0.05, 3).defend_batch(&scores);
    let bits: Vec<u64> = released.as_slice().iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        bits,
        vec![
            4594878703964201596,
            4599751151657009918,
            4602714982012048866,
            4595527194647998656,
            4599847807660395119,
            4602330243506167089,
        ]
    );
}

#[test]
fn campaign_blobs_are_pinned() {
    let meter = BudgetMeter {
        budget: QueryBudget::queries(2).with_rows(500),
        spent: QueryCost {
            queries: 1,
            rows: 32,
            cached_rows: 4,
        },
    };
    assert_eq!(
        hex(&meter.to_blob()),
        "01030200000000000000f401000000000000010000000000000020000000000000000400000000000000"
    );
    assert_eq!(digest(&checkpoint().to_blob()), (221, 13843063745663131356));
}

#[test]
fn daemon_blobs_and_log_frames_are_pinned() {
    assert_eq!(hex(&job_spec().to_blob()), "01027b14ae47e17a743f9a9999999999d93f29000000000000000102020100010c000000000000001000000001020000000000000005000000");
    assert_eq!(hex(&job_outcome().to_blob()), "010c003030646561646265656630301d000000000000000060000000000000008000000000000000030000000000000060000000000000000000000000000000010300657361600000000000000002000000000000009a9999999999893f02000000000000000000e03f000000000000d03f");

    let dir = std::env::temp_dir().join(format!("fia-golden-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("job.log");
    let _ = std::fs::remove_file(&path);
    JobLog::open(&path)
        .unwrap()
        .append(b"pinned payload")
        .unwrap();
    let frame = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        hex(&frame),
        "014c4a460e00000070696e6e6564207061796c6f61645d3b75eb2c9cf176"
    );
}

#[test]
fn model_blobs_are_pinned() {
    let w = Matrix::from_fn(3, 2, |i, j| (i as f64) - 0.5 * (j as f64));
    let lr = LogisticRegression::from_parameters(w, vec![0.125, -0.25], 2);
    assert_eq!(hex(&lr.to_bytes()), "46494c52010200000000000000030000000000000002000000000000000000000000000000000000000000e0bf000000000000f03f000000000000e03f0000000000000040000000000000f83f0200000000000000000000000000c03f000000000000d0bf");
    assert_eq!(hex(&tree().to_bytes()), "4649445401020000000000000003000000000000000700000000000000020100000000000000000000000000d83f010000000000000000020000000000000000000000000000f8bf0000010100000000000000010200000000000000");
    let forest = RandomForest::from_trees(vec![tree(), tree()], 2, 3);
    assert_eq!(digest(&forest.to_bytes()), (229, 11603785643385301690));
    assert_eq!(digest(&mlp().to_bytes()), (353, 10607244038811150842));
}
