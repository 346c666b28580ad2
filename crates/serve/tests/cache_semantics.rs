//! Release semantics of the score cache, pinned over the wire.
//!
//! The paper's defenses act at the score-release boundary; the cache
//! sits strictly *after* them, so its contract is a security property,
//! not just a performance one: a re-queried row must be re-released
//! **bit-identically** to its first release. In particular the noise
//! defense must not be re-sampled — if it were, an adversary could
//! average fresh noise away by asking repeatedly. The discriminating
//! case is re-querying a row inside a *different* batch composition:
//! the content-keyed noise defense would then draw different noise, so
//! only the cache can (and must) keep the released bytes stable.

use fia_core::{run_over_oracle, AttackEngine, EqualitySolvingAttack, PredictionOracle};
use fia_defense::{DefensePipeline, NoiseDefense, RoundingDefense};
use fia_linalg::Matrix;
use fia_models::LogisticRegression;
use fia_serve::{PredictionServer, RemoteOracle, ServeConfig};
use fia_vfl::{VerticalPartition, VflSystem};
use std::sync::Arc;

const D: usize = 8;
const C: usize = 5;
const N: usize = 72;
const ADV: [usize; 4] = [0, 2, 4, 6];
const TARGET: [usize; 4] = [1, 3, 5, 7];

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 32) as f64
    }
}

fn deployed_lr() -> (Arc<VflSystem<LogisticRegression>>, Matrix) {
    let mut next = lcg(0xCAC4E);
    let w = Matrix::from_fn(D, C, |_, _| next() * 2.0 - 1.0);
    let model = LogisticRegression::from_parameters(w, vec![0.0; C], C);
    let global = Matrix::from_fn(N, D, |_, _| 0.05 + 0.9 * next());
    let partition = VerticalPartition::from_assignments(vec![ADV.to_vec(), TARGET.to_vec()], D);
    let system = Arc::new(VflSystem::from_global(model, partition, &global));
    (system, global)
}

/// Rounding + content-keyed noise: the paper's defended release path.
fn noisy_defense() -> Arc<DefensePipeline> {
    Arc::new(
        DefensePipeline::new()
            .then(NoiseDefense::new(0.02, 77))
            .then(RoundingDefense::fine()),
    )
}

fn cached_config() -> ServeConfig {
    ServeConfig {
        cache_capacity: 4 * N, // everything stays resident
        cache_seed: 0xE71C,
        ..ServeConfig::default()
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn requeried_rows_are_byte_identical_to_their_first_release() {
    let (system, _) = deployed_lr();
    let server = PredictionServer::spawn(system, noisy_defense(), cached_config()).expect("bind");
    let mut oracle = RemoteOracle::connect(server.addr()).expect("connect");

    // First release of four rows (one round, one noise draw each).
    let first = oracle.predict_batch(&[3, 9, 17, 40]).expect("first");
    assert_eq!(oracle.cost().cached_rows, 0, "cold campaign has no hits");

    // Exact re-query: must be the same bytes, all from the cache.
    let again = oracle.predict_batch(&[3, 9, 17, 40]).expect("again");
    assert_eq!(
        bits(&first),
        bits(&again),
        "re-release must be bit-identical"
    );
    assert_eq!(oracle.cost().cached_rows, 4);

    // The discriminating case: the same rows inside a *different* batch
    // composition and order. Without the cache, the content-keyed noise
    // defense would draw fresh noise for this round; with it, rows 9,
    // 40 and 3 must reproduce their first-released bytes exactly.
    let mixed = oracle.predict_batch(&[9, 40, 50, 3]).expect("mixed");
    assert_eq!(
        bits(&mixed.select_rows(&[0]).unwrap()),
        bits(&first.select_rows(&[1]).unwrap())
    );
    assert_eq!(
        bits(&mixed.select_rows(&[1]).unwrap()),
        bits(&first.select_rows(&[3]).unwrap())
    );
    assert_eq!(
        bits(&mixed.select_rows(&[3]).unwrap()),
        bits(&first.select_rows(&[0]).unwrap())
    );
    assert_eq!(oracle.cost().cached_rows, 7, "three more hits, one miss");

    // And the newly released row 50 is itself now canonical.
    let row50 = oracle.predict_batch(&[50]).expect("row 50");
    assert_eq!(bits(&row50), bits(&mixed.select_rows(&[2]).unwrap()));

    let m = server.metrics();
    assert_eq!(m.cache_hits, 8);
    assert_eq!(m.cache_misses, 5);
    assert!((m.cache_hit_rate() - 8.0 / 13.0).abs() < 1e-12);
    server.shutdown();
}

#[test]
fn esa_over_remote_oracle_is_identical_warm_vs_cold() {
    let (system, global) = deployed_lr();
    let server = PredictionServer::spawn(Arc::clone(&system), noisy_defense(), cached_config())
        .expect("bind");

    let indices: Vec<usize> = (0..N).collect();
    let x_adv = global.select_columns(&ADV).unwrap();
    let attack = EqualitySolvingAttack::new(system.model(), &ADV, &TARGET);
    let engine = AttackEngine::new();

    // Cold campaign: every row is released (and cached) for the first
    // time, across several accumulation rounds.
    let mut cold_oracle = RemoteOracle::connect(server.addr()).expect("connect");
    let cold = run_over_oracle(&engine, &attack, &mut cold_oracle, &x_adv, &indices, 16)
        .expect("cold replay");
    let cold_cost = cold_oracle.query_cost();
    assert_eq!(cold_cost.rows, N as u64);
    assert_eq!(cold_cost.cached_rows, 0);
    assert_eq!(cold_cost.computed_rows(), N as u64);

    // Warm campaign: a fresh connection, different chunking — every row
    // comes from the cache, and the corpus is *identical*, so the
    // attack's estimates are too (bit-for-bit).
    let mut warm_oracle = RemoteOracle::connect(server.addr()).expect("connect");
    let warm = run_over_oracle(&engine, &attack, &mut warm_oracle, &x_adv, &indices, 9)
        .expect("warm replay");
    let warm_cost = warm_oracle.query_cost();
    assert_eq!(warm_cost.cached_rows, N as u64, "fully cache-served");
    assert_eq!(warm_cost.computed_rows(), 0);

    assert_eq!(
        cold.estimates, warm.estimates,
        "a warm cache must not change what the adversary reconstructs"
    );
    server.shutdown();
}
