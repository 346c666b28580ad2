//! Kernel-layer benches: f64 matmul GFLOP/s per backend arm, and GRNA
//! generator training. Results land in `BENCH_kernels.json`; the ≥ 2×
//! AVX2-vs-scalar matmul bar at 256×256+ is asserted locally and
//! report-only under `FIA_BENCH_NO_ASSERT` (shared CI runners make
//! wall-clock ratios noisy).

use fia_bench::harness::Harness;
use fia_core::{Grna, GrnaConfig};
use fia_linalg::{avx2_available, with_backend, Backend, Matrix};
use fia_models::{LogisticRegression, LrConfig, PredictProba};

/// Deterministic dense operand without pulling in an RNG: values in
/// roughly [-1, 1], no exact zeros (the scalar arm zero-skips).
fn operand(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let x = ((i * 31 + j * 17 + salt * 7) % 251) as f64 / 125.0 - 1.0;
        if x == 0.0 {
            0.004
        } else {
            x
        }
    })
}

/// GFLOP/s for an `n×n · n×n` multiply at the given median time.
fn gflops(n: usize, median_ns: f64) -> f64 {
    (2 * n * n * n) as f64 / median_ns
}

fn matmul_sweep(h: &mut Harness) -> Vec<(usize, f64)> {
    let backends: &[Backend] = if avx2_available() {
        &[Backend::Scalar, Backend::Avx2]
    } else {
        &[Backend::Scalar]
    };
    let mut speedups = Vec::new();
    for &n in &[64usize, 256, 1024] {
        let a = operand(n, n, 1);
        let b = operand(n, n, 2);
        let mut medians = Vec::new();
        for &backend in backends {
            let name = format!("matmul_{n}_f64_{}", backend.name());
            let r = h.bench(&name, || {
                with_backend(backend, || a.matmul(std::hint::black_box(&b)))
            });
            h.metric(&format!("{name}_gflops"), gflops(n, r.median_ns));
            medians.push(r.median_ns);
        }
        if let [scalar_ns, avx2_ns] = medians[..] {
            let speedup = scalar_ns / avx2_ns;
            h.metric(&format!("matmul_{n}_f64_avx2_speedup"), speedup);
            speedups.push((n, speedup));
        }
    }
    speedups
}

/// Smoke-sized GRNA training (the attack's hot loop) on a synthetic
/// deployment shaped like the paper's primary one.
fn grna_training(h: &mut Harness) {
    let cfg = fia_data::SynthConfig {
        n_samples: 400,
        n_features: 12,
        n_informative: 8,
        n_redundant: 4,
        n_classes: 3,
        class_sep: 2.0,
        redundant_noise: 0.05,
        flip_y: 0.0,
        shuffle_features: false,
        seed: 11,
    };
    let ds = fia_data::normalize_dataset(&fia_data::make_classification(&cfg)).0;
    let model = LogisticRegression::fit(
        &ds,
        &LrConfig {
            epochs: 10,
            ..LrConfig::default()
        },
    );
    let adv: Vec<usize> = (0..8).collect();
    let target: Vec<usize> = (8..12).collect();
    let x_adv = ds.features.select_columns(&adv).unwrap();
    let conf = model.predict_proba(&ds.features);
    let cfg = GrnaConfig {
        hidden: vec![96, 48],
        epochs: 6,
        ..GrnaConfig::paper()
    };
    h.bench("grna_train_f64", || {
        Grna::new(&model, &adv, &target, cfg.clone())
            .train(std::hint::black_box(&x_adv), std::hint::black_box(&conf))
    });
}

fn main() {
    let mut h = Harness::new("kernels", 5, 1);
    println!(
        "dispatched backend: {} (FIA_FORCE_SCALAR pins scalar)",
        fia_linalg::detected_backend().name()
    );

    let speedups = matmul_sweep(&mut h);
    grna_training(&mut h);
    h.write_json("BENCH_kernels.json");

    // Acceptance bar: ≥ 2× f64 matmul throughput over the scalar arm at
    // 256×256 and above on an AVX2 host.
    if std::env::var_os("FIA_BENCH_NO_ASSERT").is_none() {
        for (n, speedup) in speedups {
            if n >= 256 {
                assert!(
                    speedup >= 2.0,
                    "avx2 matmul_{n} speedup {speedup:.2}x below the 2x acceptance bar"
                );
            }
        }
    }
}
