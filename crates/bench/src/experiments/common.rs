//! Helpers shared by the per-figure experiment modules.

use crate::profiles::ExperimentConfig;
use fia_campaign::{PartitionSpec, ScenarioData, ScenarioSpec};
use fia_core::engine::default_workers;
use fia_core::{
    baseline, metrics, Attack, AttackEngine, Grna, GrnaConfig, QueryBatch, TrainedGenerator,
};
use fia_data::{PaperDataset, SplitSpec};
use fia_linalg::Matrix;
use fia_models::{
    distill_forest_with_pool, DifferentiableModel, ForestConfig, LogisticRegression, Mlp,
    PredictProba, RandomForest,
};
use std::sync::Mutex;

/// The data side of one paper scenario (Section VI-A: generate, split,
/// draw a random `d_target` feature block), materialized from the
/// equivalent [`ScenarioSpec`]. Experiments train their own per-trial
/// models on it.
///
/// * `scale` — sample-count scale vs. Table II;
/// * `target_fraction` — the swept `d_target / d`;
/// * `prediction_fraction` — `n / |D|` for the prediction set
///   (`None` = the paper's default 50%);
/// * `seed` — drives generation, splitting and the feature split.
pub fn scenario(
    dataset: PaperDataset,
    scale: f64,
    target_fraction: f64,
    prediction_fraction: Option<f64>,
    seed: u64,
) -> ScenarioData {
    let mut spec = ScenarioSpec::paper(dataset)
        .with_scale(scale)
        .with_partition(PartitionSpec::two_block_random(target_fraction))
        .with_seed(seed);
    if let Some(f) = prediction_fraction {
        spec = spec.with_split(SplitSpec::paper_default().with_prediction_fraction(f));
    }
    spec.materialize()
}

/// Trains the LR model for a scenario (binary or multinomial per `c`).
pub fn train_lr(scenario: &ScenarioData, cfg: &ExperimentConfig, seed: u64) -> LogisticRegression {
    let mut lr_cfg = cfg.lr.clone();
    lr_cfg.seed = seed;
    LogisticRegression::fit(&scenario.train, &lr_cfg)
}

/// Trains the NN model for a scenario.
pub fn train_mlp(scenario: &ScenarioData, cfg: &ExperimentConfig, seed: u64) -> Mlp {
    let mlp_cfg = cfg.mlp.clone().with_seed(seed);
    Mlp::fit(&scenario.train, &mlp_cfg)
}

/// Trains the RF model for a scenario.
pub fn train_forest(scenario: &ScenarioData, cfg: &ExperimentConfig, seed: u64) -> RandomForest {
    let forest_cfg = ForestConfig {
        seed,
        ..cfg.forest.clone()
    };
    RandomForest::fit(&scenario.train, &forest_cfg)
}

/// Dispatches one batch-first attack over a scenario's accumulated
/// `(x_adv, v)` stream through the [`AttackEngine`] and returns the
/// estimates.
pub fn run_attack(attack: &dyn Attack, x_adv: &Matrix, confidences: &Matrix) -> Matrix {
    AttackEngine::new()
        .run(attack, &QueryBatch::new(x_adv.clone(), confidences.clone()))
        .estimates
}

/// Runs GRNA end-to-end against any differentiable model: trains the
/// generator on the scenario's accumulated predictions and returns the
/// inferred target features for the whole prediction set.
pub fn run_grna<M: DifferentiableModel>(
    scenario: &ScenarioData,
    model: &M,
    grna_cfg: GrnaConfig,
    confidences: &Matrix,
) -> (TrainedGenerator, Matrix) {
    let attack = Grna::new(
        model,
        &scenario.adv_indices,
        &scenario.target_indices,
        grna_cfg,
    );
    let generator = attack.train(&scenario.x_adv, confidences);
    let inferred = generator.infer(&scenario.x_adv, 0xFEED);
    (generator, inferred)
}

/// Distills the forest and runs GRNA against the surrogate (Section V-B).
///
/// Dummy inputs are bootstrapped from the adversary's own observed
/// feature values ([`fia_models::distill_forest_with_pool`]) — data the
/// threat model already grants it — which keeps the surrogate faithful in
/// the region the attack actually probes.
pub fn run_grna_on_forest(
    scenario: &ScenarioData,
    forest: &RandomForest,
    cfg: &ExperimentConfig,
    seed: u64,
) -> Matrix {
    let mut distill_cfg = cfg.distill.clone();
    distill_cfg.seed = seed;
    let surrogate = distill_forest_with_pool(forest, &distill_cfg, scenario.x_adv.as_slice());
    // The observed confidences come from the *real* forest — the
    // surrogate only provides the differentiable path.
    let confidences = forest.predict_proba(&scenario.prediction.features);
    let (_, inferred) = run_grna(
        scenario,
        &surrogate,
        cfg.grna.clone().with_seed(seed),
        &confidences,
    );
    inferred
}

/// Both random-guess baselines' MSE against the scenario truth.
pub fn random_guess_mse(scenario: &ScenarioData, seed: u64) -> (f64, f64) {
    let n = scenario.truth.rows();
    let d = scenario.truth.cols();
    let uniform = baseline::random_guess_uniform(n, d, seed);
    let gaussian = baseline::random_guess_gaussian(n, d, seed ^ 0x6A55);
    (
        metrics::mse_per_feature(&uniform, &scenario.truth),
        metrics::mse_per_feature(&gaussian, &scenario.truth),
    )
}

/// Averages `f` over `trials` runs with per-trial seeds.
pub fn average_over_trials(
    cfg: &ExperimentConfig,
    tag: &str,
    mut f: impl FnMut(u64) -> f64,
) -> f64 {
    let trials = cfg.trials.max(1);
    let sum: f64 = (0..trials).map(|t| f(cfg.seed_for(tag, t))).sum();
    sum / trials as f64
}

/// Maps `f` over the inputs on scoped worker threads, preserving order.
/// At most [`default_workers`] workers run, each pulling the next
/// input off a shared queue, so a sweep never oversubscribes the box
/// (per-phase timings then measure work, not scheduler contention).
pub fn parallel_map<T: Send, R: Send>(inputs: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let workers = default_workers().min(inputs.len());
    let queue = Mutex::new(inputs.into_iter().enumerate());
    let next = || queue.lock().expect("queue lock").next();
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    std::iter::from_fn(next)
                        .map(|(i, x)| (i, f(x)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel_map worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(vec![3u64, 1, 2], |x| x * 10);
        assert_eq!(out, vec![30, 10, 20]);

        // More inputs than workers: order still holds, and no more than
        // `default_workers()` inputs are ever in flight at once.
        let cores = default_workers();
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let inputs: Vec<u64> = (0..(4 * cores as u64 + 3)).collect();
        let out = parallel_map(inputs.clone(), |x| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
            x * 10
        });
        assert_eq!(out, inputs.iter().map(|x| x * 10).collect::<Vec<_>>());
        let peak = peak.into_inner();
        assert!(
            (1..=cores).contains(&peak),
            "peak concurrency {peak} with {cores} cores"
        );
    }

    #[test]
    fn average_over_trials_uses_distinct_seeds() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.trials = 3;
        let mut seen = Vec::new();
        let _ = average_over_trials(&cfg, "t", |s| {
            seen.push(s);
            1.0
        });
        seen.dedup();
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn lr_training_pipeline_runs() {
        let cfg = ExperimentConfig::smoke();
        let s = scenario(PaperDataset::CreditCard, cfg.scale, 0.3, None, 1);
        let model = train_lr(&s, &cfg, 2);
        let conf = model.predict_proba(&s.prediction.features);
        assert_eq!(conf.rows(), s.n_predictions());
        assert_eq!(conf.cols(), 2);
    }

    #[test]
    fn scenario_target_and_prediction_fractions_apply() {
        let s = scenario(PaperDataset::CreditCard, 0.01, 0.3, None, 7);
        assert_eq!(s.d_target(), 7); // 30% of 23 ≈ 7
        assert_eq!(s.x_adv.cols(), 16);
        let small = scenario(PaperDataset::Synthetic1, 0.005, 0.3, Some(0.1), 5);
        let large = scenario(PaperDataset::Synthetic1, 0.005, 0.3, Some(0.5), 5);
        assert!(large.n_predictions() > 3 * small.n_predictions());
    }
}
