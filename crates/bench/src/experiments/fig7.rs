//! Fig. 7 — GRNA: MSE per feature vs `d_target` for LR, RF and NN
//! target models.

use crate::experiments::common;
use crate::profiles::ExperimentConfig;
use fia_campaign::ScenarioData;
use fia_core::metrics;
use fia_data::PaperDataset;
use fia_models::PredictProba;

/// Which vertical FL model family GRNA attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetModel {
    /// Logistic regression (directly differentiable).
    Lr,
    /// Random forest (through a distilled surrogate).
    Rf,
    /// Neural network (directly differentiable).
    Nn,
}

impl TargetModel {
    /// All three families of Fig. 7.
    pub fn all() -> [TargetModel; 3] {
        [TargetModel::Lr, TargetModel::Rf, TargetModel::Nn]
    }

    /// Legend label used in the figure.
    pub fn label(&self) -> &'static str {
        match self {
            TargetModel::Lr => "GRNA-LR",
            TargetModel::Rf => "GRNA-RF",
            TargetModel::Nn => "GRNA-NN",
        }
    }
}

/// One measured point of Fig. 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Dataset display name.
    pub dataset: &'static str,
    /// Target model family.
    pub model: TargetModel,
    /// Swept fraction `d_target / d`.
    pub dtarget_fraction: f64,
    /// GRNA MSE per feature.
    pub grna_mse: f64,
    /// Uniform random-guess baseline.
    pub rg_uniform: f64,
    /// Gaussian random-guess baseline.
    pub rg_gaussian: f64,
}

/// Runs the full Fig. 7 sweep (datasets × fractions × model families).
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig7Row> {
    run_on(cfg, &PaperDataset::real_world(), &TargetModel::all())
}

/// Runs a restricted sweep (used by benches and Fig. 11).
pub fn run_on(
    cfg: &ExperimentConfig,
    datasets: &[PaperDataset],
    models: &[TargetModel],
) -> Vec<Fig7Row> {
    let jobs: Vec<(PaperDataset, TargetModel, f64)> = datasets
        .iter()
        .flat_map(|&d| {
            models
                .iter()
                .flat_map(move |&m| cfg.dtarget_grid.iter().map(move |&f| (d, m, f)))
        })
        .collect();
    common::parallel_map(jobs, |(dataset, model, fraction)| {
        measure_point(cfg, dataset, model, fraction)
    })
}

/// Measures one (dataset, model, fraction) point, averaged over trials.
pub fn measure_point(
    cfg: &ExperimentConfig,
    dataset: PaperDataset,
    model: TargetModel,
    fraction: f64,
) -> Fig7Row {
    let trials = cfg.trials.max(1);
    let mut grna_sum = 0.0;
    let mut rgu_sum = 0.0;
    let mut rgg_sum = 0.0;
    for t in 0..trials {
        let seed = cfg.seed_for(
            &format!("fig7/{}/{}/{fraction}", dataset.name(), model.label()),
            t,
        );
        let scenario = common::scenario(dataset, cfg.scale, fraction, None, seed);
        let inferred = infer_with(&scenario, cfg, model, seed);
        grna_sum += metrics::mse_per_feature(&inferred, &scenario.truth);
        let (u, g) = common::random_guess_mse(&scenario, seed ^ 0x33);
        rgu_sum += u;
        rgg_sum += g;
    }
    let n = trials as f64;
    Fig7Row {
        dataset: dataset.name(),
        model,
        dtarget_fraction: fraction,
        grna_mse: grna_sum / n,
        rg_uniform: rgu_sum / n,
        rg_gaussian: rgg_sum / n,
    }
}

/// Trains the requested target model and runs GRNA, returning inferred
/// target features for the scenario's prediction set.
pub fn infer_with(
    scenario: &ScenarioData,
    cfg: &ExperimentConfig,
    model: TargetModel,
    seed: u64,
) -> fia_linalg::Matrix {
    match model {
        TargetModel::Lr => {
            let lr = common::train_lr(scenario, cfg, seed ^ 0x41);
            let conf = lr.predict_proba(&scenario.prediction.features);
            common::run_grna(scenario, &lr, cfg.grna.clone().with_seed(seed), &conf).1
        }
        TargetModel::Nn => {
            let nn = common::train_mlp(scenario, cfg, seed ^ 0x42);
            let conf = nn.predict_proba(&scenario.prediction.features);
            common::run_grna(scenario, &nn, cfg.grna.clone().with_seed(seed), &conf).1
        }
        TargetModel::Rf => {
            let forest = common::train_forest(scenario, cfg, seed ^ 0x43);
            common::run_grna_on_forest(scenario, &forest, cfg, seed)
        }
    }
}

/// Renders the sweep.
pub fn render(rows: &[Fig7Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                r.model.label().to_string(),
                format!("{:.0}%", r.dtarget_fraction * 100.0),
                crate::report::fmt_metric(r.grna_mse),
                crate::report::fmt_metric(r.rg_uniform),
                crate::report::fmt_metric(r.rg_gaussian),
            ]
        })
        .collect();
    crate::report::render_table(
        "Fig. 7: GRNA — MSE per feature vs d_target (LR/RF/NN)",
        &[
            "Dataset",
            "Attack",
            "d_target%",
            "GRNA",
            "RG(Uniform)",
            "RG(Gaussian)",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grna_lr_beats_random_on_credit() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.dtarget_grid = vec![0.3];
        let row = measure_point(&cfg, PaperDataset::CreditCard, TargetModel::Lr, 0.3);
        assert!(row.grna_mse.is_finite());
        assert!(
            row.grna_mse < row.rg_uniform,
            "grna {} vs rg {}",
            row.grna_mse,
            row.rg_uniform
        );
    }

    #[test]
    fn rf_pathway_produces_estimates() {
        let cfg = ExperimentConfig::smoke();
        let seed = 3;
        let scenario = common::scenario(PaperDataset::CreditCard, cfg.scale, 0.3, None, seed);
        let inferred = infer_with(&scenario, &cfg, TargetModel::Rf, seed);
        assert_eq!(inferred.rows(), scenario.n_predictions());
        assert_eq!(inferred.cols(), scenario.d_target());
        assert!(inferred.is_finite());
    }
}
