//! Fig. 5 — Equality solving attack: MSE per feature vs `d_target`.
//!
//! For each real-world dataset and each `d_target` fraction, trains an LR
//! model and runs ESA plus the two random-guess baselines. The `exact`
//! flag marks the paper's threshold condition `d_target ≤ c − 1`
//! (rendered as 'T' in the sub-figures), where the MSE must be ~0.

use crate::experiments::common;
use crate::profiles::ExperimentConfig;
use fia_core::{metrics, EqualitySolvingAttack};
use fia_data::PaperDataset;
use fia_models::PredictProba;

/// One measured point of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Dataset display name.
    pub dataset: &'static str,
    /// Swept fraction `d_target / d`.
    pub dtarget_fraction: f64,
    /// Absolute `d_target`.
    pub d_target: usize,
    /// ESA MSE per feature.
    pub esa_mse: f64,
    /// Uniform random-guess baseline MSE.
    pub rg_uniform: f64,
    /// Gaussian random-guess baseline MSE.
    pub rg_gaussian: f64,
    /// Eqn (15) upper bound on the ESA MSE.
    pub upper_bound: f64,
    /// Whether `d_target ≤ c − 1` (exact recovery expected).
    pub exact: bool,
}

/// Runs the Fig. 5 sweep over the four real-world datasets.
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig5Row> {
    let jobs: Vec<(PaperDataset, f64)> = PaperDataset::real_world()
        .iter()
        .flat_map(|&d| cfg.dtarget_grid.iter().map(move |&f| (d, f)))
        .collect();
    common::parallel_map(jobs, |(dataset, fraction)| {
        measure_point(cfg, dataset, fraction)
    })
}

/// Measures one (dataset, fraction) point, averaged over trials.
pub fn measure_point(cfg: &ExperimentConfig, dataset: PaperDataset, fraction: f64) -> Fig5Row {
    let trials = cfg.trials.max(1);
    let mut esa_sum = 0.0;
    let mut rgu_sum = 0.0;
    let mut rgg_sum = 0.0;
    let mut bound_sum = 0.0;
    let mut d_target = 0;
    let mut exact = false;
    for t in 0..trials {
        let seed = cfg.seed_for(&format!("fig5/{}/{fraction}", dataset.name()), t);
        let scenario = common::scenario(dataset, cfg.scale, fraction, None, seed);
        let model = common::train_lr(&scenario, cfg, seed ^ 0x11);
        let attack =
            EqualitySolvingAttack::new(&model, &scenario.adv_indices, &scenario.target_indices);
        let confidences = model.predict_proba(&scenario.prediction.features);
        let inferred = common::run_attack(&attack, &scenario.x_adv, &confidences);
        esa_sum += metrics::mse_per_feature(&inferred, &scenario.truth);
        let (u, g) = common::random_guess_mse(&scenario, seed ^ 0x22);
        rgu_sum += u;
        rgg_sum += g;
        bound_sum += metrics::esa_upper_bound(&scenario.truth);
        d_target = scenario.d_target();
        exact = attack.exact_recovery_expected();
    }
    let n = trials as f64;
    Fig5Row {
        dataset: dataset.name(),
        dtarget_fraction: fraction,
        d_target,
        esa_mse: esa_sum / n,
        rg_uniform: rgu_sum / n,
        rg_gaussian: rgg_sum / n,
        upper_bound: bound_sum / n,
        exact,
    }
}

/// Renders the sweep as one table (the paper splits it into four
/// sub-figures).
pub fn render(rows: &[Fig5Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                format!(
                    "{:.0}%{}",
                    r.dtarget_fraction * 100.0,
                    if r.exact { " (T)" } else { "" }
                ),
                r.d_target.to_string(),
                crate::report::fmt_metric(r.esa_mse),
                crate::report::fmt_metric(r.rg_uniform),
                crate::report::fmt_metric(r.rg_gaussian),
                crate::report::fmt_metric(r.upper_bound),
            ]
        })
        .collect();
    crate::report::render_table(
        "Fig. 5: ESA — MSE per feature vs d_target",
        &[
            "Dataset",
            "d_target%",
            "d_target",
            "ESA",
            "RG(Uniform)",
            "RG(Gaussian)",
            "Bound(Eq.15)",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_has_expected_shape() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.dtarget_grid = vec![0.2];
        let rows = run(&cfg);
        assert_eq!(rows.len(), 4); // four datasets × one fraction
        for r in &rows {
            assert!(r.esa_mse.is_finite());
            assert!(r.rg_uniform > 0.0);
        }
        // The paper's Fig. 5 claim: where the estimate stays
        // well-determined — Credit card and Drive diagnosis ("e.g., in
        // Fig. 5b and 5c") — ESA is greatly superior to random guess. On
        // the 2-class Bank dataset at high d_target the paper's own plot
        // shows ESA *above* the baselines, so no assertion there.
        for name in ["Credit card", "Drive diagnosis"] {
            let r = rows.iter().find(|r| r.dataset == name).unwrap();
            assert!(
                r.esa_mse < r.rg_uniform,
                "{}: esa {} vs rg {}",
                r.dataset,
                r.esa_mse,
                r.rg_uniform
            );
        }
    }

    #[test]
    fn exact_threshold_on_drive() {
        // Drive diagnosis has 11 classes; at 20% of 48 features
        // d_target = 10 = c − 1 → exact, MSE ≈ 0.
        let mut cfg = ExperimentConfig::smoke();
        cfg.dtarget_grid = vec![0.2];
        let seed = cfg.seed_for("fig5/Drive diagnosis/0.2", 0);
        let scenario = common::scenario(PaperDataset::DriveDiagnosis, cfg.scale, 0.2, None, seed);
        assert_eq!(scenario.d_target(), 10);
        let row = measure_point(&cfg, PaperDataset::DriveDiagnosis, 0.2);
        assert!(row.exact);
        assert!(row.esa_mse < 1e-6, "exact recovery mse {}", row.esa_mse);
    }
}
