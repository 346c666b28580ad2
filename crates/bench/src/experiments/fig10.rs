//! Fig. 10 — per-feature reconstruction error vs data correlations.
//!
//! Two panels: Bank marketing + LR at `d_target = 40%`, Credit card + RF
//! at `d_target = 30%`. Each target feature is annotated with its
//! Eqn (16) correlation to the adversary's features and its Eqn (17)
//! correlation to the prediction outputs; weakly-correlated features
//! should reconstruct worse.

use crate::experiments::common;
use crate::profiles::ExperimentConfig;
use fia_campaign::ScenarioData;
use fia_core::{correlation_report, metrics};
use fia_data::PaperDataset;
use fia_linalg::vecops::pearson;
use fia_models::PredictProba;

/// One target feature's row in a Fig. 10 panel.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Panel name (dataset + model).
    pub panel: &'static str,
    /// Position of the feature within the target block.
    pub feature_pos: usize,
    /// Global feature index.
    pub global_index: usize,
    /// Per-feature reconstruction MSE.
    pub mse: f64,
    /// Ground-truth variance of the feature (for normalization).
    pub variance: f64,
    /// Eqn (16): mean |corr| with the adversary's features.
    pub corr_adv: f64,
    /// Eqn (17): mean |corr| with the confidence scores.
    pub corr_pred: f64,
}

impl Fig10Row {
    /// Variance-normalized error `MSE / Var(x)` — ≈ `1 − R²` of the
    /// reconstruction. On features with heterogeneous spreads the raw MSE
    /// conflates "hard to infer" with "low variance"; this ratio isolates
    /// reconstruction quality (1.0 = no better than predicting the mean).
    pub fn relative_mse(&self) -> f64 {
        if self.variance > 1e-12 {
            self.mse / self.variance
        } else {
            f64::NAN
        }
    }
}

/// Runs both Fig. 10 panels.
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig10Row> {
    let mut rows = panel_lr(cfg);
    rows.extend(panel_rf(cfg));
    rows
}

/// Repetitions averaged inside each panel. The per-feature MSEs of a
/// single GRNA run are noisy; the correlation-vs-error relationship the
/// figure demonstrates needs a few repetitions even at small scale.
const PANEL_REPS: usize = 3;

/// Panel (a): Bank marketing, LR model, d_target = 40%.
pub fn panel_lr(cfg: &ExperimentConfig) -> Vec<Fig10Row> {
    // The feature split stays fixed across repetitions (the panel is
    // *about* specific features); only training/attack seeds vary.
    let split_seed = cfg.seed_for("fig10/lr", 0);
    let scenario = common::scenario(
        PaperDataset::BankMarketing,
        cfg.scale,
        0.4,
        None,
        split_seed,
    );
    let mut rows: Option<Vec<Fig10Row>> = None;
    for rep in 0..PANEL_REPS {
        let seed = cfg.seed_for("fig10/lr", rep) ^ 0x71;
        let model = common::train_lr(&scenario, cfg, seed);
        let conf = model.predict_proba(&scenario.prediction.features);
        let (_, inferred) =
            common::run_grna(&scenario, &model, cfg.grna.clone().with_seed(seed), &conf);
        accumulate_rows(
            &mut rows,
            "Bank marketing (LR)",
            &scenario,
            &inferred,
            &conf,
        );
    }
    finish_rows(rows)
}

/// Panel (b): Credit card, RF model, d_target = 30%.
pub fn panel_rf(cfg: &ExperimentConfig) -> Vec<Fig10Row> {
    let split_seed = cfg.seed_for("fig10/rf", 0);
    let scenario = common::scenario(PaperDataset::CreditCard, cfg.scale, 0.3, None, split_seed);
    let mut rows: Option<Vec<Fig10Row>> = None;
    for rep in 0..PANEL_REPS {
        let seed = cfg.seed_for("fig10/rf", rep) ^ 0x72;
        let forest = common::train_forest(&scenario, cfg, seed);
        let conf = forest.predict_proba(&scenario.prediction.features);
        let inferred = common::run_grna_on_forest(&scenario, &forest, cfg, seed);
        accumulate_rows(&mut rows, "Credit card (RF)", &scenario, &inferred, &conf);
    }
    finish_rows(rows)
}

fn accumulate_rows(
    acc: &mut Option<Vec<Fig10Row>>,
    panel: &'static str,
    scenario: &ScenarioData,
    inferred: &fia_linalg::Matrix,
    confidences: &fia_linalg::Matrix,
) {
    let rows = build_rows(panel, scenario, inferred, confidences);
    match acc {
        None => *acc = Some(rows),
        Some(prev) => {
            for (p, r) in prev.iter_mut().zip(rows) {
                p.mse += r.mse;
                p.variance += r.variance;
                p.corr_adv += r.corr_adv;
                p.corr_pred += r.corr_pred;
            }
        }
    }
}

fn finish_rows(acc: Option<Vec<Fig10Row>>) -> Vec<Fig10Row> {
    let mut rows = acc.expect("at least one repetition");
    for r in &mut rows {
        r.mse /= PANEL_REPS as f64;
        r.variance /= PANEL_REPS as f64;
        r.corr_adv /= PANEL_REPS as f64;
        r.corr_pred /= PANEL_REPS as f64;
    }
    rows
}

fn build_rows(
    panel: &'static str,
    scenario: &ScenarioData,
    inferred: &fia_linalg::Matrix,
    confidences: &fia_linalg::Matrix,
) -> Vec<Fig10Row> {
    let mse = metrics::per_feature_mse(inferred, &scenario.truth);
    let report = correlation_report(&scenario.x_adv, &scenario.truth, confidences);
    (0..scenario.d_target())
        .map(|k| Fig10Row {
            panel,
            feature_pos: k,
            global_index: scenario.target_indices[k],
            mse: mse[k],
            variance: fia_linalg::vecops::variance(&scenario.truth.col(k)),
            corr_adv: report.with_adversary[k],
            corr_pred: report.with_predictions[k],
        })
        .collect()
}

/// Correlation between per-feature *raw* MSE and the Eqn (16) diagnostic.
pub fn mse_correlation_tradeoff(rows: &[Fig10Row]) -> f64 {
    let mses: Vec<f64> = rows.iter().map(|r| r.mse).collect();
    let corrs: Vec<f64> = rows.iter().map(|r| r.corr_adv).collect();
    pearson(&mses, &corrs)
}

/// Correlation between *variance-normalized* MSE and the Eqn (16)
/// diagnostic — the paper's qualitative claim ("a weaker correlation …
/// results in a lower inference accuracy") in a form that isn't
/// confounded by heterogeneous feature variances: expected *negative*.
pub fn relative_mse_correlation_tradeoff(rows: &[Fig10Row]) -> f64 {
    let pairs: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.relative_mse().is_finite())
        .map(|r| (r.relative_mse(), r.corr_adv))
        .collect();
    let rel: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let corrs: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    pearson(&rel, &corrs)
}

/// Renders both panels.
pub fn render(rows: &[Fig10Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.panel.to_string(),
                format!("{}: f{}", r.feature_pos, r.global_index),
                crate::report::fmt_metric(r.mse),
                crate::report::fmt_metric(r.relative_mse()),
                crate::report::fmt_metric(r.corr_adv),
                crate::report::fmt_metric(r.corr_pred),
            ]
        })
        .collect();
    crate::report::render_table(
        "Fig. 10: per-feature MSE vs correlations (Eqns 16-17)",
        &[
            "Panel",
            "Feature",
            "MSE",
            "MSE/Var",
            "corr(x_adv)",
            "corr(pred)",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lr_panel_has_one_row_per_target_feature() {
        let cfg = ExperimentConfig::smoke();
        let rows = panel_lr(&cfg);
        // Bank marketing: 20 features, 40% → 8 target features.
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.mse.is_finite());
            assert!((0.0..=1.0).contains(&r.corr_adv));
            assert!((0.0..=1.0).contains(&r.corr_pred));
        }
    }
}
