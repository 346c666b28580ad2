//! Extra design-choice ablations beyond the paper's tables
//! (DESIGN.md §6):
//!
//! * **pinv-vs-ridge** — ESA solved with the SVD pseudo-inverse versus a
//!   ridge-regularized normal-equation solve, quantifying why the paper's
//!   minimum-norm estimator is the right default.
//! * **distillation size sweep** — surrogate capacity versus GRNA-on-RF
//!   quality, probing the paper's 2000/200 surrogate choice.
//! * **noise defense sweep** — Gaussian confidence perturbation versus
//!   ESA and GRNA, an additional countermeasure beyond the paper's
//!   evaluated pair (its rounding results suggest the same asymmetry:
//!   equation-based attacks break long before distribution-learning
//!   ones).

use crate::experiments::common;
use crate::profiles::ExperimentConfig;
use fia_campaign::ScenarioData;
use fia_core::{metrics, EqualitySolvingAttack};
use fia_data::PaperDataset;
use fia_defense::NoiseDefense;
use fia_linalg::{cholesky, Matrix};
use fia_models::{distill_forest_with_pool, DistillConfig, PredictProba};

/// Result of the pinv-vs-ridge ESA comparison.
#[derive(Debug, Clone)]
pub struct PinvRow {
    /// Swept fraction `d_target / d`.
    pub dtarget_fraction: f64,
    /// MSE using the SVD pseudo-inverse (the paper's estimator).
    pub pinv_mse: f64,
    /// MSE using a ridge-regularized normal-equation solve.
    pub ridge_mse: f64,
}

/// Compares the two solvers on Credit card across the `d_target` grid.
pub fn run_pinv_vs_ridge(cfg: &ExperimentConfig, ridge_lambda: f64) -> Vec<PinvRow> {
    cfg.dtarget_grid
        .iter()
        .map(|&fraction| {
            let seed = cfg.seed_for(&format!("ablation-pinv/{fraction}"), 0);
            let scenario =
                common::scenario(PaperDataset::CreditCard, cfg.scale, fraction, None, seed);
            let model = common::train_lr(&scenario, cfg, seed ^ 0xA1);
            let attack =
                EqualitySolvingAttack::new(&model, &scenario.adv_indices, &scenario.target_indices);
            let conf = model.predict_proba(&scenario.prediction.features);
            let pinv_est = common::run_attack(&attack, &scenario.x_adv, &conf);
            let ridge_est = ridge_solve_batch(&attack, &scenario, &conf, ridge_lambda);
            PinvRow {
                dtarget_fraction: fraction,
                pinv_mse: metrics::mse_per_feature(&pinv_est, &scenario.truth),
                ridge_mse: metrics::mse_per_feature(&ridge_est, &scenario.truth),
            }
        })
        .collect()
}

/// Ridge alternative: `x̂ = (ΘᵀΘ + λI)⁻¹ Θᵀ a`, reusing the attack's own
/// equation construction through
/// [`EqualitySolvingAttack::theta_target`]/[`EqualitySolvingAttack::rhs`].
fn ridge_solve_batch(
    attack: &EqualitySolvingAttack<'_>,
    scenario: &ScenarioData,
    confidences: &Matrix,
    lambda: f64,
) -> Matrix {
    let theta = attack.theta_target();
    let gram = theta
        .transpose()
        .matmul(theta)
        .expect("gram of finite matrix");
    let d_t = scenario.d_target();
    let mut regularized = gram;
    for i in 0..d_t {
        regularized[(i, i)] += lambda;
    }
    // The regularized Gram matrix is SPD: factor once, solve per sample.
    let factor = cholesky(&regularized).expect("ridge system is SPD");
    let mut out = Matrix::zeros(scenario.x_adv.rows(), d_t);
    for i in 0..out.rows() {
        let a = attack.rhs(scenario.x_adv.row(i), confidences.row(i));
        let rhs = theta.transpose().matvec(&a).expect("shape consistent");
        let x = factor.solve(&rhs).expect("factor shape matches");
        out.row_mut(i).copy_from_slice(&x);
    }
    out
}

/// Result of the distillation capacity sweep.
#[derive(Debug, Clone)]
pub struct DistillRow {
    /// Hidden widths of the surrogate.
    pub hidden: Vec<usize>,
    /// Surrogate fidelity (mean |Δconfidence| vs the forest).
    pub fidelity_gap: f64,
    /// GRNA-on-RF MSE using this surrogate.
    pub grna_mse: f64,
}

/// Sweeps surrogate sizes on Credit card at `d_target = 30%`.
pub fn run_distill_sweep(cfg: &ExperimentConfig) -> Vec<DistillRow> {
    let seed = cfg.seed_for("ablation-distill", 0);
    let scenario = common::scenario(PaperDataset::CreditCard, cfg.scale, 0.3, None, seed);
    let forest = common::train_forest(&scenario, cfg, seed ^ 0xB1);
    let confidences = forest.predict_proba(&scenario.prediction.features);
    let sizes: Vec<Vec<usize>> = vec![vec![32], vec![128, 64], vec![256, 64]];
    common::parallel_map(sizes, |hidden| {
        let distill_cfg = DistillConfig {
            hidden: hidden.clone(),
            seed: seed ^ 0xB2,
            ..cfg.distill.clone()
        };
        let surrogate = distill_forest_with_pool(&forest, &distill_cfg, scenario.x_adv.as_slice());
        let fidelity_gap = fia_models::distillation_fidelity(&forest, &surrogate, 200, seed ^ 0xB3);
        let (_, inferred) = common::run_grna(
            &scenario,
            &surrogate,
            cfg.grna.clone().with_seed(seed ^ 0xB4),
            &confidences,
        );
        DistillRow {
            hidden,
            fidelity_gap,
            grna_mse: metrics::mse_per_feature(&inferred, &scenario.truth),
        }
    })
}

/// Result of the noise-defense sweep.
#[derive(Debug, Clone)]
pub struct NoiseRow {
    /// Noise standard deviation σ.
    pub sigma: f64,
    /// ESA MSE under the defense.
    pub esa_mse: f64,
    /// GRNA-LR MSE under the defense.
    pub grna_mse: f64,
    /// Uniform random-guess baseline.
    pub rg_uniform: f64,
}

/// Sweeps the Gaussian-noise defense on Drive diagnosis at
/// `d_target = 20%` (where undefended ESA is exact, making the defense's
/// effect maximally visible).
pub fn run_noise_sweep(cfg: &ExperimentConfig) -> Vec<NoiseRow> {
    let sigmas = vec![0.0, 0.005, 0.02, 0.08];
    let seed = cfg.seed_for("ablation-noise", 0);
    let scenario = common::scenario(PaperDataset::DriveDiagnosis, cfg.scale, 0.2, None, seed);
    let model = common::train_lr(&scenario, cfg, seed ^ 0xC1);
    let clean_conf = model.predict_proba(&scenario.prediction.features);
    let esa = EqualitySolvingAttack::new(&model, &scenario.adv_indices, &scenario.target_indices);
    common::parallel_map(sigmas, |sigma| {
        let conf = if sigma > 0.0 {
            NoiseDefense::new(sigma, seed ^ 0xC2).perturb(&clean_conf)
        } else {
            clean_conf.clone()
        };
        let esa_est = common::run_attack(&esa, &scenario.x_adv, &conf).map(|v| v.clamp(0.0, 1.0));
        let (_, grna_est) = common::run_grna(
            &scenario,
            &model,
            cfg.grna.clone().with_seed(seed ^ 0xC3),
            &conf,
        );
        NoiseRow {
            sigma,
            esa_mse: metrics::mse_per_feature(&esa_est, &scenario.truth),
            grna_mse: metrics::mse_per_feature(&grna_est, &scenario.truth),
            rg_uniform: common::random_guess_mse(&scenario, seed ^ 0xC4).0,
        }
    })
}

/// Renders the noise sweep.
pub fn render_noise(rows: &[NoiseRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.3}", r.sigma),
                crate::report::fmt_metric(r.esa_mse),
                crate::report::fmt_metric(r.grna_mse),
                crate::report::fmt_metric(r.rg_uniform),
            ]
        })
        .collect();
    crate::report::render_table(
        "Ablation: Gaussian-noise defense vs ESA & GRNA-LR (Drive, 20%)",
        &["sigma", "ESA", "GRNA-LR", "RG(Uniform)"],
        &body,
    )
}

/// Renders the pinv comparison.
pub fn render_pinv(rows: &[PinvRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}%", r.dtarget_fraction * 100.0),
                crate::report::fmt_metric(r.pinv_mse),
                crate::report::fmt_metric(r.ridge_mse),
            ]
        })
        .collect();
    crate::report::render_table(
        "Ablation: ESA solver — SVD pseudo-inverse vs ridge (Credit card)",
        &["d_target%", "pinv", "ridge"],
        &body,
    )
}

/// Renders the distillation sweep.
pub fn render_distill(rows: &[DistillRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:?}", r.hidden),
                crate::report::fmt_metric(r.fidelity_gap),
                crate::report::fmt_metric(r.grna_mse),
            ]
        })
        .collect();
    crate::report::render_table(
        "Ablation: RF surrogate capacity vs GRNA quality (Credit card, 30%)",
        &["Surrogate hidden", "fidelity gap", "GRNA MSE"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinv_and_ridge_agree_at_tiny_lambda() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.dtarget_grid = vec![0.3];
        let rows = run_pinv_vs_ridge(&cfg, 1e-10);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        // With λ → 0 and full-rank normal equations both estimators
        // coincide (up to conditioning noise).
        assert!(
            (r.pinv_mse - r.ridge_mse).abs() < 0.05,
            "pinv {} vs ridge {}",
            r.pinv_mse,
            r.ridge_mse
        );
    }

    #[test]
    fn distill_sweep_produces_three_rows() {
        let cfg = ExperimentConfig::smoke();
        let rows = run_distill_sweep(&cfg);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.fidelity_gap.is_finite());
            assert!(r.grna_mse.is_finite());
        }
    }
}
