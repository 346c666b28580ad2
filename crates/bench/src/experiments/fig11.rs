//! Fig. 11 — countermeasure evaluation.
//!
//! * (a)–(b): confidence rounding vs ESA on Bank marketing and Drive
//!   diagnosis — rounding to 0.1 pushes ESA beyond random guess, rounding
//!   to 0.001 barely matters.
//! * (c)–(d): the same rounding grid vs GRNA-LR — GRNA is insensitive.
//! * (e)–(f): dropout-trained NN vs GRNA-NN on Credit card and News
//!   popularity — dropout degrades the attack only slightly.

use crate::experiments::common;
use crate::profiles::ExperimentConfig;
use fia_core::{metrics, EqualitySolvingAttack};
use fia_data::PaperDataset;
use fia_defense::{dropout_defended_mlp, RoundingDefense};
use fia_models::PredictProba;

/// Rounding policy labels used in the figure legends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounding {
    /// Round down to one digit (0.1).
    Coarse,
    /// Round down to three digits (0.001).
    Fine,
    /// No rounding.
    None,
}

impl Rounding {
    /// All three legend entries.
    pub fn all() -> [Rounding; 3] {
        [Rounding::Coarse, Rounding::Fine, Rounding::None]
    }

    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            Rounding::Coarse => "Round 0.1",
            Rounding::Fine => "Round 0.001",
            Rounding::None => "No Round",
        }
    }

    fn apply(&self, scores: &fia_linalg::Matrix) -> fia_linalg::Matrix {
        match self {
            Rounding::Coarse => RoundingDefense::coarse().round_matrix(scores),
            Rounding::Fine => RoundingDefense::fine().round_matrix(scores),
            Rounding::None => scores.clone(),
        }
    }
}

/// One measured point of panels (a)–(d).
#[derive(Debug, Clone)]
pub struct RoundingRow {
    /// Dataset display name.
    pub dataset: &'static str,
    /// Attack ("ESA" or "GRNA-LR").
    pub attack: &'static str,
    /// Rounding policy.
    pub rounding: Rounding,
    /// Swept fraction `d_target / d`.
    pub dtarget_fraction: f64,
    /// Attack MSE per feature under the defense.
    pub mse: f64,
    /// Uniform random-guess baseline.
    pub rg_uniform: f64,
}

/// Panels (a)–(b): rounding vs ESA on Bank and Drive.
pub fn run_rounding_esa(cfg: &ExperimentConfig) -> Vec<RoundingRow> {
    let datasets = [PaperDataset::BankMarketing, PaperDataset::DriveDiagnosis];
    let jobs: Vec<(PaperDataset, Rounding, f64)> = datasets
        .iter()
        .flat_map(|&d| {
            Rounding::all()
                .into_iter()
                .flat_map(move |r| cfg.dtarget_grid.iter().map(move |&f| (d, r, f)))
        })
        .collect();
    common::parallel_map(jobs, |(dataset, rounding, fraction)| {
        let trials = cfg.trials.max(1);
        let mut mse_sum = 0.0;
        let mut rg_sum = 0.0;
        for t in 0..trials {
            let seed = cfg.seed_for(
                &format!("fig11ab/{}/{}/{fraction}", dataset.name(), rounding.label()),
                t,
            );
            let scenario = common::scenario(dataset, cfg.scale, fraction, None, seed);
            let model = common::train_lr(&scenario, cfg, seed ^ 0x81);
            let attack =
                EqualitySolvingAttack::new(&model, &scenario.adv_indices, &scenario.target_indices);
            let conf = rounding.apply(&model.predict_proba(&scenario.prediction.features));
            let inferred = common::run_attack(&attack, &scenario.x_adv, &conf);
            // Clamp wild estimates into the known value range before
            // scoring, as any real adversary would.
            let inferred = inferred.map(|v| v.clamp(0.0, 1.0));
            mse_sum += metrics::mse_per_feature(&inferred, &scenario.truth);
            rg_sum += common::random_guess_mse(&scenario, seed ^ 0x82).0;
        }
        RoundingRow {
            dataset: dataset.name(),
            attack: "ESA",
            rounding,
            dtarget_fraction: fraction,
            mse: mse_sum / trials as f64,
            rg_uniform: rg_sum / trials as f64,
        }
    })
}

/// Panels (c)–(d): rounding vs GRNA-LR on Bank and Drive.
pub fn run_rounding_grna(cfg: &ExperimentConfig) -> Vec<RoundingRow> {
    let datasets = [PaperDataset::BankMarketing, PaperDataset::DriveDiagnosis];
    let jobs: Vec<(PaperDataset, Rounding, f64)> = datasets
        .iter()
        .flat_map(|&d| {
            Rounding::all()
                .into_iter()
                .flat_map(move |r| cfg.dtarget_grid.iter().map(move |&f| (d, r, f)))
        })
        .collect();
    common::parallel_map(jobs, |(dataset, rounding, fraction)| {
        let trials = cfg.trials.max(1);
        let mut mse_sum = 0.0;
        let mut rg_sum = 0.0;
        for t in 0..trials {
            let seed = cfg.seed_for(
                &format!("fig11cd/{}/{}/{fraction}", dataset.name(), rounding.label()),
                t,
            );
            let scenario = common::scenario(dataset, cfg.scale, fraction, None, seed);
            let model = common::train_lr(&scenario, cfg, seed ^ 0x83);
            let conf = rounding.apply(&model.predict_proba(&scenario.prediction.features));
            let (_, inferred) =
                common::run_grna(&scenario, &model, cfg.grna.clone().with_seed(seed), &conf);
            mse_sum += metrics::mse_per_feature(&inferred, &scenario.truth);
            rg_sum += common::random_guess_mse(&scenario, seed ^ 0x84).0;
        }
        RoundingRow {
            dataset: dataset.name(),
            attack: "GRNA-LR",
            rounding,
            dtarget_fraction: fraction,
            mse: mse_sum / trials as f64,
            rg_uniform: rg_sum / trials as f64,
        }
    })
}

/// One measured point of panels (e)–(f).
#[derive(Debug, Clone)]
pub struct DropoutRow {
    /// Dataset display name.
    pub dataset: &'static str,
    /// `true` when the NN was trained with dropout.
    pub dropout: bool,
    /// Swept fraction `d_target / d`.
    pub dtarget_fraction: f64,
    /// GRNA-NN MSE per feature.
    pub mse: f64,
    /// Uniform random-guess baseline.
    pub rg_uniform: f64,
}

/// Panels (e)–(f): dropout vs GRNA-NN on Credit and News.
pub fn run_dropout(cfg: &ExperimentConfig) -> Vec<DropoutRow> {
    let datasets = [PaperDataset::CreditCard, PaperDataset::NewsPopularity];
    let jobs: Vec<(PaperDataset, bool, f64)> = datasets
        .iter()
        .flat_map(|&d| {
            [true, false]
                .into_iter()
                .flat_map(move |dr| cfg.dtarget_grid.iter().map(move |&f| (d, dr, f)))
        })
        .collect();
    common::parallel_map(jobs, |(dataset, dropout, fraction)| {
        let trials = cfg.trials.max(1);
        let mut mse_sum = 0.0;
        let mut rg_sum = 0.0;
        for t in 0..trials {
            let seed = cfg.seed_for(
                &format!("fig11ef/{}/{dropout}/{fraction}", dataset.name()),
                t,
            );
            let scenario = common::scenario(dataset, cfg.scale, fraction, None, seed);
            let model = if dropout {
                let base = cfg.mlp.clone().with_seed(seed ^ 0x85);
                dropout_defended_mlp(&scenario.train, &base, 0.5)
            } else {
                common::train_mlp(&scenario, cfg, seed ^ 0x85)
            };
            let conf = model.predict_proba(&scenario.prediction.features);
            let (_, inferred) =
                common::run_grna(&scenario, &model, cfg.grna.clone().with_seed(seed), &conf);
            mse_sum += metrics::mse_per_feature(&inferred, &scenario.truth);
            rg_sum += common::random_guess_mse(&scenario, seed ^ 0x86).0;
        }
        DropoutRow {
            dataset: dataset.name(),
            dropout,
            dtarget_fraction: fraction,
            mse: mse_sum / trials as f64,
            rg_uniform: rg_sum / trials as f64,
        }
    })
}

/// Renders panels (a)–(d).
pub fn render_rounding(rows: &[RoundingRow], title: &str) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                r.attack.to_string(),
                r.rounding.label().to_string(),
                format!("{:.0}%", r.dtarget_fraction * 100.0),
                crate::report::fmt_metric(r.mse),
                crate::report::fmt_metric(r.rg_uniform),
            ]
        })
        .collect();
    crate::report::render_table(
        title,
        &[
            "Dataset",
            "Attack",
            "Rounding",
            "d_target%",
            "MSE",
            "RG(Uniform)",
        ],
        &body,
    )
}

/// Renders panels (e)–(f).
pub fn render_dropout(rows: &[DropoutRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                if r.dropout { "NN (Dropout)" } else { "NN" }.to_string(),
                format!("{:.0}%", r.dtarget_fraction * 100.0),
                crate::report::fmt_metric(r.mse),
                crate::report::fmt_metric(r.rg_uniform),
            ]
        })
        .collect();
    crate::report::render_table(
        "Fig. 11e-f: dropout defense vs GRNA-NN",
        &["Dataset", "Model", "d_target%", "MSE", "RG(Uniform)"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_rounding_breaks_esa_fine_does_not() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.dtarget_grid = vec![0.3];
        let rows = run_rounding_esa(&cfg);
        let find = |ds: &str, r: Rounding| {
            rows.iter()
                .find(|row| row.dataset == ds && row.rounding == r)
                .expect("row present")
        };
        // Drive diagnosis is where ESA is strong undefended, so the
        // defense's effect is cleanly visible there (Fig. 11b). On Bank
        // the undefended attack is already weak at this d_target and the
        // paper calls the rounded result "relatively stochastic", so we
        // only require the defended attack to sit at random-guess level.
        {
            let coarse = find("Drive diagnosis", Rounding::Coarse);
            let fine = find("Drive diagnosis", Rounding::Fine);
            let none = find("Drive diagnosis", Rounding::None);
            assert!(
                coarse.mse > 2.0 * none.mse,
                "coarse {} vs none {}",
                coarse.mse,
                none.mse
            );
            assert!(
                fine.mse < coarse.mse,
                "fine {} vs coarse {}",
                fine.mse,
                coarse.mse
            );
        }
        for ds in ["Bank marketing", "Drive diagnosis"] {
            let coarse = find(ds, Rounding::Coarse);
            assert!(
                coarse.mse > 0.75 * coarse.rg_uniform,
                "{ds}: defended attack {} still beats random {}",
                coarse.mse,
                coarse.rg_uniform
            );
        }
    }
}
