//! Fig. 8 — GRNA on the random forest: correct branching rate.
//!
//! The surrogate only approximates the forest's thresholds, so the paper
//! additionally scores GRNA-on-RF with the CBR metric: walk each *real*
//! tree along the ground-truth decision path and check whether the
//! inferred feature values take the same branch at every node testing a
//! target feature.

use crate::experiments::common;
use crate::profiles::ExperimentConfig;
use fia_campaign::ScenarioData;
use fia_core::baseline::{self, branch_tally_along_path};
use fia_core::metrics::CbrTally;
use fia_data::PaperDataset;
use fia_linalg::Matrix;
use fia_models::RandomForest;

/// One measured point of Fig. 8.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Dataset display name.
    pub dataset: &'static str,
    /// Swept fraction `d_target / d`.
    pub dtarget_fraction: f64,
    /// GRNA branch-consistency rate over all trees and samples.
    pub grna_cbr: Option<f64>,
    /// Random-guess branch consistency.
    pub rg_cbr: Option<f64>,
}

/// Runs the Fig. 8 sweep.
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig8Row> {
    let jobs: Vec<(PaperDataset, f64)> = PaperDataset::real_world()
        .iter()
        .flat_map(|&d| cfg.dtarget_grid.iter().map(move |&f| (d, f)))
        .collect();
    common::parallel_map(jobs, |(dataset, fraction)| {
        measure_point(cfg, dataset, fraction)
    })
}

/// Measures one (dataset, fraction) point.
pub fn measure_point(cfg: &ExperimentConfig, dataset: PaperDataset, fraction: f64) -> Fig8Row {
    let trials = cfg.trials.max(1);
    let mut grna = CbrTally::default();
    let mut rg = CbrTally::default();
    for t in 0..trials {
        let seed = cfg.seed_for(&format!("fig8/{}/{fraction}", dataset.name()), t);
        let scenario = common::scenario(dataset, cfg.scale, fraction, None, seed);
        let forest = common::train_forest(&scenario, cfg, seed ^ 0x51);
        let inferred = common::run_grna_on_forest(&scenario, &forest, cfg, seed);
        grna.merge(forest_branch_consistency(&forest, &scenario, &inferred));
        let guesses = baseline::random_guess_uniform(inferred.rows(), inferred.cols(), seed ^ 0x52);
        rg.merge(forest_branch_consistency(&forest, &scenario, &guesses));
    }
    Fig8Row {
        dataset: dataset.name(),
        dtarget_fraction: fraction,
        grna_cbr: grna.rate(),
        rg_cbr: rg.rate(),
    }
}

/// Tallies branch consistency of `inferred` target values across every
/// tree of the forest, along the ground-truth decision paths.
pub fn forest_branch_consistency(
    forest: &RandomForest,
    scenario: &ScenarioData,
    inferred: &Matrix,
) -> CbrTally {
    let full_inferred = assemble_with_inferred(scenario, inferred);
    let mut tally = CbrTally::default();
    for i in 0..scenario.n_predictions() {
        let x_true = scenario.prediction.sample(i);
        let x_est = full_inferred.row(i);
        for tree in forest.trees() {
            let true_path = tree.decision_path(x_true);
            tally.merge(branch_tally_along_path(
                tree,
                &true_path,
                x_est,
                &scenario.target_indices,
            ));
        }
    }
    tally
}

/// The prediction set with its target columns replaced by `inferred` —
/// full global samples for branch-consistency evaluation on tree
/// models. (The adversary and target blocks cover every feature, so the
/// remaining columns are the adversary's own true values.)
fn assemble_with_inferred(scenario: &ScenarioData, inferred: &Matrix) -> Matrix {
    let mut full = scenario.prediction.features.clone();
    assert_eq!(inferred.rows(), full.rows(), "row mismatch");
    assert_eq!(inferred.cols(), scenario.d_target(), "col mismatch");
    for i in 0..full.rows() {
        for (k, &f) in scenario.target_indices.iter().enumerate() {
            full[(i, f)] = inferred[(i, k)];
        }
    }
    full
}

/// Renders the sweep.
pub fn render(rows: &[Fig8Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                format!("{:.0}%", r.dtarget_fraction * 100.0),
                crate::report::fmt_opt(r.grna_cbr),
                crate::report::fmt_opt(r.rg_cbr),
            ]
        })
        .collect();
    crate::report::render_table(
        "Fig. 8: GRNA on RF — correct branching rate vs d_target",
        &["Dataset", "d_target%", "GRNA", "Random Guess"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grna_branches_beat_random() {
        let cfg = ExperimentConfig::smoke();
        let row = measure_point(&cfg, PaperDataset::BankMarketing, 0.2);
        let (Some(g), Some(r)) = (row.grna_cbr, row.rg_cbr) else {
            panic!("no branch decisions tallied");
        };
        assert!(g > r - 0.05, "grna cbr {g} vs random {r}");
    }

    #[test]
    fn perfect_inference_gives_perfect_cbr() {
        let cfg = ExperimentConfig::smoke();
        let seed = 9;
        let scenario = common::scenario(PaperDataset::CreditCard, cfg.scale, 0.3, None, seed);
        let forest = common::train_forest(&scenario, &cfg, seed);
        // Feed the ground truth as the "inferred" values.
        let tally = forest_branch_consistency(&forest, &scenario, &scenario.truth);
        assert_eq!(tally.rate(), Some(1.0));
    }

    #[test]
    fn assemble_restores_global_layout() {
        let s = common::scenario(PaperDataset::CreditCard, 0.01, 0.3, None, 7);
        // Assembling with the ground truth reproduces the prediction set.
        let full = assemble_with_inferred(&s, &s.truth);
        assert!(full.max_abs_diff(&s.prediction.features).unwrap() < 1e-12);
    }
}
