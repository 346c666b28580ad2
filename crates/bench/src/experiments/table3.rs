//! Table III — ablation study of the GRN components.
//!
//! Bank marketing, LR target model, `d_target = 40%`. The six cases:
//!
//! 1. input is exclusively noise (no `x_adv`);
//! 2. input is exclusively `x_adv` (no noise);
//! 3. no convergence constraint on `x̂_target`;
//! 4. no generator (per-sample free-variable regression);
//! 5. the full GRN;
//! 6. random guess.

use crate::experiments::common;
use crate::profiles::ExperimentConfig;
use fia_core::{baseline, metrics, GrnaConfig};
use fia_data::PaperDataset;
use fia_models::PredictProba;

/// One Table III row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Case index (1–6, matching the paper).
    pub case: usize,
    /// `x_adv` fed to the generator?
    pub input_adv: bool,
    /// Noise fed to the generator?
    pub input_noise: bool,
    /// Variance constraint applied?
    pub constraint: bool,
    /// Generator network used?
    pub generator: bool,
    /// Measured MSE per feature.
    pub mse: f64,
}

impl Table3Row {
    /// Human-readable case description.
    pub fn description(&self) -> &'static str {
        match self.case {
            1 => "noise-only input",
            2 => "x_adv-only input",
            3 => "no output constraint",
            4 => "no generator (free variables)",
            5 => "full GRN",
            6 => "random guess",
            _ => "?",
        }
    }
}

/// Runs the six ablation cases.
pub fn run(cfg: &ExperimentConfig) -> Vec<Table3Row> {
    let seed = cfg.seed_for("table3", 0);
    let scenario = common::scenario(PaperDataset::BankMarketing, cfg.scale, 0.4, None, seed);
    let model = common::train_lr(&scenario, cfg, seed ^ 0x91);
    let confidences = model.predict_proba(&scenario.prediction.features);

    let case_config = |case: usize| -> GrnaConfig {
        let mut c = cfg.grna.clone().with_seed(seed ^ (case as u64) << 8);
        match case {
            1 => c.use_adv_input = false,
            2 => c.use_noise_input = false,
            3 => c.use_variance_constraint = false,
            4 => c.use_generator = false,
            5 => {}
            _ => unreachable!(),
        }
        c
    };

    let mut rows: Vec<Table3Row> = common::parallel_map(vec![1usize, 2, 3, 4, 5], |case| {
        let gc = case_config(case);
        let (input_adv, input_noise, constraint, generator) = (
            gc.use_adv_input,
            gc.use_noise_input,
            gc.use_variance_constraint,
            gc.use_generator,
        );
        let (_, inferred) = common::run_grna(&scenario, &model, gc, &confidences);
        Table3Row {
            case,
            input_adv,
            input_noise,
            constraint,
            generator,
            mse: metrics::mse_per_feature(&inferred, &scenario.truth),
        }
    });

    // Case 6: random guess.
    let rg =
        baseline::random_guess_uniform(scenario.truth.rows(), scenario.truth.cols(), seed ^ 0x92);
    rows.push(Table3Row {
        case: 6,
        input_adv: false,
        input_noise: false,
        constraint: false,
        generator: false,
        mse: metrics::mse_per_feature(&rg, &scenario.truth),
    });
    rows
}

/// Renders Table III.
pub fn render(rows: &[Table3Row]) -> String {
    let mark = |b: bool| if b { "yes" } else { "no" }.to_string();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.case.to_string(),
                r.description().to_string(),
                mark(r.input_adv),
                mark(r.input_noise),
                mark(r.constraint),
                mark(r.generator),
                crate::report::fmt_metric(r.mse),
            ]
        })
        .collect();
    crate::report::render_table(
        "Table III: GRN ablation (Bank marketing, LR, d_target = 40%)",
        &[
            "Case",
            "Description",
            "x_adv",
            "Noise",
            "Constraint",
            "Generator",
            "MSE",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grn_is_best_of_generator_cases() {
        let cfg = ExperimentConfig::smoke();
        let rows = run(&cfg);
        assert_eq!(rows.len(), 6);
        let mse = |case: usize| rows.iter().find(|r| r.case == case).unwrap().mse;
        // The paper's key ordering: the full GRN (case 5) beats the
        // noise-only ablation (case 1) and random guess (case 6).
        assert!(mse(5) < mse(1), "full {} vs noise-only {}", mse(5), mse(1));
        assert!(mse(5) < mse(6), "full {} vs random {}", mse(5), mse(6));
    }
}
