#![warn(missing_docs)]

//! # fia-models — the model families the paper attacks
//!
//! Implements, from scratch on top of [`fia_tensor`] and [`fia_linalg`]:
//!
//! * [`LogisticRegression`] — binary (sigmoid) and multi-class
//!   (multinomial softmax over `c` linear models), the ESA target.
//! * [`Mlp`] — feed-forward neural network with the paper's topology
//!   (three hidden layers 600/300/100), optional LayerNorm and dropout.
//! * [`DecisionTree`] — CART with Gini impurity, stored as a *full binary
//!   array* (children of node `i` at `2i+1`/`2i+2`) so the path
//!   restriction attack's Algorithm 1 maps one-to-one onto the storage.
//! * [`RandomForest`] — bagged trees with per-split feature subsampling;
//!   prediction confidence = fraction of trees voting each class.
//! * [`distill_forest`] — trains a differentiable MLP surrogate of a
//!   random forest on uniformly sampled dummy inputs (Section V-B), the
//!   bridge that lets GRNA attack non-differentiable forests.
//!
//! The two traits every attack consumes:
//!
//! * [`PredictProba`] — black-box confidence-score prediction.
//! * [`DifferentiableModel`] — builds the model's *frozen* forward pass on
//!   an autograd tape so the GRN generator's loss can backpropagate
//!   through it.

mod distill;
mod forest;
mod logistic;
mod mlp;
mod persist;
mod traits;
mod tree;

pub use distill::{distill_forest, distill_forest_with_pool, distillation_fidelity, DistillConfig};
pub use forest::{ForestConfig, RandomForest};
pub use logistic::{LogisticRegression, LrConfig};
pub use mlp::{Activation, Mlp, MlpConfig};
pub use persist::DecodeError;
pub use traits::{accuracy, DifferentiableModel, PredictProba};
pub use tree::{DecisionTree, TreeConfig, TreeNode};
