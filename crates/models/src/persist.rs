//! Save/load for every model family, on [`fia_linalg::codec`].
//!
//! A trained vertical FL model is, per the threat model, *released to the
//! parties* — so shipping it around as bytes is a first-class operation.
//! Each format is a 4-byte magic tag per model family, a format-version
//! byte, then little-endian `u64` lengths and raw-bit `f64` values.
//! Decoding validates structural invariants so a corrupt or truncated
//! buffer never produces a silently broken model, and every length is
//! checked against the bytes remaining before it sizes an allocation.

use crate::forest::RandomForest;
use crate::logistic::LogisticRegression;
use crate::traits::PredictProba;
use crate::tree::{DecisionTree, TreeNode};
use fia_linalg::codec::{CodecError, Reader, Writer};
use std::fmt;

const LR_MAGIC: [u8; 4] = *b"FILR";
const DT_MAGIC: [u8; 4] = *b"FIDT";
const RF_MAGIC: [u8; 4] = *b"FIRF";
pub(crate) const NN_MAGIC: [u8; 4] = *b"FINN";
const VERSION: u8 = 1;

/// Errors from decoding a model byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the announced content.
    UnexpectedEof,
    /// Magic tag didn't match the expected model family.
    BadMagic {
        /// Expected tag.
        expected: [u8; 4],
        /// Found tag.
        found: [u8; 4],
    },
    /// Unsupported format version.
    BadVersion(u8),
    /// A structural invariant failed (e.g. label out of range).
    Corrupt(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            DecodeError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::Corrupt(msg) => write!(f, "corrupt model data: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<CodecError> for DecodeError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => DecodeError::UnexpectedEof,
            CodecError::TrailingBytes => DecodeError::Corrupt("trailing bytes".into()),
        }
    }
}

/// Starts a model stream: magic tag, then the version byte.
pub(crate) fn header(magic: [u8; 4]) -> Writer {
    let mut w = Writer::new();
    w.bytes(&magic);
    w.u8(VERSION);
    w
}

/// Opens a model stream, checking the magic tag and the version byte.
pub(crate) fn open(bytes: &[u8], magic: [u8; 4]) -> Result<Reader<'_>, DecodeError> {
    let mut r = Reader::new(bytes);
    let found: [u8; 4] = r.bytes(4)?.try_into().expect("4 bytes");
    if found != magic {
        return Err(DecodeError::BadMagic {
            expected: magic,
            found,
        });
    }
    match r.u8()? {
        VERSION => Ok(r),
        other => Err(DecodeError::BadVersion(other)),
    }
}

/// Reads a `u64` element count, checked against the bytes remaining
/// (each element takes at least `min_item_bytes`).
pub(crate) fn count(r: &mut Reader<'_>, min_item_bytes: usize) -> Result<usize, DecodeError> {
    let n = r.u64()?;
    Ok(r.count(n, min_item_bytes)?)
}

/// Reads a `0`/`1` flag byte.
pub(crate) fn flag(r: &mut Reader<'_>) -> Result<bool, DecodeError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(DecodeError::Corrupt(format!("bad bool byte {other}"))),
    }
}

impl LogisticRegression {
    /// Serializes the model (weights, bias, class count).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = header(LR_MAGIC);
        w.u64(self.n_classes() as u64);
        w.matrix(self.weights());
        w.u64(self.bias().len() as u64);
        w.f64s(self.bias());
        w.finish()
    }

    /// Deserializes a model written by [`LogisticRegression::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = open(bytes, LR_MAGIC)?;
        let n_classes = r.u64()? as usize;
        let weights = r.matrix()?;
        let n_bias = count(&mut r, 8)?;
        let bias = r.f64s(n_bias)?;
        if bias.len() != weights.cols() {
            return Err(DecodeError::Corrupt(format!(
                "bias length {} vs {} weight columns",
                bias.len(),
                weights.cols()
            )));
        }
        if n_classes < 2 || (weights.cols() != 1 && weights.cols() != n_classes) {
            return Err(DecodeError::Corrupt(format!(
                "inconsistent class count {n_classes} for {} weight columns",
                weights.cols()
            )));
        }
        Ok(LogisticRegression::from_parameters(
            weights, bias, n_classes,
        ))
    }
}

impl DecisionTree {
    /// Serializes the full binary node array.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = header(DT_MAGIC);
        w.u64(self.n_features() as u64);
        w.u64(self.n_classes() as u64);
        w.u64(self.nodes().len() as u64);
        for node in self.nodes() {
            match node {
                TreeNode::Absent => w.u8(0),
                TreeNode::Leaf { label } => {
                    w.u8(1);
                    w.u64(*label as u64);
                }
                TreeNode::Internal { feature, threshold } => {
                    w.u8(2);
                    w.u64(*feature as u64);
                    w.f64(*threshold);
                }
            }
        }
        w.finish()
    }

    /// Deserializes a tree written by [`DecisionTree::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = open(bytes, DT_MAGIC)?;
        let n_features = r.u64()? as usize;
        let n_classes = r.u64()? as usize;
        // Every node takes at least its one tag byte.
        let len = count(&mut r, 1)?;
        if !(len + 1).is_power_of_two() || len == 0 {
            return Err(DecodeError::Corrupt(format!(
                "node array length {len} is not 2^k − 1"
            )));
        }
        let mut nodes = Vec::with_capacity(len);
        for _ in 0..len {
            nodes.push(match r.u8()? {
                0 => TreeNode::Absent,
                1 => {
                    let label = r.u64()? as usize;
                    if label >= n_classes {
                        return Err(DecodeError::Corrupt(format!(
                            "leaf label {label} out of range (c = {n_classes})"
                        )));
                    }
                    TreeNode::Leaf { label }
                }
                2 => {
                    let feature = r.u64()? as usize;
                    if feature >= n_features {
                        return Err(DecodeError::Corrupt(format!(
                            "feature {feature} out of range (d = {n_features})"
                        )));
                    }
                    let threshold = r.f64()?;
                    TreeNode::Internal { feature, threshold }
                }
                other => {
                    return Err(DecodeError::Corrupt(format!("bad node tag {other}")));
                }
            });
        }
        if matches!(nodes[0], TreeNode::Absent) {
            return Err(DecodeError::Corrupt("root node absent".into()));
        }
        Ok(DecisionTree::from_nodes(nodes, n_features, n_classes))
    }
}

impl RandomForest {
    /// Serializes the forest as a sequence of length-prefixed tree
    /// payloads.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = header(RF_MAGIC);
        w.u64(self.n_features() as u64);
        w.u64(self.n_classes() as u64);
        w.u64(self.n_trees() as u64);
        for tree in self.trees() {
            let payload = tree.to_bytes();
            w.u64(payload.len() as u64);
            w.bytes(&payload);
        }
        w.finish()
    }

    /// Deserializes a forest written by [`RandomForest::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = open(bytes, RF_MAGIC)?;
        let n_features = r.u64()? as usize;
        let n_classes = r.u64()? as usize;
        // Every tree takes at least its 8-byte length prefix.
        let n_trees = count(&mut r, 8)?;
        if n_trees == 0 {
            return Err(DecodeError::Corrupt("forest with zero trees".into()));
        }
        let mut trees = Vec::with_capacity(n_trees);
        for _ in 0..n_trees {
            let len = count(&mut r, 1)?;
            let tree = DecisionTree::from_bytes(r.bytes(len)?)?;
            if tree.n_features() != n_features || tree.n_classes() != n_classes {
                return Err(DecodeError::Corrupt(
                    "tree shape disagrees with forest header".into(),
                ));
            }
            trees.push(tree);
        }
        Ok(RandomForest::from_trees(trees, n_features, n_classes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestConfig;
    use crate::logistic::LrConfig;
    use crate::tree::TreeConfig;
    use fia_data::{make_classification, normalize_dataset, SynthConfig};
    use fia_linalg::Matrix;
    use rand::{rngs::StdRng, SeedableRng};

    fn toy_dataset(seed: u64) -> fia_data::Dataset {
        let cfg = SynthConfig {
            n_samples: 200,
            n_features: 6,
            n_informative: 4,
            n_redundant: 1,
            n_classes: 3,
            class_sep: 1.5,
            redundant_noise: 0.3,
            flip_y: 0.0,
            shuffle_features: false,
            seed,
        };
        normalize_dataset(&make_classification(&cfg)).0
    }

    #[test]
    fn lr_roundtrip_preserves_predictions() {
        let ds = toy_dataset(1);
        let model = LogisticRegression::fit(
            &ds,
            &LrConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        let restored = LogisticRegression::from_bytes(&model.to_bytes()).unwrap();
        let a = model.predict_proba(&ds.features);
        let b = restored.predict_proba(&ds.features);
        assert!(a.max_abs_diff(&b).unwrap() < 1e-15);
    }

    #[test]
    fn tree_roundtrip_preserves_paths() {
        let ds = toy_dataset(2);
        let mut rng = StdRng::seed_from_u64(2);
        let tree = DecisionTree::fit(&ds, &TreeConfig::paper_dt(), &mut rng);
        let restored = DecisionTree::from_bytes(&tree.to_bytes()).unwrap();
        for i in 0..20 {
            assert_eq!(
                tree.decision_path(ds.sample(i)),
                restored.decision_path(ds.sample(i))
            );
        }
    }

    #[test]
    fn forest_roundtrip_preserves_votes() {
        let ds = toy_dataset(3);
        let forest = RandomForest::fit(
            &ds,
            &ForestConfig {
                n_trees: 7,
                seed: 3,
                ..ForestConfig::default()
            },
        );
        let restored = RandomForest::from_bytes(&forest.to_bytes()).unwrap();
        let a = forest.predict_proba(&ds.features);
        let b = restored.predict_proba(&ds.features);
        assert_eq!(a, b);
    }

    #[test]
    fn wrong_magic_rejected() {
        let ds = toy_dataset(4);
        let model = LogisticRegression::fit(
            &ds,
            &LrConfig {
                epochs: 2,
                ..Default::default()
            },
        );
        let bytes = model.to_bytes();
        assert!(matches!(
            DecisionTree::from_bytes(&bytes),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncated_forest_rejected() {
        let ds = toy_dataset(5);
        let forest = RandomForest::fit(
            &ds,
            &ForestConfig {
                n_trees: 3,
                seed: 5,
                ..ForestConfig::default()
            },
        );
        let mut bytes = forest.to_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(RandomForest::from_bytes(&bytes).is_err());
    }

    #[test]
    fn corrupt_label_rejected() {
        // Hand-craft a tree with an out-of-range label.
        let tree = DecisionTree::from_nodes(
            vec![
                TreeNode::Internal {
                    feature: 0,
                    threshold: 0.5,
                },
                TreeNode::Leaf { label: 0 },
                TreeNode::Leaf { label: 1 },
            ],
            1,
            2,
        );
        let mut bytes = tree.to_bytes();
        // The last usize in the stream is the final leaf's label; bump it.
        let n = bytes.len();
        bytes[n - 8] = 9;
        assert!(matches!(
            DecisionTree::from_bytes(&bytes),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let bytes = header(*b"AAAA").finish();
        let err = open(&bytes, *b"BBBB").unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic { .. }));
    }

    #[test]
    fn corrupt_bool_detected() {
        let mut w = header(*b"TEST");
        w.u8(7);
        let bytes = w.finish();
        let mut r = open(&bytes, *b"TEST").unwrap();
        assert!(matches!(flag(&mut r), Err(DecodeError::Corrupt(_))));
    }

    /// A header, then `u64` fields, then nothing: a 29–37-byte blob
    /// whose last field claims a huge element count.
    fn crafted(magic: [u8; 4], fields: &[u64]) -> Vec<u8> {
        let mut w = header(magic);
        for &f in fields {
            w.u64(f);
        }
        w.finish()
    }

    #[test]
    fn hostile_length_headers_are_typed_errors_not_aborts() {
        let eof = Err(DecodeError::UnexpectedEof);
        // Node count (also `len + 1` overflow at u64::MAX).
        for len in [(1u64 << 61) - 1, u64::MAX] {
            let blob = crafted(DT_MAGIC, &[2, 3, len]);
            assert_eq!(DecisionTree::from_bytes(&blob).map(|_| ()), eof);
        }
        // Tree count, then one tree's payload length.
        let blob = crafted(RF_MAGIC, &[2, 3, 1 << 60]);
        assert_eq!(RandomForest::from_bytes(&blob).map(|_| ()), eof);
        let blob = crafted(RF_MAGIC, &[2, 3, 1, 1 << 60]);
        assert_eq!(RandomForest::from_bytes(&blob).map(|_| ()), eof);
        // Layer count, after the activation and dropout bytes.
        let mut w = header(NN_MAGIC);
        w.u64(2);
        w.u64(3);
        w.u8(0);
        w.u8(0);
        w.u64(1 << 60);
        let blob = w.finish();
        assert_eq!(crate::Mlp::from_bytes(&blob).map(|_| ()), eof);
    }

    #[test]
    fn lr_binary_roundtrip() {
        let w = Matrix::from_rows(&[vec![0.5], vec![-1.0]]).unwrap();
        let model = LogisticRegression::from_parameters(w, vec![0.25], 2);
        let restored = LogisticRegression::from_bytes(&model.to_bytes()).unwrap();
        assert!(restored.is_binary());
        assert_eq!(restored.bias(), &[0.25]);
    }
}
