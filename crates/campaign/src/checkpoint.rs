//! Crash-safe session checkpoints.
//!
//! A [`CampaignCheckpoint`] is everything a killed process needs to
//! resume a [`Campaign`](crate::Campaign) bit-identically: the scenario
//! fingerprint + seed (to validate the resume target), the budget meter
//! ([`BudgetMeter`](crate::BudgetMeter)), the chunk cursor, and the
//! accumulated released-score corpus. It serializes to a self-checking
//! binary blob — magic, version byte, little-endian fields, raw
//! IEEE-754 matrix bits, trailing FNV-1a checksum — so a torn or stale
//! file surfaces as a typed [`CheckpointError`], never a corrupt
//! resume. The daemon (`fia-campaignd`) appends these blobs to its
//! write-ahead job log.

use crate::budget::{BudgetMeter, QueryBudget};
use fia_core::QueryCost;
use fia_linalg::codec::{fnv1a, CodecError, Reader, Writer};
use fia_linalg::Matrix;

/// Blob magic: `0xF1A_C4B01` truncated to 32 bits, little-endian on the
/// wire.
const MAGIC: u32 = 0xF1AC_4B01;
/// Current checkpoint format version.
const VERSION: u8 = 1;
/// Sanity cap on the fingerprint field (hex fingerprints are 16 bytes).
const MAX_FINGERPRINT_LEN: usize = 128;
/// Sanity cap on the embedded budget-meter blob.
const MAX_METER_LEN: usize = 1024;

/// A typed checkpoint decode/restore failure. Every way a blob can be
/// wrong — torn write, version skew, wrong scenario — maps to a
/// variant; restoring never panics on bad bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob ended before the encoded structure did.
    Truncated,
    /// The blob does not start with the checkpoint magic.
    BadMagic,
    /// The blob's format version is newer than this build understands.
    UnsupportedVersion(u8),
    /// The blob is structurally invalid (checksum mismatch, impossible
    /// field, trailing bytes).
    Corrupt(&'static str),
    /// The checkpoint belongs to a different scenario than the one it
    /// is being restored into.
    FingerprintMismatch {
        /// The scenario fingerprint the restore target has.
        expected: String,
        /// The fingerprint the checkpoint carries.
        found: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint blob is truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint blob (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found} does not match scenario {expected}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => CheckpointError::Truncated,
            CodecError::TrailingBytes => CheckpointError::Corrupt("trailing bytes"),
        }
    }
}

/// The complete resumable state of a [`Campaign`](crate::Campaign)
/// session, captured between chunks. See the module docs for the blob
/// format and [`Campaign::restore`](crate::Campaign::restore) for the
/// validated resume path.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// Scenario fingerprint the session was attacking — restore
    /// validates it against the target scenario.
    pub fingerprint: String,
    /// Scenario seed (redundant with the fingerprint, kept for
    /// human-auditable job logs).
    pub seed: u64,
    /// The session's budget.
    pub budget: QueryBudget,
    /// What the session had spent when the checkpoint was taken.
    pub spent: QueryCost,
    /// Rows accumulated so far.
    pub rows_done: usize,
    /// Chunks issued so far.
    pub chunks_issued: usize,
    /// The configured accumulation chunk size.
    pub chunk: usize,
    /// The accumulated released-score corpus (`rows_done × c`), as the
    /// deployment released it — raw IEEE-754 bits in the blob, so a
    /// resume reproduces downstream attacks to the last ulp.
    pub confidences: Matrix,
}

impl CampaignCheckpoint {
    /// Serializes the checkpoint to its self-checking binary blob.
    pub fn to_blob(&self) -> Vec<u8> {
        let meter = BudgetMeter {
            budget: self.budget,
            spent: self.spent,
        }
        .to_blob();
        let fp = self.fingerprint.as_bytes();
        let cells = self.confidences.as_slice().len();
        let mut w = Writer::with_capacity(64 + meter.len() + fp.len() + cells * 8);
        w.u32(MAGIC);
        w.u8(VERSION);
        w.u16(fp.len() as u16);
        w.bytes(fp);
        w.u64(self.seed);
        w.u32(meter.len() as u32);
        w.bytes(&meter);
        w.u64(self.rows_done as u64);
        w.u64(self.chunks_issued as u64);
        w.u64(self.chunk as u64);
        w.matrix(&self.confidences);
        let sum = fnv1a(w.as_slice());
        w.u64(sum);
        w.finish()
    }

    /// Decodes a blob produced by [`CampaignCheckpoint::to_blob`],
    /// rejecting torn, corrupted or version-skewed bytes with a typed
    /// [`CheckpointError`].
    pub fn from_blob(blob: &[u8]) -> Result<Self, CheckpointError> {
        if blob.len() < 8 {
            return Err(CheckpointError::Truncated);
        }
        let (body, tail) = blob.split_at(blob.len() - 8);
        if fnv1a(body) != Reader::new(tail).u64()? {
            return Err(CheckpointError::Corrupt("checksum mismatch"));
        }
        let mut c = Reader::new(body);
        if c.u32()? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = c.u8()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let fp_len = c.u16()? as usize;
        if fp_len > MAX_FINGERPRINT_LEN {
            return Err(CheckpointError::Corrupt("fingerprint over length cap"));
        }
        let fingerprint = std::str::from_utf8(c.bytes(fp_len)?)
            .map_err(|_| CheckpointError::Corrupt("fingerprint is not utf-8"))?
            .to_string();
        let seed = c.u64()?;
        let meter_len = c.u32()? as usize;
        if meter_len > MAX_METER_LEN {
            return Err(CheckpointError::Corrupt("budget meter over length cap"));
        }
        let meter = BudgetMeter::from_blob(c.bytes(meter_len)?)?;
        let rows_done = c.u64()? as usize;
        let chunks_issued = c.u64()? as usize;
        let chunk = c.u64()? as usize;
        let rows = c.u64()? as usize;
        let cols = c.u64()? as usize;
        let cells = rows
            .checked_mul(cols)
            .ok_or(CheckpointError::Corrupt("matrix shape overflows"))?;
        if c.remaining() != cells * 8 {
            return Err(CheckpointError::Corrupt("matrix payload length mismatch"));
        }
        if rows != rows_done {
            return Err(CheckpointError::Corrupt("corpus rows disagree with cursor"));
        }
        let confidences = Matrix::from_vec(rows, cols, c.f64s(cells)?)
            .map_err(|_| CheckpointError::Corrupt("matrix shape rejected"))?;
        Ok(CampaignCheckpoint {
            fingerprint,
            seed,
            budget: meter.budget,
            spent: meter.spent,
            rows_done,
            chunks_issued,
            chunk,
            confidences,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignCheckpoint {
        CampaignCheckpoint {
            fingerprint: "deadbeefcafef00d".to_string(),
            seed: 42,
            budget: QueryBudget::queries(7).with_rows(500),
            spent: QueryCost {
                queries: 3,
                rows: 96,
                cached_rows: 5,
            },
            rows_done: 3,
            chunks_issued: 3,
            chunk: 32,
            confidences: Matrix::from_fn(3, 4, |i, j| (i as f64 + 0.125) / (j as f64 + 1.0)),
        }
    }

    #[test]
    fn blob_round_trips_bit_exactly() {
        let cp = sample();
        let blob = cp.to_blob();
        let back = CampaignCheckpoint::from_blob(&blob).unwrap();
        assert_eq!(back, cp);
        // The matrix survives as raw bits, not formatted text.
        assert_eq!(
            back.confidences.as_slice()[5].to_bits(),
            cp.confidences.as_slice()[5].to_bits()
        );
        // Zero-row checkpoints (pre-first-chunk) round-trip too.
        let empty = CampaignCheckpoint {
            rows_done: 0,
            chunks_issued: 0,
            confidences: Matrix::zeros(0, 4),
            ..cp
        };
        assert_eq!(
            CampaignCheckpoint::from_blob(&empty.to_blob()).unwrap(),
            empty
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let blob = sample().to_blob();
        for cut in 0..blob.len() {
            let err = CampaignCheckpoint::from_blob(&blob[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::Corrupt(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let blob = sample().to_blob();
        // Flipping any single bit anywhere (including inside the
        // checksum itself) must fail the integrity check.
        for byte in 0..blob.len() {
            let mut bad = blob.clone();
            bad[byte] ^= 0x10;
            assert!(
                CampaignCheckpoint::from_blob(&bad).is_err(),
                "flip at byte {byte} accepted"
            );
        }
    }

    #[test]
    fn version_skew_and_bad_magic_are_typed() {
        let cp = sample();
        let mut blob = cp.to_blob();
        // Bump the version byte and re-seal the checksum: decode must
        // report version skew, not a checksum error.
        blob[4] = 9;
        let body_len = blob.len() - 8;
        let sum = fnv1a(&blob[..body_len]);
        blob[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            CampaignCheckpoint::from_blob(&blob),
            Err(CheckpointError::UnsupportedVersion(9))
        );

        let mut blob = cp.to_blob();
        blob[0] ^= 0xFF;
        let body_len = blob.len() - 8;
        let sum = fnv1a(&blob[..body_len]);
        blob[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            CampaignCheckpoint::from_blob(&blob),
            Err(CheckpointError::BadMagic)
        );
    }

    #[test]
    fn errors_display_their_context() {
        let e = CheckpointError::FingerprintMismatch {
            expected: "aaaa".into(),
            found: "bbbb".into(),
        };
        assert!(e.to_string().contains("aaaa") && e.to_string().contains("bbbb"));
        assert!(CheckpointError::UnsupportedVersion(3)
            .to_string()
            .contains('3'));
    }
}
