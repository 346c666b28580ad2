//! The durable result of a finished job.
//!
//! A [`JobOutcome`] is the bit-exact essence of a
//! [`fia_campaign::CampaignReport`]: scenario fingerprint, budget
//! outcome, the metered [`QueryCost`], and each attack's error figures
//! with `f64` payloads carried as raw bits. It is what the daemon
//! writes to `outcome.bin` (atomically, before the job turns terminal)
//! and what `JOB_REPORT` returns over the wire — and because the
//! encoding is bit-exact, two runs of the same job can be compared for
//! identity by comparing blobs, which is exactly what the
//! kill-and-restart tests do.

use crate::spec::BlobError;
use fia_campaign::CampaignReport;
use fia_core::QueryCost;
use fia_linalg::codec::{Reader, Writer};

/// Outcome blob format version.
pub const OUTCOME_VERSION: u8 = 1;

const MAX_ATTACKS: usize = 16;
const MAX_FEATURES: usize = 1 << 16;

/// Appends `len ∥ bytes` with a u16 length prefix.
fn put_str(w: &mut Writer, s: &str) {
    w.u16(u16::try_from(s.len()).expect("string field fits u16"));
    w.bytes(s.as_bytes());
}

/// Reads a u16-length-prefixed UTF-8 string, capped at `max` bytes.
fn get_str(r: &mut Reader<'_>, max: usize) -> Result<String, BlobError> {
    let len = r.u16()? as usize;
    if len > max {
        return Err(BlobError::Invalid("string field too long"));
    }
    String::from_utf8(r.bytes(len)?.to_vec()).map_err(|_| BlobError::Invalid("string not utf-8"))
}

/// One attack's durable result.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// Attack identifier (`"esa"`, `"pra"`, `"grna"`).
    pub attack: String,
    /// Rows the attack reconstructed.
    pub rows: u64,
    /// Rows on which the equation system degraded.
    pub degraded_rows: u64,
    /// Mean squared error over target features.
    pub mse: f64,
    /// Per-feature MSE, one entry per target feature.
    pub per_feature_mse: Vec<f64>,
}

/// The durable result of one finished campaign job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Scenario fingerprint the campaign ran under.
    pub fingerprint: String,
    /// Master scenario seed.
    pub seed: u64,
    /// Whether the corpus plan completed (vs. budget exhaustion).
    pub complete: bool,
    /// Corpus rows actually released.
    pub rows_done: u64,
    /// Corpus rows the plan called for.
    pub rows_planned: u64,
    /// The session's query cost as the deployment metered it.
    pub cost: QueryCost,
    /// Per-attack results, in mount order.
    pub attacks: Vec<AttackOutcome>,
}

impl JobOutcome {
    /// Extracts the durable outcome from a finished campaign report.
    pub fn from_report(report: &CampaignReport) -> JobOutcome {
        JobOutcome {
            fingerprint: report.fingerprint.clone(),
            seed: report.seed,
            complete: report.outcome.is_complete(),
            rows_done: report.rows_done as u64,
            rows_planned: report.rows_planned as u64,
            cost: report.cost,
            attacks: report
                .attacks
                .iter()
                .map(|a| AttackOutcome {
                    attack: a.attack.to_string(),
                    rows: a.rows as u64,
                    degraded_rows: a.degraded_rows as u64,
                    mse: a.mse,
                    per_feature_mse: a.per_feature_mse.clone(),
                })
                .collect(),
        }
    }

    /// Serializes the outcome as a versioned blob with bit-exact `f64`
    /// payloads.
    pub fn to_blob(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(128);
        w.u8(OUTCOME_VERSION);
        put_str(&mut w, &self.fingerprint);
        w.u64(self.seed);
        w.u8(u8::from(self.complete));
        w.u64(self.rows_done);
        w.u64(self.rows_planned);
        w.u64(self.cost.queries);
        w.u64(self.cost.rows);
        w.u64(self.cost.cached_rows);
        w.u8(self.attacks.len() as u8);
        for a in &self.attacks {
            put_str(&mut w, &a.attack);
            w.u64(a.rows);
            w.u64(a.degraded_rows);
            w.f64(a.mse);
            w.u32(a.per_feature_mse.len() as u32);
            w.f64s(&a.per_feature_mse);
        }
        w.finish()
    }

    /// Decodes an outcome blob; every failure is a typed [`BlobError`].
    pub fn from_blob(blob: &[u8]) -> Result<JobOutcome, BlobError> {
        let mut c = Reader::new(blob);
        let version = c.u8()?;
        if version != OUTCOME_VERSION {
            return Err(BlobError::UnsupportedVersion(version));
        }
        let fingerprint = get_str(&mut c, 128)?;
        let seed = c.u64()?;
        let complete = match c.u8()? {
            0 => false,
            1 => true,
            _ => return Err(BlobError::Invalid("bad completion flag")),
        };
        let rows_done = c.u64()?;
        let rows_planned = c.u64()?;
        let cost = QueryCost {
            queries: c.u64()?,
            rows: c.u64()?,
            cached_rows: c.u64()?,
        };
        let n_attacks = c.u8()? as usize;
        if n_attacks > MAX_ATTACKS {
            return Err(BlobError::Invalid("too many attacks"));
        }
        let mut attacks = Vec::with_capacity(n_attacks);
        for _ in 0..n_attacks {
            let attack = get_str(&mut c, 32)?;
            let rows = c.u64()?;
            let degraded_rows = c.u64()?;
            let mse = c.f64()?;
            let n_feats = c.u32()? as usize;
            if n_feats > MAX_FEATURES {
                return Err(BlobError::Invalid("too many features"));
            }
            let per_feature_mse = c.f64s(n_feats)?;
            attacks.push(AttackOutcome {
                attack,
                rows,
                degraded_rows,
                mse,
                per_feature_mse,
            });
        }
        c.finish()?;
        Ok(JobOutcome {
            fingerprint,
            seed,
            complete,
            rows_done,
            rows_planned,
            cost,
            attacks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobOutcome {
        JobOutcome {
            fingerprint: "00deadbeef00".into(),
            seed: 29,
            complete: false,
            rows_done: 96,
            rows_planned: 128,
            cost: QueryCost {
                queries: 3,
                rows: 96,
                cached_rows: 0,
            },
            attacks: vec![
                AttackOutcome {
                    attack: "esa".into(),
                    rows: 96,
                    degraded_rows: 2,
                    mse: 0.012345678901234567,
                    per_feature_mse: vec![0.1, f64::MIN_POSITIVE, 3.5e300],
                },
                AttackOutcome {
                    attack: "pra".into(),
                    rows: 96,
                    degraded_rows: 0,
                    mse: 0.25,
                    per_feature_mse: vec![],
                },
            ],
        }
    }

    #[test]
    fn outcome_round_trips_bit_exactly() {
        let o = sample();
        let blob = o.to_blob();
        let back = JobOutcome::from_blob(&blob).unwrap();
        assert_eq!(back, o);
        // Bit-exactness: re-encoding is byte-identical.
        assert_eq!(back.to_blob(), blob);
    }

    #[test]
    fn every_truncation_is_typed() {
        let blob = sample().to_blob();
        for cut in 0..blob.len() {
            assert!(JobOutcome::from_blob(&blob[..cut]).is_err(), "cut {cut}");
        }
        let mut blob = sample().to_blob();
        blob.push(7);
        assert_eq!(
            JobOutcome::from_blob(&blob),
            Err(BlobError::Invalid("trailing bytes"))
        );
        let mut blob = sample().to_blob();
        blob[0] = 3;
        assert_eq!(
            JobOutcome::from_blob(&blob),
            Err(BlobError::UnsupportedVersion(3))
        );
    }

    #[test]
    fn strings_round_trip_and_reject_abuse() {
        let mut w = Writer::new();
        put_str(&mut w, "hello");
        let out = w.finish();
        let mut c = Reader::new(&out);
        assert_eq!(get_str(&mut c, 16).unwrap(), "hello");
        let mut c = Reader::new(&out);
        assert_eq!(
            get_str(&mut c, 3),
            Err(BlobError::Invalid("string field too long"))
        );
        let mut bad = Writer::new();
        bad.u16(2);
        bad.bytes(&[0xFF, 0xFE]);
        let bad = bad.finish();
        let mut c = Reader::new(&bad);
        assert_eq!(
            get_str(&mut c, 16),
            Err(BlobError::Invalid("string not utf-8"))
        );
    }
}
