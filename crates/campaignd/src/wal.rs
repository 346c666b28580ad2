//! Durability primitives: atomic file replacement and the per-job
//! write-ahead log.
//!
//! Two disciplines cover every byte the daemon persists:
//!
//! - **Atomic replace** ([`write_atomic`]): write to a temp file in the
//!   same directory, `fsync` it, `rename` over the destination, then
//!   `fsync` the directory so the rename itself is durable. Readers see
//!   either the old contents or the new, never a torn mix. Used for
//!   small whole-file state: job specs, terminal markers, outcomes, the
//!   endpoint file.
//! - **Append-only framed log** ([`JobLog`]): each record is
//!   `magic ∥ len ∥ payload ∥ fnv64(payload)`, appended with
//!   `fdatasync` before the daemon acts on the state it describes.
//!   Recovery scans forward and stops at the first frame that is
//!   incomplete or fails its checksum, so a crash mid-append yields the
//!   *previous* checkpoint — never garbage. Used for campaign
//!   checkpoints, one per corpus chunk.

use fia_linalg::codec::{fnv1a, Reader, Writer};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// Frame marker for job-log records ("FJL" + version 1).
pub const LOG_MAGIC: u32 = 0x464A_4C01;

/// Upper bound on a single log record; a campaign checkpoint for the
/// largest in-tree scenario is well under this.
pub const MAX_RECORD_LEN: usize = 1 << 24;

/// Writes `bytes` to `path` atomically: temp file in the same
/// directory, fsync, rename over the destination, fsync the directory.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no parent"))?;
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = dir.join(format!(".{}.tmp", name.to_string_lossy()));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Durability of the rename itself requires syncing the directory.
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// An append-only checkpoint log for one job.
pub struct JobLog {
    file: File,
}

impl JobLog {
    /// Opens (creating if absent) the log at `path` for appending.
    pub fn open(path: &Path) -> io::Result<JobLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JobLog { file })
    }

    /// Appends one framed record and syncs it to disk before returning.
    /// The record is only considered written once this returns `Ok`.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_RECORD_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "job log record too large",
            ));
        }
        let mut frame = Writer::with_capacity(payload.len() + 16);
        frame.u32(LOG_MAGIC);
        frame.u32(payload.len() as u32);
        frame.bytes(payload);
        frame.u64(fnv1a(payload));
        self.file.write_all(frame.as_slice())?;
        self.file.sync_data()
    }

    /// Scans the log at `path` and returns the payload of the last
    /// intact record, or `None` when the log is absent or holds no
    /// complete record. A torn or corrupt tail frame is ignored — the
    /// scan stops at the last record whose magic, length and checksum
    /// all verify, which is exactly the state the daemon had made
    /// durable before the crash.
    pub fn recover(path: &Path) -> io::Result<Option<Vec<u8>>> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        }
        let mut r = Reader::new(&bytes);
        let mut last = None;
        while let Some(payload) = next_record(&mut r) {
            last = Some(payload);
        }
        Ok(last.map(<[u8]>::to_vec))
    }
}

/// The next intact record's payload, or `None` at the first frame whose
/// magic, length or checksum fails (or that the buffer cuts short).
fn next_record<'a>(r: &mut Reader<'a>) -> Option<&'a [u8]> {
    if r.u32().ok()? != LOG_MAGIC {
        return None;
    }
    let len = r.u32().ok()? as usize;
    if len > MAX_RECORD_LEN {
        return None;
    }
    let payload = r.bytes(len).ok()?;
    (r.u64().ok()? == fnv1a(payload)).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fia-wal-{tag}-{}",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_replaces_whole_file() {
        let dir = tmp_dir("atomic");
        let path = dir.join("state");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        // No temp litter left behind.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_returns_last_record_and_survives_torn_tail() {
        let dir = tmp_dir("log");
        let path = dir.join("job.log");
        assert!(JobLog::recover(&path).unwrap().is_none());
        {
            let mut log = JobLog::open(&path).unwrap();
            log.append(b"one").unwrap();
            log.append(b"two-two").unwrap();
        }
        assert_eq!(JobLog::recover(&path).unwrap().unwrap(), b"two-two");
        // A torn append (partial frame) must not hide the last good record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&LOG_MAGIC.to_le_bytes()).unwrap();
            f.write_all(&100u32.to_le_bytes()).unwrap();
            f.write_all(b"only-part-of-the-payload").unwrap();
        }
        assert_eq!(JobLog::recover(&path).unwrap().unwrap(), b"two-two");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_at_every_byte_yields_prior_record_or_none() {
        let dir = tmp_dir("trunc");
        let path = dir.join("job.log");
        {
            let mut log = JobLog::open(&path).unwrap();
            log.append(b"alpha").unwrap();
            log.append(b"beta-beta").unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let first_len = 16 + 5;
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let got = JobLog::recover(&path).unwrap();
            if cut < first_len {
                assert!(got.is_none(), "cut {cut}");
            } else if cut < full.len() {
                assert_eq!(got.as_deref(), Some(&b"alpha"[..]), "cut {cut}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
