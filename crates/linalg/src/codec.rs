//! The one byte codec: a little-endian [`Writer`], a bounds-checked
//! [`Reader`] and the one 64-bit FNV-1a ([`Fnv1a`], [`fnv1a`]).
//!
//! Every byte format in the workspace is written and read through this
//! module, so a field width, a bounds check or a checksum is decided in
//! one place. Each format keeps its own typed error and builds it from
//! [`CodecError`] with `From`; decoding a malformed buffer yields that
//! error, never a panic and never an allocation sized by an unchecked
//! length (see [`Reader::count`]).
//!
//! All integers are little-endian and every `f64` travels as its raw
//! IEEE-754 bits, which is what makes released scores, checkpoints and
//! model weights survive a round trip to the last ulp.
//!
//! | Format | Module | Magic | Version byte | Length prefixes | Checksum |
//! |---|---|---|---|---|---|
//! | wire frame | `fia_serve::wire` | none; first payload byte is the message tag | none | frame `u32`; strings, blobs and counts `u32`; matrix dims `u32` | none |
//! | `JobSpec` | `fia_campaignd::spec` | none | `1`, first byte | attack count `u8` | none |
//! | `JobOutcome` | `fia_campaignd::outcome` | none | `1`, first byte | strings `u16`; attack count `u8`; per-feature MSE count `u32` | none |
//! | checkpoint | `fia_campaign::checkpoint` | `u32` `0xF1AC4B01` | `1`, after the magic | fingerprint `u16`; budget meter `u32`; matrix dims `u64` | trailing `u64` FNV-1a over everything before it |
//! | budget meter | `fia_campaign::budget` | none | `1`, first byte | none; a flags byte gates the optional caps | none |
//! | WAL frame | `fia_campaignd::wal` | `u32` `0x464A4C01` (`"FJL"` + 1) | none; the magic's low byte | payload `u32` | trailing `u64` FNV-1a over the payload |
//! | `FILR`/`FIDT`/`FIRF`/`FINN` | `fia_models` | 4 ASCII bytes | `1`, after the magic | `u64` for every length, count and matrix dim | none |

use crate::Matrix;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Incremental 64-bit FNV-1a.
///
/// [`Fnv1a::bytes`] is the standard byte-wise hash. [`Fnv1a::word`]
/// folds a whole `u64` in one xor-multiply step; the seeds and content
/// hashes over `f64` bit patterns use it. A nonzero seed tweaks the
/// basis so callers hashing the same bytes for different purposes get
/// unrelated values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher whose basis is `offset ^ seed · prime`; seed `0` gives
    /// the standard offset basis.
    pub const fn seeded(seed: u64) -> Self {
        Fnv1a(FNV_OFFSET ^ seed.wrapping_mul(FNV_PRIME))
    }

    /// Folds one 64-bit word.
    #[inline]
    pub fn word(self, w: u64) -> Self {
        Fnv1a((self.0 ^ w).wrapping_mul(FNV_PRIME))
    }

    /// Folds each byte in order.
    #[inline]
    pub fn bytes(self, bytes: &[u8]) -> Self {
        bytes.iter().fold(self, |h, &b| h.word(u64::from(b)))
    }

    /// Folds each value's IEEE-754 bits as one word.
    #[inline]
    pub fn f64s(self, values: &[f64]) -> Self {
        values.iter().fold(self, |h, v| h.word(v.to_bits()))
    }

    /// The hash so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

/// Standard FNV-1a over `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::seeded(0).bytes(bytes).finish()
}

/// Why a buffer could not be decoded. Each format converts it into its
/// own public error type with `From`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before a field, or a length or count claims more
    /// bytes than remain.
    Truncated,
    /// Bytes were left after the last field.
    TrailingBytes,
}

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its raw bits.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes raw bytes, with no length prefix.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes each value's raw bits, with no length prefix.
    pub fn f64s(&mut self, values: &[f64]) {
        self.buf.reserve(values.len() * 8);
        for &v in values {
            self.f64(v);
        }
    }

    /// Writes a matrix as `u64` rows, `u64` cols, then its row-major
    /// values.
    pub fn matrix(&mut self, m: &Matrix) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        self.f64s(m.as_slice());
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Returns the written bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian cursor over a byte buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.bytes(N)?.try_into().expect("N bytes"))
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` from its raw bits.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Checks a decoded length or count: `n` items of at least
    /// `min_item_bytes` each must fit in the bytes remaining. Call it
    /// before sizing any allocation from `n`, so a hostile header
    /// cannot request more memory than the buffer could ever fill.
    #[inline]
    pub fn count(&self, n: u64, min_item_bytes: usize) -> Result<usize, CodecError> {
        let n = usize::try_from(n).map_err(|_| CodecError::Truncated)?;
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// Reads `n` raw-bit `f64`s (count-checked before allocating).
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CodecError> {
        let bytes = self.bytes(n.checked_mul(8).ok_or(CodecError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|w| f64::from_le_bytes(w.try_into().expect("8 bytes")))
            .collect())
    }

    /// Reads a matrix written by [`Writer::matrix`].
    pub fn matrix(&mut self) -> Result<Matrix, CodecError> {
        let rows = self.u64()?;
        let cols = self.u64()?;
        let cells = rows.checked_mul(cols).ok_or(CodecError::Truncated)?;
        let cells = self.count(cells, 8)?;
        let data = self.f64s(cells)?;
        Ok(Matrix::from_vec(rows as usize, cols as usize, data).expect("cell count checked"))
    }

    /// Succeeds only when every byte was consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // Byte-wise and word-wise folding agree on byte-valued words.
        let h = Fnv1a::seeded(0);
        let words = b"xyz".iter().fold(h, |h, &b| h.word(b.into()));
        assert_eq!(words.finish(), fnv1a(b"xyz"));
        assert_eq!(h.f64s(&[1.5]), h.word(1.5f64.to_bits()));
        // A seed moves the basis.
        assert_ne!(Fnv1a::seeded(1).finish(), fnv1a(b""));
    }

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new();
        w.bytes(b"TEST");
        w.u8(1);
        w.u16(0xBEEF);
        w.u32(7);
        w.u64(42);
        w.f64(-1.5);
        w.u64(2);
        w.f64s(&[1.0, 2.0]);
        w.matrix(&Matrix::identity(2));
        let bytes = w.finish();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.bytes(4).unwrap(), b"TEST");
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.f64().unwrap(), -1.5);
        let n = r.u64().unwrap();
        let n = r.count(n, 8).unwrap();
        assert_eq!(r.f64s(n).unwrap(), vec![1.0, 2.0]);
        assert_eq!(r.matrix().unwrap(), Matrix::identity(2));
        r.finish().unwrap();
    }

    #[test]
    fn cursor_reads_are_bounds_checked() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u32(), Err(CodecError::Truncated));
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes));
        let mut r = Reader::new(&[1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(r.u64().unwrap(), 1);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.matrix(&Matrix::filled(4, 4, 1.0));
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 3);
        assert_eq!(Reader::new(&bytes).matrix(), Err(CodecError::Truncated));
    }

    #[test]
    fn huge_length_rejected_without_allocation() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 2); // absurd length prefix
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let n = r.u64().unwrap();
        assert_eq!(r.count(n, 8), Err(CodecError::Truncated));
        assert_eq!(r.count(u64::MAX, 1), Err(CodecError::Truncated));
        assert_eq!(r.f64s(usize::MAX), Err(CodecError::Truncated));
        // Matrix dims whose product overflows, or merely exceeds the
        // buffer, are rejected before any allocation.
        for (rows, cols) in [(u64::MAX, 2), (1 << 40, 1 << 20)] {
            let mut w = Writer::new();
            w.u64(rows);
            w.u64(cols);
            assert_eq!(
                Reader::new(&w.finish()).matrix(),
                Err(CodecError::Truncated)
            );
        }
    }

    #[test]
    fn count_admits_exactly_what_remains() {
        let r = Reader::new(&[0; 16]);
        assert_eq!(r.count(2, 8), Ok(2));
        assert_eq!(r.count(3, 8), Err(CodecError::Truncated));
    }
}
