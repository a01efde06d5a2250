//! Checkpoint snapshot codec (DESIGN.md §12).
//!
//! A snapshot is a single byte blob:
//!
//! ```text
//! magic     8 bytes   b"CDPSNAP\0"
//! version   u32 LE    format version (this build writes and reads only
//!                     VERSION)
//! run fp    u64 LE    fingerprint of the run being checkpointed
//!                     (config + workload identity + fault plan)
//! count     u32 LE    number of sections (so truncation at a section
//!                     boundary is still detected)
//! sections  repeated  [tag u32][len u64][payload len bytes][checksum u64]
//!                     checksum = WordHasher(tag ∥ len ∥ payload), so
//!                     damage to the framing is caught as surely as damage
//!                     to the data
//! ```
//!
//! [`WordHasher`] absorbs eight bytes per step, so checksumming a payload
//! and fingerprinting a trace or memory image cost a fraction of a
//! byte-serial hash. It is a checksum and an identity stamp, not a
//! cryptographic hash.
//!
//! Everything inside a payload is written with [`Enc`] (little-endian,
//! fixed-width, length-prefixed collections) and read back with [`Dec`],
//! whose every accessor returns a typed [`SnapshotError`] instead of
//! panicking. The resume contract rests on this codec being *defensive*:
//! a truncated file, a flipped byte, a fingerprint from a different run,
//! or a future version number must all be rejected before any simulator
//! state is touched.
//!
//! A flat record lists its fields once, through the [`Codec`] trait that
//! both [`Enc`] and [`Dec`] implement ([`Record`]), so the one list
//! drives both directions. State with loops or validation (caches,
//! tables, rings) keeps a hand-written pair of functions.

#![warn(missing_docs)]

use cdp_types::SnapshotError;

/// Magic bytes every snapshot starts with.
pub const MAGIC: [u8; 8] = *b"CDPSNAP\0";

/// Format version this build writes and the only one it reads: no
/// section decoder branches on the version, so an older layout is
/// refused rather than misread. Version 2 appended the core's feed kind
/// (and, for streaming feeds, the uop window + generation cursor) to the
/// core section; version 3 stores the Markov STAB in the delta table's
/// layout; version 4 computes section checksums and run fingerprints
/// with [`WordHasher`]; version 5 drops the core's issue bookkeeping
/// (idle bound, unissued mask and counts, register pad slot), which
/// restore rebuilds from the ROB.
pub const VERSION: u32 = 5;

/// Initial state of a [`WordHasher`] (the first 64 fractional bits of π).
const SEED: u64 = 0x243f_6a88_85a3_08d3;
/// Odd multiplier of every absorb step (2^64 / golden ratio).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One absorb step: xor in the word, multiply by an odd constant, then
/// xor-shift. For a fixed state it is a bijection of the word, and for a
/// fixed word a bijection of the state.
#[inline]
fn step(state: u64, word: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(MUL);
    x ^ (x >> 29)
}

/// Streaming 64-bit hasher that absorbs one 8-byte word per step, for
/// section checksums and for fingerprinting state that is inconvenient
/// to materialize as one byte slice (frame tables, traces).
///
/// Every word passes through a bijective step of some lane (xor in the
/// word, multiply by an odd constant, xor-shift), and lanes are folded
/// into the state by further steps, so two inputs of the same shape that
/// differ in a single word always leave different states;
/// [`WordHasher::finish`] is a bijection too.
#[derive(Clone, Copy, Debug)]
pub struct WordHasher {
    state: u64,
}

impl WordHasher {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        WordHasher { state: SEED }
    }

    /// Absorbs one word.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.state = step(self.state, word);
    }

    /// Absorbs a `u32` as one word.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    /// Absorbs raw bytes as little-endian words: first their length,
    /// which keeps consecutive writes unambiguous (`"ab", "c"` differs
    /// from `"a", "bc"`). Whole 32-byte blocks then run through four
    /// independent lanes (word `i` of each block into lane `i`), so four
    /// multiplies are in flight at once, and the lanes are folded into
    /// the state in order. The words after the last block, the final one
    /// zero-padded, are absorbed one at a time.
    pub fn write(&mut self, bytes: &[u8]) {
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte word"));
        self.write_u64(bytes.len() as u64);
        let mut blocks = bytes.chunks_exact(32);
        if bytes.len() >= 32 {
            let mut lanes = [self.state; 4];
            for block in &mut blocks {
                for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                    *lane = step(*lane, word(w));
                }
            }
            for lane in lanes {
                self.write_u64(lane);
            }
        }
        for w in blocks.remainder().chunks(8) {
            let mut last = [0u8; 8];
            last[..w.len()].copy_from_slice(w);
            self.write_u64(word(&last));
        }
    }

    /// The digest so far: the state through a final avalanche (the
    /// MurmurHash3 finalizer), so nearby states give unrelated digests.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut z = self.state;
        z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        z ^ (z >> 33)
    }
}

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher::new()
    }
}

/// Little-endian binary encoder for section payloads.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Enc::default()
    }

    /// An encoder that appends to `buf`'s existing contents. Lets a
    /// caller encode a payload directly into an arena it owns (see
    /// [`SnapWriter::section`]) instead of paying a fresh allocation and
    /// a copy per payload.
    #[must_use]
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Enc { buf }
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128` as two little-endian `u64` halves (low, high).
    pub fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// Appends a `usize` widened to `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` by bit pattern (round-trips exactly).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a collection length prefix (`u64`); the caller then
    /// appends that many elements.
    pub fn seq_len(&mut self, len: usize) {
        self.usize(len);
    }
}

/// Little-endian binary decoder over a section payload. Every accessor
/// is bounds-checked and returns [`SnapshotError::Truncated`] with the
/// caller-supplied context when the bytes run out.
#[derive(Debug)]
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `data`.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        Dec { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when every byte has been consumed (restores check this to
    /// catch trailing garbage).
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated { context });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a bool byte, rejecting anything but 0 or 1.
    pub fn bool(&mut self, context: &'static str) -> Result<bool, SnapshotError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt { context }),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, SnapshotError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, context: &'static str) -> Result<i64, SnapshotError> {
        let b = self.take(8, context)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a `u128` written by [`Enc::u128`].
    pub fn u128(&mut self, context: &'static str) -> Result<u128, SnapshotError> {
        let lo = self.u64(context)?;
        let hi = self.u64(context)?;
        Ok(u128::from(lo) | (u128::from(hi) << 64))
    }

    /// Reads a `u64` and narrows it to `usize`, rejecting overflow.
    pub fn usize(&mut self, context: &'static str) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64(context)?).map_err(|_| SnapshotError::Corrupt { context })
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        let len = self.usize(context)?;
        self.take(len, context)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.bytes(context)?).map_err(|_| SnapshotError::Corrupt { context })
    }

    /// Reads a collection length prefix, rejecting lengths that could
    /// not possibly fit in the remaining bytes (`min_elem_bytes` is the
    /// smallest possible encoded element). This keeps a corrupted length
    /// from turning into a huge allocation.
    pub fn seq_len(
        &mut self,
        min_elem_bytes: usize,
        context: &'static str,
    ) -> Result<usize, SnapshotError> {
        let len = self.usize(context)?;
        if len.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(SnapshotError::Corrupt { context });
        }
        Ok(len)
    }
}

/// One direction of a field-by-field codec. [`Enc`] implements it by
/// writing each field and [`Dec`] by reading each field back in place, so
/// a [`Record`] that lists its fields once is written and read by that
/// one list: a reordered or dropped field moves bytes but cannot put the
/// two directions out of step.
pub trait Codec: Sized {
    /// What coding a field can fail with: nothing when writing,
    /// [`SnapshotError`] when reading.
    type Error;

    /// A `u8` field. `context` names the field in a read error.
    fn u8(&mut self, v: &mut u8, context: &'static str) -> Result<(), Self::Error>;

    /// A bool field, one byte (a read refuses anything but 0 or 1).
    fn bool(&mut self, v: &mut bool, context: &'static str) -> Result<(), Self::Error>;

    /// A little-endian `u32` field.
    fn u32(&mut self, v: &mut u32, context: &'static str) -> Result<(), Self::Error>;

    /// A little-endian `u64` field.
    fn u64(&mut self, v: &mut u64, context: &'static str) -> Result<(), Self::Error>;

    /// A `usize` field, widened to `u64` (a read refuses overflow).
    fn usize(&mut self, v: &mut usize, context: &'static str) -> Result<(), Self::Error>;

    /// A nested record, in its own field order.
    fn record<R: Record>(&mut self, r: &mut R) -> Result<(), Self::Error> {
        r.fields(self)
    }

    /// The presence flag of an optional part. Returns the part, which the
    /// caller then codes, when the flag says it is present.
    ///
    /// [`Enc`] writes whether `v` holds a part. [`Dec`] reads the flag;
    /// a set flag fills an empty `v` with `blank`, and a flag that `v`
    /// then contradicts is refused as [`SnapshotError::Corrupt`] with
    /// `context`. Where the configuration fixes which parts exist,
    /// `blank` is `None`, so a snapshot can neither add nor drop one.
    fn option<'v, T>(
        &mut self,
        v: &'v mut Option<T>,
        blank: Option<T>,
        context: &'static str,
    ) -> Result<Option<&'v mut T>, Self::Error>;
}

/// A flat record whose byte layout is the one field list in
/// [`Record::fields`]: [`Enc::put`] writes it and [`Dec::get`] reads it.
pub trait Record: Copy + Default {
    /// Codes every field, in layout order, through `c`.
    ///
    /// # Errors
    ///
    /// The first field `c` fails on.
    fn fields<C: Codec>(&mut self, c: &mut C) -> Result<(), C::Error>;
}

impl Enc {
    /// Appends a record by its field list.
    pub fn put<R: Record>(&mut self, mut r: R) {
        let Ok(()) = r.fields(self);
    }
}

impl Dec<'_> {
    /// Reads a record written by [`Enc::put`].
    ///
    /// # Errors
    ///
    /// The typed [`SnapshotError`] of the first field that fails.
    pub fn get<R: Record>(&mut self) -> Result<R, SnapshotError> {
        let mut r = R::default();
        r.fields(self)?;
        Ok(r)
    }
}

impl Codec for Enc {
    type Error = std::convert::Infallible;

    fn u8(&mut self, v: &mut u8, _: &'static str) -> Result<(), Self::Error> {
        Enc::u8(self, *v);
        Ok(())
    }

    fn bool(&mut self, v: &mut bool, _: &'static str) -> Result<(), Self::Error> {
        Enc::bool(self, *v);
        Ok(())
    }

    fn u32(&mut self, v: &mut u32, _: &'static str) -> Result<(), Self::Error> {
        Enc::u32(self, *v);
        Ok(())
    }

    fn u64(&mut self, v: &mut u64, _: &'static str) -> Result<(), Self::Error> {
        Enc::u64(self, *v);
        Ok(())
    }

    fn usize(&mut self, v: &mut usize, _: &'static str) -> Result<(), Self::Error> {
        Enc::usize(self, *v);
        Ok(())
    }

    fn option<'v, T>(
        &mut self,
        v: &'v mut Option<T>,
        _: Option<T>,
        _: &'static str,
    ) -> Result<Option<&'v mut T>, Self::Error> {
        Enc::bool(self, v.is_some());
        Ok(v.as_mut())
    }
}

impl Codec for Dec<'_> {
    type Error = SnapshotError;

    fn u8(&mut self, v: &mut u8, context: &'static str) -> Result<(), SnapshotError> {
        *v = Dec::u8(self, context)?;
        Ok(())
    }

    fn bool(&mut self, v: &mut bool, context: &'static str) -> Result<(), SnapshotError> {
        *v = Dec::bool(self, context)?;
        Ok(())
    }

    fn u32(&mut self, v: &mut u32, context: &'static str) -> Result<(), SnapshotError> {
        *v = Dec::u32(self, context)?;
        Ok(())
    }

    fn u64(&mut self, v: &mut u64, context: &'static str) -> Result<(), SnapshotError> {
        *v = Dec::u64(self, context)?;
        Ok(())
    }

    fn usize(&mut self, v: &mut usize, context: &'static str) -> Result<(), SnapshotError> {
        *v = Dec::usize(self, context)?;
        Ok(())
    }

    fn option<'v, T>(
        &mut self,
        v: &'v mut Option<T>,
        blank: Option<T>,
        context: &'static str,
    ) -> Result<Option<&'v mut T>, SnapshotError> {
        let present = Dec::bool(self, context)?;
        if present && v.is_none() {
            *v = blank;
        }
        if present != v.is_some() {
            return Err(SnapshotError::Corrupt { context });
        }
        Ok(v.as_mut())
    }
}

/// Writes a snapshot: header first, then checksummed sections.
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
    count: u32,
}

/// Byte offset of the section-count field within the header.
const COUNT_OFFSET: usize = 8 + 4 + 8;

impl SnapWriter {
    /// Starts a snapshot for the run identified by `fingerprint`.
    #[must_use]
    pub fn new(fingerprint: u64) -> Self {
        SnapWriter::new_in(fingerprint, Vec::with_capacity(4096))
    }

    /// Starts a snapshot in a caller-supplied buffer, clearing it first
    /// but keeping its capacity. A periodic checkpointer that reuses one
    /// buffer across snapshots allocates only while the snapshot is still
    /// growing toward its steady-state size. The output bytes are
    /// identical to [`SnapWriter::new`].
    #[must_use]
    pub fn new_in(fingerprint: u64, mut buf: Vec<u8>) -> Self {
        buf.clear();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&fingerprint.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // section count, patched in finish()
        SnapWriter { buf, count: 0 }
    }

    /// Appends one section: the closure fills the payload, the writer
    /// adds the tag, length prefix, and [`WordHasher`] checksum.
    ///
    /// The payload is encoded in place in the snapshot buffer (the
    /// encoder the closure sees is a view over it, with the length
    /// prefix patched afterwards), so a section costs no allocation of
    /// its own once the buffer has reached steady-state capacity.
    pub fn section(&mut self, tag: u32, fill: impl FnOnce(&mut Enc)) {
        self.buf.extend_from_slice(&tag.to_le_bytes());
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&0u64.to_le_bytes()); // patched below
        let payload_at = self.buf.len();
        let mut enc = Enc::from_vec(std::mem::take(&mut self.buf));
        fill(&mut enc);
        self.buf = enc.into_bytes();
        let payload_len = (self.buf.len() - payload_at) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&payload_len.to_le_bytes());
        let digest = section_checksum(tag, &self.buf[payload_at..]);
        self.buf.extend_from_slice(&digest.to_le_bytes());
        self.count += 1;
    }

    /// The finished snapshot bytes.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[COUNT_OFFSET..COUNT_OFFSET + 4].copy_from_slice(&self.count.to_le_bytes());
        self.buf
    }
}

/// The checksum stored after a section: the tag, then the payload (whose
/// length [`WordHasher::write`] absorbs first).
fn section_checksum(tag: u32, payload: &[u8]) -> u64 {
    let mut sum = WordHasher::new();
    sum.write_u32(tag);
    sum.write(payload);
    sum.finish()
}

/// Parses and validates a snapshot: header checks up front, checksum
/// checks per section, typed errors throughout.
#[derive(Debug)]
pub struct SnapReader<'a> {
    fingerprint: u64,
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> SnapReader<'a> {
    /// Parses `data`, verifying magic, version, every section's framing
    /// and checksum, and — when `expected_fingerprint` is given — the
    /// header fingerprint.
    pub fn parse(
        data: &'a [u8],
        expected_fingerprint: Option<u64>,
    ) -> Result<SnapReader<'a>, SnapshotError> {
        let mut d = Dec::new(data);
        let magic = d.take(MAGIC.len(), "magic")?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = d.u32("version")?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let fingerprint = d.u64("fingerprint")?;
        if let Some(expected) = expected_fingerprint {
            if fingerprint != expected {
                return Err(SnapshotError::FingerprintMismatch {
                    expected,
                    found: fingerprint,
                });
            }
        }
        let count = d.u32("section count")?;
        let mut sections = Vec::new();
        for _ in 0..count {
            let tag = d.u32("section tag")?;
            let len = d.usize("section length")?;
            let payload = d.take(len, "section payload")?;
            let stored = d.u64("section checksum")?;
            if section_checksum(tag, payload) != stored {
                return Err(SnapshotError::ChecksumMismatch { tag });
            }
            sections.push((tag, payload));
        }
        if !d.is_exhausted() {
            return Err(SnapshotError::Corrupt {
                context: "trailing bytes after final section",
            });
        }
        Ok(SnapReader {
            fingerprint,
            sections,
        })
    }

    /// The run fingerprint stored in the header.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// A decoder over the payload of section `tag`, or
    /// [`SnapshotError::MissingSection`].
    pub fn section(&self, tag: u32) -> Result<Dec<'a>, SnapshotError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, payload)| Dec::new(payload))
            .ok_or(SnapshotError::MissingSection { tag })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapWriter::new(0xfeed_f00d);
        w.section(1, |e| {
            e.u64(42);
            e.str("hello");
            e.i64(-7);
            e.u128(u128::MAX - 1);
            e.bool(true);
        });
        w.section(2, |e| e.bytes(&[1, 2, 3]));
        w.finish()
    }

    #[test]
    fn roundtrip() {
        let bytes = sample();
        let r = SnapReader::parse(&bytes, Some(0xfeed_f00d)).unwrap();
        assert_eq!(r.fingerprint(), 0xfeed_f00d);
        let mut d = r.section(1).unwrap();
        assert_eq!(d.u64("a").unwrap(), 42);
        assert_eq!(d.str("b").unwrap(), "hello");
        assert_eq!(d.i64("c").unwrap(), -7);
        assert_eq!(d.u128("d").unwrap(), u128::MAX - 1);
        assert!(d.bool("e").unwrap());
        assert!(d.is_exhausted());
        let mut d2 = r.section(2).unwrap();
        assert_eq!(d2.bytes("p").unwrap(), &[1, 2, 3]);
        assert!(matches!(
            r.section(3),
            Err(SnapshotError::MissingSection { tag: 3 })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample();
        bytes[0] ^= 0xff;
        assert_eq!(
            SnapReader::parse(&bytes, None).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn future_version_rejected() {
        for version in [VERSION + 1, VERSION - 1, 0] {
            let mut bytes = sample();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                SnapReader::parse(&bytes, None).unwrap_err(),
                SnapshotError::UnsupportedVersion {
                    found: version,
                    supported: VERSION
                }
            );
        }
    }

    #[test]
    fn fingerprint_mismatch_rejected() {
        let bytes = sample();
        assert_eq!(
            SnapReader::parse(&bytes, Some(1)).unwrap_err(),
            SnapshotError::FingerprintMismatch {
                expected: 1,
                found: 0xfeed_f00d
            }
        );
        // Without an expectation the header fingerprint is just reported.
        assert!(SnapReader::parse(&bytes, None).is_ok());
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        let bytes = sample();
        for n in 0..bytes.len() {
            let err = SnapReader::parse(&bytes[..n], Some(0xfeed_f00d))
                .expect_err("every prefix must be rejected");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::BadMagic
                        | SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::Corrupt { .. }
                ),
                "prefix {n}: {err:?}"
            );
        }
    }

    #[test]
    fn every_flipped_payload_byte_fails_a_checksum() {
        let bytes = sample();
        // Flip each byte past the header; the damage must surface as a
        // checksum, framing, or header error — never a clean parse that
        // could silently feed wrong state to a resume.
        let header = MAGIC.len() + 4 + 8;
        for i in header..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x01;
            assert!(
                SnapReader::parse(&b, Some(0xfeed_f00d)).is_err(),
                "flipping byte {i} went undetected"
            );
        }
    }

    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Inner {
        a: u8,
        b: bool,
    }

    impl Record for Inner {
        fn fields<C: Codec>(&mut self, c: &mut C) -> Result<(), C::Error> {
            c.u8(&mut self.a, "inner a")?;
            c.bool(&mut self.b, "inner b")
        }
    }

    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Outer {
        x: u32,
        inner: Inner,
        y: u64,
        z: usize,
    }

    impl Record for Outer {
        fn fields<C: Codec>(&mut self, c: &mut C) -> Result<(), C::Error> {
            c.u32(&mut self.x, "outer x")?;
            c.record(&mut self.inner)?;
            c.u64(&mut self.y, "outer y")?;
            c.usize(&mut self.z, "outer z")
        }
    }

    #[test]
    fn one_field_list_writes_and_reads_a_record() {
        let r = Outer {
            x: 7,
            inner: Inner { a: 9, b: true },
            y: u64::MAX - 3,
            z: 12,
        };
        let mut e = Enc::new();
        e.put(r);
        let bytes = e.into_bytes();
        // The layout is the field list: 4 + 1 + 1 + 8 + 8 bytes.
        assert_eq!(bytes.len(), 22);
        assert_eq!(&bytes[..6], &[7, 0, 0, 0, 9, 1]);
        let mut d = Dec::new(&bytes);
        assert_eq!(d.get::<Outer>(), Ok(r));
        assert!(d.is_exhausted());
        // Each cut names the field it fell in.
        assert_eq!(
            Dec::new(&bytes[..5]).get::<Outer>(),
            Err(SnapshotError::Truncated { context: "inner b" })
        );
        let mut bad = bytes.clone();
        bad[5] = 2;
        assert_eq!(
            Dec::new(&bad).get::<Outer>(),
            Err(SnapshotError::Corrupt { context: "inner b" })
        );
    }

    #[test]
    fn option_flags_fill_a_blank_and_refuse_contradictions() {
        let flag = |present: bool| [u8::from(present)];
        // Writing: the flag follows the part, and the part comes back.
        let mut e = Enc::new();
        let mut part = Some(5u8);
        assert_eq!(e.option(&mut part, None, "p"), Ok(Some(&mut 5)));
        assert_eq!(e.option(&mut None::<u8>, None, "p"), Ok(None));
        assert_eq!(e.into_bytes(), [1, 0]);
        // Reading with a blank: the flag decides.
        let mut v = None;
        let got = Dec::new(&flag(true)).option(&mut v, Some(0u8), "p");
        assert_eq!(got, Ok(Some(&mut 0)));
        let mut v = None;
        assert_eq!(
            Dec::new(&flag(false)).option(&mut v, Some(0u8), "p"),
            Ok(None)
        );
        // Reading without a blank: the flag must agree with `v`.
        let corrupt = Err(SnapshotError::Corrupt { context: "p" });
        assert_eq!(
            Dec::new(&flag(true)).option(&mut None::<u8>, None, "p"),
            corrupt
        );
        assert_eq!(
            Dec::new(&flag(false)).option(&mut Some(1u8), None, "p"),
            corrupt
        );
        assert_eq!(
            Dec::new(&flag(true)).option(&mut Some(1u8), None, "p"),
            Ok(Some(&mut 1))
        );
        assert_eq!(
            Dec::new(&[]).option(&mut None::<u8>, None, "p"),
            Err(SnapshotError::Truncated { context: "p" })
        );
    }

    #[test]
    fn seq_len_rejects_absurd_lengths() {
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(
            d.seq_len(8, "table"),
            Err(SnapshotError::Corrupt { context: "table" })
        ));
    }

    /// Pinned digests: checksums and fingerprints are stored on disk, so
    /// the hasher's output may only change together with [`VERSION`].
    #[test]
    fn word_hasher_matches_pinned_digests() {
        let digest = |f: &dyn Fn(&mut WordHasher)| {
            let mut h = WordHasher::new();
            f(&mut h);
            h.finish()
        };
        assert_eq!(digest(&|_| {}), 0x7acd_bb98_b134_4213);
        assert_eq!(digest(&|h| h.write(b"")), 0x3bfd_ce42_149f_9aef);
        assert_eq!(digest(&|h| h.write(b"CDPSNAP")), 0x6f80_129f_b54a_7ec8);
        // Three four-lane blocks and a padded tail word.
        let bytes: Vec<u8> = (0..100).collect();
        assert_eq!(digest(&|h| h.write(&bytes)), 0x7a11_b048_1df7_8ea3);
        assert_eq!(
            digest(&|h| h.write_u64(0x0123_4567_89ab_cdef)),
            0xd0b4_d07e_66e8_644b
        );
        // A u32 is absorbed as the same word as its widening.
        assert_eq!(digest(&|h| h.write_u32(7)), digest(&|h| h.write_u64(7)));
    }

    #[test]
    fn word_hasher_separates_single_word_changes_and_split_points() {
        // Two four-lane blocks and a tail word.
        let base = [0x5au8; 72];
        let mut h = WordHasher::new();
        h.write(&base);
        let reference = h.finish();
        for i in 0..base.len() {
            for bit in [0x01u8, 0x80] {
                let mut b = base;
                b[i] ^= bit;
                let mut h = WordHasher::new();
                h.write(&b);
                assert_ne!(h.finish(), reference, "byte {i} bit {bit:#x}");
            }
        }
        // Lengths are absorbed, so where a byte string is split matters
        // and zero padding cannot alias a shorter input.
        let pair = |a: &[u8], b: &[u8]| {
            let mut h = WordHasher::new();
            h.write(a);
            h.write(b);
            h.finish()
        };
        assert_ne!(pair(b"ab", b"c"), pair(b"a", b"bc"));
        assert_ne!(pair(b"abc", b""), pair(b"abc\0", b""));
    }
}
