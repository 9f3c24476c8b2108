//! The little-endian slice codec every binary format of the workspace is
//! built from: [`EmbeddingTable`](crate::EmbeddingTable) blobs, checkpoints
//! (`supa::checkpoint`), replication frames (`supa::delta`) and the ANN
//! index and index-set formats (`supa_ann`'s `SUPANN01`/`SUPANNS1`). It
//! lives in the lowest crate that serialises anything, so all four share
//! one implementation, and each format has one encoder and one decoder.
//!
//! Encoding appends to a `Vec<u8>` one whole slice at a time; callers size
//! the buffer exactly up front, so a multi-megabyte checkpoint is written
//! once, never regrown. Decoding goes through [`Reader`], a bounds-checked
//! cursor over a byte slice: a count is checked against the bytes that
//! remain *before* anything is allocated for it, so a corrupt length field
//! is a [`Truncated`] error, never an absurd allocation or a panic.

use std::fmt;

/// Appends `x` little-endian.
pub fn put_u16(out: &mut Vec<u8>, x: u16) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Appends `x` little-endian.
pub fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Appends `x` little-endian.
pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Appends `x` little-endian.
pub fn put_f32(out: &mut Vec<u8>, x: f32) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Appends `x` little-endian.
pub fn put_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Appends every element of `xs` little-endian, back to back.
pub fn put_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    put_slice(out, xs, f32::to_le_bytes);
}

/// Appends every element of `xs` little-endian, back to back.
pub fn put_u32s(out: &mut Vec<u8>, xs: &[u32]) {
    put_slice(out, xs, u32::to_le_bytes);
}

/// One reservation, then one exact-size extend the compiler turns into a
/// straight copy loop (per-element `extend_from_slice` re-checks capacity
/// for every element and runs several times slower).
fn put_slice<T: Copy, const W: usize>(out: &mut Vec<u8>, xs: &[T], le: impl Fn(T) -> [u8; W]) {
    out.reserve(xs.len() * W);
    out.extend(xs.iter().flat_map(|&x| le(x)));
}

/// The input ended before a field, or a count declared more bytes than
/// remain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a field or declared length runs past the end of the input"
        )
    }
}

impl std::error::Error for Truncated {}

impl From<Truncated> for std::io::Error {
    fn from(e: Truncated) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Bounds-checked little-endian cursor over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if n > self.remaining() {
            return Err(Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const W: usize>(&mut self) -> Result<[u8; W], Truncated> {
        Ok(self.take(W)?.try_into().expect("take returns W bytes"))
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.array::<1>()?[0])
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, Truncated> {
        self.array().map(f32::from_le_bytes)
    }

    /// The next little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        self.array().map(f64::from_le_bytes)
    }

    /// A little-endian `u64` byte count, then that many bytes, borrowed
    /// from the input.
    pub fn section(&mut self) -> Result<&'a [u8], Truncated> {
        let n = self.u64()?;
        self.take(usize::try_from(n).map_err(|_| Truncated)?)
    }

    /// The next `n` little-endian `f32`s.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, Truncated> {
        self.slice(n, f32::from_le_bytes)
    }

    /// The next `n` little-endian `u32`s.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, Truncated> {
        self.slice(n, u32::from_le_bytes)
    }

    /// `n × W` bytes must remain before the `n`-element vector is allocated.
    fn slice<T, const W: usize>(
        &mut self,
        n: usize,
        le: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, Truncated> {
        let bytes = self.take(n.checked_mul(W).ok_or(Truncated)?)?;
        Ok(bytes
            .chunks_exact(W)
            .map(|c| le(c.try_into().expect("chunks_exact yields W bytes")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_round_trip_bit_for_bit() {
        let fs = [
            0.0f32,
            -0.0,
            1.5,
            f32::MIN_POSITIVE,
            f32::NAN,
            f32::INFINITY,
        ];
        let us = [0u32, 1, 0xDEAD_BEEF, u32::MAX];
        let mut out = Vec::new();
        put_u16(&mut out, 0xABCD);
        put_f32s(&mut out, &fs);
        put_u32s(&mut out, &us);
        put_f64(&mut out, -2.25);
        // The bulk writers lay elements out exactly as one-at-a-time
        // little-endian writes would.
        let mut each = 0xABCDu16.to_le_bytes().to_vec();
        fs.iter()
            .for_each(|x| each.extend_from_slice(&x.to_le_bytes()));
        us.iter()
            .for_each(|x| each.extend_from_slice(&x.to_le_bytes()));
        each.extend_from_slice(&(-2.25f64).to_le_bytes());
        assert_eq!(out, each);

        let mut r = Reader::new(&out);
        assert_eq!(r.u16(), Ok(0xABCD));
        let got = r.f32s(fs.len()).unwrap();
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&fs));
        assert_eq!(r.u32s(us.len()).unwrap(), us);
        assert_eq!(r.f64(), Ok(-2.25));
        assert!(r.is_empty());
        assert_eq!(r.u8(), Err(Truncated));
    }

    #[test]
    fn a_count_past_the_end_fails_without_consuming() {
        let bytes = [1u8, 2, 3, 4, 5, 6, 7];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.f32s(2), Err(Truncated));
        // Counts whose byte length overflows are rejected, not wrapped.
        assert_eq!(r.u32s(usize::MAX / 2), Err(Truncated));
        assert_eq!(r.f32s(1 << 60), Err(Truncated));
        assert_eq!(r.remaining(), 7);
        assert_eq!(r.u32s(1), Ok(vec![0x0403_0201]));
        assert_eq!(r.take(4), Err(Truncated));
        assert_eq!(r.take(3), Ok(&bytes[4..]));
    }
}
