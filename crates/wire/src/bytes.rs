//! Little-endian byte cursors for compact binary formats.

use std::fmt;

/// Error when a [`ByteReader`] runs out of input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncated {
    /// Bytes requested by the failing read.
    pub needed: usize,
    /// Bytes left in the buffer.
    pub remaining: usize,
}

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "buffer truncated: needed {} bytes, {} remaining",
            self.needed, self.remaining
        )
    }
}

impl std::error::Error for Truncated {}

/// Appends little-endian values to a growable buffer.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends raw bytes.
    pub fn put_slice(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    pub fn put_f32_le(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64` (as its IEEE-754 bit pattern, so
    /// NaN payloads and signed zeros survive the trip).
    pub fn put_f64_le(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed (u32) UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32_le(s.len() as u32);
        self.put_slice(s.as_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads little-endian values from a byte slice.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if self.remaining() < n {
            return Err(Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if fewer than `n` bytes remain.
    pub fn get_slice(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        self.take(n)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] at end of input.
    pub fn get_u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if fewer than 4 bytes remain.
    pub fn get_u32_le(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if fewer than 8 bytes remain.
    pub fn get_u64_le(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if fewer than 4 bytes remain.
    pub fn get_f32_le(&mut self) -> Result<f32, Truncated> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if fewer than 8 bytes remain.
    pub fn get_f64_le(&mut self) -> Result<f64, Truncated> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed (u32) UTF-8 string; invalid UTF-8 is
    /// replaced.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] if the declared length exceeds the input.
    pub fn get_str(&mut self) -> Result<String, Truncated> {
        let len = self.get_u32_le()? as usize;
        Ok(String::from_utf8_lossy(self.take(len)?).into_owned())
    }

    /// Reads `count` values of at least `min_bytes` each with `read_one`:
    /// the one place a decoder reserves memory on its input's say-so.
    ///
    /// # Errors
    ///
    /// [`Truncated`] before reserving anything if the bytes left cannot
    /// hold `count` values; otherwise whatever `read_one` returns.
    pub fn get_seq<T, E: From<Truncated>>(
        &mut self,
        count: usize,
        min_bytes: usize,
        mut read_one: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let (needed, remaining) = (count.saturating_mul(min_bytes.max(1)), self.remaining());
        if needed > remaining {
            return Err(Truncated { needed, remaining }.into());
        }
        (0..count).try_fold(Vec::with_capacity(count), |mut out, _| {
            out.push(read_one(self)?);
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_type() {
        let mut w = ByteWriter::with_capacity(64);
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(u64::MAX - 3);
        w.put_f32_le(-1.5);
        w.put_f64_le(1234.5678);
        w.put_str("héllo");
        w.put_slice(&[1, 2, 3]);
        assert!(!w.is_empty());
        let buf = w.into_vec();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32_le().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f32_le().unwrap(), -1.5);
        assert_eq!(r.get_f64_le().unwrap(), 1234.5678);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_slice(3).unwrap(), &[1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        let e = r.get_u32_le().unwrap_err();
        assert_eq!(
            e,
            Truncated {
                needed: 4,
                remaining: 2
            }
        );
        assert!(e.to_string().contains("needed 4"));
        // Failed reads consume nothing.
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn string_with_bogus_length_is_truncated_error() {
        let mut w = ByteWriter::new();
        w.put_u32_le(1000);
        w.put_slice(b"short");
        let buf = w.into_vec();
        assert!(ByteReader::new(&buf).get_str().is_err());
    }

    #[test]
    fn sequences_are_bounded_by_the_bytes_left() {
        let buf = [1, 0, 2, 0, 3, 0];
        let mut r = ByteReader::new(&buf);
        let read = |r: &mut ByteReader<'_>| r.get_slice(2).map(|s| s[0]);
        // Four 2-byte values cannot fit in six bytes: refused up front,
        // with nothing consumed.
        assert!(r.get_seq(4, 2, read).is_err());
        assert_eq!(r.remaining(), 6);
        assert_eq!(r.get_seq(3, 2, read).unwrap(), vec![1, 2, 3]);
        assert_eq!(
            r.get_seq(usize::MAX, 1, read),
            Err(Truncated {
                needed: usize::MAX,
                remaining: 0
            })
        );
    }
}
