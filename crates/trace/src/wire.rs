//! Varint primitives for the trace format.
//!
//! Unsigned quantities use ULEB128; signed quantities (reference deltas,
//! guest `int` payloads) are zigzag-mapped first so small magnitudes of
//! either sign stay one byte. Decoding works over a borrowed byte slice
//! through [`Cursor`], which reports truncation and malformed varints as
//! [`TraceError`]s instead of panicking — a trace file is external input.

use crate::TraceError;

/// Appends `v` as ULEB128.
pub fn put_uleb(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Maps a signed value to its zigzag form (`0, -1, 1, -2, ...` → `0, 1,
/// 2, 3, ...`).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` zigzagged as ULEB128.
pub fn put_ileb(out: &mut Vec<u8>, v: i64) {
    put_uleb(out, zigzag(v));
}

/// A read cursor over trace bytes.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, TraceError> {
        let b = *self.bytes.get(self.pos).ok_or(TraceError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a little-endian `u16`.
    pub fn u16_le(&mut self) -> Result<u16, TraceError> {
        let lo = self.u8()? as u16;
        let hi = self.u8()? as u16;
        Ok(lo | (hi << 8))
    }

    /// Reads `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self.pos.checked_add(n).ok_or(TraceError::Truncated)?;
        let s = self.bytes.get(self.pos..end).ok_or(TraceError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads a ULEB128 value.
    pub fn uleb(&mut self) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(TraceError::Corrupt("varint overflows u64".into()));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(TraceError::Corrupt("varint longer than 10 bytes".into()));
            }
        }
    }

    /// Reads a zigzagged ULEB128 value.
    pub fn ileb(&mut self) -> Result<i64, TraceError> {
        Ok(unzigzag(self.uleb()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_u(v: u64) {
        let mut buf = Vec::new();
        put_uleb(&mut buf, v);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.uleb().unwrap(), v);
        assert_eq!(c.pos(), buf.len());
    }

    fn roundtrip_i(v: i64) {
        let mut buf = Vec::new();
        put_ileb(&mut buf, v);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.ileb().unwrap(), v);
        assert_eq!(c.pos(), buf.len());
    }

    #[test]
    fn uleb_roundtrips() {
        for v in [0, 1, 127, 128, 300, 16383, 16384, u64::MAX] {
            roundtrip_u(v);
        }
    }

    #[test]
    fn ileb_roundtrips() {
        for v in [0, -1, 1, -64, 63, 64, -65, i64::MAX, i64::MIN] {
            roundtrip_i(v);
        }
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_small() {
        for v in -63..=63 {
            let mut buf = Vec::new();
            put_ileb(&mut buf, v);
            assert_eq!(buf.len(), 1, "zigzag({v}) should fit one byte");
        }
    }

    #[test]
    fn truncated_input_is_reported() {
        let mut buf = Vec::new();
        put_uleb(&mut buf, 1 << 40);
        let mut c = Cursor::new(&buf[..buf.len() - 1]);
        assert_eq!(c.uleb(), Err(TraceError::Truncated));
    }

    #[test]
    fn overlong_varint_is_corrupt() {
        let buf = [0x80u8; 11];
        let mut c = Cursor::new(&buf);
        assert!(matches!(c.uleb(), Err(TraceError::Corrupt(_))));
    }
}
