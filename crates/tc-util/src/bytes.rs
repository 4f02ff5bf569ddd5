//! Little-endian byte-layout helpers for the binary segment format.
//!
//! The writers append to a `Vec<u8>`; the reader is a bounds-checked
//! cursor whose accessors return `None` on overrun so callers can map
//! truncation to their own corruption error instead of panicking.

/// Appends `v` in little-endian order.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends the IEEE-754 bit pattern of `v` in little-endian order —
/// exact round trips, no decimal detour.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends `v` as an unsigned LEB128 varint: seven bits a byte, low
/// group first, the high bit set on every byte but the last — one byte
/// below 128, at most ten. The encoding is canonical (never overlong).
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Maps a signed value onto an unsigned one, small magnitudes to small
/// numbers (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`), so it varint-codes short.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
pub fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// Narrows a length to the `u32` a binary format stores, failing with
/// [`std::io::ErrorKind::InvalidInput`] instead of silently wrapping.
///
/// Writers of fixed-width formats must route every `usize → u32` length
/// through this: a bare `as u32` on 2^32-or-more items would truncate at
/// save time and produce a file that is corrupt on read — this surfaces
/// the limit as a save-time error naming the oversized quantity instead.
pub fn checked_len_u32(n: usize, what: &str) -> std::io::Result<u32> {
    u32::try_from(n).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{what} ({n}) exceeds the u32 limit of the segment format"),
        )
    })
}

/// A bounds-checked forward-only cursor over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes, or `None` past the end.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Some(out)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|b| u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an `f64` stored as its little-endian bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a [`put_varint`] value no greater than `max`; `None` if it
    /// runs past the end, is overlong (a last byte of zero after the
    /// first), overflows 64 bits or exceeds `max`.
    #[inline]
    pub fn varint(&mut self, max: u64) -> Option<u64> {
        // Most values of a delta code fit one byte: take those inline.
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 && u64::from(b) <= max => {
                self.pos += 1;
                Some(b.into())
            }
            _ => self.long_varint(max),
        }
    }

    /// [`ByteReader::varint`] for a value that does not fit one byte.
    fn long_varint(&mut self, max: u64) -> Option<u64> {
        let mut v = 0u64;
        for (i, &b) in self.buf[self.pos..].iter().take(10).enumerate() {
            // The tenth byte holds bit 63 alone, and ends the value.
            if i == 9 && b > 1 {
                return None;
            }
            v |= u64::from(b & 0x7f) << (7 * i);
            if b < 0x80 {
                if (b == 0 && i > 0) || v > max {
                    return None;
                }
                self.pos += i + 1;
                return Some(v);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = Vec::new();
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, 0x0123_4567_89AB_CDEF);
        put_f64(&mut buf, -0.125);
        put_f64(&mut buf, f64::MIN_POSITIVE);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u16(), Some(0xBEEF));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(0x0123_4567_89AB_CDEF));
        assert_eq!(r.f64(), Some(-0.125));
        assert_eq!(r.f64(), Some(f64::MIN_POSITIVE));
        assert!(r.is_empty());
    }

    #[test]
    fn overrun_returns_none_and_preserves_position() {
        let buf = [1u8, 2, 3];
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u16(), Some(0x0201));
        assert_eq!(r.u32(), None, "only one byte left");
        assert_eq!(r.remaining(), 1, "failed read must not consume");
        assert_eq!(r.take(1), Some(&[3u8][..]));
        assert_eq!(r.take(1), None);
    }

    #[test]
    fn little_endian_layout() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0x0A0B_0C0D);
        assert_eq!(buf, [0x0D, 0x0C, 0x0B, 0x0A]);
    }

    #[test]
    fn varints_roundtrip_at_every_width() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for v in values {
            put_varint(&mut buf, v);
        }
        assert_eq!(buf[..5], [0x00, 0x01, 0x7f, 0x80, 0x01]);
        let mut r = ByteReader::new(&buf);
        for v in values {
            assert_eq!(r.varint(u64::MAX), Some(v));
        }
        assert!(r.is_empty());
        for v in [0i64, -1, 1, -2, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!([zigzag(0), zigzag(-1), zigzag(1), zigzag(-2)], [0, 1, 2, 3]);
    }

    #[test]
    fn malformed_varints_are_refused_without_consuming() {
        for (bytes, max) in [
            (&[0x80][..], u64::MAX),     // runs past the end
            (&[0x80, 0x00], u64::MAX),   // overlong zero
            (&[0xff, 0x00], u64::MAX),   // overlong 127
            (&[0xff; 10][..], u64::MAX), // eleven bytes or more
            (
                &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
                u64::MAX,
            ), // > 64 bits
            (&[0x80, 0x80, 0x80, 0x80, 0x10], u64::from(u32::MAX)), // 2^32
        ] {
            let mut r = ByteReader::new(bytes);
            assert_eq!(r.varint(max), None, "{bytes:02x?}");
            assert_eq!(
                r.remaining(),
                bytes.len(),
                "a refused varint consumes nothing"
            );
        }
        let mut r = ByteReader::new(&[0xff, 0xff, 0xff, 0xff, 0x0f]);
        assert_eq!(r.varint(u64::from(u32::MAX)), Some(u64::from(u32::MAX)));
    }

    #[test]
    fn checked_len_u32_accepts_the_full_u32_range() {
        assert_eq!(checked_len_u32(0, "x").unwrap(), 0);
        assert_eq!(checked_len_u32(1, "x").unwrap(), 1);
        assert_eq!(
            checked_len_u32(u32::MAX as usize, "x").unwrap(),
            u32::MAX,
            "the boundary value itself must pass"
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn checked_len_u32_rejects_overflow_with_context() {
        let err = checked_len_u32(u32::MAX as usize + 1, "transaction count").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let msg = err.to_string();
        assert!(msg.contains("transaction count"), "{msg}");
        assert!(msg.contains("4294967296"), "{msg}");
        // The old `as u32` would have produced 0 here — the wrap this
        // helper exists to prevent.
    }
}
