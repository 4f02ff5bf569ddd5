//! CRC-32 (the IEEE 802.3 / zlib polynomial, reflected form) — the
//! integrity checksum of the on-disk segment format in `tc-store`.
//!
//! Table-driven, **slicing-by-8**: eight bytes per step through eight
//! 256-entry tables, then a bytewise tail for what is left. `TABLES[0]` is
//! the classic one-byte table; `TABLES[k][b]` is the CRC of byte `b`
//! followed by `k` zero bytes, so the eight lookups of a step are
//! independent of each other and only their XOR feeds the next step —
//! where the one-table loop chains every byte through the previous one.
//! Same polynomial, same values for every input. The tables are built at
//! compile time, so the crate keeps its zero-dependency,
//! zero-runtime-setup character; there is no `unsafe` and no CPU feature
//! detection.

const POLY: u32 = 0xEDB8_8320;

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// Incremental CRC-32 hasher, for checksumming discontiguous regions
/// (e.g. a page minus its own checksum field) without copying.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = s ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            s = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            s = TABLES[0][((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
        }
        self.state = s;
    }

    /// Finalizes and returns the checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The one-table, one-byte-per-step CRC-32 the sliced kernel replaced,
    /// kept here as the reference it must agree with on every input.
    fn bytewise(state: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(state, |s, &b| {
            let mut c = (s ^ b as u32) & 0xFF;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            c ^ (s >> 8)
        })
    }

    fn reference(bytes: &[u8]) -> u32 {
        !bytewise(0xFFFF_FFFF, bytes)
    }

    /// Deterministic filler (xorshift64*), so a failure names its input.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        // Lengths 0..=70 cover no word, one to eight whole words and every
        // tail; the start offset moves the words across the buffer's
        // alignment.
        let data = noise(7, 80);
        for start in 0..8 {
            for len in 0..=70 {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), reference(bytes), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn sliced_equals_bytewise_at_every_split_of_an_incremental_feed() {
        let data = noise(11, 70);
        let want = reference(&data);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), want, "split at {split}");
        }
    }

    #[test]
    fn sliced_equals_bytewise_on_random_pages() {
        for seed in 1..=32u64 {
            let page = noise(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), 4096);
            assert_eq!(crc32(&page), reference(&page), "seed {seed}");
            // A segment page is checksummed in two pieces, around its own
            // CRC field.
            let mut h = Crc32::new();
            h.update(&page[..4]);
            h.update(&page[8..]);
            let mut skipped = page[..4].to_vec();
            skipped.extend_from_slice(&page[8..]);
            assert_eq!(h.finish(), reference(&skipped), "seed {seed}, split page");
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in [0, 1, 7, data.len()] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(data), "split at {split}");
        }
    }

    #[test]
    fn sensitive_to_any_bit_flip() {
        let data = b"segment page payload";
        let base = crc32(data);
        let mut copy = data.to_vec();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at {byte}:{bit} undetected");
                copy[byte] ^= 1 << bit;
            }
        }
    }
}
