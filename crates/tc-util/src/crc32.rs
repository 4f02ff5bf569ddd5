//! CRC-32 (the IEEE 802.3 / zlib polynomial, reflected form) — the
//! integrity checksum of the on-disk segment format in `tc-store`, and of
//! its WAL and shard-map frames.
//!
//! Two kernels compute the same value:
//!
//! - **The table kernel** (every target): **slicing-by-8**, eight bytes
//!   per step through eight 256-entry tables, then a bytewise tail.
//!   `TABLES[0]` is the classic one-byte table; `TABLES[k][b]` is the CRC
//!   of byte `b` followed by `k` zero bytes, so the eight lookups of a
//!   step are independent of each other and only their XOR feeds the next
//!   step. The tables are built at compile time.
//! - **The fold kernel** (`x86_64` with PCLMULQDQ and SSE4.1): folding
//!   with carry-less multiplies (Gopal et al., Intel, *Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction*,
//!   2009). Four 128-bit lanes fold 64 bytes per step, then fold into one
//!   lane, which folds 16 bytes per step; a Barrett step reduces the lane
//!   128 → 64 → 32 bits. Its constants are powers of `x` modulo the
//!   polynomial, bit-reflected (the tests recompute them from `POLY`).
//!
//! [`Crc32::update`] picks the fold kernel at run time, when the CPU has
//! the features (`std::is_x86_feature_detected!`) and the input is at
//! least `FOLD_MIN` bytes; everything else — other targets, other CPUs,
//! short inputs, and the < 16-byte tail the fold leaves — goes through
//! the table. The table stays because it is the only kernel that runs
//! everywhere and the faster one on short inputs, where the fold's
//! reduction costs more than it saves. The `unsafe` here is confined to
//! the fold kernel: its lane loads, and the one call that crosses into
//! its `#[target_feature]` code after the feature check.

const POLY: u32 = 0xEDB8_8320;

/// Shortest input the fold kernel takes; shorter ones go through the table.
const FOLD_MIN: usize = 128;

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
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= FOLD_MIN && fold::available() {
            // SAFETY: `fold::available()` has just checked that this CPU
            // has PCLMULQDQ and SSE4.1, the features `fold::update` is
            // compiled for.
            self.state = unsafe { fold::update(self.state, bytes) };
            return;
        }
        self.state = table_update(self.state, bytes);
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

/// The table kernel: advances the CRC register `s` over `bytes`.
fn table_update(mut s: u32, bytes: &[u8]) -> u32 {
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
    s
}

/// The fold kernel. Each constant is `x^n mod P(x)`, bit-reflected and
/// shifted left by one (33 bits), for the fold distance named beside it;
/// `P′` is the reflected polynomial and `μ′` the reflected Barrett
/// quotient `⌊x^64 / P(x)⌋`.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^(4·128+32)`: folds a lane's low half 512 bits forward.
    pub(super) const K1: i64 = 0x1_5444_2bd4;
    /// `x^(4·128−32)`: folds a lane's high half 512 bits forward.
    pub(super) const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32)`: folds a lane's low half 128 bits forward.
    pub(super) const K3: i64 = 0x1_7519_97d0;
    /// `x^(128−32)`: folds a lane's high half 128 bits forward.
    pub(super) const K4: i64 = 0x0_ccaa_009e;
    /// `x^64`: the 64 → 32-bit fold.
    pub(super) const K5: i64 = 0x1_63cd_6124;
    /// `P′`: the polynomial, reflected over 33 bits.
    pub(super) const P: i64 = 0x1_DB71_0641;
    /// `μ′`: the Barrett quotient, reflected over 33 bits.
    pub(super) const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU runs [`update`].
    pub(super) fn available() -> bool {
        std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1")
    }

    fn load(lane: &[u8; 16]) -> __m128i {
        // SAFETY: `lane` is 16 readable bytes, and `loadu` (SSE2, part of
        // the x86_64 baseline) has no alignment requirement.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// `x` carried 128 bits (`k = k3k4`) or 512 bits (`k = k1k2`) forward
    /// onto `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_onto(x: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the CRC register `state` over `bytes`: the whole 16-byte
    /// lanes by folding, once there are at least four, and the rest by
    /// the table.
    ///
    /// # Safety
    ///
    /// Outside code compiled for these features, call only where
    /// [`available`] returned `true`: on a CPU without them, running
    /// the instructions is undefined behaviour.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, bytes: &[u8]) -> u32 {
        let (lanes, tail) = bytes.as_chunks::<16>();
        if lanes.len() < 4 {
            return super::table_update(state, bytes);
        }
        let (first, rest) = lanes.split_at(4);
        let mut x = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(4);
        for block in &mut blocks {
            for (x, lane) in x.iter_mut().zip(block) {
                *x = fold_onto(*x, load(lane), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_onto(x[0], x[1], k3k4);
        acc = fold_onto(acc, x[2], k3k4);
        acc = fold_onto(acc, x[3], k3k4);
        for lane in blocks.remainder() {
            acc = fold_onto(acc, load(lane), k3k4);
        }

        // 128 → 64 bits: the low half folds onto the high one.
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        // 64 → 32 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett: the quotient by μ′, then its multiple of P′ cancels
        // all but the 32-bit remainder.
        let pmu = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pmu, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, low32), pmu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(acc, qp), 1) as u32;
        super::table_update(crc, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A kernel under test: advances a CRC register over bytes.
    type Kernel = fn(u32, &[u8]) -> u32;

    #[cfg(target_arch = "x86_64")]
    fn fold_kernel(state: u32, bytes: &[u8]) -> u32 {
        assert!(fold::available(), "this x86_64 CPU lacks PCLMULQDQ/SSE4.1");
        // SAFETY: the assertion above checked the features `fold::update`
        // is compiled for.
        unsafe { fold::update(state, bytes) }
    }

    /// Every kernel this target has, each called directly: the fold
    /// kernel is tested whatever `update`'s length threshold.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![("table", table_update)];
        #[cfg(target_arch = "x86_64")]
        all.push(("fold", fold_kernel));
        all
    }

    /// On `x86_64` the fold kernel must run here, so a host without it
    /// fails this suite instead of leaving the kernel untested.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_kernel_runs_on_this_host() {
        assert!(
            fold::available(),
            "x86_64 host without PCLMULQDQ/SSE4.1: the fold kernel would go untested"
        );
    }

    /// `x^n mod P(x)` in the reflected domain: bit 31 holds `x^0`.
    fn x_pow_mod(n: u32) -> u32 {
        (0..n).fold(0x8000_0000, |r, _| {
            if r & 1 != 0 {
                (r >> 1) ^ POLY
            } else {
                r >> 1
            }
        })
    }

    /// The quotient `⌊x^64 / P(x)⌋` by carry-less long division, in the
    /// normal (unreflected) domain.
    fn barrett_quotient() -> u64 {
        let p = (1u64 << 32) | u64::from(POLY.reverse_bits());
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        for shift in (0..=32).rev() {
            if rem >> (shift + 32) & 1 != 0 {
                rem ^= u128::from(p) << shift;
                quot |= 1 << shift;
            }
        }
        quot
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_powers_of_x_mod_poly() {
        let k = |n| i64::from(x_pow_mod(n)) << 1;
        assert_eq!(fold::K1, k(4 * 128 + 32), "k1");
        assert_eq!(fold::K2, k(4 * 128 - 32), "k2");
        assert_eq!(fold::K3, k(128 + 32), "k3");
        assert_eq!(fold::K4, k(128 - 32), "k4");
        assert_eq!(fold::K5, k(64), "k5");
        // Reflecting over 33 bits: reverse the 64-bit word, keep the top 33.
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        let p = (1u64 << 32) | u64::from(POLY.reverse_bits());
        assert_eq!(fold::P, reflect33(p), "P′");
        assert_eq!(fold::MU, reflect33(barrett_quotient()), "μ′");
    }

    #[test]
    fn known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Long enough for the fold: 128 × "a", and a 4 KiB zero page.
        assert_eq!(crc32(&[b'a'; 128]), reference(&[b'a'; 128]));
        for (name, kernel) in kernels() {
            let run = |bytes: &[u8]| !kernel(0xFFFF_FFFF, bytes);
            assert_eq!(run(b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(run(b""), 0, "{name}");
            assert_eq!(run(&[0; 4096]), reference(&[0; 4096]), "{name}");
            let fox = b"The quick brown fox jumps over the lazy dog. ".repeat(3);
            assert_eq!(run(&fox), reference(&fox), "{name}");
        }
    }

    /// The one-table, one-byte-per-step CRC-32, kept here as the
    /// reference every kernel must agree with on every input.
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
        // Lengths 0..=1 100 cover no lane, every lane count up to 68,
        // every remainder of the four-lane loop and every tail; the start
        // offset moves the lanes across the buffer's alignment.
        let data = noise(7, 1_100 + 16);
        for start in 0..16 {
            for len in 0..=1_100 {
                let bytes = &data[start..start + len];
                let want = bytewise(0xFFFF_FFFF, bytes);
                for (name, kernel) in kernels() {
                    assert_eq!(
                        kernel(0xFFFF_FFFF, bytes),
                        want,
                        "{name}: start {start}, len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn sliced_equals_bytewise_at_every_split_of_an_incremental_feed() {
        let data = noise(11, 300);
        let want = bytewise(0xFFFF_FFFF, &data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            for (name, kernel) in kernels() {
                assert_eq!(
                    kernel(kernel(0xFFFF_FFFF, a), b),
                    want,
                    "{name}: split at {split}"
                );
            }
            let mut h = Crc32::new();
            h.update(a);
            h.update(b);
            assert_eq!(h.finish(), !want, "update: split at {split}");
        }
    }

    #[test]
    fn sliced_equals_bytewise_on_random_pages() {
        for seed in 1..=64u64 {
            let page = noise(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), 4096);
            // A segment page is checksummed in two pieces, around its own
            // CRC field.
            let mut skipped = page[..4].to_vec();
            skipped.extend_from_slice(&page[8..]);
            let (whole, split) = (reference(&page), reference(&skipped));
            for (name, kernel) in kernels() {
                assert_eq!(!kernel(!0, &page), whole, "{name}: seed {seed}");
                let s = kernel(kernel(!0, &page[..4]), &page[8..]);
                assert_eq!(!s, split, "{name}: seed {seed}, split page");
            }
            assert_eq!(crc32(&page), whole, "update: seed {seed}");
            let mut h = Crc32::new();
            h.update(&page[..4]);
            h.update(&page[8..]);
            assert_eq!(h.finish(), split, "update: seed {seed}, split page");
        }
    }

    /// Prints each kernel's throughput on 4 KiB pages: a report, not a
    /// gate (`cargo test -p tc-util --release --lib crc32 -- --nocapture`).
    #[test]
    fn kernel_throughput_report() {
        let page = noise(3, 4096);
        let rounds = 2_000;
        for (name, kernel) in kernels() {
            let start = std::time::Instant::now();
            let s = (0..rounds).fold(!0, |s, _| kernel(s, &page));
            let secs = start.elapsed().as_secs_f64();
            let mb = (rounds * page.len()) as f64 / 1e6;
            println!("crc32 {name} kernel: {:.0} MB/s on 4 KiB pages", mb / secs);
            std::hint::black_box(s);
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
