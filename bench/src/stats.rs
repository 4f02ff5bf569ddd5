//! Order statistics over latency samples, and the harness's own RNG.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The value a quarter of the way in from the better end of an unsorted
/// sample (nearest rank): of four the best, of eight the second best. A
/// disturbed unit (see `pin::Timed`) ranks behind every undisturbed one.
///
/// The harness repeats every measurement in short units spread over the
/// whole run and reports this, not the median. On the shared sandbox the
/// program only ever loses time to its neighbours, in bursts of seconds and
/// in moods of minutes; the units the neighbours left alone are the ones
/// that say what the code costs, and they repeat from run to run where the
/// median unit follows the neighbours. A quarter in, not the very best, so
/// that one freak unit does not set the figure.
pub fn best_quarter(units: &[(f64, bool)], better: Better) -> f64 {
    let mut v = units.to_vec();
    v.sort_unstable_by(|(a, a_disturbed), (b, b_disturbed)| {
        let by_value = match better {
            Better::Lower => a.total_cmp(b),
            Better::Higher => b.total_cmp(a),
        };
        a_disturbed.cmp(b_disturbed).then(by_value)
    });
    assert!(!v.is_empty(), "best quarter of no samples");
    v[v.len().div_ceil(4) - 1].0
}

/// SplitMix64: the harness's only randomness. Written here, not taken from
/// `vendor/rand`, so the request streams are pinned by this file alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2^-40 for pool sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_fixtures() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn best_quarter_fixtures() {
        let mut eight = [5.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0].map(|v| (v, false));
        assert_eq!(best_quarter(&eight, Better::Lower), 2.0);
        assert_eq!(best_quarter(&eight, Better::Higher), 7.0);
        assert_eq!(best_quarter(&eight[..4], Better::Lower), 1.0);
        assert_eq!(best_quarter(&eight[..5], Better::Lower), 2.0);
        assert_eq!(best_quarter(&eight[..5], Better::Higher), 7.0);
        assert_eq!(best_quarter(&[(9.0, true)], Better::Higher), 9.0);
        // Disturbed units rank last, whatever they read.
        eight[1].1 = true;
        eight[3].1 = true;
        assert_eq!(best_quarter(&eight, Better::Lower), 4.0);
        eight.iter_mut().for_each(|u| u.1 = !u.1);
        assert_eq!(best_quarter(&eight, Better::Lower), 2.0);
    }

    #[test]
    fn rng_is_pinned() {
        let mut r = Rng::new(1);
        assert_eq!(r.next_u64(), 0x910A_2DEC_8902_5CC1);
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        assert!((0..1000).all(|_| a.below(10) < 10 && (0.0..1.0).contains(&a.unit())));
        let mut p: Vec<u32> = (0..100).collect();
        a.shuffle(&mut p);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<u32>>());
    }
}
