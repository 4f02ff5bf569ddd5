//! Transaction databases in vertical (tidset) form.
//!
//! A transaction database `d = {t_1, …, t_h}` is a multi-set of itemsets
//! (§3.1). We store it *vertically*: for each item, the bitset of
//! transaction ids containing it. The frequency of a pattern is then the
//! popcount of a bitset intersection divided by `h` — the representation
//! Eclat made standard, and the reason arbitrary-length pattern frequencies
//! stay cheap inside the miners.

use crate::item::Item;
use crate::pattern::Pattern;
use tc_util::{BitSet, FxHashMap, HeapSize};

/// A vertex's transaction database.
#[derive(Debug, Clone, Default)]
pub struct TransactionDb {
    /// `h` — number of transactions (a multi-set: duplicates count).
    num_transactions: usize,
    /// Vertical representation: item → tidset.
    tidsets: FxHashMap<Item, BitSet>,
    /// Total item occurrences across transactions (for Table 2 stats).
    total_item_occurrences: usize,
}

impl TransactionDb {
    /// An empty database (`h = 0`; every frequency is 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from horizontal transactions. Duplicate items within one
    /// transaction are counted once (transactions are itemsets).
    pub fn from_transactions<T, I>(transactions: T) -> Self
    where
        T: IntoIterator<Item = I>,
        I: IntoIterator<Item = Item>,
    {
        let mut builder = TransactionDbBuilder::new();
        for t in transactions {
            builder.add_transaction(t);
        }
        builder.build()
    }

    /// `h`: the number of transactions.
    #[inline]
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// Number of distinct items occurring in this database.
    pub fn num_distinct_items(&self) -> usize {
        self.tidsets.len()
    }

    /// Total item occurrences (each transaction's distinct items summed) —
    /// the paper's Table 2 "#Items (total)" statistic.
    pub fn total_item_occurrences(&self) -> usize {
        self.total_item_occurrences
    }

    /// Distinct items of this database, in arbitrary order.
    pub fn items(&self) -> impl Iterator<Item = Item> + '_ {
        self.tidsets.keys().copied()
    }

    /// Absolute support of a single item: `|{t : item ∈ t}|`.
    pub fn item_support(&self, item: Item) -> usize {
        self.tidsets.get(&item).map_or(0, BitSet::count)
    }

    /// Frequency of a single item (`support / h`; 0 when `h = 0`).
    pub fn item_frequency(&self, item: Item) -> f64 {
        if self.num_transactions == 0 {
            return 0.0;
        }
        self.item_support(item) as f64 / self.num_transactions as f64
    }

    /// The tidset of an item, if present.
    pub fn tidset(&self, item: Item) -> Option<&BitSet> {
        self.tidsets.get(&item)
    }

    /// Reconstructs the horizontal transactions from the vertical tidsets,
    /// in canonical form: transactions in tid order, items within each
    /// transaction sorted ascending.
    ///
    /// Every persistence format (text, segment, WAL replay) writes
    /// transactions through this one reconstruction, which is what makes a
    /// save a pure function of the database content — the byte-identity
    /// property the round-trip and checkpoint tests rely on.
    pub fn transactions(&self) -> Vec<Vec<Item>> {
        let mut transactions = vec![Vec::new(); self.num_transactions];
        let mut items: Vec<Item> = self.items().collect();
        items.sort_unstable();
        for item in items {
            if let Some(tidset) = self.tidsets.get(&item) {
                for tid in tidset.iter() {
                    transactions[tid].push(item);
                }
            }
        }
        transactions
    }

    /// Absolute support of a pattern: number of transactions containing
    /// **all** of its items. The empty pattern is contained in every
    /// transaction.
    pub fn support(&self, pattern: &Pattern) -> usize {
        match pattern.len() {
            0 => self.num_transactions,
            1 => self.item_support(pattern.items()[0]),
            2 => {
                let a = self.tidsets.get(&pattern.items()[0]);
                let b = self.tidsets.get(&pattern.items()[1]);
                match (a, b) {
                    (Some(a), Some(b)) => a.intersection_count(b),
                    _ => 0,
                }
            }
            _ => {
                // A k-way AND-popcount over the tidsets' words, a chunk of
                // words at a time on the stack: no tidset is copied.
                const CHUNK: usize = 8;
                let words = self.num_transactions.div_ceil(64);
                let mut support = 0;
                for start in (0..words).step_by(CHUNK) {
                    let end = (start + CHUNK).min(words);
                    let mut acc = [u64::MAX; CHUNK];
                    let acc = &mut acc[..end - start];
                    for item in pattern.iter() {
                        let Some(set) = self.tidsets.get(&item) else {
                            return 0;
                        };
                        for (a, w) in acc.iter_mut().zip(&set.words()[start..end]) {
                            *a &= w;
                        }
                    }
                    support += acc.iter().map(|w| w.count_ones() as usize).sum::<usize>();
                }
                support
            }
        }
    }

    /// `f_i(p)`: frequency of `pattern` — the proportion of transactions
    /// containing it (0 when `h = 0`).
    pub fn frequency(&self, pattern: &Pattern) -> f64 {
        if self.num_transactions == 0 {
            return 0.0;
        }
        self.support(pattern) as f64 / self.num_transactions as f64
    }
}

impl HeapSize for TransactionDb {
    fn heap_size(&self) -> usize {
        self.tidsets.heap_size()
    }
}

/// Incremental builder for [`TransactionDb`].
///
/// Collects horizontal transactions, then freezes them into tidsets sized to
/// the final transaction count.
#[derive(Debug, Clone, Default)]
pub struct TransactionDbBuilder {
    /// item → transaction ids (deferred; bitsets need the final `h`).
    postings: FxHashMap<Item, Vec<u32>>,
    num_transactions: usize,
    total_item_occurrences: usize,
}

impl TransactionDbBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one transaction (an itemset; duplicate items collapse).
    pub fn add_transaction(&mut self, items: impl IntoIterator<Item = Item>) -> &mut Self {
        let tid = self.num_transactions as u32;
        self.num_transactions += 1;
        let mut seen: Vec<Item> = items.into_iter().collect();
        seen.sort_unstable();
        seen.dedup();
        self.total_item_occurrences += seen.len();
        for item in seen {
            self.postings.entry(item).or_default().push(tid);
        }
        self
    }

    /// Number of transactions added so far.
    pub fn len(&self) -> usize {
        self.num_transactions
    }

    /// `true` when no transaction was added.
    pub fn is_empty(&self) -> bool {
        self.num_transactions == 0
    }

    /// Freezes into a [`TransactionDb`].
    pub fn build(self) -> TransactionDb {
        let h = self.num_transactions;
        let tidsets = self
            .postings
            .into_iter()
            .map(|(item, tids)| {
                let set = BitSet::from_iter(h, tids.into_iter().map(|t| t as usize));
                (item, set)
            })
            .collect();
        TransactionDb {
            num_transactions: h,
            tidsets,
            total_item_occurrences: self.total_item_occurrences,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(ids: &[u32]) -> Vec<Item> {
        ids.iter().map(|&i| Item(i)).collect()
    }

    fn pat(ids: &[u32]) -> Pattern {
        Pattern::new(items(ids))
    }

    /// The running example: 10 transactions over items {0,1,2}.
    fn sample_db() -> TransactionDb {
        TransactionDb::from_transactions([
            items(&[0, 1]),
            items(&[0, 1]),
            items(&[0, 1, 2]),
            items(&[0]),
            items(&[1]),
            items(&[2]),
            items(&[0, 2]),
            items(&[0, 1]),
            items(&[1, 2]),
            items(&[0, 1, 2]),
        ])
    }

    #[test]
    fn transaction_count() {
        assert_eq!(sample_db().num_transactions(), 10);
    }

    #[test]
    fn single_item_support_and_frequency() {
        let db = sample_db();
        assert_eq!(db.item_support(Item(0)), 7);
        assert_eq!(db.item_support(Item(1)), 7);
        assert_eq!(db.item_support(Item(2)), 5);
        assert!((db.item_frequency(Item(0)) - 0.7).abs() < 1e-12);
        assert_eq!(db.item_support(Item(9)), 0);
        assert_eq!(db.item_frequency(Item(9)), 0.0);
    }

    #[test]
    fn pair_support() {
        let db = sample_db();
        assert_eq!(db.support(&pat(&[0, 1])), 5);
        assert_eq!(db.support(&pat(&[0, 2])), 3);
        assert_eq!(db.support(&pat(&[1, 2])), 3);
    }

    #[test]
    fn triple_support() {
        let db = sample_db();
        assert_eq!(db.support(&pat(&[0, 1, 2])), 2);
        assert!((db.frequency(&pat(&[0, 1, 2])) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn long_pattern_support_over_many_words() {
        // 1 100 transactions (18 words: two full chunks and a short one);
        // transaction t holds item i when t is divisible by i + 2.
        let db = TransactionDb::from_transactions((0..1100u32).map(|t| {
            (0..5)
                .filter(|i| t % (i + 2) == 0)
                .map(Item)
                .collect::<Vec<_>>()
        }));
        for ids in [&[0, 1, 2][..], &[0, 2, 4], &[1, 2, 3, 4], &[0, 1, 2, 3, 4]] {
            let want = (0..1100u32)
                .filter(|t| ids.iter().all(|i| t % (i + 2) == 0))
                .count();
            assert_eq!(db.support(&pat(ids)), want, "{ids:?}");
        }
        assert_eq!(db.support(&pat(&[0, 1, 99])), 0);
    }

    #[test]
    fn empty_pattern_in_every_transaction() {
        let db = sample_db();
        assert_eq!(db.support(&Pattern::empty()), 10);
        assert_eq!(db.frequency(&Pattern::empty()), 1.0);
    }

    #[test]
    fn missing_item_zeroes_pattern() {
        let db = sample_db();
        assert_eq!(db.support(&pat(&[0, 99])), 0);
        assert_eq!(db.frequency(&pat(&[0, 99])), 0.0);
    }

    #[test]
    fn empty_db() {
        let db = TransactionDb::new();
        assert_eq!(db.num_transactions(), 0);
        assert_eq!(db.frequency(&pat(&[1])), 0.0);
        assert_eq!(db.support(&Pattern::empty()), 0);
        assert_eq!(db.num_distinct_items(), 0);
    }

    #[test]
    fn duplicate_items_in_transaction_collapse() {
        let db = TransactionDb::from_transactions([items(&[1, 1, 1])]);
        assert_eq!(db.item_support(Item(1)), 1);
        assert_eq!(db.total_item_occurrences(), 1);
    }

    #[test]
    fn duplicate_transactions_count_separately() {
        // A transaction database is a multi-set (§3.1).
        let db = TransactionDb::from_transactions([items(&[1]), items(&[1])]);
        assert_eq!(db.num_transactions(), 2);
        assert_eq!(db.item_support(Item(1)), 2);
        assert_eq!(db.item_frequency(Item(1)), 1.0);
    }

    #[test]
    fn frequency_anti_monotone_in_pattern() {
        // f(p1) >= f(p2) whenever p1 ⊆ p2 — the classic anti-monotonicity
        // the paper's Theorem 5.1 builds on.
        let db = sample_db();
        let p01 = pat(&[0, 1]);
        let p012 = pat(&[0, 1, 2]);
        assert!(db.frequency(&pat(&[0])) >= db.frequency(&p01));
        assert!(db.frequency(&p01) >= db.frequency(&p012));
    }

    #[test]
    fn stats() {
        let db = sample_db();
        assert_eq!(db.num_distinct_items(), 3);
        assert_eq!(db.total_item_occurrences(), 7 + 7 + 5);
        let mut seen: Vec<u32> = db.items().map(|i| i.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn builder_incremental() {
        let mut b = TransactionDbBuilder::new();
        assert!(b.is_empty());
        b.add_transaction(items(&[5, 6]));
        b.add_transaction(items(&[5]));
        assert_eq!(b.len(), 2);
        let db = b.build();
        assert_eq!(db.item_support(Item(5)), 2);
        assert_eq!(db.item_support(Item(6)), 1);
    }

    #[test]
    fn transactions_reconstruct_canonically() {
        let db = sample_db();
        let txs = db.transactions();
        assert_eq!(txs.len(), db.num_transactions());
        // tid order matches insertion, items sorted within each.
        assert_eq!(txs[0], items(&[0, 1]));
        assert_eq!(txs[2], items(&[0, 1, 2]));
        assert_eq!(txs[5], items(&[2]));
        for t in &txs {
            assert!(t.windows(2).all(|w| w[0] < w[1]), "unsorted {t:?}");
        }
        // Rebuilding from the reconstruction is a fixed point.
        let rebuilt = TransactionDb::from_transactions(txs.clone());
        assert_eq!(rebuilt.transactions(), txs);
        assert_eq!(rebuilt.num_transactions(), db.num_transactions());
    }

    #[test]
    fn tidset_access() {
        let db = sample_db();
        let ts = db.tidset(Item(2)).unwrap();
        assert_eq!(ts.iter().collect::<Vec<_>>(), vec![2, 5, 6, 8, 9]);
        assert!(db.tidset(Item(42)).is_none());
    }
}
