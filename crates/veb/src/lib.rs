#![warn(missing_docs)]

//! # pardict-veb — van Emde Boas predecessor structure (Lemma 2.5)
//!
//! "A subset of numbers from the universe 1…N can be maintained under
//! insert, delete, extract maximum or minimum and find predecessor or
//! successor queries in O(log log N) time using O(s) space" [vEB77].
//!
//! The §3.2 nearest-colored-ancestor structure keys its real skeleton trees
//! by Euler-tour numbers and answers `Find(p, c)` with one predecessor and
//! one successor query here — that is where the `O(log log n)` query time of
//! the paper's space-efficient variant comes from.
//!
//! This implementation is the classic recursion (`√U` clusters + summary)
//! with lazily allocated clusters held in a hash map, giving the textbook
//! `O(log log U)` time per operation and `O(s log log U)` space for `s`
//! stored keys — matching the lemma's `O(s)` up to the usual hashing
//! indirection.
//!
//! ```
//! use pardict_veb::VebTree;
//!
//! let mut set = VebTree::with_universe(1 << 16);
//! set.insert(100);
//! set.insert(5000);
//! assert_eq!(set.successor(100), Some(5000));
//! assert_eq!(set.predecessor_or_equal(100), Some(100));
//! ```

use std::collections::HashMap;

/// A van Emde Boas tree over the universe `0 .. 2^ubits`.
#[derive(Debug, Clone)]
pub struct VebTree {
    ubits: u32,
    /// Minimum stored key; kept out of the clusters (the vEB trick that
    /// makes insert/delete single-recursion).
    min: Option<u32>,
    max: Option<u32>,
    summary: Option<Box<VebTree>>,
    clusters: HashMap<u32, VebTree>,
    len: usize,
}

impl VebTree {
    /// An empty tree over `0 .. 2^ubits` (1 ≤ ubits ≤ 32).
    #[must_use]
    pub fn new(ubits: u32) -> Self {
        assert!((1..=32).contains(&ubits), "ubits must be in 1..=32");
        Self {
            ubits,
            min: None,
            max: None,
            summary: None,
            clusters: HashMap::new(),
            len: 0,
        }
    }

    /// An empty tree big enough to hold keys `0..universe`.
    #[must_use]
    pub fn with_universe(universe: usize) -> Self {
        let bits = usize::BITS - universe.saturating_sub(1).leading_zeros();
        Self::new(bits.max(1))
    }

    fn high_bits(&self) -> u32 {
        self.ubits - self.ubits / 2
    }

    fn low_bits(&self) -> u32 {
        self.ubits / 2
    }

    fn high(&self, x: u32) -> u32 {
        x >> self.low_bits()
    }

    fn low(&self, x: u32) -> u32 {
        x & ((1u32 << self.low_bits()) - 1)
    }

    fn index(&self, h: u32, l: u32) -> u32 {
        (h << self.low_bits()) | l
    }

    /// Number of stored keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no key is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Smallest stored key.
    #[must_use]
    pub fn min(&self) -> Option<u32> {
        self.min
    }

    /// Largest stored key.
    #[must_use]
    pub fn max(&self) -> Option<u32> {
        self.max
    }

    /// Membership test. O(log log U).
    #[must_use]
    pub fn contains(&self, x: u32) -> bool {
        if Some(x) == self.min || Some(x) == self.max {
            return true;
        }
        if self.ubits == 1 {
            return false;
        }
        self.clusters
            .get(&self.high(x))
            .is_some_and(|c| c.contains(self.low(x)))
    }

    /// Insert `x`; returns true if newly inserted. O(log log U).
    pub fn insert(&mut self, x: u32) -> bool {
        debug_assert!(self.ubits == 32 || x < (1u32 << self.ubits));
        if self.contains(x) {
            return false;
        }
        self.insert_new(x);
        true
    }

    fn insert_new(&mut self, mut x: u32) {
        self.len += 1;
        match self.min {
            None => {
                self.min = Some(x);
                self.max = Some(x);
                return;
            }
            Some(mn) => {
                if x < mn {
                    // Swap: the old min descends into a cluster.
                    self.min = Some(x);
                    x = mn;
                }
            }
        }
        if self.max.is_none_or(|m| x > m) {
            self.max = Some(x);
        }
        if self.ubits == 1 {
            return; // min/max fully describe a 2-element universe
        }
        let (h, l) = (self.high(x), self.low(x));
        let low_bits = self.low_bits();
        let high_bits = self.high_bits();
        let cluster = self
            .clusters
            .entry(h)
            .or_insert_with(|| VebTree::new(low_bits));
        if cluster.is_empty() {
            self.summary
                .get_or_insert_with(|| Box::new(VebTree::new(high_bits)))
                .insert(h);
        }
        cluster.insert_new(l);
    }

    /// Remove `x`; returns true if it was present. O(log log U).
    pub fn remove(&mut self, x: u32) -> bool {
        if !self.contains(x) {
            return false;
        }
        self.remove_present(x);
        true
    }

    fn remove_present(&mut self, mut x: u32) {
        self.len -= 1;
        if self.len == 0 {
            self.min = None;
            self.max = None;
            return;
        }
        if self.ubits == 1 {
            // Two keys were present (0 and 1); drop x.
            let other = 1 - x;
            self.min = Some(other);
            self.max = Some(other);
            return;
        }
        if Some(x) == self.min {
            // Pull the new minimum out of the clusters.
            let h = self
                .summary
                .as_ref()
                .and_then(|s| s.min())
                .expect("len > 0 means a cluster is non-empty");
            let l = self.clusters[&h].min().expect("summary tracks non-empty");
            let new_min = self.index(h, l);
            self.min = Some(new_min);
            x = new_min; // now delete it from the cluster below
        }
        let (h, l) = (self.high(x), self.low(x));
        let cluster = self.clusters.get_mut(&h).expect("present key has cluster");
        cluster.remove_present(l);
        if cluster.is_empty() {
            self.clusters.remove(&h);
            if let Some(s) = self.summary.as_mut() {
                s.remove(h);
                if s.is_empty() {
                    self.summary = None;
                }
            }
        }
        if Some(x) == self.max {
            // Recompute max from the highest remaining cluster.
            match self.summary.as_ref().and_then(|s| s.max()) {
                Some(h) => {
                    let l = self.clusters[&h].max().expect("non-empty");
                    self.max = Some(self.index(h, l));
                }
                None => self.max = self.min,
            }
        }
    }

    /// Smallest stored key strictly greater than `x`. O(log log U).
    #[must_use]
    pub fn successor(&self, x: u32) -> Option<u32> {
        if self.ubits == 1 {
            return match (x, self.max) {
                (0, Some(1)) => {
                    if self.contains(1) {
                        Some(1)
                    } else {
                        None
                    }
                }
                _ => None,
            };
        }
        if let Some(mn) = self.min {
            if x < mn {
                return Some(mn);
            }
        }
        let (h, l) = (self.high(x), self.low(x));
        // Inside x's own cluster?
        if let Some(c) = self.clusters.get(&h) {
            if c.max().is_some_and(|m| l < m) {
                let l2 = c.successor(l).expect("max > l implies successor");
                return Some(self.index(h, l2));
            }
        }
        // Otherwise: first key of the next non-empty cluster.
        let h2 = self.summary.as_ref()?.successor(h)?;
        let l2 = self.clusters[&h2].min().expect("summary tracks non-empty");
        Some(self.index(h2, l2))
    }

    /// Largest stored key strictly smaller than `x`. O(log log U).
    #[must_use]
    pub fn predecessor(&self, x: u32) -> Option<u32> {
        if let Some(mx) = self.max {
            if x > mx {
                return Some(mx);
            }
        }
        if self.ubits == 1 {
            return match (x, self.min) {
                (1, Some(0)) => Some(0),
                _ => None,
            };
        }
        let (h, l) = (self.high(x), self.low(x));
        if let Some(c) = self.clusters.get(&h) {
            if c.min().is_some_and(|m| l > m) {
                let l2 = c.predecessor(l).expect("min < l implies predecessor");
                return Some(self.index(h, l2));
            }
        }
        match self.summary.as_ref().and_then(|s| s.predecessor(h)) {
            Some(h2) => {
                let l2 = self.clusters[&h2].max().expect("non-empty");
                Some(self.index(h2, l2))
            }
            None => {
                // Only the (cluster-less) minimum can precede x.
                match self.min {
                    Some(mn) if mn < x => Some(mn),
                    _ => None,
                }
            }
        }
    }

    /// Largest stored key `<= x`. O(log log U).
    #[must_use]
    pub fn predecessor_or_equal(&self, x: u32) -> Option<u32> {
        if self.contains(x) {
            Some(x)
        } else {
            self.predecessor(x)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn basic_insert_query() {
        let mut v = VebTree::new(8);
        assert!(v.insert(5));
        assert!(v.insert(200));
        assert!(v.insert(0));
        assert!(!v.insert(5));
        assert_eq!(v.len(), 3);
        assert!(v.contains(5));
        assert!(!v.contains(6));
        assert_eq!(v.min(), Some(0));
        assert_eq!(v.max(), Some(200));
        assert_eq!(v.successor(5), Some(200));
        assert_eq!(v.predecessor(5), Some(0));
        assert_eq!(v.successor(200), None);
        assert_eq!(v.predecessor(0), None);
    }

    #[test]
    fn remove_keeps_min_and_max() {
        let mut v = VebTree::new(10);
        for x in [4u32, 8, 15, 16, 23, 42] {
            v.insert(x);
        }
        assert!(v.remove(15));
        assert!(!v.remove(15));
        assert_eq!(v.successor(8), Some(16));
        assert!(v.remove(4) && v.remove(42));
        assert_eq!(v.min(), Some(8));
        assert_eq!(v.max(), Some(23));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn tiny_universe() {
        let mut v = VebTree::new(1);
        assert!(v.insert(0));
        assert!(v.insert(1));
        assert_eq!(v.successor(0), Some(1));
        assert_eq!(v.predecessor(1), Some(0));
        assert!(v.remove(0));
        assert_eq!(v.min(), Some(1));
        assert_eq!(v.successor(0), Some(1));
        assert!(v.remove(1));
        assert!(v.is_empty());
    }

    #[test]
    fn matches_btreeset_randomized() {
        use pardict_pram_testutil::SplitMix64;
        let mut rng = SplitMix64::new(99);
        let mut veb = VebTree::new(16);
        let mut set: BTreeSet<u32> = BTreeSet::new();
        for step in 0..20_000u32 {
            let x = rng.next_below(1 << 16) as u32;
            match step % 4 {
                0 | 1 => {
                    assert_eq!(veb.insert(x), set.insert(x));
                }
                2 => {
                    assert_eq!(veb.remove(x), set.remove(&x));
                }
                _ => {
                    assert_eq!(veb.contains(x), set.contains(&x));
                    assert_eq!(
                        veb.successor(x),
                        set.range(x + 1..).next().copied(),
                        "succ of {x}"
                    );
                    assert_eq!(
                        veb.predecessor(x),
                        set.range(..x).next_back().copied(),
                        "pred of {x}"
                    );
                }
            }
            assert_eq!(veb.len(), set.len());
            assert_eq!(veb.min(), set.first().copied());
            assert_eq!(veb.max(), set.last().copied());
        }
    }

    #[test]
    fn with_universe_sizes() {
        let v = VebTree::with_universe(1);
        assert_eq!(v.ubits, 1);
        let v = VebTree::with_universe(2);
        assert_eq!(v.ubits, 1);
        let v = VebTree::with_universe(3);
        assert_eq!(v.ubits, 2);
        let v = VebTree::with_universe(1 << 20);
        assert_eq!(v.ubits, 20);
        let mut v = VebTree::with_universe(1000);
        v.insert(999);
        assert!(v.contains(999));
    }

    #[test]
    fn predecessor_or_equal() {
        let mut v = VebTree::new(8);
        v.insert(10);
        v.insert(20);
        assert_eq!(v.predecessor_or_equal(10), Some(10));
        assert_eq!(v.predecessor_or_equal(15), Some(10));
        assert_eq!(v.predecessor_or_equal(9), None);
    }

    /// Local copy of SplitMix64 to avoid a dev-dependency cycle.
    mod pardict_pram_testutil {
        pub struct SplitMix64 {
            state: u64,
        }
        impl SplitMix64 {
            pub fn new(seed: u64) -> Self {
                Self { state: seed }
            }
            pub fn next_u64(&mut self) -> u64 {
                self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
            pub fn next_below(&mut self, bound: u64) -> u64 {
                ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Scripted operations against a BTreeSet model.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32),
        Remove(u32),
        Succ(u32),
        Pred(u32),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..512).prop_map(Op::Insert),
            (0u32..512).prop_map(Op::Remove),
            (0u32..512).prop_map(Op::Succ),
            (0u32..512).prop_map(Op::Pred),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn veb_behaves_like_btreeset(ops in prop::collection::vec(op_strategy(), 1..300)) {
            let mut veb = VebTree::new(9);
            let mut model: BTreeSet<u32> = BTreeSet::new();
            for op in ops {
                match op {
                    Op::Insert(x) => prop_assert_eq!(veb.insert(x), model.insert(x)),
                    Op::Remove(x) => prop_assert_eq!(veb.remove(x), model.remove(&x)),
                    Op::Succ(x) => prop_assert_eq!(
                        veb.successor(x),
                        model.range(x + 1..).next().copied()
                    ),
                    Op::Pred(x) => prop_assert_eq!(
                        veb.predecessor(x),
                        model.range(..x).next_back().copied()
                    ),
                }
                prop_assert_eq!(veb.len(), model.len());
                prop_assert_eq!(veb.min(), model.first().copied());
                prop_assert_eq!(veb.max(), model.last().copied());
            }
        }
    }
}
