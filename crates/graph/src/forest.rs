//! Parent-array forests with CSR child adjacency.

use pardict_pram::{radix_sort_by_key, Pram};

/// A rooted forest over nodes `0..n`, stored as a parent array
/// (`parent[r] == r` for roots) plus a CSR child table built with one stable
/// counting-sort round (children of each node appear in increasing id
/// order, which downstream code relies on for determinism).
#[derive(Debug, Clone)]
pub struct Forest {
    parent: Vec<usize>,
    child_off: Vec<usize>,
    child: Vec<usize>,
}

impl Forest {
    /// Build from a parent array. `O(n)` work, `O(log n)` depth.
    ///
    /// # Panics
    /// Panics if `parent` contains an out-of-range entry. Cycles are not
    /// detected (they would make the Euler tour loop): every caller's
    /// parent array is acyclic by construction, and LZ1 copy sources are
    /// checked to point strictly earlier when their tokens are decoded.
    #[must_use]
    pub fn from_parents(pram: &Pram, parent: &[usize]) -> Self {
        let n = parent.len();
        assert!(parent.iter().all(|&p| p < n), "parent index out of range");
        // Stable sort node ids by parent: children end up contiguous per
        // parent and in increasing id order.
        let nonroots: Vec<usize> = pram.filter(&(0..n).collect::<Vec<_>>(), |_, &v| parent[v] != v);
        // Radix sort (8-bit passes) keeps depth logarithmic; a single
        // counting sort with n buckets would charge O(n) depth.
        let sorted = if n == 0 {
            Vec::new()
        } else {
            radix_sort_by_key(pram, &nonroots, |&v| parent[v] as u64)
        };
        // Bucket offsets: count children per node, then exclusive scan.
        let ones: Vec<u64> = pram.tabulate(n, |_| 0u64);
        let mut counts = ones;
        pram.ledger().round(sorted.len() as u64);
        for &v in &sorted {
            counts[parent[v]] += 1;
        }
        let off64 = pram.scan_exclusive_sum(&counts);
        let mut child_off: Vec<usize> = off64.iter().map(|&x| x as usize).collect();
        child_off.push(sorted.len());
        Self {
            parent: parent.to_vec(),
            child_off,
            child: sorted,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True for the empty forest.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent of `v` (`v` itself when `v` is a root).
    #[must_use]
    pub fn parent(&self, v: usize) -> usize {
        self.parent[v]
    }

    /// The full parent array.
    #[must_use]
    pub fn parents(&self) -> &[usize] {
        &self.parent
    }

    /// Children of `v`, in increasing id order.
    #[must_use]
    pub fn children(&self, v: usize) -> &[usize] {
        &self.child[self.child_off[v]..self.child_off[v + 1]]
    }

    /// True when `v` is a root.
    #[must_use]
    pub fn is_root(&self, v: usize) -> bool {
        self.parent[v] == v
    }

    /// All roots, in increasing id order.
    #[must_use]
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len()).filter(|&v| self.is_root(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_pram::Pram;

    #[test]
    fn builds_children_in_order() {
        let pram = Pram::seq();
        // Tree: 0 root, children 1,2; 2's children 3,4; root 5 singleton.
        let f = Forest::from_parents(&pram, &[0, 0, 0, 2, 2, 5]);
        assert_eq!(f.children(0), &[1, 2]);
        assert_eq!(f.children(2), &[3, 4]);
        assert_eq!(f.children(1), &[] as &[usize]);
        assert_eq!(f.roots(), vec![0, 5]);
        assert!(f.is_root(5));
        assert!(!f.is_root(3));
    }

    #[test]
    fn empty_forest() {
        let pram = Pram::seq();
        let f = Forest::from_parents(&pram, &[]);
        assert!(f.is_empty());
        assert!(f.roots().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_parent() {
        let pram = Pram::seq();
        let _ = Forest::from_parents(&pram, &[0, 7]);
    }
}
