//! Suffix trees (Lemma 2.1) with suffix links, Weiner links, LCA, and O(1)
//! string LCP queries (Lemma 2.6).
//!
//! Construction reads the [`SuffixArrays`] it keeps (SA + LCP + ANSV, see
//! DESIGN.md): internal nodes are LCP intervals. A boundary's interval runs
//! between its strict nearest smaller values, and its representative is the
//! leftmost least boundary strictly inside them (one range minimum over
//! `lcp`), so equal-value boundaries of one interval share it. Leaves attach
//! to the deeper of their two neighbouring boundaries. That tail is PRAM
//! rounds, expected `O(n)` work and polylog depth, over either route's
//! arrays: [`SuffixTree::build`] reads the seeded PRAM arrays (Lemma 2.1's
//! reproduction), [`SuffixTree::build_exact`] the exact sequential ones that
//! served dictionaries build on.
//!
//! Lemma 2.6 is a range minimum over the LCP array: the LCP of the suffixes
//! at SA positions `a < b` is the least of `lcp[a + 1..=b]`, and the node
//! owning the (leftmost) least boundary is the LCA of leaves `a` and `b`.
//!
//! A unique sentinel (byte 0) is appended internally, so the input text must
//! be NUL-free; every suffix then ends at a distinct leaf and every edge has
//! a non-empty label.
//!
//! Children and Weiner links are sorted runs, as in the enhanced suffix
//! array (Abouelhoda, Kurtz and Ohlebusch 2004), not hash maps: per node,
//! the `(code, node)` pairs of its children and of its Weiner links in
//! increasing code, at most σ + 1 of them, in one CSR each.

use crate::arrays::{hash_base, SuffixArrays};
use pardict_fingerprint::PrefixHashes;
use pardict_graph::{EulerTour, Forest};
use pardict_pram::{Pram, SplitMix64};
use pardict_rmq::LinearRmq;

/// Character code on edges: 0 is the sentinel, byte `c` is `c + 1`.
pub type SymCode = u16;

/// Code for the sentinel symbol.
pub const SENTINEL_CODE: SymCode = 0;

/// Code for a text byte.
#[inline]
#[must_use]
pub fn sym_code(c: u8) -> SymCode {
    SymCode::from(c) + 1
}

/// Code of the symbol at position `pos` of a padded text (its last byte is
/// the sentinel).
#[inline]
fn code_at(padded: &[u8], pos: usize) -> SymCode {
    if pos == padded.len() - 1 {
        SENTINEL_CODE
    } else {
        sym_code(padded[pos])
    }
}

/// Per node, a run of `(code, node)` pairs in strictly increasing code, all
/// runs in one CSR.
#[derive(Debug)]
struct Runs {
    off: Vec<u32>,
    pairs: Vec<(SymCode, u32)>,
}

impl Runs {
    /// Files every node `x` with `key(x) = Some((v, code))` under `v`: a
    /// stable counting sort by code, then one by `v`, so each run comes out
    /// in code order. Charged one round over the nodes.
    fn build(
        pram: &Pram,
        num_nodes: usize,
        key: impl Fn(usize) -> Option<(usize, SymCode)>,
    ) -> Self {
        pram.ledger().round(num_nodes as u64);
        let keyed: Vec<(u32, SymCode, u32)> = (0..num_nodes)
            .filter_map(|x| key(x).map(|(v, code)| (v as u32, code, x as u32)))
            .collect();
        // Codes run from SENTINEL_CODE = 0 to sym_code(255) = 256.
        let (_, by_code) = counting_sort(&keyed, 257, |&(_, code, _)| usize::from(code));
        let (off, by_node) = counting_sort(&by_code, num_nodes, |&(v, _, _)| v as usize);
        let runs = Self {
            off,
            pairs: by_node.into_iter().map(|(_, code, x)| (code, x)).collect(),
        };
        debug_assert!(
            (0..num_nodes).all(|v| runs.run(v).windows(2).all(|w| w[0].0 < w[1].0)),
            "two nodes of one run share a code"
        );
        runs
    }

    fn run(&self, v: usize) -> &[(SymCode, u32)] {
        &self.pairs[self.off[v] as usize..self.off[v + 1] as usize]
    }

    fn find(&self, v: usize, code: SymCode) -> Option<usize> {
        let run = self.run(v);
        run.binary_search_by_key(&code, |&(c, _)| c)
            .ok()
            .map(|k| run[k].1 as usize)
    }
}

/// Stable counting sort of `items` into `buckets` buckets: the bucket
/// offsets (CSR) and the items grouped by bucket, each group in input order.
fn counting_sort<T: Copy>(
    items: &[T],
    buckets: usize,
    bucket: impl Fn(&T) -> usize,
) -> (Vec<u32>, Vec<T>) {
    let mut off = vec![0u32; buckets + 1];
    for it in items {
        off[bucket(it) + 1] += 1;
    }
    for b in 0..buckets {
        off[b + 1] += off[b];
    }
    let mut fill = off.clone();
    let mut out = items.to_vec(); // every slot is overwritten below
    for it in items {
        out[fill[bucket(it)] as usize] = *it;
        fill[bucket(it)] += 1;
    }
    (off, out)
}

/// A suffix tree over `text · $`.
///
/// Node ids: `0..num_leaves()` are leaves in suffix-array order;
/// `num_leaves()..num_nodes()` are internal nodes (the root among them).
#[derive(Debug)]
pub struct SuffixTree {
    /// The arrays the tree is read from; label positions index their
    /// padded text.
    arrays: SuffixArrays,
    /// Karp–Rabin prefix hashes of the padded text.
    hashes: PrefixHashes,
    /// Per LCP boundary `k` (between SA positions `k - 1` and `k`): the
    /// internal node whose child intervals it separates.
    boundary_node: Vec<u32>,
    /// Per node: string depth (length of its path label).
    str_depth: Vec<u32>,
    /// Per node: a position in `padded` where its path label occurs.
    label_pos: Vec<u32>,
    /// Per node: inclusive range of SA positions of the leaves below it.
    leaf_lo: Vec<u32>,
    leaf_hi: Vec<u32>,
    /// Per node: suffix link target (root/self for root and sentinel leaf).
    slink: Vec<u32>,
    /// Per node: its children, keyed by the first code of their edges.
    edges: Runs,
    /// Per node `y`: its Weiner links, every `x` with `slink(x) = y` keyed
    /// by the first code of `σ(x)`.
    wlinks: Runs,
    root: usize,
    forest: Forest,
    tour: EulerTour,
}

/// The (leftmost) least LCP boundary between two distinct leaves, i.e. SA
/// positions `a` and `b`: its value is their LCP, its node their LCA.
#[inline]
fn least_boundary(lcp: &LinearRmq, a: usize, b: usize) -> usize {
    lcp.query(a.min(b) + 1, a.max(b))
}

impl SuffixTree {
    /// Build the suffix tree of `text` (NUL-free) on the seeded PRAM route,
    /// [`SuffixArrays::build`]: Lemma 2.1's reproduction, whose LCP array
    /// is exact with high probability. Expected `O(n)` work.
    ///
    /// # Panics
    /// Panics if `text` contains a 0 byte (reserved for the sentinel).
    #[must_use]
    pub fn build(pram: &Pram, text: &[u8], seed: u64) -> Self {
        let (arrays, hashes) = SuffixArrays::build(pram, text, seed);
        Self::from_arrays(pram, arrays, hashes, seed)
    }

    /// Build the suffix tree of `text` (NUL-free) on exact arrays,
    /// [`SuffixArrays::build_exact`] (SA-IS and Kasai, charged as depth), with
    /// the prefix hashes and tour coins [`SuffixTree::build`] draws from
    /// `seed`. The tree equals `build`'s node for node whenever the
    /// fingerprint LCP is right, and is right when it is not.
    ///
    /// # Panics
    /// Panics if `text` contains a 0 byte (reserved for the sentinel).
    #[must_use]
    pub fn build_exact(pram: &Pram, text: &[u8], seed: u64) -> Self {
        let arrays = SuffixArrays::build_exact(pram, text);
        let hashes = PrefixHashes::build(pram, &arrays.padded, hash_base(seed));
        Self::from_arrays(pram, arrays, hashes, seed)
    }

    /// Both routes' tail: the tree read off `arrays`, keeping `hashes`; the
    /// tour's coins are the second draw of `seed ^ 0x5F1F`.
    fn from_arrays(pram: &Pram, arrays: SuffixArrays, hashes: PrefixHashes, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5F1F);
        rng.next_u64(); // the hash base
        let (padded, sa, rank, lcp) = (&arrays.padded, &arrays.sa, &arrays.rank, &arrays.lcp);
        let (left, right) = (&arrays.left, &arrays.right);
        let m = padded.len(); // number of suffixes / leaves
        let ell = |k: usize| arrays.ell(k);

        // Every value in (left[k], right[k]) is ≥ ell[k], so the leftmost
        // least boundary there is the leftmost one equal to ell[k]: the
        // representative all boundaries of k's interval share.
        let rep: Vec<usize> = pram.tabulate(m + 1, |k| {
            if k == 0 || k == m {
                k
            } else {
                lcp.query(left[k] + 1, right[k] - 1)
            }
        });

        // Compact ids for representative boundaries.
        let is_rep: Vec<bool> = pram.tabulate(m + 1, |k| k >= 1 && k < m && rep[k] == k);
        let rep_list = pram.pack_indices(&is_rep);
        let num_internal = rep_list.len().max(1); // ≥ 1: the root
        let mut internal_idx = vec![u32::MAX; m + 1];
        pram.ledger().round(rep_list.len() as u64);
        for (x, &k) in rep_list.iter().enumerate() {
            internal_idx[k] = x as u32;
        }
        let num_nodes = m + num_internal;

        // The root: representative of the 0-valued chain (always present
        // for m >= 2: the sentinel suffix gives a 0 boundary at k = 1).
        let root = if rep_list.is_empty() {
            m // degenerate single-leaf text: synthesize a root
        } else {
            debug_assert_eq!(ell(rep[1]), 0);
            m + internal_idx[rep[1]] as usize
        };

        // Node id of the representative of boundary k.
        let node_of_boundary = |k: usize| -> usize { m + internal_idx[rep[k]] as usize };

        // Parents, depths, label positions, leaf ranges.
        let mut parent = vec![0usize; num_nodes];
        let mut str_depth = vec![0u32; num_nodes];
        let mut label_pos = vec![0u32; num_nodes];
        let mut leaf_lo = vec![0u32; num_nodes];
        let mut leaf_hi = vec![0u32; num_nodes];

        // Leaves.
        pram.ledger().round(m as u64);
        for (k, &pos) in sa.iter().enumerate() {
            let node = k;
            str_depth[node] = (m - pos as usize) as u32;
            label_pos[node] = pos;
            leaf_lo[node] = k as u32;
            leaf_hi[node] = k as u32;
            // Deeper neighbouring boundary (k or k + 1 in ell coordinates).
            let (bl, br) = (ell(k), ell(k + 1));
            parent[node] = if bl < 0 && br < 0 {
                root
            } else if bl >= br {
                node_of_boundary(k)
            } else {
                node_of_boundary(k + 1)
            };
        }

        // Internal nodes.
        pram.ledger().round(rep_list.len() as u64);
        for &k in &rep_list {
            let node = m + internal_idx[k] as usize;
            str_depth[node] = ell(k) as u32;
            label_pos[node] = sa[k];
            leaf_lo[node] = left[k] as u32;
            leaf_hi[node] = (right[k] - 1) as u32;
            if node == root {
                parent[node] = node;
            } else {
                let (l, r) = (left[k], right[k]);
                let pb = if ell(l) >= ell(r) { l } else { r };
                parent[node] = if ell(pb) < 0 {
                    root
                } else {
                    node_of_boundary(pb)
                };
            }
        }
        if rep_list.is_empty() {
            // Single-leaf degenerate tree.
            parent[root] = root;
            str_depth[root] = 0;
            label_pos[root] = 0;
            leaf_lo[root] = 0;
            leaf_hi[root] = (m - 1) as u32;
            parent[0] = root;
        }

        let forest = Forest::from_parents(pram, &parent);
        let tour = EulerTour::build(pram, &forest, rng.next_u64());

        // Each boundary's node (boundary 0 separates nothing; the root
        // stands in for it).
        let boundary_node: Vec<u32> = pram.tabulate(m, |k| {
            if k == 0 {
                root as u32
            } else {
                node_of_boundary(k) as u32
            }
        });

        let edges = Runs::build(pram, num_nodes, |x| {
            let p = parent[x];
            (x != root).then(|| (p, code_at(padded, (label_pos[x] + str_depth[p]) as usize)))
        });

        // Suffix links: slink(v) = LCA of the next leaves of two leaves
        // that v separates.
        let slink: Vec<u32> = pram.tabulate(num_nodes, |v| {
            if v < m {
                // Leaf for text position sa[v]; its suffix link is the leaf
                // of the next position (self for the sentinel leaf).
                let p = sa[v] as usize;
                if p + 1 < m {
                    rank[p + 1]
                } else {
                    v as u32
                }
            } else if v == root || str_depth[v] == 0 {
                root as u32
            } else {
                let k = rep_list[v - m];
                let (p1, p2) = (sa[k - 1] as usize, sa[k] as usize);
                debug_assert!(p1 + 1 < m && p2 + 1 < m);
                let (a, b) = (rank[p1 + 1] as usize, rank[p2 + 1] as usize);
                boundary_node[least_boundary(lcp, a, b)]
            }
        });

        // Weiner links invert the suffix links. None leads to the root, a
        // depth-0 internal node or the sentinel leaf.
        let wlinks = Runs::build(pram, num_nodes, |x| {
            let skip =
                x == root || (x >= m && str_depth[x] == 0) || (x < m && sa[x] as usize == m - 1);
            (!skip).then(|| (slink[x] as usize, code_at(padded, label_pos[x] as usize)))
        });

        Self {
            arrays,
            hashes,
            boundary_node,
            str_depth,
            label_pos,
            leaf_lo,
            leaf_hi,
            slink,
            edges,
            wlinks,
            root,
            forest,
            tour,
        }
    }

    /// The suffix array, LCP and interval arrays the tree was built on.
    #[must_use]
    pub fn arrays(&self) -> &SuffixArrays {
        &self.arrays
    }

    /// The original text (without the sentinel).
    #[must_use]
    pub fn text(&self) -> &[u8] {
        self.arrays.text()
    }

    /// Text plus sentinel byte; `label_pos` indexes into this.
    #[must_use]
    pub fn padded(&self) -> &[u8] {
        &self.arrays.padded
    }

    /// Number of leaves (= text length + 1, counting the sentinel suffix).
    #[must_use]
    pub fn num_leaves(&self) -> usize {
        self.sa().len()
    }

    /// Total number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.str_depth.len()
    }

    /// The root node id.
    #[must_use]
    pub fn root(&self) -> usize {
        self.root
    }

    /// True when `v` is a leaf.
    #[must_use]
    pub fn is_leaf(&self, v: usize) -> bool {
        v < self.num_leaves()
    }

    /// Text position of the suffix ending at leaf `v`.
    #[must_use]
    pub fn leaf_pos(&self, v: usize) -> usize {
        debug_assert!(self.is_leaf(v));
        self.sa()[v] as usize
    }

    /// Leaf node for the suffix starting at text position `pos` (0..=n).
    #[must_use]
    pub fn leaf_node(&self, pos: usize) -> usize {
        self.arrays.rank[pos] as usize
    }

    /// Parent of `v` (root maps to itself).
    #[must_use]
    pub fn parent(&self, v: usize) -> usize {
        self.forest.parent(v)
    }

    /// String depth `|σ(v)|`.
    #[must_use]
    pub fn str_depth(&self, v: usize) -> usize {
        self.str_depth[v] as usize
    }

    /// A position in [`Self::padded`] where `σ(v)` occurs.
    #[must_use]
    pub fn label_pos(&self, v: usize) -> usize {
        self.label_pos[v] as usize
    }

    /// The children of `v` as `(code, child)` pairs in increasing code,
    /// `code` being the first symbol of the child's edge.
    #[must_use]
    pub fn edges(&self, v: usize) -> &[(SymCode, u32)] {
        self.edges.run(v)
    }

    /// Child of `v` whose edge starts with symbol `code`: a search of
    /// [`Self::edges`]`(v)`.
    #[must_use]
    pub fn child(&self, v: usize, code: SymCode) -> Option<usize> {
        self.edges.find(v, code)
    }

    /// Child of `v` whose edge starts with text byte `c`.
    #[must_use]
    pub fn child_by_byte(&self, v: usize, c: u8) -> Option<usize> {
        self.child(v, sym_code(c))
    }

    /// Inclusive SA-position range of the leaves below `v`.
    #[must_use]
    pub fn leaf_range(&self, v: usize) -> (usize, usize) {
        (self.leaf_lo[v] as usize, self.leaf_hi[v] as usize)
    }

    /// The suffix array (over text + sentinel).
    #[must_use]
    pub fn sa(&self) -> &[u32] {
        &self.arrays.sa
    }

    /// The LCP array (`lcp[k]` between SA[k-1] and SA[k]).
    #[must_use]
    pub fn lcp(&self) -> &[u32] {
        self.arrays.lcp.keys()
    }

    /// Lowest common ancestor of two nodes: one of them when the tour says
    /// it is the other's ancestor, else the node of the least LCP boundary
    /// between their leftmost leaves. O(1).
    #[must_use]
    pub fn lca(&self, u: usize, v: usize) -> usize {
        if self.tour.is_ancestor(u, v) {
            u
        } else if self.tour.is_ancestor(v, u) {
            v
        } else {
            let (a, b) = (self.leaf_lo[u] as usize, self.leaf_lo[v] as usize);
            self.boundary_node[least_boundary(&self.arrays.lcp, a, b)] as usize
        }
    }

    /// The tree's Euler tour (entry/exit times, ancestor tests).
    #[must_use]
    pub fn tour(&self) -> &EulerTour {
        &self.tour
    }

    /// The underlying forest (parents + children CSR).
    #[must_use]
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// Suffix link: the node labelled `σ(v)` minus its first symbol.
    #[must_use]
    pub fn slink(&self, v: usize) -> usize {
        self.slink[v] as usize
    }

    /// The Weiner links of `v` as `(code, x)` pairs in increasing code: every
    /// node `x` with `slink(x) = v`, `code` being the first symbol of `σ(x)`
    /// ([`SENTINEL_CODE`] when `σ(x)` starts at the sentinel).
    #[must_use]
    pub fn wlinks(&self, v: usize) -> &[(SymCode, u32)] {
        self.wlinks.run(v)
    }

    /// Weiner link: the node labelled `code · σ(v)`, if explicit. A search
    /// of [`Self::wlinks`]`(v)`.
    #[must_use]
    pub fn wlink(&self, v: usize, code: SymCode) -> Option<usize> {
        self.wlinks.find(v, code)
    }

    /// O(1) longest common prefix of the suffixes at text positions `i`
    /// and `j` (Lemma 2.6), not counting the sentinel.
    #[must_use]
    pub fn lcp_positions(&self, i: usize, j: usize) -> usize {
        let n = self.text().len();
        debug_assert!(i <= n && j <= n);
        if i == j {
            return n - i;
        }
        let (a, b) = (self.leaf_node(i), self.leaf_node(j));
        self.lcp()[least_boundary(&self.arrays.lcp, a, b)] as usize
    }

    /// O(1) Monte-Carlo-free equality of `text[i..i+l]` and `text[j..j+l]`
    /// (Lemma 2.6): exact, via the LCP range minimum.
    #[must_use]
    pub fn eq_substrings(&self, i: usize, j: usize, l: usize) -> bool {
        let n = self.text().len();
        i + l <= n && j + l <= n && self.lcp_positions(i, j) >= l
    }

    /// Karp–Rabin prefix hashes of the padded text (for fingerprint tables).
    #[must_use]
    pub fn hashes(&self) -> &PrefixHashes {
        &self.hashes
    }

    /// Locate a pattern by walking from the root: returns the inclusive SA
    /// range of suffixes starting with `pattern`, or `None` if it does not
    /// occur. `O(|pattern|)` character comparisons.
    #[must_use]
    pub fn find(&self, pattern: &[u8]) -> Option<(usize, usize)> {
        if pattern.contains(&0) {
            return None;
        }
        let mut v = self.root;
        let mut matched = 0usize;
        while matched < pattern.len() {
            let c = self.child(v, sym_code(pattern[matched]))?;
            let lo = self.label_pos(c) + matched;
            let hi = (self.label_pos(c) + self.str_depth(c)).min(self.padded().len());
            for t in lo..hi {
                if matched == pattern.len() {
                    break;
                }
                if self.padded()[t] != pattern[matched] {
                    return None;
                }
                matched += 1;
            }
            v = c;
        }
        Some(self.leaf_range(v))
    }

    /// All occurrence start positions of `pattern`, unordered.
    /// `O(|pattern| + occ)`.
    #[must_use]
    pub fn occurrences(&self, pattern: &[u8]) -> Vec<usize> {
        match self.find(pattern) {
            None => Vec::new(),
            Some((lo, hi)) => (lo..=hi)
                .map(|k| self.leaf_pos(k))
                .filter(|&p| p + pattern.len() <= self.text().len())
                .collect(),
        }
    }

    /// True when `pattern` occurs in the text. `O(|pattern|)`.
    #[must_use]
    pub fn contains(&self, pattern: &[u8]) -> bool {
        self.find(pattern).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_pram::Pram;
    use std::collections::HashMap;

    fn build(text: &[u8]) -> SuffixTree {
        let pram = Pram::seq();
        SuffixTree::build(&pram, text, 12345)
    }

    /// Walk the tree from the root following the suffix at `pos`; must end
    /// exactly at that suffix's leaf.
    fn walk_suffix(st: &SuffixTree, pos: usize) {
        let padded = st.padded();
        let m = padded.len();
        let mut v = st.root();
        let mut matched = 0usize;
        while matched < m - pos {
            let code = if pos + matched == m - 1 {
                SENTINEL_CODE
            } else {
                sym_code(padded[pos + matched])
            };
            let c = st
                .child(v, code)
                .unwrap_or_else(|| panic!("no child at depth {matched} for suffix {pos}"));
            // Verify the whole edge label matches.
            let lo = st.label_pos(c) + st.str_depth(v);
            let hi = st.label_pos(c) + st.str_depth(c);
            for (off, t) in (lo..hi).enumerate() {
                assert_eq!(
                    padded[t],
                    padded[pos + matched + off],
                    "edge mismatch, suffix {pos}"
                );
            }
            matched = st.str_depth(c);
            v = c;
        }
        assert!(st.is_leaf(v));
        assert_eq!(st.leaf_pos(v), pos);
    }

    fn full_check(text: &[u8]) {
        let st = build(text);
        let m = text.len() + 1;
        assert_eq!(st.num_leaves(), m);
        for pos in 0..m {
            walk_suffix(&st, pos);
        }
        // Structural sanity.
        for v in 0..st.num_nodes() {
            if v == st.root() {
                continue;
            }
            let p = st.parent(v);
            assert!(st.str_depth(p) < st.str_depth(v), "depth order v={v}");
            let (lo, hi) = st.leaf_range(v);
            let (plo, phi) = st.leaf_range(p);
            assert!(plo <= lo && hi <= phi, "leaf range nesting");
            if !st.is_leaf(v) {
                assert!(
                    st.forest().children(v).len() >= 2,
                    "internal node with < 2 children"
                );
            }
        }
        // Suffix links: σ(slink(v)) == σ(v)[1..].
        for v in 0..st.num_nodes() {
            if v == st.root() || st.str_depth(v) == 0 {
                continue;
            }
            if st.is_leaf(v) && st.leaf_pos(v) == m - 1 {
                continue;
            }
            let s = st.slink(v);
            assert_eq!(st.str_depth(s), st.str_depth(v) - 1, "slink depth v={v}");
            let a = st.label_pos(v) + 1;
            let b = st.label_pos(s);
            for off in 0..st.str_depth(s) {
                assert_eq!(st.padded()[a + off], st.padded()[b + off], "slink label");
            }
            // Weiner link inverts it.
            let lp = st.label_pos(v);
            let code = if lp == m - 1 {
                SENTINEL_CODE
            } else {
                sym_code(st.padded()[lp])
            };
            assert_eq!(st.wlink(s, code), Some(v), "wlink inverse v={v}");
        }
        // LCA against the parent walk over every node pair: u == v,
        // ancestor/descendant, leaf–internal and leaf–leaf.
        let height = |mut v: usize| {
            let mut h = 0;
            while v != st.root() {
                v = st.parent(v);
                h += 1;
            }
            h
        };
        let heights: Vec<usize> = (0..st.num_nodes()).map(height).collect();
        for u in 0..st.num_nodes() {
            for v in 0..st.num_nodes() {
                let (mut a, mut b) = (u, v);
                while heights[a] > heights[b] {
                    a = st.parent(a);
                }
                while heights[b] > heights[a] {
                    b = st.parent(b);
                }
                while a != b {
                    (a, b) = (st.parent(a), st.parent(b));
                }
                assert_eq!(st.lca(u, v), a, "lca({u}, {v})");
            }
        }
    }

    #[test]
    fn classic_texts() {
        full_check(b"banana");
        full_check(b"mississippi");
        full_check(b"abracadabra");
        full_check(b"a");
        full_check(b"ab");
        full_check(b"aa");
        full_check(b"");
    }

    #[test]
    fn repetitive_texts() {
        full_check(&[b'a'; 64]);
        full_check(&b"ab".repeat(40));
        full_check(&b"abc".repeat(25));
    }

    #[test]
    fn random_texts() {
        use pardict_pram::SplitMix64;
        let mut rng = SplitMix64::new(55);
        for sigma in [2u64, 4, 26] {
            for n in [17usize, 100, 400] {
                let text: Vec<u8> = (0..n).map(|_| (rng.next_below(sigma) + 97) as u8).collect();
                full_check(&text);
            }
        }
    }

    #[test]
    fn lcp_positions_matches_naive() {
        use pardict_pram::SplitMix64;
        let mut rng = SplitMix64::new(77);
        let text: Vec<u8> = (0..300).map(|_| (rng.next_below(3) + 97) as u8).collect();
        let st = build(&text);
        for _ in 0..2000 {
            let i = rng.next_below(text.len() as u64) as usize;
            let j = rng.next_below(text.len() as u64) as usize;
            let naive = text[i..]
                .iter()
                .zip(&text[j..])
                .take_while(|(a, b)| a == b)
                .count();
            let got = st.lcp_positions(i, j);
            if i == j {
                assert_eq!(got, text.len() - i);
            } else {
                assert_eq!(got, naive, "i={i} j={j}");
            }
        }
    }

    #[test]
    fn eq_substrings_is_exact() {
        let st = build(b"xyxyxyxy");
        assert!(st.eq_substrings(0, 2, 6));
        assert!(!st.eq_substrings(0, 1, 2));
        assert!(!st.eq_substrings(0, 2, 7)); // out of range
    }

    #[test]
    #[should_panic(expected = "NUL-free")]
    fn rejects_nul_bytes() {
        build(&[1, 2, 0, 3]);
    }

    #[test]
    fn find_and_occurrences() {
        let st = build(b"banana");
        assert!(st.contains(b"ana"));
        assert!(st.contains(b"banana"));
        assert!(!st.contains(b"nanab"));
        assert!(!st.contains(b"x"));
        assert!(st.contains(b""));
        let mut occ = st.occurrences(b"ana");
        occ.sort_unstable();
        assert_eq!(occ, vec![1, 3]);
        let mut occ = st.occurrences(b"a");
        occ.sort_unstable();
        assert_eq!(occ, vec![1, 3, 5]);
        assert!(st.occurrences(b"nan\0").is_empty());
    }

    #[test]
    fn occurrences_match_naive_on_random_text() {
        use pardict_pram::SplitMix64;
        let mut rng = SplitMix64::new(91);
        let text: Vec<u8> = (0..400).map(|_| (rng.next_below(3) + 97) as u8).collect();
        let st = build(&text);
        for _ in 0..200 {
            let l = 1 + rng.next_below(6) as usize;
            let i = rng.next_below((text.len() - l) as u64) as usize;
            let pat = &text[i..i + l];
            let mut got = st.occurrences(pat);
            got.sort_unstable();
            let want: Vec<usize> = (0..=text.len() - l)
                .filter(|&j| &text[j..j + l] == pat)
                .collect();
            assert_eq!(got, want, "pattern {:?}", String::from_utf8_lossy(pat));
        }
    }

    /// The two lookups as they were built before the runs, one `HashMap`
    /// each, the loops kept verbatim over the tree's own arrays: the oracle
    /// the runs are checked against.
    fn hash_map_build(st: &SuffixTree) -> (HashMap<u64, u32>, HashMap<u64, u32>) {
        let (num_nodes, root, m) = (st.num_nodes(), st.root(), st.num_leaves());
        let (padded, sa) = (st.padded(), st.sa());
        let parent: Vec<usize> = (0..num_nodes).map(|v| st.parent(v)).collect();
        let str_depth: Vec<u32> = (0..num_nodes).map(|v| st.str_depth(v) as u32).collect();
        let label_pos: Vec<u32> = (0..num_nodes).map(|v| st.label_pos(v) as u32).collect();
        let slink: Vec<u32> = (0..num_nodes).map(|v| st.slink(v) as u32).collect();

        // Child lookup by leading edge symbol.
        let mut child_by_sym = HashMap::with_capacity(num_nodes);
        for v in 0..num_nodes {
            if v == root {
                continue;
            }
            let p = parent[v];
            let c = padded[(label_pos[v] + str_depth[p]) as usize];
            let code = if (label_pos[v] + str_depth[p]) as usize == m - 1 {
                SENTINEL_CODE
            } else {
                sym_code(c)
            };
            let prev = child_by_sym.insert(sym_key(p, code), v as u32);
            debug_assert!(prev.is_none(), "two children with one symbol");
        }

        // Weiner links: invert the suffix links, keyed by leading symbol.
        let mut wlink_by_sym = HashMap::with_capacity(num_nodes);
        for v in 0..num_nodes {
            if v == root || (v >= m && str_depth[v] == 0) {
                continue;
            }
            if v < m && sa[v] as usize == m - 1 {
                continue; // sentinel leaf has no inverse link
            }
            let lp = label_pos[v] as usize;
            let code = if lp == m - 1 {
                SENTINEL_CODE
            } else {
                sym_code(padded[lp])
            };
            let target = slink[v] as usize;
            let prev = wlink_by_sym.insert(sym_key(target, code), v as u32);
            debug_assert!(prev.is_none(), "duplicate Weiner link");
        }
        (child_by_sym, wlink_by_sym)
    }

    fn sym_key(node: usize, code: SymCode) -> u64 {
        ((node as u64) << 9) | u64::from(code)
    }

    #[test]
    fn edge_and_weiner_runs_equal_the_hash_map_build() {
        let mut rng = SplitMix64::new(2004);
        let mut texts: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"banana".to_vec(),
            b"mississippi".to_vec(),
            vec![b'a'; 64],
            b"ab".repeat(40),
        ];
        for sigma in [2u64, 4, 26] {
            texts.push(
                (0..300)
                    .map(|_| (rng.next_below(sigma) + 97) as u8)
                    .collect(),
            );
        }
        texts.push((1..=255u8).collect()); // the root has 256 children
        for text in &texts {
            let st = build(text);
            let (child_by_sym, wlink_by_sym) = hash_map_build(&st);
            let what = String::from_utf8_lossy(&text[..text.len().min(12)]);
            for v in 0..st.num_nodes() {
                assert_eq!(
                    st.edges(v).len(),
                    st.forest().children(v).len(),
                    "{what}: node {v}"
                );
                for code in 0..=256 {
                    let key = sym_key(v, code);
                    let want = child_by_sym.get(&key).map(|&c| c as usize);
                    assert_eq!(st.child(v, code), want, "{what}: child({v}, {code})");
                    let want = wlink_by_sym.get(&key).map(|&x| x as usize);
                    assert_eq!(st.wlink(v, code), want, "{what}: wlink({v}, {code})");
                }
            }
            let links: usize = (0..st.num_nodes()).map(|v| st.wlinks(v).len()).sum();
            assert_eq!(links, wlink_by_sym.len(), "{what}: Weiner link count");
        }
        let wide = build(&texts[9]);
        assert_eq!(wide.edges(wide.root()).len(), 256);
    }

    #[test]
    fn leaf_node_roundtrip() {
        let st = build(b"banana");
        for pos in 0..=6 {
            assert_eq!(st.leaf_pos(st.leaf_node(pos)), pos);
        }
    }
}
