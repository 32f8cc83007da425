//! Separator (centroid) decomposition of the suffix tree, for Step 1A's
//! anchor descent ([AFM92]'s scheme).
//!
//! The suffix tree is first *binarized*: each node's children (ordered by
//! edge symbol) become a left-leaning chain of virtual nodes, so every
//! separator has at most three neighbours and pieces can be stored inline.
//! A descent step resolves one separator with O(1) work: real separators
//! compare the node label's fingerprint against the text; virtual
//! separators additionally compare the branching symbol against the chain's
//! split symbol. Pieces halve every level, so a descent takes `O(log d)`
//! steps.
//!
//! Construction is sequential divide-and-conquer, `O(N log N)` operations
//! (charged to the ledger); the paper's [AFM92] machinery attains `O(N)` —
//! this is the one knowingly super-linear *preprocessing* component, called
//! out in DESIGN.md and visible in experiment E1. It hashes nothing and
//! allocates nothing per piece: BFS parents live in one array sized to the
//! binarized tree, every piece is a range of one node buffer, and the
//! children arrive in edge-symbol order from the tree's edge runs, not a
//! sort.

use pardict_pram::{ceil_log2, Pram};
use pardict_suffix::{sym_code, SuffixTree};

const NONE: u32 = u32::MAX;

/// A separator component: its separator node (in the binarized tree) and
/// the adjacent pieces (via parent, via child 0, via child 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Comp {
    sep: u32,
    pieces: [u32; 3],
}

/// The binarized tree plus its centroid decomposition.
#[derive(Debug)]
pub(super) struct CentroidIndex {
    n_real: usize,
    /// Per virtual node (indexed by `b - n_real`): owning real node.
    virt_owner: Vec<u32>,
    /// Per virtual node: the split symbol (code of its left child's edge).
    virt_code: Vec<u16>,
    comps: Vec<Comp>,
    root_comp: u32,
}

impl CentroidIndex {
    pub(super) fn build(pram: &Pram, st: &SuffixTree) -> Self {
        let n_real = st.num_nodes();

        // ---- Binarize ----
        let mut b_parent = vec![NONE; n_real];
        let mut b_child: Vec<[u32; 2]> = vec![[NONE; 2]; n_real];
        let mut virt_owner: Vec<u32> = Vec::new();
        let mut virt_code: Vec<u16> = Vec::new();
        let mut total_children = 0u64;
        for u in 0..n_real {
            let kids = st.edges(u);
            total_children += kids.len() as u64;
            // A left-leaning chain of k - 1 virtual nodes: each holds one
            // kid on its left, the last holds the final kid on its right.
            let (mut prev, mut slot) = (u, 0);
            for (idx, &(code, c)) in kids.iter().enumerate() {
                let mut at = c as usize;
                if idx + 1 < kids.len() {
                    virt_owner.push(u as u32);
                    virt_code.push(code);
                    b_child.push([c, NONE]);
                    b_parent.push(NONE);
                    b_parent[at] = (b_parent.len() - 1) as u32;
                    at = b_parent.len() - 1;
                }
                b_child[prev][slot] = at as u32;
                b_parent[at] = prev as u32;
                (prev, slot) = (at, 1);
            }
        }
        pram.ledger().round(n_real as u64 + total_children);
        let nb = b_parent.len();

        // ---- Centroid decomposition ----
        let mut comps: Vec<Comp> = Vec::with_capacity(nb);
        let mut stamp = vec![0u32; nb];
        let mut size = vec![0u32; nb];
        // BFS parent within the current piece; read only for its nodes.
        let mut bfs_parent = vec![NONE; nb];
        let mut cur_stamp = 0u32;
        // Work/depth accounting: total touched nodes, levels.
        let mut touched = 0u64;
        let mut max_level = 0u32;

        // One node buffer for every piece: a piece owns `buf[lo..hi]`, which
        // holds its nodes, then its BFS order, then its sub-pieces side by
        // side (they total one node fewer), so the pending ranges on the
        // stack never overlap.
        let mut buf: Vec<u32> = (0..nb as u32).collect();
        let mut stack: Vec<(usize, usize, u32, usize, u32)> = Vec::new(); // (lo, hi, parent_comp, slot, level)
        let mut root_comp = NONE;
        if nb > 0 {
            stack.push((0, nb, NONE, 0, 0));
        }

        let neighbors = |b: usize| -> [u32; 3] { [b_parent[b], b_child[b][0], b_child[b][1]] };

        while let Some((lo, hi, parent_comp, slot, level)) = stack.pop() {
            max_level = max_level.max(level);
            touched += (hi - lo) as u64;
            cur_stamp += 1;
            let my = cur_stamp;
            for &v in &buf[lo..hi] {
                stamp[v as usize] = my;
            }
            // Subtree sizes within the piece (BFS from its first node,
            // treating the piece as an unrooted tree).
            let total = (hi - lo) as u32;
            let sep = if total == 1 {
                buf[lo]
            } else {
                // BFS order from buf[lo], written over the node list (the
                // stamps now say who is in the piece), then reverse
                // accumulate. The piece is a tree, so a node's only visited
                // neighbour is its BFS parent.
                let start = buf[lo];
                bfs_parent[start as usize] = NONE;
                let (mut qi, mut qe) = (lo, lo + 1);
                while qi < qe {
                    let v = buf[qi];
                    qi += 1;
                    for nb in neighbors(v as usize) {
                        if nb != NONE && stamp[nb as usize] == my && nb != bfs_parent[v as usize] {
                            bfs_parent[nb as usize] = v;
                            buf[qe] = nb;
                            qe += 1;
                        }
                    }
                }
                debug_assert_eq!(qe, hi, "piece not connected");
                let order = &buf[lo..hi];
                for &v in order {
                    size[v as usize] = 1;
                }
                for &v in order.iter().rev() {
                    let p = bfs_parent[v as usize];
                    if p != NONE {
                        size[p as usize] += size[v as usize];
                    }
                }
                // Centroid: minimize the largest piece after removal; ties
                // go to the first in BFS order.
                let mut best = start;
                let mut best_max = u32::MAX;
                for &v in order {
                    let mut mx = total - size[v as usize];
                    for nb in neighbors(v as usize) {
                        if nb != NONE && stamp[nb as usize] == my && nb != bfs_parent[v as usize] {
                            mx = mx.max(size[nb as usize]);
                        }
                    }
                    if mx < best_max {
                        best_max = mx;
                        best = v;
                    }
                }
                best
            };

            let comp_id = comps.len() as u32;
            comps.push(Comp {
                sep,
                pieces: [NONE; 3],
            });
            if parent_comp == NONE {
                root_comp = comp_id;
            } else {
                comps[parent_comp as usize].pieces[slot] = comp_id;
            }

            // Split into pieces around sep, one per live neighbour, each
            // collected by BFS into the next stretch of `buf[lo..hi]`.
            stamp[sep as usize] = 0; // remove sep
            let mut end = lo;
            for (sidx, nb) in neighbors(sep as usize).into_iter().enumerate() {
                if nb == NONE || stamp[nb as usize] != my {
                    continue;
                }
                let start = end;
                buf[end] = nb;
                end += 1;
                stamp[nb as usize] = 0;
                let mut qi = start;
                while qi < end {
                    let v = buf[qi];
                    qi += 1;
                    for nb2 in neighbors(v as usize) {
                        if nb2 != NONE && stamp[nb2 as usize] == my {
                            stamp[nb2 as usize] = 0;
                            buf[end] = nb2;
                            end += 1;
                        }
                    }
                }
                // Re-stamp for child processing happens on pop.
                stack.push((start, end, comp_id, sidx, level + 1));
            }
            debug_assert_eq!(end + 1, hi, "pieces must cover the piece minus sep");
        }
        // Ledger: the build touches `touched` nodes over `max_level` levels;
        // a PRAM implementation runs each level in O(log) rounds.
        pram.ledger().charge_work(touched);
        pram.ledger()
            .charge_depth(u64::from(max_level + 1) * u64::from(ceil_log2(nb.max(2))));

        Self {
            n_real,
            virt_owner,
            virt_code,
            comps,
            root_comp,
        }
    }

    /// Descend the decomposition; returns the deepest explicit node whose
    /// label fingerprint-matches a prefix of `text[i..]`.
    pub(super) fn descend(
        &self,
        st: &SuffixTree,
        qlen: usize,
        i: usize,
        text: &[u8],
        label_matches: &dyn Fn(usize) -> bool,
        ops: &mut u64,
    ) -> usize {
        let mut anchor = st.root();
        if self.root_comp == NONE || qlen == 0 {
            return anchor;
        }
        let mut comp = self.root_comp;
        loop {
            *ops += 1;
            let Comp { sep, pieces } = self.comps[comp as usize];
            let s = sep as usize;
            let dir: usize = if s < self.n_real {
                if label_matches(s) {
                    if st.str_depth(s) > st.str_depth(anchor) {
                        anchor = s;
                    }
                    1 // toward the child chain
                } else {
                    0
                }
            } else {
                let owner = self.virt_owner[s - self.n_real] as usize;
                if label_matches(owner) {
                    if st.str_depth(owner) > st.str_depth(anchor) {
                        anchor = owner;
                    }
                    let pos = i + st.str_depth(owner);
                    if pos >= text.len() {
                        0
                    } else {
                        let qcode = sym_code(text[pos]);
                        let split = self.virt_code[s - self.n_real];
                        match qcode.cmp(&split) {
                            std::cmp::Ordering::Equal => 1,
                            std::cmp::Ordering::Greater => 2,
                            std::cmp::Ordering::Less => 0,
                        }
                    }
                } else {
                    0
                }
            };
            let next = pieces[dir];
            if next == NONE {
                return anchor;
            }
            comp = next;
        }
    }

    /// Number of components (for tests/diagnostics).
    #[cfg(test)]
    #[must_use]
    pub(super) fn num_comps(&self) -> usize {
        self.comps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_fingerprint::PrefixHashes;
    use pardict_pram::Pram;
    use pardict_workloads::{random_dictionary, random_text, Alphabet};

    /// Oracle: deepest explicit node whose label is a prefix of text[i..].
    fn oracle_anchor(st: &SuffixTree, text: &[u8], i: usize) -> usize {
        let mut best = st.root();
        for v in 0..st.num_nodes() {
            let ds = st.str_depth(v);
            if ds == 0 || ds > text.len() - i || ds <= st.str_depth(best) {
                continue;
            }
            if st.is_leaf(v) && st.label_pos(v) + ds > st.text().len() {
                continue; // label includes the sentinel
            }
            let lp = st.label_pos(v);
            if st.text()[lp..lp + ds] == text[i..i + ds] {
                best = v;
            }
        }
        best
    }

    #[test]
    fn descent_finds_deepest_matching_node() {
        let pram = Pram::seq();
        for seed in 0..4u64 {
            let dhat = random_text(seed, 200, Alphabet::dna());
            let st = SuffixTree::build(&pram, &dhat, seed);
            let idx = CentroidIndex::build(&pram, &st);
            assert!(idx.num_comps() > 0);
            let text = random_text(seed + 10, 150, Alphabet::dna());
            let th = PrefixHashes::build(&pram, &text, st.hashes().base());
            for i in 0..text.len() {
                let qlen = text.len() - i;
                let lm = |v: usize| {
                    let ds = st.str_depth(v);
                    ds <= qlen && st.hashes().substring(st.label_pos(v), ds) == th.substring(i, ds)
                };
                let mut ops = 0;
                let got = idx.descend(&st, qlen, i, &text, &lm, &mut ops);
                let want = oracle_anchor(&st, &text, i);
                assert_eq!(
                    st.str_depth(got),
                    st.str_depth(want),
                    "seed={seed} i={i} got={got} want={want}"
                );
                assert!(
                    ops as usize <= 4 * (pardict_pram::ceil_log2(st.num_nodes()) as usize + 2),
                    "descent took {ops} steps"
                );
            }
        }
    }

    #[test]
    fn single_pattern_tree() {
        let pram = Pram::seq();
        let st = SuffixTree::build(&pram, b"ab", 1);
        let idx = CentroidIndex::build(&pram, &st);
        let text = b"ab";
        let th = PrefixHashes::build(&pram, text, st.hashes().base());
        let lm = |v: usize| {
            let ds = st.str_depth(v);
            ds <= 2 && st.hashes().substring(st.label_pos(v), ds) == th.substring(0, ds)
        };
        let mut ops = 0;
        let got = idx.descend(&st, 2, 0, text, &lm, &mut ops);
        assert_eq!(st.str_depth(got), oracle_depth(&st, text));
    }

    fn oracle_depth(st: &SuffixTree, text: &[u8]) -> usize {
        st.str_depth(oracle_anchor(st, text, 0))
    }

    /// First symbol code of the edge entering `v` (not the root), read off
    /// the padded text, whose last byte is the sentinel.
    fn edge_first_code(st: &SuffixTree, v: usize) -> u16 {
        let at = st.label_pos(v) + st.str_depth(st.parent(v));
        if at == st.padded().len() - 1 {
            pardict_suffix::SENTINEL_CODE
        } else {
            sym_code(st.padded()[at])
        }
    }

    /// The build as it was with a `HashMap` of BFS parents per piece, a
    /// `Vec` per piece and a sort per node, kept verbatim: the oracle that
    /// the decomposition (and so every descent's charge) has not moved.
    fn reference_build(pram: &Pram, st: &SuffixTree) -> CentroidIndex {
        let n_real = st.num_nodes();

        // ---- Binarize ----
        let mut b_parent = vec![NONE; n_real];
        let mut b_child: Vec<[u32; 2]> = vec![[NONE; 2]; n_real];
        let mut virt_owner: Vec<u32> = Vec::new();
        let mut virt_code: Vec<u16> = Vec::new();
        let mut total_children = 0u64;
        for u in 0..n_real {
            let mut kids: Vec<usize> = st.forest().children(u).to_vec();
            total_children += kids.len() as u64;
            kids.sort_unstable_by_key(|&c| edge_first_code(st, c));
            match kids.len() {
                0 => {}
                1 => {
                    b_child[u][0] = kids[0] as u32;
                    b_parent[kids[0]] = u as u32;
                }
                k => {
                    // Chain of k-1 virtual nodes.
                    let mut prev = u as u32;
                    for (idx, &c) in kids.iter().enumerate().take(k - 1) {
                        let v = (n_real + virt_owner.len()) as u32;
                        virt_owner.push(u as u32);
                        virt_code.push(edge_first_code(st, c));
                        b_parent.push(prev);
                        b_child.push([NONE; 2]);
                        if prev == u as u32 {
                            b_child[u][0] = v;
                        } else {
                            b_child[prev as usize][1] = v;
                        }
                        b_child[v as usize][0] = c as u32;
                        b_parent[c] = v;
                        if idx == k - 2 {
                            // Last virtual: right child is the final kid.
                            let last = kids[k - 1];
                            b_child[v as usize][1] = last as u32;
                            b_parent[last] = v;
                        }
                        prev = v;
                    }
                }
            }
        }
        pram.ledger().round(n_real as u64 + total_children);
        let nb = b_parent.len();

        // ---- Centroid decomposition ----
        let mut comps: Vec<Comp> = Vec::with_capacity(nb);
        let mut stamp = vec![0u32; nb];
        let mut size = vec![0u32; nb];
        let mut cur_stamp = 0u32;
        // Work/depth accounting: total touched nodes, levels.
        let mut touched = 0u64;
        let mut max_level = 0u32;

        // Each stack entry: (node list of the piece, backpatch target).
        let root_nodes: Vec<u32> = (0..nb as u32).collect();
        let mut stack: Vec<(Vec<u32>, u32, usize, u32)> = Vec::new(); // (nodes, parent_comp, slot, level)
        let mut root_comp = NONE;
        if nb > 0 {
            stack.push((root_nodes, NONE, 0, 0));
        }

        let neighbors = |b: usize| -> [u32; 3] { [b_parent[b], b_child[b][0], b_child[b][1]] };

        while let Some((nodes, parent_comp, slot, level)) = stack.pop() {
            max_level = max_level.max(level);
            touched += nodes.len() as u64;
            cur_stamp += 1;
            let my = cur_stamp;
            for &v in &nodes {
                stamp[v as usize] = my;
            }
            // Subtree sizes within the piece (iterative post-order from the
            // first node, treating the piece as an unrooted tree).
            let total = nodes.len() as u32;
            let sep = if total == 1 {
                nodes[0]
            } else {
                // BFS order from nodes[0], then reverse accumulate.
                let start = nodes[0];
                let mut order = Vec::with_capacity(nodes.len());
                let mut par = vec![NONE; 0];
                let mut parent_of = std::collections::HashMap::new();
                order.push(start);
                parent_of.insert(start, NONE);
                let mut qi = 0;
                while qi < order.len() {
                    let v = order[qi];
                    qi += 1;
                    for nb in neighbors(v as usize) {
                        if nb != NONE && stamp[nb as usize] == my && !parent_of.contains_key(&nb) {
                            parent_of.insert(nb, v);
                            order.push(nb);
                        }
                    }
                }
                debug_assert_eq!(order.len(), nodes.len(), "piece not connected");
                for &v in &order {
                    size[v as usize] = 1;
                }
                for &v in order.iter().rev() {
                    let p = parent_of[&v];
                    if p != NONE {
                        size[p as usize] += size[v as usize];
                    }
                }
                // Centroid: minimize the largest piece after removal.
                let mut best = start;
                let mut best_max = u32::MAX;
                for &v in &order {
                    let mut mx = total - size[v as usize];
                    for nb in neighbors(v as usize) {
                        if nb != NONE && stamp[nb as usize] == my && parent_of.get(&nb) == Some(&v)
                        {
                            mx = mx.max(size[nb as usize]);
                        }
                    }
                    if mx < best_max {
                        best_max = mx;
                        best = v;
                    }
                }
                par.clear();
                best
            };

            let comp_id = comps.len() as u32;
            comps.push(Comp {
                sep,
                pieces: [NONE; 3],
            });
            if parent_comp == NONE {
                root_comp = comp_id;
            } else {
                comps[parent_comp as usize].pieces[slot] = comp_id;
            }

            // Split into pieces around sep, one per live neighbour.
            stamp[sep as usize] = 0; // remove sep
            for (sidx, nb) in neighbors(sep as usize).into_iter().enumerate() {
                if nb == NONE || stamp[nb as usize] != my {
                    continue;
                }
                // Collect the piece by BFS.
                let mut piece = vec![nb];
                stamp[nb as usize] = 0;
                let mut qi = 0;
                while qi < piece.len() {
                    let v = piece[qi];
                    qi += 1;
                    for nb2 in neighbors(v as usize) {
                        if nb2 != NONE && stamp[nb2 as usize] == my {
                            stamp[nb2 as usize] = 0;
                            piece.push(nb2);
                        }
                    }
                }
                // Re-stamp for child processing happens on pop.
                stack.push((piece, comp_id, sidx, level + 1));
            }
        }
        // Ledger: the build touches `touched` nodes over `max_level` levels;
        // a PRAM implementation runs each level in O(log) rounds.
        pram.ledger().charge_work(touched);
        pram.ledger()
            .charge_depth(u64::from(max_level + 1) * u64::from(ceil_log2(nb.max(2))));

        CentroidIndex {
            n_real,
            virt_owner,
            virt_code,
            comps,
            root_comp,
        }
    }

    fn assert_same_decomposition(st: &SuffixTree, what: &str) {
        let (got, got_cost) = Pram::seq().metered(|p| CentroidIndex::build(p, st));
        let (want, want_cost) = Pram::seq().metered(|p| reference_build(p, st));
        assert_eq!(got.n_real, want.n_real, "{what}: n_real");
        assert_eq!(got.virt_owner, want.virt_owner, "{what}: virt_owner");
        assert_eq!(got.virt_code, want.virt_code, "{what}: virt_code");
        assert_eq!(got.comps, want.comps, "{what}: comps");
        assert_eq!(got.root_comp, want.root_comp, "{what}: root_comp");
        assert_eq!(got_cost, want_cost, "{what}: charged cost");
    }

    #[test]
    fn decomposition_matches_the_hash_map_build() {
        let pram = Pram::seq();
        for seed in 0..3u64 {
            for (name, alpha) in [("dna", Alphabet::dna()), ("lower", Alphabet::lowercase())] {
                let dict = crate::Dictionary::new(random_dictionary(seed, 150, 3, 14, alpha));
                let st = SuffixTree::build(&pram, dict.dhat(), seed);
                assert_same_decomposition(&st, &format!("{name} dictionary, seed {seed}"));
            }
        }
        let unary = vec![b'a'; 200];
        let fixed: [(&str, &[u8]); 3] = [
            ("single pattern", b"ab"),
            ("unary", &unary),
            ("wide star", b"abcdefghijklmnopqrstuvwxyz"),
        ];
        for (what, text) in fixed {
            let st = SuffixTree::build(&pram, text, 1);
            assert_same_decomposition(&st, what);
        }
    }
}
