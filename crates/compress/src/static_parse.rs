//! Optimal static-dictionary compression (§5, Theorem 5.3).
//!
//! The dictionary has the *prefix property* (every prefix of a pattern is a
//! dictionary word), so a phrase at position `i` may have any length up to
//! `M[i]` — the longest pattern prefix starting there, delivered by the
//! dictionary matcher's Step 2A. The optimal (fewest-phrases) parse is a
//! shortest `0 → n` path in the reference graph `G`; §5's insight is that
//! *dominating* edges suffice (Lemma 5.1), and those form a tree computable
//! from prefix maxima and ranks alone (Lemma 5.2) — `O(n)` work instead of
//! the `O(n³ log² n)` shortest-path machinery of the previous best [AS92].
//!
//! Comparators: [`greedy_parse`] (longest-match-first, sub-optimal),
//! [`lff_parse`] (longest-fragment-first heuristic from the compression
//! literature), and [`bfs_parse`] — an [AS92]-flavoured exact shortest-path
//! baseline whose work is `Θ(Σ M[i])`, the blow-up the paper avoids.

use pardict_core::{Dictionary, PatternScan};
use pardict_graph::{EulerTour, Forest};
use pardict_pram::{ceil_log2, Pram};

/// One phrase of a static parse: `pattern`'s prefix of length `len`
/// starting at text position `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phrase {
    /// Text position where the phrase begins.
    pub start: usize,
    /// Phrase length (a dictionary word by the prefix property).
    pub len: usize,
    /// A pattern whose prefix of length `len` equals the phrase.
    pub pattern: u32,
}

/// A complete parse of a text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parse {
    /// Phrases in text order, covering the text exactly.
    pub phrases: Vec<Phrase>,
}

impl Parse {
    /// Number of dictionary references (the optimization objective).
    #[must_use]
    pub fn num_phrases(&self) -> usize {
        self.phrases.len()
    }

    /// Reconstruct the text from the dictionary.
    #[must_use]
    pub fn expand(&self, dict: &Dictionary) -> Vec<u8> {
        let mut out = Vec::new();
        for ph in &self.phrases {
            let p = &dict.patterns()[ph.pattern as usize];
            out.extend_from_slice(&p[..ph.len]);
        }
        out
    }
}

/// The per-position longest-pattern-prefix table `M` (with certificates),
/// as plain integers: `(len, pattern)`, `len == 0` when no word starts
/// there.
fn prefix_table<M: PatternScan>(pram: &Pram, matcher: &M, text: &[u8]) -> Vec<(u32, u32)> {
    let raw = matcher.pattern_prefixes(pram, text);
    pram.map(&raw, |_, &o| o.map_or((0, u32::MAX), |(l, t)| (l, t)))
}

/// §5 optimal parse: `O(n)` work, `O(log d + log n)` depth after
/// preprocessing. Returns `None` when the text cannot be parsed (some
/// position starts no dictionary word).
#[must_use]
pub fn optimal_parse<M: PatternScan>(pram: &Pram, matcher: &M, text: &[u8]) -> Option<Parse> {
    optimal_from_table(pram, &prefix_table(pram, matcher, text))
}

/// [`optimal_parse`] and [`greedy_parse`] of `text` from one `M` table, so
/// Step 1 and Step 2A run once for both: `None` when the text cannot be
/// parsed (the greedy walk is then not run), else the optimal parse and
/// the greedy one, which can dead-end where the optimal parse does not.
#[must_use]
pub fn optimal_and_greedy_parse<M: PatternScan>(
    pram: &Pram,
    matcher: &M,
    text: &[u8],
) -> Option<(Parse, Option<Parse>)> {
    let m = prefix_table(pram, matcher, text);
    let optimal = optimal_from_table(pram, &m)?;
    Some((optimal, greedy_from_table(pram, &m)))
}

/// §5's optimal parse of the text whose `M` table is `m`.
fn optimal_from_table(pram: &Pram, m: &[(u32, u32)]) -> Option<Parse> {
    let n = m.len();
    if n == 0 {
        return Some(Parse {
            phrases: Vec::new(),
        });
    }

    // reach[x] = x + M[x]; inclusive prefix max (value, argmax).
    let reaches: Vec<(u64, u64)> = pram.tabulate(n, |x| ((x + m[x].0 as usize) as u64, x as u64));
    let pm = pram.scan_inclusive(
        &reaches,
        (0, u64::MAX),
        |a, b| if b.0 > a.0 { b } else { a },
    );

    // Lemma 5.2: the dominating edge into y is (L[y], y) with L[y] the
    // first x whose prefix-max reach is ≥ y. Blocked two-pointer ranking
    // over the (non-decreasing) prefix maxima: O(n) work, O(log n) depth.
    let b = (ceil_log2(n + 1) as usize).max(1);
    let nblocks = (n + 1).div_ceil(b);
    let l_blocks: Vec<Vec<usize>> = pram.tabulate_costed(nblocks, |blk| {
        let y_lo = blk * b;
        let y_hi = ((blk + 1) * b).min(n + 1);
        let mut out = Vec::with_capacity(y_hi - y_lo);
        let mut ops = 1u64;
        // First x with pm[x].0 >= y_lo, by binary search.
        let mut x = {
            let (mut lo, mut hi) = (0usize, n);
            while lo < hi {
                let mid = (lo + hi) / 2;
                ops += 1;
                if pm[mid].0 >= y_lo as u64 {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        };
        for y in y_lo..y_hi {
            while x < n && pm[x].0 < y as u64 {
                x += 1;
                ops += 1;
            }
            // x = first position with prefix-max reach >= y, or n if none.
            out.push(if x < n && pm[x].0 >= y as u64 {
                x
            } else {
                usize::MAX
            });
            ops += 1;
        }
        (out, ops)
    });
    let mut l_of = vec![usize::MAX; n + 1];
    pram.ledger().round((n + 1) as u64);
    for (blk, v) in l_blocks.iter().enumerate() {
        l_of[blk * b..blk * b + v.len()].copy_from_slice(v);
    }

    // Dominating-edge tree: parent(y) = L[y]; unreachable nodes self-root.
    let parent: Vec<usize> = pram.tabulate(n + 1, |y| {
        if y == 0 {
            0
        } else if l_of[y] == usize::MAX || l_of[y] >= y {
            y
        } else {
            l_of[y]
        }
    });
    let forest = Forest::from_parents(pram, &parent);
    let tour = EulerTour::build(pram, &forest, 0x57A7);
    if tour.root_of[n] != 0 {
        return None; // n not reachable from 0
    }
    let on_path: Vec<bool> = pram.tabulate(n + 1, |v| tour.is_ancestor(v, n));
    let cuts = pram.pack_indices(&on_path); // ascending: 0 = root … n
    debug_assert_eq!(*cuts.first().unwrap(), 0);
    debug_assert_eq!(*cuts.last().unwrap(), n);
    let phrases: Vec<Phrase> = pram.tabulate(cuts.len() - 1, |k| {
        let (x, y) = (cuts[k], cuts[k + 1]);
        debug_assert!(y - x <= m[x].0 as usize);
        Phrase {
            start: x,
            len: y - x,
            pattern: m[x].1,
        }
    });
    Some(Parse { phrases })
}

/// Greedy parse: always take the longest word. Sub-optimal in general —
/// the comparison §5 is about.
#[must_use]
pub fn greedy_parse<M: PatternScan>(pram: &Pram, matcher: &M, text: &[u8]) -> Option<Parse> {
    greedy_from_table(pram, &prefix_table(pram, matcher, text))
}

/// The greedy parse of the text whose `M` table is `m`.
fn greedy_from_table(pram: &Pram, m: &[(u32, u32)]) -> Option<Parse> {
    let n = m.len();
    let mut phrases = Vec::new();
    let mut i = 0;
    pram.ledger().charge_depth(1);
    while i < n {
        let (len, pat) = m[i];
        if len == 0 {
            return None;
        }
        phrases.push(Phrase {
            start: i,
            len: len as usize,
            pattern: pat,
        });
        i += len as usize;
        pram.ledger().charge_work(1);
    }
    Some(Parse { phrases })
}

/// Longest-fragment-first heuristic (another classical sub-optimal scheme
/// the paper's introduction cites): place the longest fragments first,
/// then parse the gaps greedily.
#[must_use]
pub fn lff_parse<M: PatternScan>(pram: &Pram, matcher: &M, text: &[u8]) -> Option<Parse> {
    let n = text.len();
    let m = prefix_table(pram, matcher, text);
    // Positions by decreasing fragment length.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| std::cmp::Reverse(m[i].0));
    pram.ledger()
        .charge_work((n as u64) * u64::from(ceil_log2(n.max(2))));
    pram.ledger().charge_depth(u64::from(ceil_log2(n.max(2))));

    let mut covered = vec![false; n];
    let mut placed: Vec<Phrase> = Vec::new();
    for &i in &order {
        let len = m[i].0 as usize;
        if len == 0 {
            break;
        }
        if covered[i..i + len].iter().any(|&c| c) {
            continue;
        }
        pram.ledger().charge_work(len as u64);
        covered[i..i + len].fill(true);
        placed.push(Phrase {
            start: i,
            len,
            pattern: m[i].1,
        });
    }
    // Parse the gaps greedily, capping phrases at the gap boundary.
    let mut i = 0;
    while i < n {
        if covered[i] {
            i += 1;
            continue;
        }
        let mut gap_end = i;
        while gap_end < n && !covered[gap_end] {
            gap_end += 1;
        }
        let mut j = i;
        while j < gap_end {
            let len = (m[j].0 as usize).min(gap_end - j);
            if len == 0 {
                return None;
            }
            placed.push(Phrase {
                start: j,
                len,
                pattern: m[j].1,
            });
            pram.ledger().charge_work(1);
            j += len;
        }
        i = gap_end;
    }
    placed.sort_unstable_by_key(|p| p.start);
    Some(Parse { phrases: placed })
}

/// Exact shortest-path parse over the *full* reference graph — the
/// [AS92]-style baseline. Work `Θ(Σ M[i])` (quadratic in the worst case),
/// charged honestly; exists as the E6 comparator and the optimality
/// oracle.
#[must_use]
pub fn bfs_parse<M: PatternScan>(pram: &Pram, matcher: &M, text: &[u8]) -> Option<Parse> {
    let n = text.len();
    let m = prefix_table(pram, matcher, text);
    let mut dist = vec![u32::MAX; n + 1];
    let mut from = vec![usize::MAX; n + 1];
    dist[0] = 0;
    let mut work = 0u64;
    for x in 0..n {
        if dist[x] == u32::MAX {
            continue;
        }
        let reach = m[x].0 as usize;
        work += reach as u64 + 1;
        for y in x + 1..=x + reach {
            if dist[y] == u32::MAX {
                dist[y] = dist[x] + 1;
                from[y] = x;
            }
        }
    }
    pram.ledger().charge_work(work);
    pram.ledger()
        .charge_depth(u64::from(dist[n].min(n as u32)) + 1);
    if n > 0 && dist[n] == u32::MAX {
        return None;
    }
    let mut phrases = Vec::new();
    let mut y = n;
    while y > 0 {
        let x = from[y];
        phrases.push(Phrase {
            start: x,
            len: y - x,
            pattern: m[x].1,
        });
        y = x;
    }
    phrases.reverse();
    Some(Parse { phrases })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_core::DictMatcher;
    use pardict_workloads::{markov_text, prefix_heavy_dictionary, random_text, Alphabet};

    /// A dictionary guaranteed to parse any text over `alpha`: all single
    /// symbols plus some longer words.
    fn parseable_dict(seed: u64, alpha: Alphabet, words: usize) -> Dictionary {
        let mut patterns: Vec<Vec<u8>> = (0..alpha.size()).map(|i| vec![alpha.symbol(i)]).collect();
        patterns.extend(prefix_heavy_dictionary(seed, words, 3, 5, alpha));
        Dictionary::new(patterns)
    }

    fn check_parse(parse: &Parse, dict: &Dictionary, text: &[u8]) {
        assert_eq!(parse.expand(dict), text, "expansion");
        let mut pos = 0;
        for ph in &parse.phrases {
            assert_eq!(ph.start, pos);
            pos += ph.len;
        }
        assert_eq!(pos, text.len());
    }

    #[test]
    fn optimal_matches_bfs_and_beats_heuristics() {
        for seed in 0..5u64 {
            let pram = Pram::seq();
            let alpha = Alphabet::dna();
            let dict = parseable_dict(seed, alpha, 12);
            let matcher = DictMatcher::build(&pram, dict.clone(), seed);
            let text = markov_text(seed + 40, 300, alpha);
            let opt = optimal_parse(&pram, &matcher, &text).expect("parseable");
            let bfs = bfs_parse(&pram, &matcher, &text).expect("parseable");
            let greedy = greedy_parse(&pram, &matcher, &text).expect("parseable");
            let lff = lff_parse(&pram, &matcher, &text).expect("parseable");
            check_parse(&opt, &dict, &text);
            check_parse(&bfs, &dict, &text);
            check_parse(&greedy, &dict, &text);
            check_parse(&lff, &dict, &text);
            assert_eq!(
                opt.num_phrases(),
                bfs.num_phrases(),
                "optimality (seed {seed})"
            );
            assert!(opt.num_phrases() <= greedy.num_phrases());
            assert!(opt.num_phrases() <= lff.num_phrases());
        }
    }

    #[test]
    fn greedy_is_strictly_suboptimal_sometimes() {
        // Prefix closure of {aab, abbb, b}: greedy takes "aab" and is
        // forced into aab|b|b (3 phrases); optimal parses a|abbb (2).
        let pram = Pram::seq();
        let dict = Dictionary::new(vec![b"aab".to_vec(), b"abbb".to_vec(), b"b".to_vec()]);
        let matcher = DictMatcher::build(&pram, dict.clone(), 3);
        let text = b"aabbb";
        let opt = optimal_parse(&pram, &matcher, text).unwrap();
        let greedy = greedy_parse(&pram, &matcher, text).unwrap();
        assert_eq!(opt.num_phrases(), 2);
        assert_eq!(greedy.num_phrases(), 3);
        check_parse(&opt, &dict, text);

        // Without the single-character word, greedy dead-ends entirely
        // while the optimal parse still exists.
        let dict2 = Dictionary::new(vec![b"aab".to_vec(), b"abbb".to_vec()]);
        let matcher2 = DictMatcher::build(&pram, dict2.clone(), 4);
        assert!(greedy_parse(&pram, &matcher2, text).is_none());
        let opt2 = optimal_parse(&pram, &matcher2, text).unwrap();
        assert_eq!(opt2.num_phrases(), 2);
        check_parse(&opt2, &dict2, text);
    }

    /// One table gives both parses: each equal to its own function's, the
    /// greedy one `None` where only it dead-ends, nothing for an
    /// unparseable text, and one Step-1 pass cheaper than two.
    #[test]
    fn one_table_gives_both_parses() {
        let pram = Pram::seq();
        let dict = parseable_dict(2, Alphabet::dna(), 12);
        let matcher = DictMatcher::build(&pram, dict, 2);
        let text = markov_text(42, 300, Alphabet::dna());
        let (both, c_both) = pram.metered(|p| optimal_and_greedy_parse(p, &matcher, &text));
        let (opt, c_opt) = pram.metered(|p| optimal_parse(p, &matcher, &text));
        let (greedy, c_greedy) = pram.metered(|p| greedy_parse(p, &matcher, &text));
        assert_eq!(both, Some((opt.unwrap(), greedy)));
        assert!(c_both.work < c_opt.work + c_greedy.work);

        let dead_end = DictMatcher::build(
            &pram,
            Dictionary::new(vec![b"aab".to_vec(), b"abbb".to_vec()]),
            4,
        );
        let (opt, greedy) = optimal_and_greedy_parse(&pram, &dead_end, b"aabbb").unwrap();
        assert_eq!(opt.num_phrases(), 2);
        assert!(greedy.is_none());

        let short = DictMatcher::build(
            &pram,
            Dictionary::new(vec![b"ab".to_vec(), b"a".to_vec()]),
            4,
        );
        assert!(optimal_and_greedy_parse(&pram, &short, b"abb").is_none());
    }

    #[test]
    fn unparseable_text_returns_none() {
        let pram = Pram::seq();
        let dict = Dictionary::new(vec![b"ab".to_vec(), b"a".to_vec()]);
        let matcher = DictMatcher::build(&pram, dict, 4);
        assert!(optimal_parse(&pram, &matcher, b"abb").is_none());
        assert!(greedy_parse(&pram, &matcher, b"abb").is_none());
        assert!(bfs_parse(&pram, &matcher, b"abb").is_none());
    }

    #[test]
    fn empty_text() {
        let pram = Pram::seq();
        let dict = Dictionary::new(vec![b"a".to_vec()]);
        let matcher = DictMatcher::build(&pram, dict, 5);
        let p = optimal_parse(&pram, &matcher, b"").unwrap();
        assert_eq!(p.num_phrases(), 0);
    }

    #[test]
    fn optimal_work_linear_bfs_work_superlinear() {
        let alpha = Alphabet::binary();
        let mut opt_per_char = Vec::new();
        let mut bfs_per_char = Vec::new();
        for n in [1usize << 11, 1 << 13, 1 << 15] {
            let pram = Pram::seq();
            let dict = parseable_dict(9, alpha, 30);
            let matcher = DictMatcher::build(&pram, dict, 10);
            let text = random_text(n as u64, n, alpha);
            let (_, c_opt) = pram.metered(|p| optimal_parse(p, &matcher, &text));
            let (_, c_bfs) = pram.metered(|p| bfs_parse(p, &matcher, &text));
            opt_per_char.push(c_opt.work as f64 / n as f64);
            bfs_per_char.push(c_bfs.work as f64 / n as f64);
        }
        assert!(
            opt_per_char[2] < opt_per_char[0] * 1.5 + 4.0,
            "optimal parse superlinear: {opt_per_char:?}"
        );
        let _ = bfs_per_char; // BFS work depends on match density; shown in E6.
    }
}
