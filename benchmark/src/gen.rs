//! Seeded request mixes for the two closed-loop workloads. The program
//! under test never sees a seed, only the requests drawn here.

use crate::workloads::sub_seed;
use pardict_pram::SplitMix64;

/// Operation classes a mix can draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// Match a 256 B text: under the engine's `seq_threshold`, so it takes
    /// the sequential Aho–Corasick lane.
    MatchSmall,
    /// Match a 4 KiB text: the batched PRAM lane.
    Match4k,
    /// All occurrences in a 4 KiB text.
    Grep4k,
    /// LZ1-compress an 8 KiB text.
    Compress8k,
    /// `publish_delta` of one pattern; acknowledged after the WAL fsync.
    Delta,
    /// Container grep, scatter-gathered by a cluster router.
    Grepz,
}

/// One drawn request: which operation, against which dictionary, on which
/// text of that class's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Draw {
    pub kind: Kind,
    pub dict: usize,
    pub text: usize,
}

/// A seeded stream of [`Draw`]s. Kinds come from a deck holding each kind
/// as many times as `deck` says, reshuffled whenever it runs out — so every
/// `Σ counts` consecutive requests carry the mix's exact proportions and a
/// window's share of slow operations does not vary binomially from seed to
/// seed. Dictionary by a Zipf law over `dicts` (rank r with weight 1/r),
/// text uniform over `pool`.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: SplitMix64,
    deck: &'static [(Kind, u32)],
    hand: Vec<Kind>,
    zipf_cum: Vec<f64>,
    pool: usize,
}

impl Mix {
    /// `stream` separates the connections of one run.
    pub fn new(
        seed: u64,
        stream: u64,
        deck: &'static [(Kind, u32)],
        dicts: usize,
        pool: usize,
    ) -> Self {
        let mut acc = 0.0;
        let zipf_cum = (1..=dicts)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        Self {
            rng: SplitMix64::new(sub_seed(seed, 0x4D49_5800 + stream)),
            deck,
            hand: Vec::new(),
            zipf_cum,
            pool,
        }
    }
}

impl Iterator for Mix {
    type Item = Draw;

    fn next(&mut self) -> Option<Draw> {
        if self.hand.is_empty() {
            for &(kind, count) in self.deck {
                self.hand.extend((0..count).map(|_| kind));
            }
            // Fisher–Yates.
            for i in (1..self.hand.len()).rev() {
                self.hand
                    .swap(i, self.rng.next_below(i as u64 + 1) as usize);
            }
        }
        let kind = self.hand.pop().expect("a deck holds at least one card");
        let total = *self.zipf_cum.last().expect("at least one dictionary");
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        let dict = self
            .zipf_cum
            .partition_point(|&c| c <= u)
            .min(self.zipf_cum.len() - 1);
        let text = self.rng.next_below(self.pool as u64) as usize;
        Some(Draw { kind, dict, text })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Fnv;

    const DECK: &[(Kind, u32)] = &[
        (Kind::MatchSmall, 12),
        (Kind::Match4k, 4),
        (Kind::Grep4k, 2),
        (Kind::Compress8k, 1),
        (Kind::Delta, 1),
    ];

    fn sequence_hash(seed: u64, stream: u64) -> u64 {
        Mix::new(seed, stream, DECK, 4, 8)
            .take(500)
            .fold(Fnv::default(), |f, d| {
                f.u64(d.kind as u64).u64(d.dict as u64).u64(d.text as u64)
            })
            .finish()
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        assert_eq!(sequence_hash(42, 0), sequence_hash(42, 0));
        assert_ne!(sequence_hash(42, 0), sequence_hash(43, 0));
        assert_ne!(sequence_hash(42, 0), sequence_hash(42, 1));
    }

    #[test]
    fn every_deal_has_the_exact_mix_and_dictionaries_are_zipf_skewed() {
        let draws: Vec<Draw> = Mix::new(7, 0, DECK, 4, 8).take(20_000).collect();
        for deal in draws.chunks(20) {
            let count = |k: Kind| deal.iter().filter(|d| d.kind == k).count();
            assert_eq!(
                [
                    count(Kind::MatchSmall),
                    count(Kind::Match4k),
                    count(Kind::Grep4k),
                    count(Kind::Compress8k),
                    count(Kind::Delta),
                    count(Kind::Grepz),
                ],
                [12, 4, 2, 1, 1, 0]
            );
        }
        // The order inside a deal is shuffled, not fixed.
        assert_ne!(draws[..20], draws[20..40]);
        let by_dict = |d: usize| draws.iter().filter(|x| x.dict == d).count();
        // 1 : 1/2 : 1/3 : 1/4 — strictly decreasing, rank 1 near 48 %.
        assert!(by_dict(0) > by_dict(1) && by_dict(1) > by_dict(2) && by_dict(2) > by_dict(3));
        assert!((by_dict(0) as f64 / 20_000.0 - 0.48).abs() < 0.02);
        assert!(draws.iter().all(|d| d.text < 8 && d.dict < 4));
    }
}
