//! Stream compaction: pack the selected elements of a round's output into a
//! dense array. Flags → prefix sums → scatter: `O(n)` work, `O(log n)` depth.

use crate::ctx::Pram;

impl Pram {
    /// Indices `i` with `flags[i]` set, in increasing order.
    pub fn pack_indices(&self, flags: &[bool]) -> Vec<usize> {
        let ones: Vec<u64> = self.map(flags, |_, &f| u64::from(f));
        let offsets = self.scan_exclusive_sum(&ones);
        let total = offsets.last().map_or(0, |&o| o) + ones.last().map_or(0, |&o| o);
        let mut out = vec![0usize; total as usize];
        self.ledger().round(flags.len() as u64);
        for (i, &f) in flags.iter().enumerate() {
            if f {
                out[offsets[i] as usize] = i;
            }
        }
        out
    }

    /// Dense copy of the elements whose flag is set.
    pub fn pack<T: Copy + Send + Sync>(&self, xs: &[T], flags: &[bool]) -> Vec<T> {
        assert_eq!(xs.len(), flags.len());
        let idx = self.pack_indices(flags);
        self.map(&idx, |_, &i| xs[i])
    }

    /// One-round predicate evaluation followed by compaction.
    pub fn filter<T, P>(&self, xs: &[T], pred: P) -> Vec<T>
    where
        T: Copy + Send + Sync,
        P: Fn(usize, &T) -> bool + Sync,
    {
        let flags = self.map(xs, |i, x| pred(i, x));
        self.pack(xs, &flags)
    }
}

#[cfg(test)]
mod tests {
    use crate::{ceil_log2, Pram};

    #[test]
    fn pack_indices_selects_in_order() {
        let pram = Pram::seq();
        let flags = vec![true, false, true, true, false, true];
        assert_eq!(pram.pack_indices(&flags), vec![0, 2, 3, 5]);
    }

    #[test]
    fn pack_empty_and_none_selected() {
        let pram = Pram::seq();
        assert_eq!(pram.pack_indices(&[]), Vec::<usize>::new());
        assert_eq!(pram.pack_indices(&[false, false]), Vec::<usize>::new());
    }

    #[test]
    fn filter_matches_std() {
        let pram = Pram::seq();
        let xs: Vec<u32> = (0..500).collect();
        let got = pram.filter(&xs, |_, &x| x % 7 == 0);
        let want: Vec<u32> = xs.iter().copied().filter(|x| x % 7 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pack_cost_envelope() {
        let n = 1 << 15;
        let pram = Pram::seq();
        let flags = vec![true; n];
        pram.pack_indices(&flags);
        let c = pram.cost();
        assert!(c.work <= 12 * n as u64);
        assert!(c.depth <= 10 * u64::from(ceil_log2(n)));
    }
}
