//! Suffix array, LCP array, and longest-common-extension queries.
//!
//! The stream lookup-heuristic replay (paper Figure 6) repeatedly asks "how
//! far does the miss sequence starting at position *i* match the sequence
//! that followed an earlier occurrence at position *p*?". That is a
//! longest-common-extension (LCE) query. A query compares its first eight
//! symbols directly, which settles most queries, and answers the rest with
//! one range minimum over the LCP array. The index is built in
//! O(n log n) time and O(n) memory:
//!
//! * suffix array by prefix doubling with radix passes over dense ranks
//!   (Manber–Myers): one comparison sort by symbol, then rounds of O(n)
//!   each, ⌈log₂(r + 1)⌉ of them for a trace whose longest repeat is *r*
//!   symbols long;
//! * LCP array by Kasai's algorithm, O(n), in 16-bit values that saturate
//!   (a query meeting only saturated values measures on past them);
//! * range minimum over the LCP array in two levels: minima of 8-value
//!   blocks under a sparse table, with a scan of at most one block at each
//!   end of a query.

use std::fmt;

/// Symbols an LCE query compares directly before it falls back to the
/// range-minimum query.
const PREFIX: usize = 8;

/// Precomputed index over a symbol trace answering longest-common-extension
/// queries. It borrows the trace it was built over.
///
/// # Example
///
/// ```
/// use tifs_sequitur::LceIndex;
///
/// let trace = [1u64, 2, 3, 9, 1, 2, 3, 7];
/// let idx = LceIndex::new(&trace);
/// assert_eq!(idx.lce(0, 4), 3); // "1 2 3" matches, then 9 != 7
/// assert_eq!(idx.lce(2, 6), 1); // "3" matches, then 9 != 7
/// assert_eq!(idx.lce(3, 3), trace.len() - 3); // identical suffixes
/// ```
pub struct LceIndex<'t> {
    trace: &'t [u64],
    /// rank[i] = position of suffix i in the suffix array.
    rank: Vec<u32>,
    /// Range-minimum structure over the LCP array, each value saturated at
    /// [`Lcp::MAX`].
    rmq: BlockRmq,
}

/// A stored LCP value. Common prefixes of `Lcp::MAX` symbols or more
/// saturate; [`LceIndex::lce`] measures past them exactly.
type Lcp = u16;

impl fmt::Debug for LceIndex<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LceIndex").field("n", &self.len()).finish()
    }
}

impl<'t> LceIndex<'t> {
    /// Builds the index for `trace`. Cost: O(n log n) time, O(n) memory.
    pub fn new(trace: &'t [u64]) -> LceIndex<'t> {
        let n = trace.len();
        let sa = suffix_array(trace);
        let mut rank = vec![0u32; n];
        for (k, &s) in (0u32..).zip(&sa) {
            rank[s as usize] = k;
        }
        let lcp = kasai(trace, &sa, &rank);
        LceIndex {
            trace,
            rank,
            rmq: BlockRmq::new(lcp),
        }
    }

    /// Length of the trace this index covers.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Returns `true` if the indexed trace is empty.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Longest common extension: the length of the longest common prefix of
    /// the suffixes starting at `i` and `j`. Constant time: at most eight
    /// symbol comparisons and one range minimum, plus one more range
    /// minimum per 65,535 symbols of a longer match.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn lce(&self, i: usize, j: usize) -> usize {
        let n = self.trace.len();
        assert!(i <= n && j <= n, "lce out of bounds");
        if i == j {
            return n - i;
        }
        let (mut i, mut j, mut matched) = (i, j, 0);
        loop {
            // Most queries end within a few symbols; comparing them
            // directly skips both rank lookups and the range minimum.
            let room = n - i.max(j);
            let head = room.min(PREFIX);
            let (a, b) = (&self.trace[i..i + head], &self.trace[j..j + head]);
            if let Some(k) = a.iter().zip(b).position(|(x, y)| x != y) {
                return matched + k;
            }
            if head == room {
                return matched + room;
            }
            let (ra, rb) = (self.rank[i] as usize, self.rank[j] as usize);
            let m = self.rmq.min(ra.min(rb) + 1, ra.max(rb));
            if m < Lcp::MAX {
                return matched + usize::from(m);
            }
            // Every LCP between the two ranks saturated, so the suffixes
            // share at least `Lcp::MAX` symbols: measure on from there.
            let step = usize::from(Lcp::MAX);
            (i, j, matched) = (i + step, j + step, matched + step);
        }
    }
}

/// Suffix array by prefix doubling with radix passes (Manber–Myers).
/// Symbols are arbitrary `u64` values; a comparison sort of the positions
/// by symbol gives the first dense ranks. Each doubling round then orders
/// the suffixes by their rank pair in two linear passes: by second key,
/// read off the previous round's order, then a stable counting sort by
/// first key.
///
/// # Panics
///
/// Panics if the trace holds more than `u32::MAX` symbols.
pub fn suffix_array(trace: &[u64]) -> Vec<u32> {
    let n = trace.len();
    let len = u32::try_from(n).expect("suffix positions fit u32");
    if n == 0 {
        return Vec::new();
    }
    // Round 0: positions ordered by symbol, equal symbols one dense rank.
    let mut sa: Vec<u32> = (0..len).collect();
    sa.sort_unstable_by_key(|&i| trace[i as usize]);
    let mut rank = vec![0u32; n];
    let mut classes = 1u32;
    for w in 1..n {
        classes += u32::from(trace[sa[w] as usize] != trace[sa[w - 1] as usize]);
        rank[sa[w] as usize] = classes - 1;
    }

    let mut by_second = vec![0u32; n];
    let mut next = vec![0u32; n];
    let mut bucket: Vec<u32> = Vec::new();
    let mut k = 1usize;
    while (classes as usize) < n {
        // Pass 1, by second key: the suffixes whose second half runs off
        // the end sort first, then the rest in suffix-array order of i + k.
        let mut w = 0;
        for i in n - k..n {
            by_second[w] = i as u32;
            w += 1;
        }
        for &p in &sa {
            if p as usize >= k {
                by_second[w] = p - k as u32;
                w += 1;
            }
        }
        // Pass 2, a stable counting sort by first key.
        bucket.clear();
        bucket.resize(classes as usize + 1, 0);
        for &r in &rank {
            bucket[r as usize + 1] += 1;
        }
        for c in 1..bucket.len() {
            bucket[c] += bucket[c - 1];
        }
        for &p in &by_second {
            let slot = &mut bucket[rank[p as usize] as usize];
            sa[*slot as usize] = p;
            *slot += 1;
        }
        // New ranks: a class per distinct (first, second) key pair.
        let key = |i: u32| {
            let i = i as usize;
            (rank[i], rank.get(i + k).copied())
        };
        classes = 1;
        next[sa[0] as usize] = 0;
        for w in 1..n {
            classes += u32::from(key(sa[w]) != key(sa[w - 1]));
            next[sa[w] as usize] = classes - 1;
        }
        std::mem::swap(&mut rank, &mut next);
        k <<= 1;
    }
    sa
}

/// Kasai's LCP construction: `lcp[k]` = LCP(sa[k-1], sa[k]), `lcp[0]` = 0,
/// each saturated at [`Lcp::MAX`].
fn kasai(trace: &[u64], sa: &[u32], rank: &[u32]) -> Vec<Lcp> {
    let n = trace.len();
    let mut lcp = vec![0; n];
    let mut h = 0usize;
    for i in 0..n {
        let r = rank[i] as usize;
        if r > 0 {
            let j = sa[r - 1] as usize;
            while i + h < n && j + h < n && trace[i + h] == trace[j + h] {
                h += 1;
            }
            lcp[r] = Lcp::try_from(h).unwrap_or(Lcp::MAX);
            h = h.saturating_sub(1);
        } else {
            h = 0;
        }
    }
    lcp
}

/// Values per block of [`BlockRmq`].
const BLOCK: usize = 8;

/// Two-level range-minimum structure: per-block minima with a sparse table
/// on top, linear scan within blocks. O(n) memory; a query reads at most
/// two partial blocks of [`BLOCK`] values and two sparse-table entries.
struct BlockRmq {
    data: Vec<Lcp>,
    /// sparse[l][b] = min of blocks [b, b + 2^l).
    sparse: Vec<Vec<Lcp>>,
}

impl BlockRmq {
    fn new(data: Vec<Lcp>) -> BlockRmq {
        let nb = data.len().div_ceil(BLOCK);
        let level0: Vec<Lcp> = data
            .chunks(BLOCK)
            .map(|c| c.iter().copied().min().expect("chunks are non-empty"))
            .collect();
        let mut sparse = vec![level0];
        let mut width = 1usize;
        while width * 2 <= nb {
            let prev = sparse.last().expect("at least one level");
            let next: Vec<Lcp> = (0..=(nb - width * 2))
                .map(|b| prev[b].min(prev[b + width]))
                .collect();
            sparse.push(next);
            width *= 2;
        }
        BlockRmq { data, sparse }
    }

    /// Minimum of `data[lo..=hi]`. Requires `lo <= hi < data.len()`.
    fn min(&self, lo: usize, hi: usize) -> Lcp {
        debug_assert!(lo <= hi && hi < self.data.len());
        let scan = |r: std::ops::RangeInclusive<usize>| {
            self.data[r].iter().copied().min().expect("non-empty")
        };
        let (b_lo, b_hi) = (lo / BLOCK, hi / BLOCK);
        if b_lo == b_hi {
            return scan(lo..=hi);
        }
        // Partial blocks at both ends, whole blocks between them.
        let mut best = scan(lo..=(b_lo + 1) * BLOCK - 1).min(scan(b_hi * BLOCK..=hi));
        if b_lo + 1 < b_hi {
            let (first, last) = (b_lo + 1, b_hi - 1);
            let level = (last - first + 1).ilog2() as usize;
            let w = 1usize << level;
            best = best
                .min(self.sparse[level][first])
                .min(self.sparse[level][last + 1 - w]);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_sa(trace: &[u64]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..trace.len() as u32).collect();
        sa.sort_by(|&a, &b| trace[a as usize..].cmp(&trace[b as usize..]));
        sa
    }

    fn naive_lce(trace: &[u64], i: usize, j: usize) -> usize {
        let mut k = 0;
        while i + k < trace.len() && j + k < trace.len() && trace[i + k] == trace[j + k] {
            k += 1;
        }
        k
    }

    prop_compose! {
        /// A stream of 10 to 40 symbols copied several times, each copy
        /// followed by a few other symbols: the LCEs between copies run
        /// past the direct-compare prefix and their rank ranges cross RMQ
        /// blocks.
        fn repetitive_trace()(
            stream in prop::collection::vec(0u64..4, 10..40),
            copies in 2usize..5,
            noise in prop::collection::vec(0u64..4, 0..12),
        ) -> Vec<u64> {
            let mut trace = Vec::new();
            for c in 0..copies {
                trace.extend_from_slice(&stream);
                trace.extend_from_slice(&noise[..noise.len() * c / copies]);
            }
            trace
        }
    }

    proptest! {
        #[test]
        fn radix_sa_matches_naive_over_a_small_alphabet(
            trace in prop::collection::vec(0u64..3, 0..400),
        ) {
            prop_assert_eq!(suffix_array(&trace), naive_sa(&trace));
        }

        #[test]
        fn radix_sa_matches_naive_over_a_large_alphabet(
            trace in prop::collection::vec(
                prop_oneof![any::<u64>(), (u64::MAX - 2)..=u64::MAX, 0u64..3],
                0..300,
            ),
        ) {
            prop_assert_eq!(suffix_array(&trace), naive_sa(&trace));
        }

        #[test]
        fn radix_sa_matches_naive_over_repeats(trace in repetitive_trace()) {
            prop_assert_eq!(suffix_array(&trace), naive_sa(&trace));
        }

        #[test]
        fn lce_matches_naive_at_every_pair(trace in repetitive_trace()) {
            let idx = LceIndex::new(&trace);
            let mut past_prefix = 0;
            for i in 0..=trace.len() {
                for j in 0..=trace.len() {
                    let expect = naive_lce(&trace, i, j);
                    past_prefix += usize::from(i != j && expect > PREFIX);
                    prop_assert_eq!(idx.lce(i, j), expect, "lce({}, {})", i, j);
                }
            }
            prop_assert!(past_prefix > 0, "no query reached the range minimum");
        }
    }

    #[test]
    fn sa_of_degenerate_traces() {
        assert!(suffix_array(&[]).is_empty());
        assert_eq!(suffix_array(&[u64::MAX]), vec![0]);
        for n in 1..70u32 {
            for v in [0, 7, u64::MAX] {
                // Equal symbols: the shorter suffix sorts first.
                let expect: Vec<u32> = (0..n).rev().collect();
                assert_eq!(suffix_array(&vec![v; n as usize]), expect, "{n} x {v}");
            }
        }
    }

    #[test]
    fn saturated_lcps_measure_on_exactly() {
        // Common prefixes longer than `Lcp::MAX` symbols, so every LCP
        // between their ranks saturates.
        let long = 2 * usize::from(Lcp::MAX) + 1000;
        let equal = vec![7u64; long];
        let periodic: Vec<u64> = (0..long as u64).map(|k| k % 3).collect();
        let mut x = 1u64;
        let stream: Vec<u64> = (0..usize::from(Lcp::MAX) + 4465)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 60
            })
            .collect();
        let mut twice = stream.clone();
        twice.push(100);
        twice.extend_from_slice(&stream);
        twice.push(200);
        let copy = stream.len() + 1;
        for (trace, pairs) in [
            (
                &equal,
                vec![(0, 1), (1, 0), (5, 70_000), (0, long - 1), (100, 65_635)],
            ),
            (
                &periodic,
                vec![(0, 3), (4, 1), (0, 1), (2, 65_537), (0, 3 * 30_000)],
            ),
            (
                &twice,
                vec![(0, copy), (copy + 7, 7), (1, copy), (copy + 65_000, 65_000)],
            ),
        ] {
            let idx = LceIndex::new(trace);
            for (i, j) in pairs {
                assert_eq!(idx.lce(i, j), naive_lce(trace, i, j), "lce({i}, {j})");
            }
        }
    }

    #[test]
    fn sa_matches_naive_small() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![5],
            vec![1, 1, 1, 1],
            vec![3, 1, 2, 3, 1, 2],
            vec![9, 8, 7, 6, 5],
            (0..40).map(|i| (i * 7 % 5) as u64).collect(),
        ];
        for t in cases {
            assert_eq!(suffix_array(&t), naive_sa(&t), "trace {t:?}");
        }
    }

    #[test]
    fn lce_matches_naive() {
        let trace: Vec<u64> = (0..200).map(|i| (i * 13 % 7) as u64).collect();
        let idx = LceIndex::new(&trace);
        for i in 0..trace.len() {
            for j in 0..trace.len() {
                assert_eq!(
                    idx.lce(i, j),
                    naive_lce(&trace, i, j),
                    "lce({i},{j}) on periodic trace"
                );
            }
        }
    }

    #[test]
    fn lce_empty_and_end() {
        let trace = [1u64, 2, 3];
        let idx = LceIndex::new(&trace);
        assert_eq!(idx.lce(3, 3), 0);
        assert_eq!(idx.lce(0, 3), 0);
        let empty = LceIndex::new(&[]);
        assert_eq!(empty.lce(0, 0), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn rmq_exhaustive_small() {
        let data: Vec<Lcp> = (0..300).map(|i| ((i * 31) % 97) as Lcp).collect();
        let rmq = BlockRmq::new(data.clone());
        for lo in 0..data.len() {
            for hi in lo..data.len() {
                let expect = data[lo..=hi].iter().copied().min().unwrap();
                assert_eq!(rmq.min(lo, hi), expect, "range [{lo},{hi}]");
            }
        }
    }

    #[test]
    fn large_repetitive_trace() {
        // A trace with a long repeated stream; LCE across the two copies must
        // equal the stream length.
        let stream: Vec<u64> = (100..612).collect();
        let mut trace = stream.clone();
        trace.push(1);
        trace.extend_from_slice(&stream);
        trace.push(2);
        let idx = LceIndex::new(&trace);
        assert_eq!(idx.lce(0, stream.len() + 1), stream.len());
    }
}
