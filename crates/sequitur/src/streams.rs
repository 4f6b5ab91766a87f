//! Recurring-stream length extraction (paper Figure 5).
//!
//! The paper plots the cumulative distribution of temporal instruction
//! stream lengths as identified by SEQUITUR, weighting each recurrence by
//! the opportunity (eliminable misses) it contains. Stream length is the
//! number of cache blocks in the recurring sequence; the paper removes
//! sequential misses from the trace beforehand (simulating a perfect
//! next-line prefetcher), so lengths count discontinuous blocks only — the
//! sequential collapse itself lives in `tifs-trace::filter`.

use crate::grammar::{Grammar, Sequitur, Sym};

/// One recurrence of a stream at the top level of the grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamOccurrence {
    /// Grammar rule index identifying the stream.
    pub rule: usize,
    /// Position in the trace at which this recurrence begins.
    pub start: usize,
    /// Stream length in symbols (cache blocks).
    pub len: usize,
    /// 1-based occurrence number of this rule at top level (1 = training
    /// occurrence).
    pub occurrence: usize,
}

/// Per-position classification emitted by [`walk_grammar`]; re-exported as
/// [`crate::categorize::MissClass`]'s data source.
#[derive(Clone, Debug, Default)]
pub struct GrammarWalk {
    /// For each trace position: 0 = non-repetitive, 1 = new, 2 = head,
    /// 3 = opportunity (see `categorize::MissClass`).
    pub class_codes: Vec<u8>,
    /// Every rule instance encountered, in trace order. Instances with
    /// `occurrence == 1` are training passes and are descended into (so they
    /// may contain nested instances); instances with `occurrence >= 2` are
    /// recurrences and never overlap each other.
    pub occurrences: Vec<StreamOccurrence>,
}

/// Walks the grammar's expansion at *instance* level.
///
/// Each rule instance increments that rule's dynamic occurrence count. The
/// first instance is a training pass: we descend into its body so that
/// nested streams seen before are still credited (this matters for periodic
/// traces, where SEQUITUR merges adjacent repeats into a hierarchy whose top
/// level has only two instances). Later instances are recurrences: one
/// `Head` miss plus `len - 1` `Opportunity` misses.
pub fn walk_grammar(grammar: &Grammar) -> GrammarWalk {
    let mut walk = GrammarWalk {
        class_codes: Vec::with_capacity(grammar.input_len()),
        occurrences: Vec::new(),
    };
    let mut counts = vec![0usize; grammar.num_rules()];
    // Explicit stack of (rule, next symbol index) to avoid deep recursion.
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    while let Some((r, i)) = stack.pop() {
        let rules = grammar.rules();
        if i >= rules[r].symbols.len() {
            continue;
        }
        stack.push((r, i + 1));
        match rules[r].symbols[i] {
            // A terminal directly in the start rule never repeats (digram
            // uniqueness would otherwise have folded it into a rule); a
            // terminal inside a descended rule body belongs to the training
            // pass of a stream that recurs later.
            Sym::T(_) => walk.class_codes.push(if r == 0 { 0 } else { 1 }),
            Sym::R(q) => {
                counts[q] += 1;
                let len = rules[q].expansion_len;
                walk.occurrences.push(StreamOccurrence {
                    rule: q,
                    start: walk.class_codes.len(),
                    len,
                    occurrence: counts[q],
                });
                if counts[q] == 1 {
                    stack.push((q, 0));
                } else {
                    // A recurrence contributes one Head plus `len - 1`
                    // Opportunity misses (every rule body holds at least
                    // two symbols, so `len >= 2`).
                    walk.class_codes.push(2);
                    walk.class_codes.extend(std::iter::repeat_n(3, len - 1));
                }
            }
        }
    }
    debug_assert_eq!(walk.class_codes.len(), grammar.input_len());
    walk
}

/// Extracts every stream instance of the trace, in trace order
/// (instance-level accounting; see [`walk_grammar`]).
pub fn stream_occurrences(trace: &[u64]) -> Vec<StreamOccurrence> {
    let mut s = Sequitur::with_capacity(trace.len());
    s.extend(trace.iter().copied());
    walk_grammar(&s.into_grammar()).occurrences
}

/// A cumulative distribution over stream lengths, weighted by opportunity
/// misses (paper Figure 5's y-axis is "% Opportunity").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LengthCdf {
    /// Sorted distinct stream lengths.
    lengths: Vec<usize>,
    /// Cumulative fraction of opportunity misses in streams of length
    /// `<= lengths[i]`.
    cum_fraction: Vec<f64>,
    /// Total opportunity misses observed.
    total_opportunity: usize,
}

impl LengthCdf {
    /// Builds the CDF from stream occurrences: recurrences (occurrence >= 2)
    /// contribute `len - 1` opportunity misses each at x = `len`.
    pub fn from_occurrences(occurrences: &[StreamOccurrence]) -> LengthCdf {
        let mut weighted: Vec<(usize, usize)> = occurrences
            .iter()
            .filter(|o| o.occurrence >= 2 && o.len >= 2)
            .map(|o| (o.len, o.len - 1))
            .collect();
        weighted.sort_unstable();
        let total: usize = weighted.iter().map(|&(_, w)| w).sum();
        let mut lengths = Vec::new();
        let mut cum_fraction = Vec::new();
        let mut acc = 0usize;
        let mut i = 0;
        while i < weighted.len() {
            let len = weighted[i].0;
            while i < weighted.len() && weighted[i].0 == len {
                acc += weighted[i].1;
                i += 1;
            }
            lengths.push(len);
            cum_fraction.push(acc as f64 / total.max(1) as f64);
        }
        LengthCdf {
            lengths,
            cum_fraction,
            total_opportunity: total,
        }
    }

    /// Convenience: run SEQUITUR on a trace and build the CDF.
    pub fn from_trace(trace: &[u64]) -> LengthCdf {
        LengthCdf::from_occurrences(&stream_occurrences(trace))
    }

    /// The (length, cumulative-fraction) points of the CDF.
    pub fn points(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.lengths
            .iter()
            .copied()
            .zip(self.cum_fraction.iter().copied())
    }

    /// Total opportunity misses the CDF accounts for.
    pub fn total_opportunity(&self) -> usize {
        self.total_opportunity
    }

    /// The stream length at which the CDF crosses `q` (e.g. 0.5 for the
    /// median stream length); `None` for an empty distribution.
    pub fn quantile(&self, q: f64) -> Option<usize> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        self.lengths
            .iter()
            .zip(&self.cum_fraction)
            .find(|&(_, &c)| c >= q)
            .map(|(&l, _)| l)
    }

    /// Cumulative fraction of opportunity in streams of length `<= len`.
    pub fn fraction_at(&self, len: usize) -> f64 {
        match self.lengths.partition_point(|&l| l <= len) {
            0 => 0.0,
            k => self.cum_fraction[k - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occurrences_cover_repeats() {
        // (a b c d e) x4 — SEQUITUR may structure hierarchically; at
        // instance level, recurrences (occurrence >= 2) must be disjoint and
        // every recurrence must lie within the trace.
        let trace: Vec<u64> = (0..5).cycle().take(20).collect();
        let occs = stream_occurrences(&trace);
        assert!(!occs.is_empty());
        let mut last_end = 0usize;
        for o in occs.iter().filter(|o| o.occurrence >= 2) {
            assert!(o.start >= last_end, "recurrences must not overlap: {o:?}");
            assert!(o.start + o.len <= trace.len());
            last_end = o.start + o.len;
        }
        // The loop repeats; some recurrence must exist.
        assert!(occs.iter().any(|o| o.occurrence >= 2));
    }

    #[test]
    fn median_of_uniform_streams() {
        // Single stream of length 8 repeated 10 times (with unique separators
        // so SEQUITUR cannot merge consecutive iterations).
        let mut trace = Vec::new();
        for i in 0..10 {
            trace.extend(100u64..108);
            trace.push(1000 + i);
        }
        let cdf = LengthCdf::from_trace(&trace);
        let median = cdf.quantile(0.5).expect("non-empty");
        assert!(
            (8..=9).contains(&median),
            "median should be the stream length (8, or 9 if a separator fused), got {median}"
        );
    }

    #[test]
    fn quantiles_monotone() {
        let mut trace = Vec::new();
        for rep in 0..6 {
            trace.extend(0u64..16);
            trace.push(500 + rep);
            trace.extend(200u64..264);
            trace.push(600 + rep);
        }
        let cdf = LengthCdf::from_trace(&trace);
        let q25 = cdf.quantile(0.25).unwrap();
        let q50 = cdf.quantile(0.5).unwrap();
        let q90 = cdf.quantile(0.9).unwrap();
        assert!(q25 <= q50 && q50 <= q90);
        assert!(cdf.total_opportunity() > 0);
    }

    #[test]
    fn fraction_at_bounds() {
        let trace: Vec<u64> = (0..10).cycle().take(60).collect();
        let cdf = LengthCdf::from_trace(&trace);
        assert_eq!(cdf.fraction_at(0), 0.0);
        let max_len = cdf.points().map(|(l, _)| l).max().unwrap();
        assert!((cdf.fraction_at(max_len) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_unique_traces() {
        assert_eq!(LengthCdf::from_trace(&[]).quantile(0.5), None);
        let unique: Vec<u64> = (0..50).collect();
        let cdf = LengthCdf::from_trace(&unique);
        assert_eq!(cdf.total_opportunity(), 0);
        assert_eq!(cdf.quantile(0.5), None);
    }
}
