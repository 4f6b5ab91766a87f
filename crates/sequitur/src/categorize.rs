//! Miss categorization for the opportunity study (paper Figures 3 and 4).
//!
//! The paper classifies every L1-I miss by whether it repeats a prior
//! temporal miss stream:
//!
//! * **Non-repetitive** — the miss never occurs as part of a repeating
//!   stream.
//! * **New** — part of a repeating stream, but this is the stream's first
//!   occurrence (the occurrence that trains the predictor).
//! * **Head** — the first miss of a recurrence of a stream; a hardware
//!   streamer needs it to trigger the stream lookup, so it cannot be
//!   eliminated.
//! * **Opportunity** — the remaining misses of a recurrence; these are the
//!   misses a temporal streamer can eliminate.
//!
//! Following the paper, streams are identified with SEQUITUR: production
//! rules correspond to recurring subsequences, and digram uniqueness
//! guarantees that adjacent repeats merge into maximal rules. We classify at
//! the *instance* level: walking the grammar's expansion, the first dynamic
//! instance of each rule is a training pass (descended into, so nested
//! streams seen before still count), and each later instance contributes one
//! `Head` plus `len - 1` `Opportunity` misses. Terminals that remain
//! directly in the start rule never repeat with stable neighbours and are
//! `NonRepetitive`.

use crate::grammar::Sequitur;
use crate::streams::walk_grammar;

/// The category assigned to one miss of a trace (paper Figure 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// Never part of a repeating stream.
    NonRepetitive,
    /// First occurrence of a repeating stream.
    New,
    /// First miss of a stream recurrence (triggers the lookup).
    Head,
    /// Remaining misses of a recurrence; eliminable by streaming.
    Opportunity,
}

/// Aggregate counts of the four categories over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CategoryCounts {
    /// Count of [`MissClass::NonRepetitive`] misses.
    pub non_repetitive: usize,
    /// Count of [`MissClass::New`] misses.
    pub new: usize,
    /// Count of [`MissClass::Head`] misses.
    pub head: usize,
    /// Count of [`MissClass::Opportunity`] misses.
    pub opportunity: usize,
}

impl CategoryCounts {
    /// Total misses accounted.
    pub fn total(&self) -> usize {
        self.non_repetitive + self.new + self.head + self.opportunity
    }

    /// Fraction of misses in each category, in paper order
    /// (opportunity, head, new, non-repetitive). Returns zeros for an empty
    /// trace.
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total();
        if t == 0 {
            return [0.0; 4];
        }
        let t = t as f64;
        [
            self.opportunity as f64 / t,
            self.head as f64 / t,
            self.new as f64 / t,
            self.non_repetitive as f64 / t,
        ]
    }

    /// Fraction of misses that are part of some recurring stream
    /// (`new + head + opportunity`); the paper reports 94% on average.
    pub fn repetitive_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        (self.new + self.head + self.opportunity) as f64 / t as f64
    }

    /// Tallies a slice of classes.
    pub fn from_classes(classes: &[MissClass]) -> CategoryCounts {
        let mut c = CategoryCounts::default();
        for k in classes {
            match k {
                MissClass::NonRepetitive => c.non_repetitive += 1,
                MissClass::New => c.new += 1,
                MissClass::Head => c.head += 1,
                MissClass::Opportunity => c.opportunity += 1,
            }
        }
        c
    }
}

/// Classifies every position of `trace` (paper Figure 4 accounting).
///
/// Runs SEQUITUR over the trace and walks the start rule.
///
/// # Example
///
/// ```
/// use tifs_sequitur::categorize::{categorize, CategoryCounts, MissClass};
///
/// // p q r s  (w x y z) x3  — the paper's Figure 4.
/// let mut trace: Vec<u64> = vec![100, 101, 102, 103];
/// for _ in 0..3 { trace.extend([1, 2, 3, 4]); }
/// let classes = categorize(&trace);
/// let counts = CategoryCounts::from_classes(&classes);
/// assert_eq!(counts.non_repetitive, 4); // p q r s
/// assert_eq!(counts.new, 4);            // first w x y z
/// assert_eq!(counts.head, 2);           // w of each later recurrence
/// assert_eq!(counts.opportunity, 6);    // x y z of each later recurrence
/// ```
pub fn categorize(trace: &[u64]) -> Vec<MissClass> {
    let mut s = Sequitur::with_capacity(trace.len());
    s.extend(trace.iter().copied());
    walk_grammar(&s.into_grammar())
        .class_codes
        .into_iter()
        .map(|code| match code {
            0 => MissClass::NonRepetitive,
            1 => MissClass::New,
            2 => MissClass::Head,
            3 => MissClass::Opportunity,
            other => unreachable!("invalid class code {other}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_exact_accounting() {
        // Figure 4: p q r s | w x y z | w x y z | w x y z
        // Expected: 4 non-repetitive, 4 new, 2 heads, 6 opportunity.
        let mut trace: Vec<u64> = vec![100, 101, 102, 103];
        for _ in 0..3 {
            trace.extend([1, 2, 3, 4]);
        }
        let classes = categorize(&trace);
        let c = CategoryCounts::from_classes(&classes);
        assert_eq!(c.non_repetitive, 4);
        assert_eq!(c.new, 4);
        assert_eq!(c.head, 2);
        assert_eq!(c.opportunity, 6);
        // The first four positions are exactly the non-repetitive ones.
        assert!(classes[..4].iter().all(|k| *k == MissClass::NonRepetitive));
        assert_eq!(classes[4..8], [MissClass::New; 4]);
        assert_eq!(classes[8], MissClass::Head);
        assert_eq!(classes[12], MissClass::Head);
    }

    #[test]
    fn counts_partition_trace() {
        let trace: Vec<u64> = (0..500).map(|i| (i % 37) as u64).collect();
        let classes = categorize(&trace);
        assert_eq!(classes.len(), trace.len());
        let c = CategoryCounts::from_classes(&classes);
        assert_eq!(c.total(), trace.len());
    }

    #[test]
    fn pure_random_is_mostly_non_repetitive() {
        // Distinct symbols: nothing repeats.
        let trace: Vec<u64> = (0..100).collect();
        let c = CategoryCounts::from_classes(&categorize(&trace));
        assert_eq!(c.non_repetitive, 100);
        assert_eq!(c.opportunity, 0);
    }

    #[test]
    fn perfect_loop_is_mostly_opportunity() {
        let trace: Vec<u64> = (0..32).cycle().take(32 * 64).collect();
        let c = CategoryCounts::from_classes(&categorize(&trace));
        // After the first iteration almost everything is eliminable.
        assert!(
            c.opportunity as f64 / c.total() as f64 > 0.8,
            "opportunity fraction too low: {c:?}"
        );
    }

    #[test]
    fn empty_trace() {
        assert!(categorize(&[]).is_empty());
        assert_eq!(CategoryCounts::from_classes(&[]).total(), 0);
        assert_eq!(CategoryCounts::default().fractions(), [0.0; 4]);
    }

    #[test]
    fn fractions_sum_to_one() {
        let trace: Vec<u64> = (0..64).cycle().take(512).chain(900..950).collect();
        let c = CategoryCounts::from_classes(&categorize(&trace));
        let f: f64 = c.fractions().iter().sum();
        assert!((f - 1.0).abs() < 1e-12);
    }
}
