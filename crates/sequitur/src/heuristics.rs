//! Stream lookup heuristic evaluation (paper Figure 6, Section 4.4).
//!
//! When several distinct streams begin at the same head address (divergent
//! control flow), a streaming predictor must pick which previously-seen
//! stream to replay. The paper compares four policies against the SEQUITUR
//! repetition bound:
//!
//! * [`Heuristic::First`] — the first stream ever recorded for the head.
//! * [`Heuristic::Digram`] — use the *second* address, in addition to the
//!   head, to select the stream (costs one extra unpredicted miss).
//! * [`Heuristic::Recent`] — the most recently recorded stream for the head;
//!   what TIFS implements (the Index Table always points at the latest IML
//!   occurrence).
//! * [`Heuristic::Longest`] — the longest stream that ever followed the
//!   head; impractical in hardware (length is only known after the fact) but
//!   the best performer.
//! * [`Heuristic::Opportunity`] — the per-lookup oracle bound: among
//!   remembered candidates, the one matching the actual future longest.
//!
//! One replay walks the miss trace once for any set of policies, each
//! following its own streams. At each of a policy's *heads* (a miss not
//! covered by its active stream), the policy picks a prior occurrence of
//! the head address; the stream following that occurrence is compared
//! against the actual future with an O(1) longest-common-extension query
//! and all matched misses are counted as eliminated. Heads themselves are
//! never eliminated, matching the paper's `Head`/`Opportunity` accounting.

use crate::suffix::LceIndex;

/// Stream lookup policy (paper Section 4.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Earliest recorded stream for the head address.
    First,
    /// Head address plus second miss address select the stream.
    Digram,
    /// Most recently recorded stream for the head address (TIFS policy).
    Recent,
    /// Stream with the greatest historically-observed length.
    Longest,
    /// Per-lookup oracle: candidate that matches the actual future longest.
    Opportunity,
}

impl Heuristic {
    /// All heuristics in the paper's Figure 6 order.
    pub const ALL: [Heuristic; 5] = [
        Heuristic::First,
        Heuristic::Digram,
        Heuristic::Recent,
        Heuristic::Longest,
        Heuristic::Opportunity,
    ];

    /// Display name matching the paper's legend.
    pub fn name(self) -> &'static str {
        match self {
            Heuristic::First => "First",
            Heuristic::Digram => "Digram",
            Heuristic::Recent => "Recent",
            Heuristic::Longest => "Longest",
            Heuristic::Opportunity => "Opportunity",
        }
    }
}

/// Configuration for the heuristic replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeuristicConfig {
    /// The lookup policy to evaluate.
    pub heuristic: Heuristic,
    /// Maximum remembered candidate streams per head address. `Recent` and
    /// `First` need only one; `Digram`, `Longest` and `Opportunity` choose
    /// among up to this many alternatives.
    pub max_candidates: usize,
}

/// Candidate streams remembered per head address by
/// [`HeuristicConfig::new`].
pub const DEFAULT_MAX_CANDIDATES: usize = 16;

impl HeuristicConfig {
    /// Default configuration for a policy: [`DEFAULT_MAX_CANDIDATES`]
    /// candidates per head.
    pub fn new(heuristic: Heuristic) -> HeuristicConfig {
        HeuristicConfig {
            heuristic,
            max_candidates: DEFAULT_MAX_CANDIDATES,
        }
    }
}

/// Result of replaying a lookup policy over a miss trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeuristicOutcome {
    /// Total misses in the trace.
    pub total_misses: usize,
    /// Misses eliminated by following predicted streams.
    pub eliminated: usize,
    /// Stream lookups performed (heads).
    pub lookups: usize,
    /// Lookups for which no prior occurrence of the head existed.
    pub failed_lookups: usize,
}

impl HeuristicOutcome {
    /// Fraction of all misses eliminated (Figure 6's y-axis).
    pub fn coverage(&self) -> f64 {
        if self.total_misses == 0 {
            0.0
        } else {
            self.eliminated as f64 / self.total_misses as f64
        }
    }
}

/// Marks "no occurrence" in the replay's position links.
const NONE: u32 = u32::MAX;

/// One address's occurrences so far: the first, and the latest, from
/// which the replay's `prev` links lead back through the others.
#[derive(Clone, Copy, Debug)]
struct Occurrences {
    first: u32,
    latest: u32,
}

/// One heuristic's replay state.
#[derive(Clone, Copy, Debug)]
struct Replay {
    heuristic: Heuristic,
    /// First position past the stream being followed; a miss there or
    /// later is a head.
    covered_until: usize,
    out: HeuristicOutcome,
}

/// Replays `config.heuristic` over `trace` and reports coverage.
///
/// # Example
///
/// ```
/// use tifs_sequitur::{evaluate_heuristic, Heuristic, HeuristicConfig};
///
/// // A perfectly repeating loop: Recent eliminates nearly everything.
/// let trace: Vec<u64> = (0..16).cycle().take(16 * 32).collect();
/// let out = evaluate_heuristic(&trace, &HeuristicConfig::new(Heuristic::Recent));
/// assert!(out.coverage() > 0.8);
/// ```
pub fn evaluate_heuristic(trace: &[u64], config: &HeuristicConfig) -> HeuristicOutcome {
    let lce = LceIndex::new(trace);
    evaluate_with_index(trace, &lce, &[config.heuristic], config.max_candidates)[0]
}

/// Replays every heuristic in `heuristics` over `trace` in one pass, with
/// up to `max_candidates` remembered streams per head address, over a
/// suffix index already built for `trace`. Returns one outcome per entry
/// of `heuristics`, in the same order; each equals a replay of that
/// heuristic alone.
///
/// The pass keeps one set of per-address bookkeeping for all of them:
/// each address's first and latest occurrence, and a link from every
/// position to the previous occurrence of its address. An address's
/// candidates are the `max_candidates` newest occurrences before the
/// current one, reached newest first along those links. `Longest` and
/// `Opportunity` keep a candidate only when it beats every newer one, so
/// a tie goes to the newest, and `Digram` takes the newest match.
/// `Longest`'s retrospective length updates run only when it is asked
/// for. [`evaluate_all`] builds the index and asks for every heuristic.
///
/// # Panics
///
/// Panics if `max_candidates` is 0, or if `lce` does not cover exactly
/// `trace.len()` symbols. The index must be built over `trace` itself;
/// one built over another trace of the same length gives meaningless
/// results.
#[expect(
    clippy::disallowed_types,
    reason = "the per-address table is only probed by key, never enumerated"
)]
pub fn evaluate_with_index(
    trace: &[u64],
    lce: &LceIndex,
    heuristics: &[Heuristic],
    max_candidates: usize,
) -> Vec<HeuristicOutcome> {
    assert!(max_candidates >= 1, "need at least one candidate");
    let n = trace.len();
    assert_eq!(lce.len(), n, "suffix index built over another trace");
    let mut replays: Vec<Replay> = heuristics
        .iter()
        .map(|&heuristic| Replay {
            heuristic,
            covered_until: 0,
            out: HeuristicOutcome {
                total_misses: n,
                ..HeuristicOutcome::default()
            },
        })
        .collect();
    let longest = heuristics.contains(&Heuristic::Longest);
    let mut state = std::collections::HashMap::<u64, Occurrences>::new();
    // `prev[p]`: the previous occurrence of `trace[p]`, or `NONE`.
    let mut prev: Vec<u32> = Vec::with_capacity(n);
    // `best_len[p]`: the longest stream observed to follow occurrence
    // `p` so far, measured retrospectively whenever its address recurs.
    // Used by `Longest` alone.
    let mut best_len: Vec<u32> = Vec::with_capacity(if longest { n } else { 0 });

    for i in 0..n {
        let addr = trace[i];
        let seen = state.entry(addr).or_insert(Occurrences {
            first: i as u32,
            latest: NONE,
        });
        let (first, latest) = (seen.first, seen.latest);
        seen.latest = i as u32;

        for r in replays.iter_mut().filter(|r| i >= r.covered_until) {
            // This miss is a head: perform a lookup.
            r.out.lookups += 1;
            let chosen: Option<u32> = if latest == NONE {
                None
            } else {
                match r.heuristic {
                    Heuristic::First => Some(first),
                    Heuristic::Recent => Some(latest),
                    Heuristic::Digram => trace.get(i + 1).and_then(|&next| {
                        candidates(&prev, latest, max_candidates)
                            .find(|&p| trace.get(p as usize + 1) == Some(&next))
                    }),
                    Heuristic::Longest => {
                        newest_best(candidates(&prev, latest, max_candidates), |p| {
                            best_len[p as usize]
                        })
                    }
                    Heuristic::Opportunity => {
                        newest_best(candidates(&prev, latest, max_candidates), |p| {
                            lce.lce(p as usize + 1, i + 1)
                        })
                    }
                }
            };
            match chosen {
                None => {
                    r.out.failed_lookups += 1;
                    r.covered_until = i + 1;
                }
                Some(p) => {
                    let m = lce.lce(p as usize + 1, i + 1);
                    r.out.eliminated += if r.heuristic == Heuristic::Digram {
                        // The second miss is spent confirming the digram.
                        m.saturating_sub(1)
                    } else {
                        m
                    };
                    r.covered_until = i + 1 + m;
                }
            }
        }

        // Record this occurrence (SVB hits are logged too, per the paper,
        // so every position updates the bookkeeping).
        if longest {
            // Retrospective length measurement for `Longest`: the stream
            // that followed each candidate has now been demonstrated
            // against position i.
            for p in candidates(&prev, latest, max_candidates) {
                let measured = lce.lce(p as usize + 1, i + 1) as u32;
                let best = &mut best_len[p as usize];
                *best = (*best).max(measured);
            }
            best_len.push(0);
        }
        prev.push(latest);
    }
    replays.into_iter().map(|r| r.out).collect()
}

/// The candidates at a position whose address last occurred at
/// `latest`: that occurrence and the ones before it along the `prev`
/// links, newest first, at most `max` of them.
fn candidates(prev: &[u32], latest: u32, max: usize) -> impl Iterator<Item = u32> + '_ {
    let occurrence = |p: u32| (p != NONE).then_some(p);
    std::iter::successors(occurrence(latest), move |&p| occurrence(prev[p as usize])).take(max)
}

/// The candidate with the greatest `key`, taking a candidate only when
/// it beats every one before it: over candidates newest first, a tie goes
/// to the newest.
fn newest_best<K: Ord>(
    candidates: impl Iterator<Item = u32>,
    key: impl Fn(u32) -> K,
) -> Option<u32> {
    let mut best: Option<(u32, K)> = None;
    for p in candidates {
        let k = key(p);
        if best.as_ref().is_none_or(|(_, b)| k > *b) {
            best = Some((p, k));
        }
    }
    best.map(|(p, _)| p)
}

/// Evaluates every heuristic in [`Heuristic::ALL`] over one trace,
/// building its suffix index once and replaying them all in one pass.
pub fn evaluate_all(trace: &[u64], max_candidates: usize) -> Vec<(Heuristic, HeuristicOutcome)> {
    let lce = LceIndex::new(trace);
    let outcomes = evaluate_with_index(trace, &lce, &Heuristic::ALL, max_candidates);
    Heuristic::ALL.into_iter().zip(outcomes).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coverage(trace: &[u64], h: Heuristic) -> f64 {
        evaluate_heuristic(trace, &HeuristicConfig::new(h)).coverage()
    }

    #[test]
    fn empty_trace() {
        for h in Heuristic::ALL {
            let out = evaluate_heuristic(&[], &HeuristicConfig::new(h));
            assert_eq!(out.total_misses, 0);
            assert_eq!(out.coverage(), 0.0);
        }
    }

    #[test]
    fn unique_addresses_nothing_eliminated() {
        let trace: Vec<u64> = (0..100).collect();
        for h in Heuristic::ALL {
            let out = evaluate_heuristic(&trace, &HeuristicConfig::new(h));
            assert_eq!(out.eliminated, 0, "{h:?}");
            assert_eq!(out.failed_lookups, 100, "{h:?}");
        }
    }

    #[test]
    fn perfect_loop_high_coverage() {
        let trace: Vec<u64> = (0..20).cycle().take(20 * 50).collect();
        for h in [Heuristic::Recent, Heuristic::First, Heuristic::Opportunity] {
            let c = coverage(&trace, h);
            assert!(c > 0.9, "{h:?} coverage {c}");
        }
    }

    #[test]
    fn recent_beats_first_on_phase_change() {
        // Phase 1 executes loop (x1 x2 x3 x4); phase 2 permutes every
        // successor relationship. `First` keeps predicting stale phase-1
        // successors for *every* address and eliminates almost nothing in
        // phase 2; `Recent` re-learns after one iteration.
        let phase1: Vec<u64> = vec![1, 2, 3, 4];
        let phase2: Vec<u64> = vec![1, 3, 2, 4];
        let mut trace = Vec::new();
        for _ in 0..10 {
            trace.extend_from_slice(&phase1);
        }
        for _ in 0..40 {
            trace.extend_from_slice(&phase2);
        }
        let cf = coverage(&trace, Heuristic::First);
        let cr = coverage(&trace, Heuristic::Recent);
        assert!(
            cr > cf + 0.2,
            "Recent ({cr}) should clearly beat First ({cf})"
        );
    }

    #[test]
    fn digram_comparable_to_recent_on_alternation() {
        // Head 0 followed by strictly alternating streams A, B, A, B...
        // Recent predicts the wrong stream at the shared head but recovers
        // at the next miss; Digram confirms with the second address but
        // spends that miss. Net coverage is nearly identical — consistent
        // with the paper's Figure 6, where the two policies are close.
        let a: Vec<u64> = (100..130).collect();
        let b: Vec<u64> = (200..230).collect();
        let mut trace = Vec::new();
        for i in 0..30 {
            trace.push(0);
            trace.extend_from_slice(if i % 2 == 0 { &a } else { &b });
        }
        let cr = coverage(&trace, Heuristic::Recent);
        let cd = coverage(&trace, Heuristic::Digram);
        assert!(cr > 0.8 && cd > 0.8, "both should cover well ({cr}, {cd})");
        assert!(
            (cd - cr).abs() < 0.05,
            "Digram ({cd}) and Recent ({cr}) should be close here"
        );
    }

    #[test]
    fn longest_beats_recent_on_prefix_streams() {
        // Head 0 followed alternately by a long stream and a short prefix of
        // it that then diverges into unique noise. Recent replays the
        // truncated stream half the time; Longest sticks with the long one.
        let long: Vec<u64> = (100..140).collect();
        let mut trace = Vec::new();
        let mut noise = 10_000u64;
        for i in 0..40 {
            trace.push(0);
            if i % 2 == 0 {
                trace.extend_from_slice(&long);
            } else {
                trace.extend_from_slice(&long[..4]);
                for _ in 0..6 {
                    trace.push(noise);
                    noise += 1;
                }
            }
        }
        let cr = coverage(&trace, Heuristic::Recent);
        let cl = coverage(&trace, Heuristic::Longest);
        assert!(
            cl > cr,
            "Longest ({cl}) should beat Recent ({cr}) with prefix-divergent streams"
        );
    }

    #[test]
    fn opportunity_upper_bounds_others() {
        // On a mixed trace, the per-lookup oracle must dominate every
        // practical policy given the same candidate memory.
        let mut trace = Vec::new();
        let mut noise = 50_000u64;
        for i in 0..25 {
            trace.push(7);
            match i % 3 {
                0 => trace.extend(100u64..125),
                1 => trace.extend(300u64..310),
                _ => {
                    for _ in 0..8 {
                        trace.push(noise);
                        noise += 1;
                    }
                }
            }
        }
        let opp = coverage(&trace, Heuristic::Opportunity);
        for h in [Heuristic::First, Heuristic::Digram, Heuristic::Recent] {
            let c = coverage(&trace, h);
            assert!(opp + 1e-12 >= c, "{h:?} ({c}) exceeds Opportunity ({opp})");
        }
    }

    #[test]
    fn heads_never_eliminated() {
        let trace: Vec<u64> = (0..8).cycle().take(64).collect();
        let out = evaluate_heuristic(&trace, &HeuristicConfig::new(Heuristic::Recent));
        assert!(out.eliminated + out.lookups <= out.total_misses + out.lookups);
        assert!(out.eliminated < out.total_misses);
        assert_eq!(out.eliminated + out.lookups, out.total_misses);
    }

    #[test]
    #[should_panic(expected = "another trace")]
    fn index_over_another_trace_is_refused() {
        let trace: Vec<u64> = (0..10).collect();
        let other = LceIndex::new(&trace[..5]);
        evaluate_with_index(&trace, &other, &[Heuristic::Recent], DEFAULT_MAX_CANDIDATES);
    }

    #[test]
    fn evaluate_all_reports_every_policy() {
        let trace: Vec<u64> = (0..10).cycle().take(100).collect();
        let all = evaluate_all(&trace, 8);
        assert_eq!(all.len(), Heuristic::ALL.len());
    }
}
