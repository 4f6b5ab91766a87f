//! Property-based tests for the SEQUITUR grammar, suffix toolkit, and the
//! opportunity analyses built on them.

use proptest::prelude::*;
use tifs_sequitur::categorize::{categorize, CategoryCounts, MissClass};
use tifs_sequitur::grammar::Sequitur;
use tifs_sequitur::heuristics::{
    evaluate_all, evaluate_heuristic, evaluate_with_index, Heuristic, HeuristicConfig,
    HeuristicOutcome,
};
use tifs_sequitur::streams::stream_occurrences;
use tifs_sequitur::suffix::{suffix_array, LceIndex};

/// Small-alphabet traces force heavy repetition, the regime SEQUITUR targets.
fn small_alphabet_trace() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..6, 0..300)
}

/// Wider-alphabet traces exercise the sparse-repetition paths.
fn wide_alphabet_trace() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..1000, 0..200)
}

prop_compose! {
    /// Traces of streams that share a head: each piece is the head `0`, then
    /// a prefix of one of three overlapping streams, then a unique symbol.
    /// Candidates for the head tie for `Longest` whenever the same stream
    /// prefix followed them, and for `Opportunity` whenever several of them
    /// match the future equally far.
    fn shared_head_trace()(
        pieces in prop::collection::vec((0usize..3, 1usize..12), 0..40),
    ) -> Vec<u64> {
        let streams: [Vec<u64>; 3] = [
            (100..112).collect(),
            (100..104).chain(200..208).collect(),
            (100..106).chain(300..306).collect(),
        ];
        let mut trace = Vec::new();
        for (unique, (stream, len)) in (1000u64..).zip(pieces) {
            trace.push(0);
            trace.extend_from_slice(&streams[stream][..len]);
            trace.push(unique);
        }
        trace
    }
}

/// One heuristic's replay on its own: the per-heuristic replay the
/// one-pass `evaluate_with_index` replaced, kept as its reference. Each
/// address keeps its first and latest occurrence and a window of its
/// last `max_candidates` occurrences, oldest first, which it shifts as
/// it slides.
fn single_replay(trace: &[u64], h: Heuristic, max_candidates: usize) -> HeuristicOutcome {
    #[derive(Clone, Copy)]
    struct Candidate {
        pos: u32,
        best_len: u32,
    }
    struct AddrState {
        first: u32,
        recent: u32,
        candidates: Vec<Candidate>,
    }
    let n = trace.len();
    let lce = LceIndex::new(trace);
    let mut state = std::collections::BTreeMap::<u64, AddrState>::new();
    let mut out = HeuristicOutcome {
        total_misses: n,
        ..HeuristicOutcome::default()
    };
    let mut covered_until = 0usize;
    for i in 0..n {
        let addr = trace[i];
        if i >= covered_until {
            out.lookups += 1;
            let chosen: Option<u32> = match state.get(&addr) {
                None => None,
                Some(st) => match h {
                    Heuristic::First => Some(st.first),
                    Heuristic::Recent => Some(st.recent),
                    Heuristic::Digram => {
                        if i + 1 < n {
                            let next = trace[i + 1];
                            st.candidates
                                .iter()
                                .rev()
                                .find(|c| {
                                    let p = c.pos as usize;
                                    p + 1 < n && trace[p + 1] == next
                                })
                                .map(|c| c.pos)
                        } else {
                            None
                        }
                    }
                    Heuristic::Longest => st
                        .candidates
                        .iter()
                        .max_by_key(|c| c.best_len)
                        .map(|c| c.pos),
                    Heuristic::Opportunity => st
                        .candidates
                        .iter()
                        .max_by_key(|c| lce.lce(c.pos as usize + 1, i + 1))
                        .map(|c| c.pos),
                },
            };
            match chosen {
                None => {
                    out.failed_lookups += 1;
                    covered_until = i + 1;
                }
                Some(p) => {
                    let m = lce.lce(p as usize + 1, i + 1);
                    out.eliminated += if h == Heuristic::Digram {
                        m.saturating_sub(1)
                    } else {
                        m
                    };
                    covered_until = i + 1 + m;
                }
            }
        }
        let st = state.entry(addr).or_insert_with(|| AddrState {
            first: i as u32,
            recent: i as u32,
            candidates: Vec::new(),
        });
        if h == Heuristic::Longest {
            for c in &mut st.candidates {
                let measured = lce.lce(c.pos as usize + 1, i + 1) as u32;
                if measured > c.best_len {
                    c.best_len = measured;
                }
            }
        }
        if st.candidates.len() == max_candidates {
            st.candidates.remove(0);
        }
        st.candidates.push(Candidate {
            pos: i as u32,
            best_len: 0,
        });
        st.recent = i as u32;
    }
    out
}

proptest! {
    #[test]
    fn grammar_roundtrips_small_alphabet(trace in small_alphabet_trace()) {
        let mut s = Sequitur::new();
        s.extend(trace.iter().copied());
        s.assert_invariants();
        let g = s.into_grammar();
        prop_assert_eq!(g.expand(), trace);
    }

    #[test]
    fn grammar_roundtrips_wide_alphabet(trace in wide_alphabet_trace()) {
        let mut s = Sequitur::new();
        s.extend(trace.iter().copied());
        s.assert_invariants();
        let g = s.into_grammar();
        prop_assert_eq!(g.expand(), trace);
    }

    #[test]
    fn grammar_invariants_hold_incrementally(trace in prop::collection::vec(0u64..4, 0..80)) {
        let mut s = Sequitur::new();
        for x in trace {
            s.push(x);
            s.assert_invariants();
        }
    }

    #[test]
    fn grammar_never_larger_than_input(trace in small_alphabet_trace()) {
        let mut s = Sequitur::new();
        s.extend(trace.iter().copied());
        let g = s.into_grammar();
        // Grammar size counts all rule bodies; it can exceed the input only
        // by bounded overhead, and for n >= 1 SEQUITUR never inflates.
        prop_assert!(g.stats().grammar_size <= trace.len().max(1));
    }

    #[test]
    fn suffix_array_matches_naive(trace in prop::collection::vec(0u64..8, 0..120)) {
        let sa = suffix_array(&trace);
        let mut naive: Vec<u32> = (0..trace.len() as u32).collect();
        naive.sort_by(|&a, &b| trace[a as usize..].cmp(&trace[b as usize..]));
        prop_assert_eq!(sa, naive);
    }

    #[test]
    fn lce_matches_naive(
        trace in prop::collection::vec(0u64..5, 1..150),
        picks in prop::collection::vec((0usize..150, 0usize..150), 1..20),
    ) {
        let idx = LceIndex::new(&trace);
        for (a, b) in picks {
            let i = a % trace.len();
            let j = b % trace.len();
            let mut k = 0;
            while i + k < trace.len() && j + k < trace.len() && trace[i + k] == trace[j + k] {
                k += 1;
            }
            prop_assert_eq!(idx.lce(i, j), k, "lce({}, {})", i, j);
        }
    }

    #[test]
    fn categorize_partitions_trace(trace in small_alphabet_trace()) {
        let classes = categorize(&trace);
        prop_assert_eq!(classes.len(), trace.len());
        let counts = CategoryCounts::from_classes(&classes);
        prop_assert_eq!(counts.total(), trace.len());
    }

    #[test]
    fn first_occurrence_of_each_symbol_is_never_opportunity(trace in small_alphabet_trace()) {
        // A symbol's very first appearance in the trace cannot repeat a
        // prior stream; it must be New or NonRepetitive.
        let classes = categorize(&trace);
        let mut seen = std::collections::BTreeSet::new();
        for (i, &sym) in trace.iter().enumerate() {
            if seen.insert(sym) {
                prop_assert!(
                    classes[i] == MissClass::New || classes[i] == MissClass::NonRepetitive,
                    "position {} (first occurrence of {}) classified {:?}",
                    i, sym, classes[i]
                );
            }
        }
    }

    #[test]
    fn recurrences_are_disjoint_and_in_bounds(trace in small_alphabet_trace()) {
        let occs = stream_occurrences(&trace);
        let mut last_end = 0usize;
        for o in occs.iter().filter(|o| o.occurrence >= 2) {
            prop_assert!(o.start >= last_end);
            prop_assert!(o.start + o.len <= trace.len());
            prop_assert!(o.len >= 2, "rules expand to >= 2 terminals");
            last_end = o.start + o.len;
        }
    }

    #[test]
    fn heuristic_accounting_is_consistent(
        trace in prop::collection::vec(0u64..10, 0..200),
    ) {
        for h in Heuristic::ALL {
            let out = evaluate_heuristic(&trace, &HeuristicConfig::new(h));
            prop_assert_eq!(out.total_misses, trace.len());
            prop_assert!(out.eliminated <= trace.len());
            prop_assert!(out.failed_lookups <= out.lookups);
            if h == Heuristic::Digram {
                prop_assert!(out.eliminated + out.lookups <= out.total_misses + out.lookups);
            } else {
                // Every miss is either a lookup head or eliminated.
                prop_assert_eq!(out.eliminated + out.lookups, out.total_misses);
            }
            prop_assert!(out.coverage() <= 1.0);
        }
    }

    #[test]
    fn shared_index_matches_an_index_per_call(
        trace in prop::collection::vec(0u64..10, 0..200),
        k in 0usize..4,
    ) {
        // One suffix index serves every heuristic: each replay over it,
        // alone or through `evaluate_all`, must equal a replay that
        // builds its own.
        let max_candidates = [1, 2, 16, 64][k];
        let lce = LceIndex::new(&trace);
        let all = evaluate_all(&trace, max_candidates);
        prop_assert_eq!(all.len(), Heuristic::ALL.len());
        for (&h, &shared) in Heuristic::ALL.iter().zip(&all) {
            let cfg = HeuristicConfig { heuristic: h, max_candidates };
            let own = evaluate_heuristic(&trace, &cfg);
            prop_assert_eq!(evaluate_with_index(&trace, &lce, &[h], max_candidates), vec![own], "{:?}", h);
            prop_assert_eq!(shared, (h, own));
        }
    }

    #[test]
    fn one_replay_matches_single_heuristic_replays(
        small in small_alphabet_trace(),
        shared_head in shared_head_trace(),
        k in 0usize..4,
    ) {
        // The one pass, asked for one heuristic or for all five, gives
        // each the outcome of that heuristic's replay on its own, at
        // every candidate bound Figure 6 and the tests use.
        let max_candidates = [1, 2, 16, 64][k];
        for trace in [small, shared_head] {
            let lce = LceIndex::new(&trace);
            let all = evaluate_with_index(&trace, &lce, &Heuristic::ALL, max_candidates);
            prop_assert_eq!(all.len(), Heuristic::ALL.len());
            for (&h, &together) in Heuristic::ALL.iter().zip(&all) {
                let reference = single_replay(&trace, h, max_candidates);
                prop_assert_eq!(together, reference, "{:?} among all, k = {}", h, max_candidates);
                let alone = evaluate_with_index(&trace, &lce, &[h], max_candidates);
                prop_assert_eq!(alone, vec![reference], "{:?} alone, k = {}", h, max_candidates);
            }
        }
    }

    #[test]
    fn opportunity_dominates_with_shared_candidate_memory(
        trace in prop::collection::vec(0u64..6, 0..250),
    ) {
        // With identical candidate memory, the per-lookup oracle must be at
        // least as good as Recent and Digram (First may exceed it only if
        // the first occurrence fell out of the bounded candidate window, so
        // it is excluded here; Longest uses historic rather than actual
        // match lengths and is likewise excluded).
        let k = 64; // effectively unbounded for these sizes
        let opp = evaluate_heuristic(
            &trace,
            &HeuristicConfig { heuristic: Heuristic::Opportunity, max_candidates: k },
        );
        for h in [Heuristic::Recent, Heuristic::Digram, Heuristic::First, Heuristic::Longest] {
            let out = evaluate_heuristic(
                &trace,
                &HeuristicConfig { heuristic: h, max_candidates: k },
            );
            prop_assert!(
                opp.eliminated >= out.eliminated,
                "{:?} eliminated {} > oracle {}",
                h, out.eliminated, opp.eliminated
            );
        }
    }
}
