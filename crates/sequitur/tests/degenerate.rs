//! `into_grammar()` on degenerate inputs: the edges where an empty body,
//! a single node, or a rule dying on the very last push can break an
//! arena engine's bookkeeping.

use tifs_sequitur::grammar::{Sequitur, Sym};

#[test]
fn empty_stream() {
    let g = Sequitur::new().into_grammar();
    assert_eq!(g.num_rules(), 1, "only the start rule");
    assert!(g.start().symbols.is_empty());
    assert_eq!(g.expand(), Vec::<u64>::new());
    let stats = g.stats();
    assert_eq!(stats.input_len, 0);
    assert_eq!(stats.num_rules, 1);
    assert_eq!(stats.grammar_size, 0);
    assert_eq!(g.start().expansion_len, 0);
}

#[test]
fn single_terminal() {
    let mut s = Sequitur::new();
    s.push(u64::MAX);
    let g = s.into_grammar();
    assert_eq!(g.num_rules(), 1);
    assert_eq!(g.start().symbols, vec![Sym::T(u64::MAX)]);
    assert_eq!(g.expand(), vec![u64::MAX]);
    let stats = g.stats();
    assert_eq!(stats.input_len, 1);
    assert_eq!(stats.grammar_size, 1);
    assert_eq!(g.start().expansion_len, 1);
}

#[test]
fn all_identical_terminals() {
    // Runs of one symbol are the worst case for digram-overlap handling:
    // every adjacent pair is the same digram, and only non-overlapping
    // occurrences may match.
    for n in 2..=64 {
        let input = vec![3u64; n];
        let mut s = Sequitur::new();
        for &x in &input {
            s.push(x);
            s.assert_invariants();
        }
        let g = s.into_grammar();
        assert_eq!(g.expand(), input, "length {n}");
        let stats = g.stats();
        assert_eq!(stats.input_len, n);
        // A run compresses to O(log n) grammar symbols; below n = 8 the
        // digram pyramid has no room to pay for its rule bodies yet.
        assert!(stats.grammar_size <= n, "length {n} grew: {stats:?}");
        assert!(
            n < 8 || stats.grammar_size < n,
            "length {n} did not compress: {stats:?}"
        );
        for (id, r) in g.rules().iter().enumerate().skip(1) {
            assert!(r.usage >= 2, "rule {id} underused at length {n}");
            assert_eq!(r.expansion_len, g.expand_rule(id).len());
        }
    }
}

#[test]
fn rule_utility_inlining_on_final_flush() {
    // Found by search: the final push of this stream makes an existing
    // rule's usage drop to one, forcing an inline during the last
    // cascade — the grammar restructures on the very last symbol.
    let input: &[u64] = &[2, 0, 3, 2, 2, 1, 0, 3, 2, 1, 1, 0, 0, 3, 2];

    // Confirm the premise: the rule count shrinks on the final push.
    let mut s = Sequitur::new();
    for &x in &input[..input.len() - 1] {
        s.push(x);
    }
    let before = s.dump().lines().filter(|l| l.contains("->")).count();
    s.push(input[input.len() - 1]);
    s.assert_invariants();
    let after = s.dump().lines().filter(|l| l.contains("->")).count();
    assert!(
        after < before,
        "expected an inline on the final push (rules {before} -> {after})"
    );

    let g = s.into_grammar();
    assert_eq!(g.expand(), input);
    let stats = g.stats();
    assert_eq!(stats.input_len, input.len());
    assert_eq!(stats.num_rules, g.num_rules());
    assert_eq!(
        stats.grammar_size,
        g.rules().iter().map(|r| r.symbols.len()).sum::<usize>()
    );
    for (id, r) in g.rules().iter().enumerate().skip(1) {
        assert!(r.usage >= 2, "rule {id} survived underused");
        assert_eq!(r.expansion_len, g.expand_rule(id).len());
    }
    assert_eq!(g.start().expansion_len, input.len());
}
