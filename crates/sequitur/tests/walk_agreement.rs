//! `walk_grammar` must classify exactly one trace position per terminal
//! of the expansion — `walk count == expansion_len` — and credit every
//! occurrence with its rule's full expansion.

use proptest::prelude::*;
use tifs_sequitur::grammar::{Grammar, Sequitur};
use tifs_sequitur::streams::walk_grammar;

/// The recurrence branch of the walk credits `1 + (len - 1)` positions;
/// training passes descend. Either way the total must equal the start
/// rule's expansion.
fn assert_walk_agrees(g: &Grammar) {
    let walk = walk_grammar(g);
    assert_eq!(
        walk.class_codes.len(),
        g.start().expansion_len,
        "walked positions must equal the start rule's expansion"
    );
    assert_eq!(walk.class_codes.len(), g.input_len());
    for o in &walk.occurrences {
        assert_eq!(
            o.len,
            g.rules()[o.rule].expansion_len,
            "occurrence length must equal its rule's expansion"
        );
        assert!(o.start + o.len <= g.input_len() || o.occurrence == 1);
    }
}

/// Bursty small-alphabet traces: runs and heavy repetition.
fn bursty_trace() -> impl Strategy<Value = Vec<(u64, usize)>> {
    prop::collection::vec((0u64..5, 1usize..7), 0..120)
}

proptest! {
    #[test]
    fn walk_count_equals_expansion_default_mode(bursts in bursty_trace()) {
        let mut s = Sequitur::new();
        for &(t, reps) in &bursts {
            for _ in 0..reps {
                s.push(t);
            }
        }
        assert_walk_agrees(&s.into_grammar());
    }
}
