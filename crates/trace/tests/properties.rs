//! Property-based tests for the trace substrate: control-flow
//! consistency, generator determinism, and the walker's runs against its
//! record-at-a-time stream.

use proptest::prelude::*;
use tifs_trace::exec::{ExecConfig, Step, Walker};
use tifs_trace::filter::{block_transitions, collapse_sequential};
use tifs_trace::workload::{Workload, WorkloadSpec};
use tifs_trace::{BlockAddr, FetchRecord};

proptest! {
    #[test]
    fn collapse_drops_exactly_the_sequential_successors(blocks in prop::collection::vec(0u64..64, 0..100)) {
        // The transform is single-pass over *original* predecessors (the
        // paper's definition: a miss is sequential if the preceding miss
        // in the trace was to the previous block).
        let blocks: Vec<BlockAddr> = blocks.into_iter().map(BlockAddr).collect();
        let out = collapse_sequential(&blocks);
        let expected: Vec<BlockAddr> = blocks
            .iter()
            .enumerate()
            .filter(|&(i, &b)| i == 0 || !blocks[i - 1].is_sequential_successor(b))
            .map(|(_, &b)| b)
            .collect();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn collapse_preserves_first_and_nonsequential(blocks in prop::collection::vec(0u64..64, 1..100)) {
        let blocks: Vec<BlockAddr> = blocks.into_iter().map(BlockAddr).collect();
        let out = collapse_sequential(&blocks);
        prop_assert_eq!(out.first(), blocks.first());
        prop_assert!(out.len() <= blocks.len());
    }

    #[test]
    fn walker_streams_are_deterministic(seed in 0u64..1000) {
        let w = Workload::build(&WorkloadSpec::tiny_test(), seed);
        let a: Vec<FetchRecord> = w.walker(0).take(2000).collect();
        let b: Vec<FetchRecord> = w.walker(0).take(2000).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn walker_control_flow_consistent(seed in 0u64..200) {
        let w = Workload::build(&WorkloadSpec::tiny_test(), seed);
        let records: Vec<FetchRecord> = w.walker(0).take(3000).collect();
        for pair in records.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a.trap {
                continue;
            }
            let expected = match a.branch {
                Some(br) if br.taken => br.target,
                _ => a.fall_through(),
            };
            prop_assert_eq!(b.pc, expected);
        }
    }

    #[test]
    fn block_transitions_never_repeat_adjacent(seed in 0u64..200) {
        let w = Workload::build(&WorkloadSpec::tiny_test(), seed);
        let records: Vec<FetchRecord> = w.walker(0).take(3000).collect();
        let blocks = block_transitions(records);
        for pair in blocks.windows(2) {
            prop_assert_ne!(pair[0], pair[1], "transitions collapse same-block runs");
        }
    }

    #[test]
    fn all_pcs_decode_in_program(seed in 0u64..100) {
        let w = Workload::build(&WorkloadSpec::tiny_test(), seed);
        for rec in w.walker(1).take(2000) {
            prop_assert!(w.program.decode(rec.pc).is_some(), "pc {:?} unmapped", rec.pc);
        }
    }
}

prop_compose! {
    /// One move of a walker under test: `None` calls `next`, `Some(max)`
    /// calls `step(max)`.
    fn arb_move()(kind in 0u8..4, small in 2u64..12) -> Option<u64> {
        match kind {
            0 => None,
            1 => Some(1),
            2 => Some(small),
            _ => Some(u64::MAX),
        }
    }
}

proptest! {
    #[test]
    fn stepping_by_runs_equals_per_record_walking(
        seed in 0u64..1000,
        server in any::<bool>(),
        trap_period in 1u64..41,
        ctx_switch_period in prop_oneof![Just(0u64), 1u64..65],
        idle in any::<bool>(),
        shallow in any::<bool>(),
        slot in 0usize..3,
        moves in prop::collection::vec(arb_move(), 1..300),
    ) {
        // Short trap and switch periods make countdowns expire where runs
        // would form; a 2-deep stack skips most calls.
        let base = if server { WorkloadSpec::tiny_server() } else { WorkloadSpec::tiny_test() };
        let spec = WorkloadSpec { trap_period, ..base }
            .with_duty_cycle(if idle { 0.25 } else { 1.0 })
            .with_ctx_switch_period(ctx_switch_period);
        let w = Workload::build_at(&spec, seed, slot);
        let exec = ExecConfig {
            max_stack: if shallow { 2 } else { w.exec.max_stack },
            ..w.exec.clone()
        };
        let walker = || Walker::new(&w.program, w.mix.clone(), exec.clone(), seed);
        let (mut stepped, mut reference) = (walker(), walker());
        for max in moves {
            match max.map(|max| stepped.step(max)) {
                Some(Step::Run { pc, len }) => {
                    prop_assert!(len >= 1 && Some(len) <= max, "run of {} for max {:?}", len, max);
                    for i in 0..len {
                        let r = reference.next().expect("infinite");
                        prop_assert_eq!(r.pc, pc.add_instrs(i));
                        prop_assert!(r.branch.is_none() && !r.trap && !r.flush, "{:?} in a run", r);
                    }
                }
                Some(Step::Instr(r)) => prop_assert_eq!(r, reference.next().expect("infinite")),
                None => prop_assert_eq!(stepped.next(), reference.next()),
            }
            prop_assert_eq!(stepped.instructions(), reference.instructions());
        }
    }
}
