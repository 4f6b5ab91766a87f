//! Fetch-Directed Instruction Prefetching (FDIP), Reinman, Calder & Austin
//! (MICRO 1999), with the TIFS paper's tuning adjustments (Section 6.5):
//!
//! * exploration proceeds up to **96 instructions** ahead of the fetch
//!   unit, but at most **6 branches** ahead;
//! * the prefetch buffer is **fully associative** and as large as the SVB
//!   ([`BUFFER_BLOCKS`]);
//! * L1 tag-port bandwidth for residency probes is unlimited ("no impact
//!   on fetch") — modelled as an exact view of the L1-I
//!   ([`FunctionalFetchModel`]) consulted before issuing.
//!
//! The exploration engine decodes the static program image along the path
//! the branch predictor predicts, enqueueing the blocks it crosses. When
//! the committed stream diverges from the explored path (a misprediction),
//! the explored path is discarded and exploration restarts at the resolved
//! PC — the restart cost that limits FDIP on hammock-heavy code (paper
//! Section 3.2).
//!
//! The exploration cursor carries the decoded function and instruction
//! index of the PC it points at, so each step derives its successor's
//! position directly: fall-through within a function, taken conditional
//! branches and jumps stay in the same function, and a direct call enters
//! its callee at index 0. Only targets read from the RAS or BTB (returns,
//! indirect calls), restarts, and fall-through past a function's last op
//! search the function table ([`Program::decode`]).

use std::collections::VecDeque;

use tifs_sim::bpred::{HybridPredictor, ReturnAddressStack, TargetBuffer};
use tifs_sim::config::SystemConfig;
use tifs_sim::l2::L2ReqKind;
use tifs_sim::miss_trace::FunctionalFetchModel;
use tifs_sim::prefetch::{FetchKind, IPrefetcher, PrefetchBuffer, PrefetchCtx, BUFFER_BLOCKS};
use tifs_trace::program::{Callee, InstrRef, Op, Program};
use tifs_trace::{Addr, BlockAddr, BranchKind, FetchRecord};

/// Maximum instructions explored beyond the fetch unit (paper: 96).
const MAX_INSTRS_AHEAD: usize = 96;
/// Maximum branches explored beyond the fetch unit (paper: 6).
const MAX_BRANCHES_AHEAD: usize = 6;
/// Instructions explored per cycle (at most one branch per cycle).
const EXPLORE_PER_CYCLE: usize = 4;

/// The next instruction to explore: its PC and where it decodes to.
#[derive(Clone, Copy, Debug)]
struct Cursor {
    pc: Addr,
    at: InstrRef,
}

impl Cursor {
    /// Decodes `pc` through the function table; `None` if unmapped.
    fn decode(program: &Program, pc: Addr) -> Option<Cursor> {
        program.decode(pc).map(|at| Cursor { pc, at })
    }
}

struct FdipCore {
    // Committed-side predictor state (trained at fetch).
    bpred: HybridPredictor,
    ras: ReturnAddressStack,
    btb: TargetBuffer,
    l1: FunctionalFetchModel,
    // Speculative exploration state.
    explore: Option<Cursor>,
    spec_history: u64,
    spec_ras: ReturnAddressStack,
    path: VecDeque<(Addr, bool)>,
    branches_in_path: usize,
    last_explored_block: Option<BlockAddr>,
    restart_pending: bool,
    // Prefetched blocks; a hit in it is a supply.
    buffer: PrefetchBuffer,
    // Counters.
    issued: u64,
    restarts: u64,
}

impl FdipCore {
    fn new() -> FdipCore {
        FdipCore {
            bpred: HybridPredictor::table2(),
            ras: ReturnAddressStack::new(32),
            btb: TargetBuffer::new(4096),
            l1: FunctionalFetchModel::new(&SystemConfig::table2()),
            explore: None,
            spec_history: 0,
            spec_ras: ReturnAddressStack::new(32),
            path: VecDeque::new(),
            branches_in_path: 0,
            last_explored_block: None,
            restart_pending: true,
            buffer: PrefetchBuffer::new(BUFFER_BLOCKS),
            issued: 0,
            restarts: 0,
        }
    }

    fn restart_from(&mut self, program: &Program, pc: Addr) {
        self.explore = Cursor::decode(program, pc);
        self.spec_history = self.bpred.history();
        self.spec_ras.clone_from(&self.ras);
        self.path.clear();
        self.branches_in_path = 0;
        self.last_explored_block = None;
        self.restarts += 1;
    }

    fn train(&mut self, rec: &FetchRecord) {
        if let Some(b) = rec.branch {
            match b.kind {
                BranchKind::Conditional => self.bpred.update(rec.pc, b.taken),
                BranchKind::Jump => self.btb.update(rec.pc, b.target),
                BranchKind::Call => {
                    self.ras.push(rec.fall_through());
                    self.btb.update(rec.pc, b.target);
                }
                BranchKind::Return => {
                    let _ = self.ras.pop();
                }
            }
        }
    }
}

/// The FDIP prefetcher for a whole CMP (one exploration engine per core).
pub struct Fdip<'p> {
    program: &'p Program,
    cores: Vec<FdipCore>,
}

impl<'p> Fdip<'p> {
    /// Creates FDIP over the program image shared by all `num_cores` cores.
    pub fn new(program: &'p Program, num_cores: usize) -> Fdip<'p> {
        Fdip {
            program,
            cores: (0..num_cores).map(|_| FdipCore::new()).collect(),
        }
    }

    /// Explores one instruction; returns `false` when exploration must
    /// pause (limits, unpredictable target, unmapped PC).
    fn explore_step(
        core: &mut FdipCore,
        program: &Program,
        ctx: &mut PrefetchCtx<'_>,
    ) -> ExploreOutcome {
        let Some(Cursor { pc, at }) = core.explore else {
            return ExploreOutcome::Paused;
        };
        debug_assert_eq!(
            program.decode(pc),
            Some(at),
            "exploration cursor out of step with the function table at {pc:?}"
        );
        // Prefetch the block the exploration crosses into.
        let block = pc.block();
        if core.last_explored_block != Some(block) {
            core.last_explored_block = Some(block);
            if !core.l1.holds(block) && !core.buffer.holds(block) {
                if let Some(resp) = ctx.l2.request(ctx.now, block, L2ReqKind::IPrefetch, None) {
                    core.buffer.issue(block, resp.ready, ());
                    core.issued += 1;
                }
            }
        }

        let within = |idx: u32| Cursor {
            pc: program.addr_of(at.func, idx),
            at: InstrRef { func: at.func, idx },
        };
        // Past the last op, fall-through may run into the next function.
        let fall_through = || {
            if at.idx + 1 < program.function_len(at.func) {
                Some(within(at.idx + 1))
            } else {
                Cursor::decode(program, pc.add_instrs(1))
            }
        };
        let mut counted_branch = false;
        let next: Option<Cursor> = match program.op(at) {
            Op::Plain { .. } => fall_through(),
            Op::CondBranch { target, .. } => {
                counted_branch = true;
                let taken = core.bpred.predict_with_history(pc, core.spec_history);
                core.spec_history = (core.spec_history << 1) | u64::from(taken);
                if taken {
                    Some(within(target))
                } else {
                    fall_through()
                }
            }
            Op::Jump { target } => Some(within(target)),
            Op::Call(callee) => {
                core.spec_ras.push(pc.add_instrs(1));
                match callee {
                    Callee::Direct(c) => Some(Cursor {
                        pc: program.addr_of(c, 0),
                        at: InstrRef { func: c, idx: 0 },
                    }),
                    // Indirect target: only the BTB can guess it.
                    Callee::Indirect(_) => core
                        .btb
                        .predict(pc)
                        .and_then(|t| Cursor::decode(program, t)),
                }
            }
            Op::Return => core.spec_ras.pop().and_then(|t| Cursor::decode(program, t)),
        };
        core.path.push_back((pc, counted_branch));
        if counted_branch {
            core.branches_in_path += 1;
        }
        core.explore = next;
        if next.is_none() {
            return ExploreOutcome::Paused;
        }
        if counted_branch {
            ExploreOutcome::Branch
        } else {
            ExploreOutcome::Plain
        }
    }
}

enum ExploreOutcome {
    Plain,
    Branch,
    Paused,
}

impl IPrefetcher for Fdip<'_> {
    fn name(&self) -> &'static str {
        "fdip"
    }

    fn on_fetch_instr(&mut self, ctx: &mut PrefetchCtx<'_>, rec: &FetchRecord) {
        let core = &mut self.cores[ctx.core];
        core.train(rec);

        // Synchronize exploration with the committed stream.
        match core.path.front().copied() {
            Some((pc, counted)) if pc == rec.pc => {
                core.path.pop_front();
                if counted {
                    core.branches_in_path -= 1;
                }
            }
            _ => {
                // Divergence (misprediction) or drained path: restart at the
                // committed successor. After a trap the successor is
                // unpredictable; wait for the next committed instruction.
                if rec.trap {
                    core.path.clear();
                    core.branches_in_path = 0;
                    core.explore = None;
                    core.restart_pending = true;
                } else {
                    let next = match rec.branch {
                        Some(b) if b.taken => b.target,
                        _ => rec.fall_through(),
                    };
                    core.restart_from(self.program, next);
                }
                return;
            }
        }
        if core.restart_pending {
            core.restart_pending = false;
            let next = match rec.branch {
                Some(b) if b.taken => b.target,
                _ => rec.fall_through(),
            };
            core.restart_from(self.program, next);
        } else if rec.trap {
            core.path.clear();
            core.branches_in_path = 0;
            core.explore = None;
            core.restart_pending = true;
        }
    }

    fn on_block_fetch(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        block: BlockAddr,
        kind: FetchKind,
    ) -> Option<u64> {
        let core = &mut self.cores[ctx.core];
        // Keep the L1 view current (demand fill + next-line fills).
        core.l1.fill(block);
        if kind == FetchKind::L1Hit {
            return None;
        }
        let (ready, ()) = core.buffer.take(block)?;
        Some(ready.max(ctx.now))
    }

    fn tick(&mut self, ctx: &mut PrefetchCtx<'_>) {
        for i in 0..self.cores.len() {
            self.cores[i].buffer.drain(ctx.now, |()| {});
            // Explore ahead: up to EXPLORE_PER_CYCLE instructions, one
            // branch per cycle, within the instruction/branch windows.
            let mut steps = 0;
            loop {
                let core = &mut self.cores[i];
                if steps >= EXPLORE_PER_CYCLE
                    || core.path.len() >= MAX_INSTRS_AHEAD
                    || core.branches_in_path >= MAX_BRANCHES_AHEAD
                {
                    break;
                }
                let mut sub = PrefetchCtx {
                    now: ctx.now,
                    core: i,
                    l2: ctx.l2,
                };
                match Self::explore_step(&mut self.cores[i], self.program, &mut sub) {
                    ExploreOutcome::Plain => steps += 1,
                    ExploreOutcome::Branch => break, // one branch per cycle
                    ExploreOutcome::Paused => break,
                }
            }
        }
    }

    fn on_flush(&mut self, ctx: &mut PrefetchCtx<'_>) {
        // Everything trained on or derived from the outgoing program's
        // stream dies: predictors, RAS, BTB, the exploration path, and
        // the buffered/in-flight blocks it steered. The L1 view stays
        // — caches keep their contents across a context switch.
        let core = &mut self.cores[ctx.core];
        core.bpred = HybridPredictor::table2();
        core.ras = ReturnAddressStack::new(32);
        core.btb = TargetBuffer::new(4096);
        core.explore = None;
        core.spec_history = 0;
        core.spec_ras = ReturnAddressStack::new(32);
        core.path.clear();
        core.branches_in_path = 0;
        core.last_explored_block = None;
        core.restart_pending = true;
        core.buffer.clear();
    }

    fn reset_counters(&mut self) {
        for c in &mut self.cores {
            c.issued = 0;
            c.restarts = 0;
            c.buffer.reset_counters();
        }
    }

    fn counters(&self) -> Vec<(String, f64)> {
        let issued: u64 = self.cores.iter().map(|c| c.issued).sum();
        let supplied: u64 = self.cores.iter().map(|c| c.buffer.hits()).sum();
        let restarts: u64 = self.cores.iter().map(|c| c.restarts).sum();
        let discards: u64 = self.cores.iter().map(|c| c.buffer.discards()).sum();
        vec![
            ("issued".into(), issued as f64),
            ("supplied".into(), supplied as f64),
            ("restarts".into(), restarts as f64),
            ("discards".into(), discards as f64),
        ]
    }
}

impl std::fmt::Debug for Fdip<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fdip")
            .field("cores", &self.cores.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifs_sim::cmp::Cmp;
    use tifs_sim::config::SystemConfig;
    use tifs_sim::prefetch::NullPrefetcher;
    use tifs_trace::workload::{Workload, WorkloadSpec};

    fn run_with<'a>(
        workload: &'a Workload,
        pf: Box<dyn IPrefetcher + 'a>,
        instrs: u64,
    ) -> tifs_sim::stats::SimReport {
        let cfg = SystemConfig::single_core();
        let streams: Vec<_> = (0..cfg.num_cores)
            .map(|c| Box::new(workload.walker(c)) as Box<dyn Iterator<Item = FetchRecord>>)
            .collect();
        let mut cmp = Cmp::new(cfg, streams, pf);
        cmp.run(instrs)
    }

    #[test]
    fn fdip_supplies_blocks_and_reduces_misses() {
        // Use a large-footprint workload so L1-I misses exist.
        let w = Workload::build(&WorkloadSpec::web_zeus(), 5);
        let n = 300_000;
        let base = run_with(&w, Box::new(NullPrefetcher), n);
        let fdip = run_with(&w, Box::new(Fdip::new(&w.program, 1)), n);
        let base_misses = base.cores[0].baseline_misses();
        assert!(base_misses > 100, "workload must miss: {base_misses}");
        let coverage = fdip.cores[0].coverage();
        assert!(
            coverage > 0.1,
            "FDIP must cover some misses, got {coverage}"
        );
        assert!(
            fdip.aggregate_ipc() >= base.aggregate_ipc() * 0.98,
            "FDIP should not slow the machine: {} vs {}",
            fdip.aggregate_ipc(),
            base.aggregate_ipc()
        );
    }

    /// Back-to-back functions that do not end in `Return`: exploration
    /// runs off `f0`'s last op into the adjacent `f1`, through a direct
    /// call, a return and a jump on the way, and pauses where `f1` runs
    /// off into unmapped space.
    #[test]
    fn exploration_falls_through_function_ends() {
        use tifs_sim::l2::L2;
        use tifs_trace::program::{CalleeSpec, FuncId, Function, PlainMem, StaticOp};

        let plain = |n: usize| {
            (0..n).map(|_| StaticOp::Plain {
                mem: PlainMem::None,
            })
        };
        let f0_base = Addr(0x1_0000);
        let mut f0_ops: Vec<StaticOp> = plain(10).collect();
        f0_ops.push(StaticOp::Call(CalleeSpec::Direct(FuncId(2))));
        f0_ops.extend(plain(5));
        let f1_base = f0_base.add_instrs(f0_ops.len() as u64);
        let mut f1_ops: Vec<StaticOp> = plain(20).collect();
        f1_ops.push(StaticOp::Jump { target: 25 });
        f1_ops.extend(plain(14));
        let f2_base = Addr(0x2_0000);
        let mut f2_ops: Vec<StaticOp> = plain(3).collect();
        f2_ops.push(StaticOp::Return);
        let program = Program::new(vec![
            Function {
                base: f0_base,
                ops: f0_ops,
            },
            Function {
                base: f1_base,
                ops: f1_ops,
            },
            Function {
                base: f2_base,
                ops: f2_ops,
            },
        ]);

        let mut fdip = Fdip::new(&program, 1);
        let mut l2 = L2::new(&SystemConfig::single_core());
        let mut ctx = PrefetchCtx {
            now: 0,
            core: 0,
            l2: &mut l2,
        };
        // The first committed instruction restarts exploration after it.
        fdip.on_fetch_instr(&mut ctx, &FetchRecord::plain(f0_base));
        for now in 0..64 {
            ctx.now = now;
            fdip.tick(&mut ctx);
        }

        let at = |base: Addr, idx: std::ops::Range<u64>| idx.map(move |i| base.add_instrs(i));
        let expected: Vec<Addr> = at(f0_base, 1..11) // up to and including the call
            .chain(at(f2_base, 0..4)) // the callee, through its return
            .chain(at(f0_base, 11..16)) // back in f0, to its last op
            .chain(at(f1_base, 0..21)) // fell through into f1, up to the jump
            .chain(at(f1_base, 25..35)) // the jump target, to f1's last op
            .collect();
        let explored: Vec<Addr> = fdip.cores[0].path.iter().map(|&(pc, _)| pc).collect();
        assert_eq!(explored, expected);
        assert_eq!(fdip.cores[0].restarts, 1);
    }

    #[test]
    fn fdip_restarts_on_divergence() {
        let w = Workload::build(&WorkloadSpec::tiny_test(), 3);
        let report = run_with(&w, Box::new(Fdip::new(&w.program, 1)), 100_000);
        let restarts = report.prefetcher_counter("restarts").unwrap_or(0.0);
        assert!(
            restarts > 0.0,
            "data-dependent branches must force restarts"
        );
    }
}
