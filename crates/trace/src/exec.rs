//! Stochastic executor: walks a [`Program`] and emits the committed
//! instruction stream of one core.
//!
//! The walker is an infinite, deterministic (seeded) iterator of
//! [`FetchRecord`]s. It models:
//!
//! * a **transaction driver**: when the call stack drains, a new transaction
//!   entry function is chosen from a weighted mix (plus an occasional
//!   cold-code entry, modelling one-off paths);
//! * **data-dependent control flow**: every conditional branch and indirect
//!   call draws a fresh outcome;
//! * **OS traps**: at a configurable mean period, control asynchronously
//!   enters a trap handler and returns afterwards — the fetch discontinuity
//!   that interrupts in-flight temporal streams (paper Section 5.2: multiple
//!   concurrent streams arise from traps and context switches);
//! * **load latency classes**: loads draw an L1-D/L2/memory class from the
//!   workload's data profile, driving the back-end timing model.
//!
//! # Runs
//!
//! Most instructions are plain ops: not control transfers. The walker
//! advances over them a *run* at a time. A run is the rest of the maximal
//! stretch of consecutive plain ops in the current function, starting at
//! the top frame's next instruction; a stretch longer than 65,535 ops is
//! taken in pieces of at most that many. It is capped so that neither the
//! trap countdown nor the context-switch countdown expires inside it, so
//! no instruction of a run carries a trap or a flush. The program image
//! records at each plain op how many ops and loads are left in its run,
//! so a run forms from one op, and the frame and both countdowns move
//! past all of it at once. Everything else takes the one-instruction
//! path: control ops, idle-loop instructions, the walk's first
//! instruction, and an instruction at which a countdown reaches 0. A
//! run's load classes are drawn in instruction order as its ops are
//! taken, so they are exactly the draws a walk one instruction at a time
//! makes.
//!
//! One run state serves two views. [`Iterator::next`] emits the run one
//! [`FetchRecord`] at a time; [`Walker::step`] hands over up to a given
//! number of its ops as one [`Step::Run`], for consumers that need only
//! the PCs. `step` decodes none of those ops: it reads their load count
//! off the image and makes that many load-class draws. The two views
//! interleave freely and yield the same stream.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::program::{Callee, FuncId, InstrRef, Op, PlainMem, Program};
use crate::record::{BranchInfo, BranchKind, FetchRecord, MemClass};
use crate::types::Addr;

/// Weighted transaction mix plus cold-path model.
#[derive(Clone, Debug)]
pub struct TransactionMix {
    /// `(entry function, weight)` pairs; weights need not be normalized.
    pub entries: Vec<(FuncId, f64)>,
    /// Pool of rarely-executed entry functions (one-off paths).
    pub cold_entries: Vec<FuncId>,
    /// Probability that a transaction is drawn from the cold pool.
    pub cold_prob: f64,
}

impl TransactionMix {
    /// A mix with a single hot entry point and no cold pool.
    pub fn single(entry: FuncId) -> TransactionMix {
        TransactionMix {
            entries: vec![(entry, 1.0)],
            cold_entries: Vec::new(),
            cold_prob: 0.0,
        }
    }

    fn pick(&self, rng: &mut SmallRng, cold_cursor: &mut usize) -> FuncId {
        if !self.cold_entries.is_empty() && rng.gen_bool(self.cold_prob) {
            // Walk the cold pool round-robin so most cold paths execute
            // once or twice over a run (non-repetitive misses).
            let f = self.cold_entries[*cold_cursor % self.cold_entries.len()];
            *cold_cursor += 1;
            return f;
        }
        let total: f64 = self.entries.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen_range(0.0..total);
        for &(f, w) in &self.entries {
            if x < w {
                return f;
            }
            x -= w;
        }
        self.entries.last().expect("non-empty mix").0
    }
}

/// Data-side latency profile: probabilities that a load resolves in each
/// level (per workload class; Table I workloads differ mainly in data
/// working sets).
#[derive(Clone, Copy, Debug)]
pub struct DataProfile {
    /// Fraction of loads missing the L1-D cache.
    pub l1d_miss_rate: f64,
    /// Of those misses, fraction that hit in the shared L2.
    pub l2_hit_frac: f64,
}

impl Default for DataProfile {
    fn default() -> Self {
        DataProfile {
            l1d_miss_rate: 0.05,
            l2_hit_frac: 0.7,
        }
    }
}

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Mean instructions between OS traps; 0 disables traps.
    pub trap_period: u64,
    /// Trap handler entry functions (chosen uniformly).
    pub trap_handlers: Vec<FuncId>,
    /// Call-stack depth limit; deeper calls are skipped (recursion guard).
    pub max_stack: usize,
    /// Load latency profile.
    pub data: DataProfile,
    /// Fraction of scheduling decisions that start a transaction instead of
    /// an idle-loop quantum; `1.0` (the default) never idles and draws no
    /// extra randomness, so legacy streams are bit-identical.
    pub duty_cycle: f64,
    /// Idle-loop length in instructions when a quantum idles (rounded up to
    /// a whole number of idle-loop iterations).
    pub idle_quantum: u64,
    /// Mean instructions between context switches; 0 (the default) disables
    /// them and draws no extra randomness. A switch flags the record with
    /// [`FetchRecord::flush`]: the simulated core's prefetcher metadata is
    /// invalidated by the departing tenant.
    pub ctx_switch_period: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            trap_period: 0,
            trap_handlers: Vec::new(),
            max_stack: 64,
            data: DataProfile::default(),
            duty_cycle: 1.0,
            idle_quantum: 1024,
            ctx_switch_period: 0,
        }
    }
}

/// Entry address of the shared OS idle loop. It sits below every program's
/// text base (`0x10_0000`), so it never collides with generated code, and
/// spans exactly one cache block: an idle core warms one block and then
/// spins silently in its L1-I.
pub const IDLE_BASE: u64 = 0x8000;
/// Instructions per idle-loop iteration (one 64-byte block: 15 nops and a
/// backward jump).
pub const IDLE_LOOP_LEN: u64 = 16;

/// What one [`Walker::step`] advanced over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// `len` plain ops at consecutive PCs from `pc`: no branch, no trap
    /// and no flush among them.
    Run {
        /// PC of the first op.
        pc: Addr,
        /// Number of ops, at least 1.
        len: u64,
    },
    /// One instruction, exactly as [`Iterator::next`] would emit it.
    Instr(FetchRecord),
}

/// The unemitted rest of the current run: `left` plain ops, the first at
/// `pc` and at image position `pos`.
#[derive(Clone, Copy, Debug, Default)]
struct Run {
    pc: Addr,
    pos: usize,
    left: u32,
}

impl Run {
    #[inline]
    fn advance(&mut self, n: u32) {
        self.pc = self.pc.add_instrs(u64::from(n));
        self.pos += n as usize;
        self.left -= n;
    }
}

/// Infinite iterator over the committed instruction stream of one core.
///
/// # Example
///
/// ```
/// use tifs_trace::exec::{ExecConfig, TransactionMix, Walker};
/// use tifs_trace::program::{Function, FunctionBuilder, PlainMem, Program};
/// use tifs_trace::types::Addr;
///
/// let mut b = FunctionBuilder::new();
/// b.straight(8, PlainMem::Load);
/// let program = Program::new(vec![Function { base: Addr(0x1000), ops: b.finish() }]);
/// let mix = TransactionMix::single(tifs_trace::program::FuncId(0));
/// let mut w = Walker::new(&program, mix, ExecConfig::default(), 42);
/// let first: Vec<_> = (&mut w).take(9).collect(); // 8 instrs + return
/// assert_eq!(first[0].pc, Addr(0x1000));
/// ```
pub struct Walker<'p> {
    program: &'p Program,
    mix: TransactionMix,
    config: ExecConfig,
    rng: SmallRng,
    /// The next instruction of each active call, innermost last.
    stack: Vec<InstrRef>,
    cold_cursor: usize,
    /// Instructions until the next trap fires (geometric).
    trap_countdown: u64,
    /// Depth of nested trap handlers (at most 1).
    in_trap: bool,
    trap_resume_depth: usize,
    /// Instructions until the next context switch (geometric; `u64::MAX`
    /// when disabled).
    ctx_countdown: u64,
    /// Idle-loop instructions still to emit (0 = running transactions).
    idle_left: u64,
    /// Position within the current idle-loop iteration.
    idle_pos: u64,
    /// The current run's unemitted ops; the top frame and both countdowns
    /// already point past them.
    run: Run,
    instructions: u64,
}

impl<'p> Walker<'p> {
    /// Creates a walker over `program` with the given mix and seed.
    ///
    /// # Panics
    ///
    /// Panics if the mix has no entries.
    pub fn new(program: &'p Program, mix: TransactionMix, config: ExecConfig, seed: u64) -> Self {
        assert!(!mix.entries.is_empty(), "transaction mix must be non-empty");
        let mut rng = SmallRng::seed_from_u64(seed);
        let trap_countdown = Self::draw_trap_gap(&mut rng, config.trap_period);
        // Draws nothing when disabled, so legacy streams stay bit-identical.
        let ctx_countdown = Self::draw_trap_gap(&mut rng, config.ctx_switch_period);
        Walker {
            program,
            mix,
            config,
            rng,
            stack: Vec::new(),
            cold_cursor: 0,
            trap_countdown,
            in_trap: false,
            trap_resume_depth: 0,
            ctx_countdown,
            idle_left: 0,
            idle_pos: 0,
            run: Run::default(),
            instructions: 0,
        }
    }

    /// Instructions emitted so far.
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    fn draw_trap_gap(rng: &mut SmallRng, period: u64) -> u64 {
        if period == 0 {
            return u64::MAX;
        }
        // Geometric with the configured mean, at least 1.
        let u: f64 = rng.gen_range(1e-12..1.0);
        let g = (-(u.ln()) * period as f64) as u64;
        g.max(1)
    }

    /// Advances over at most `max` instructions: up to `max` ops of the
    /// current run, forming a new run if none is left, or else one
    /// instruction. Interleaved with [`Iterator::next`] in any order, the
    /// instructions stepped over are exactly those `next` alone would
    /// emit, and the random draws stay in step.
    ///
    /// # Panics
    ///
    /// Panics if `max` is 0.
    #[inline]
    pub fn step(&mut self, max: u64) -> Step {
        assert!(max > 0, "a step covers at least one instruction");
        if self.run.left == 0 && !self.begin_run() {
            return Step::Instr(self.one_instruction());
        }
        let len = self.run.left.min(u32::try_from(max).unwrap_or(u32::MAX));
        // Draw the loads' classes exactly as emitting the records would:
        // one draw per load, in order, and none for other plain ops.
        let loads = self
            .program
            .plain_loads(self.run.pos..self.run.pos + len as usize);
        for _ in 0..loads {
            self.draw_load_class();
        }
        let pc = self.run.pc;
        self.run.advance(len);
        self.instructions += u64::from(len);
        Step::Run {
            pc,
            len: u64::from(len),
        }
    }

    /// Forms a run at the top frame's next instruction, moving the frame
    /// and both countdowns past it. Returns `false`, forming nothing, when
    /// that instruction must take the one-instruction path.
    #[inline]
    fn begin_run(&mut self) -> bool {
        if self.idle_left > 0 {
            return false;
        }
        let Some(at) = self.stack.last_mut() else {
            return false;
        };
        // The op at which a countdown stands at 0 fires it, so a run may
        // cover only as many ops as the smaller countdown. A disabled
        // context switch stays frozen at u64::MAX; a disabled trap still
        // counts down from u64::MAX.
        let mut cap = self.trap_countdown;
        if self.ctx_countdown != u64::MAX {
            cap = cap.min(self.ctx_countdown);
        }
        let ops = self
            .program
            .plain_run(*at, u32::try_from(cap).unwrap_or(u32::MAX));
        if ops.is_empty() {
            return false;
        }
        let len = u32::try_from(ops.len()).expect("capped at u32::MAX");
        self.run = Run {
            pc: self.program.addr_of(at.func, at.idx),
            pos: ops.start,
            left: len,
        };
        at.idx += len;
        self.trap_countdown -= u64::from(len);
        if self.ctx_countdown != u64::MAX {
            self.ctx_countdown -= u64::from(len);
        }
        true
    }

    /// The record class of a plain op, drawing a load's latency class.
    #[inline]
    fn mem_class(&mut self, mem: PlainMem) -> MemClass {
        match mem {
            PlainMem::Load => self.draw_load_class(),
            PlainMem::Store => MemClass::Store,
            PlainMem::None => MemClass::None,
        }
    }

    #[inline]
    fn draw_load_class(&mut self) -> MemClass {
        if self.rng.gen_bool(self.config.data.l1d_miss_rate) {
            if self.rng.gen_bool(self.config.data.l2_hit_frac) {
                MemClass::LoadL2
            } else {
                MemClass::LoadMem
            }
        } else {
            MemClass::LoadL1
        }
    }

    fn start_transaction(&mut self) {
        let entry = self.mix.pick(&mut self.rng, &mut self.cold_cursor);
        self.stack.push(InstrRef {
            func: entry,
            idx: 0,
        });
    }

    /// Counts one instruction toward the next trap; at 0 the trap fires.
    /// The countdown is in line in every caller, the firing is not.
    #[inline]
    fn maybe_enter_trap(&mut self) -> bool {
        if self.trap_countdown > 0 {
            self.trap_countdown -= 1;
            return false;
        }
        self.enter_trap()
    }

    /// The trap countdown ran out: draws the next gap and enters a
    /// handler, unless one is running or there are none.
    #[cold]
    fn enter_trap(&mut self) -> bool {
        self.trap_countdown = Self::draw_trap_gap(&mut self.rng, self.config.trap_period);
        if self.in_trap || self.config.trap_handlers.is_empty() {
            return false;
        }
        let h = self.config.trap_handlers[self.rng.gen_range(0..self.config.trap_handlers.len())];
        self.in_trap = true;
        self.trap_resume_depth = self.stack.len();
        self.stack.push(InstrRef { func: h, idx: 0 });
        true
    }

    /// Counts one instruction toward the next context switch, if they
    /// are enabled; at 0 the switch fires and the next gap is drawn out
    /// of line.
    #[inline]
    fn maybe_context_switch(&mut self) -> bool {
        if self.ctx_countdown == u64::MAX {
            return false;
        }
        if self.ctx_countdown > 0 {
            self.ctx_countdown -= 1;
            return false;
        }
        self.redraw_context_switch();
        true
    }

    #[cold]
    fn redraw_context_switch(&mut self) {
        self.ctx_countdown = Self::draw_trap_gap(&mut self.rng, self.config.ctx_switch_period);
    }

    /// Picks where execution continues once the call stack has drained:
    /// either the next transaction's entry, or — with probability
    /// `1 - duty_cycle` — the idle loop. Draws no randomness when the duty
    /// cycle is 1.0.
    fn next_work_addr(&mut self) -> Addr {
        if self.config.duty_cycle < 1.0 && !self.rng.gen_bool(self.config.duty_cycle.max(0.0)) {
            // Round the quantum up to whole idle-loop iterations so the
            // loop is always exited at its backward jump (the emitted
            // stream keeps perfect control-flow continuity).
            let q = self.config.idle_quantum.max(1).div_ceil(IDLE_LOOP_LEN) * IDLE_LOOP_LEN;
            self.idle_left = q;
            self.idle_pos = 0;
            Addr(IDLE_BASE)
        } else {
            self.start_transaction();
            let f = self.stack.last().expect("fresh transaction");
            self.program.addr_of(f.func, f.idx)
        }
    }

    /// Emits one idle-loop instruction. Positions 0..14 are nops; position
    /// 15 is a taken jump back to the loop head or — when the quantum is
    /// spent — to the next scheduling decision's address. Traps and context
    /// switches are frozen while idle: an idle core has no transaction
    /// state worth interrupting or flushing.
    fn idle_step(&mut self) -> FetchRecord {
        let pc = Addr(IDLE_BASE + 4 * self.idle_pos);
        self.idle_left -= 1;
        let mut record = FetchRecord::plain(pc);
        if self.idle_pos == IDLE_LOOP_LEN - 1 {
            let target = if self.idle_left > 0 {
                self.idle_pos = 0;
                Addr(IDLE_BASE)
            } else {
                // May re-enter the idle loop (resetting idle_pos/idle_left)
                // or start a transaction.
                self.next_work_addr()
            };
            record.branch = Some(BranchInfo {
                kind: BranchKind::Jump,
                taken: true,
                target,
                inner_loop: false,
            });
        } else {
            self.idle_pos += 1;
        }
        record
    }

    /// Emits the next instruction without forming a run.
    #[inline]
    fn one_instruction(&mut self) -> FetchRecord {
        if self.idle_left > 0 {
            let record = self.idle_step();
            self.instructions += 1;
            return record;
        }
        if self.stack.is_empty() {
            // Scheduling decision: next transaction or an idle quantum.
            let _ = self.next_work_addr();
            if self.idle_left > 0 {
                let record = self.idle_step();
                self.instructions += 1;
                return record;
            }
        }
        let at = *self.stack.last().expect("frame pushed above");
        let pc = self.program.addr_of(at.func, at.idx);

        let mut record = FetchRecord::plain(pc);
        match self.program.op(at) {
            Op::Plain { mem } => {
                record.mem = self.mem_class(mem);
                self.stack.last_mut().expect("frame").idx += 1;
            }
            Op::CondBranch {
                target,
                taken_prob,
                inner_loop,
            } => {
                let taken = self.rng.gen_bool(f64::from(taken_prob).clamp(0.0, 1.0));
                record.branch = Some(BranchInfo {
                    kind: BranchKind::Conditional,
                    taken,
                    target: self.program.addr_of(at.func, target),
                    inner_loop,
                });
                let frame = self.stack.last_mut().expect("frame");
                frame.idx = if taken { target } else { frame.idx + 1 };
            }
            Op::Jump { target } => {
                record.branch = Some(BranchInfo {
                    kind: BranchKind::Jump,
                    taken: true,
                    target: self.program.addr_of(at.func, target),
                    inner_loop: false,
                });
                self.stack.last_mut().expect("frame").idx = target;
            }
            Op::Call(callee) => {
                let callee = match callee {
                    Callee::Direct(c) => c,
                    Callee::Indirect(cs) => cs[self.rng.gen_range(0..cs.len())],
                };
                record.branch = Some(BranchInfo {
                    kind: BranchKind::Call,
                    taken: true,
                    target: self.program.addr_of(callee, 0),
                    inner_loop: false,
                });
                // Return point is the next instruction.
                self.stack.last_mut().expect("frame").idx += 1;
                if self.stack.len() < self.config.max_stack {
                    self.stack.push(InstrRef {
                        func: callee,
                        idx: 0,
                    });
                } else {
                    // Recursion guard: treat as an immediately-returning call.
                }
            }
            Op::Return => {
                self.stack.pop();
                let target = match self.stack.last() {
                    Some(f) => self.program.addr_of(f.func, f.idx),
                    // Transaction finished; the next scheduling decision
                    // (transaction entry or idle loop) is the "return"
                    // target for trace continuity purposes.
                    None => self.next_work_addr(),
                };
                if self.in_trap && self.stack.len() <= self.trap_resume_depth {
                    self.in_trap = false;
                }
                record.branch = Some(BranchInfo {
                    kind: BranchKind::Return,
                    taken: true,
                    target,
                    inner_loop: false,
                });
            }
        }

        // Asynchronous trap: fires *between* instructions; the record is
        // flagged so consumers know the next PC is an unpredictable
        // discontinuity.
        if self.maybe_enter_trap() {
            record.trap = true;
        }
        // Context switch: another tenant ran during the gap after this
        // instruction. Its instructions are not traced — only the damage it
        // does to this core's prefetcher metadata, which the flush flag
        // tells the simulator to model.
        if self.maybe_context_switch() {
            record.flush = true;
        }

        self.instructions += 1;
        record
    }
}

impl Iterator for Walker<'_> {
    type Item = FetchRecord;

    /// Inlinable, so a caller monomorphized over `Walker` (the simulator's
    /// core fetch) takes a run's ops in line. Everything else is one call
    /// to `next_past_run`, which is not `#[inline]`: inlined into the
    /// core's fetch as well, its one-instruction path pushed the run
    /// path's load-class draw out of line, and `fig13` ran about 2%
    /// slower.
    #[inline]
    fn next(&mut self) -> Option<FetchRecord> {
        if self.run.left == 0 {
            return Some(self.next_past_run());
        }
        Some(self.take_run_op())
    }
}

impl Walker<'_> {
    /// [`Iterator::next`] once the current run is spent: forms a run and
    /// takes its first op, or emits one instruction.
    fn next_past_run(&mut self) -> FetchRecord {
        if self.begin_run() {
            self.take_run_op()
        } else {
            self.one_instruction()
        }
    }

    /// Emits the current run's next op as a record.
    #[inline]
    fn take_run_op(&mut self) -> FetchRecord {
        let mut record = FetchRecord::plain(self.run.pc);
        record.mem = self.mem_class(self.program.plain_mem(self.run.pos));
        self.run.advance(1);
        self.instructions += 1;
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Function, FunctionBuilder, PlainMem};
    use crate::types::Addr;

    fn call_chain_program() -> Program {
        // f0 calls f1 twice; f1 calls f2; f2 is a leaf with a loop.
        let mut b0 = FunctionBuilder::new();
        b0.straight(2, PlainMem::None);
        b0.call(FuncId(1));
        b0.straight(1, PlainMem::None);
        b0.call(FuncId(1));
        let f0 = Function {
            base: Addr(0x1_0000),
            ops: b0.finish(),
        };
        let mut b1 = FunctionBuilder::new();
        b1.straight(3, PlainMem::Load);
        b1.call(FuncId(2));
        let f1 = Function {
            base: Addr(0x2_0000),
            ops: b1.finish(),
        };
        let mut b2 = FunctionBuilder::new();
        let l = b2.begin_loop();
        b2.straight(2, PlainMem::None);
        b2.end_loop(l, 3.0, true);
        let f2 = Function {
            base: Addr(0x3_0000),
            ops: b2.finish(),
        };
        Program::new(vec![f0, f1, f2])
    }

    #[test]
    fn deterministic_given_seed() {
        let p = call_chain_program();
        let take = |seed| -> Vec<FetchRecord> {
            Walker::new(
                &p,
                TransactionMix::single(FuncId(0)),
                ExecConfig::default(),
                seed,
            )
            .take(500)
            .collect()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8), "different seeds should diverge");
    }

    #[test]
    fn control_flow_is_consistent() {
        // Every record's successor PC must equal target (taken) or pc+4.
        let p = call_chain_program();
        let records: Vec<FetchRecord> = Walker::new(
            &p,
            TransactionMix::single(FuncId(0)),
            ExecConfig::default(),
            99,
        )
        .take(2000)
        .collect();
        for w in records.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.trap {
                continue; // asynchronous discontinuity
            }
            let expected = match a.branch {
                Some(br) if br.taken => br.target,
                _ => a.fall_through(),
            };
            assert_eq!(
                b.pc, expected,
                "discontinuity without branch: {a:?} -> {b:?}"
            );
        }
    }

    #[test]
    fn calls_and_returns_balance() {
        let p = call_chain_program();
        let records: Vec<FetchRecord> = Walker::new(
            &p,
            TransactionMix::single(FuncId(0)),
            ExecConfig::default(),
            3,
        )
        .take(5000)
        .collect();
        let calls = records
            .iter()
            .filter(|r| matches!(r.branch, Some(b) if b.kind == BranchKind::Call))
            .count();
        let rets = records
            .iter()
            .filter(|r| matches!(r.branch, Some(b) if b.kind == BranchKind::Return))
            .count();
        // Returns also end transactions, so they can exceed calls by the
        // number of completed transactions; they must stay in the same range.
        assert!(rets >= calls / 2, "calls {calls} rets {rets}");
        assert!(calls > 0 && rets > 0);
    }

    #[test]
    fn traps_enter_handlers() {
        let p = {
            let mut main = FunctionBuilder::new();
            main.straight(32, PlainMem::None);
            let f0 = Function {
                base: Addr(0x1_0000),
                ops: main.finish(),
            };
            let mut h = FunctionBuilder::new();
            h.straight(4, PlainMem::None);
            let f1 = Function {
                base: Addr(0x8_0000),
                ops: h.finish(),
            };
            Program::new(vec![f0, f1])
        };
        let config = ExecConfig {
            trap_period: 50,
            trap_handlers: vec![FuncId(1)],
            ..ExecConfig::default()
        };
        let records: Vec<FetchRecord> =
            Walker::new(&p, TransactionMix::single(FuncId(0)), config, 11)
                .take(5000)
                .collect();
        let trap_count = records.iter().filter(|r| r.trap).count();
        assert!(trap_count > 10, "expected traps, got {trap_count}");
        // Handler code must actually execute.
        assert!(
            records.iter().any(|r| r.pc.0 >= 0x8_0000),
            "handler never entered"
        );
        // After each trap record, the next PC is the handler entry.
        for w in records.windows(2) {
            if w[0].trap {
                assert_eq!(w[1].pc, Addr(0x8_0000));
            }
        }
    }

    #[test]
    fn cold_pool_rotates() {
        let mk_leaf = |base: u64| {
            let mut b = FunctionBuilder::new();
            b.straight(4, PlainMem::None);
            Function {
                base: Addr(base),
                ops: b.finish(),
            }
        };
        let p = Program::new(vec![
            mk_leaf(0x1000),
            mk_leaf(0x2000),
            mk_leaf(0x3000),
            mk_leaf(0x4000),
        ]);
        let mix = TransactionMix {
            entries: vec![(FuncId(0), 1.0)],
            cold_entries: vec![FuncId(1), FuncId(2), FuncId(3)],
            cold_prob: 0.5,
        };
        let records: Vec<FetchRecord> = Walker::new(&p, mix, ExecConfig::default(), 21)
            .take(400)
            .collect();
        for base in [0x2000u64, 0x3000, 0x4000] {
            assert!(
                records
                    .iter()
                    .any(|r| r.pc.0 >= base && r.pc.0 < base + 0x100),
                "cold entry at {base:#x} never executed"
            );
        }
    }

    #[test]
    fn duty_cycle_idles_with_continuity() {
        let p = call_chain_program();
        let config = ExecConfig {
            duty_cycle: 0.3,
            idle_quantum: 64,
            ..ExecConfig::default()
        };
        let records: Vec<FetchRecord> =
            Walker::new(&p, TransactionMix::single(FuncId(0)), config, 17)
                .take(8000)
                .collect();
        let idle = records.iter().filter(|r| r.pc.0 < 0x1_0000).count();
        assert!(idle > 500, "idle loop never entered ({idle})");
        assert!(idle < 8000, "transactions never ran");
        // Idle instructions live in one block and never touch data memory.
        for r in records.iter().filter(|r| r.pc.0 < 0x1_0000) {
            assert!(r.pc.0 >= IDLE_BASE && r.pc.0 < IDLE_BASE + 4 * IDLE_LOOP_LEN);
            assert_eq!(r.mem, MemClass::None);
        }
        // Entering and leaving the idle loop preserves trace continuity.
        for w in records.windows(2) {
            if w[0].trap {
                continue;
            }
            let expected = match w[0].branch {
                Some(b) if b.taken => b.target,
                _ => w[0].fall_through(),
            };
            assert_eq!(w[1].pc, expected, "discontinuity: {:?} -> {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn context_switches_flag_flush() {
        let p = call_chain_program();
        let config = ExecConfig {
            ctx_switch_period: 100,
            ..ExecConfig::default()
        };
        let records: Vec<FetchRecord> =
            Walker::new(&p, TransactionMix::single(FuncId(0)), config, 9)
                .take(10_000)
                .collect();
        let flushes = records.iter().filter(|r| r.flush).count();
        assert!(flushes > 20, "expected flushes, got {flushes}");
        // Disabled by default: no flush ever fires.
        let baseline: Vec<FetchRecord> = Walker::new(
            &p,
            TransactionMix::single(FuncId(0)),
            ExecConfig::default(),
            9,
        )
        .take(10_000)
        .collect();
        assert!(baseline.iter().all(|r| !r.flush));
    }

    /// Runs change how the walker advances, not what it emits: a walker
    /// that forms runs emits exactly the records of its twin driven only
    /// through the one-instruction path. Short trap and switch periods
    /// make countdowns expire at and inside would-be runs.
    #[test]
    fn runs_replay_the_one_instruction_path() {
        use crate::workload::{Workload, WorkloadSpec};
        let configs = [
            (1, 0, 1.0),
            (3, 1, 1.0),
            (7, 13, 0.25),
            (40, 0, 0.25),
            (40, 64, 1.0),
            (2000, 0, 1.0),
        ];
        for (i, (trap_period, ctx_switch_period, duty_cycle)) in configs.into_iter().enumerate() {
            let spec = WorkloadSpec {
                trap_period,
                ..WorkloadSpec::tiny_server()
            }
            .with_duty_cycle(duty_cycle)
            .with_ctx_switch_period(ctx_switch_period);
            let w = Workload::build_at(&spec, 5, i % 3);
            for max_stack in [2, 64] {
                let exec = ExecConfig {
                    max_stack,
                    ..w.exec.clone()
                };
                let walker = || Walker::new(&w.program, w.mix.clone(), exec.clone(), i as u64);
                let (mut runs, mut reference) = (walker(), walker());
                for n in 0..20_000 {
                    let expected = reference.one_instruction();
                    assert_eq!(
                        runs.next(),
                        Some(expected),
                        "config {i}, max_stack {max_stack}, record {n}"
                    );
                }
                assert_eq!(runs.instructions(), reference.instructions());
            }
        }
    }

    /// `step` over stretches of plain ops too long for one run field
    /// (taken in pieces) draws exactly the load classes the records
    /// would carry, so a walker stepped over them and its twin emitting
    /// them one record at a time stay in step.
    #[test]
    fn steps_over_long_stretches_keep_the_draws_in_step() {
        let mut b = FunctionBuilder::new();
        b.straight(3 * 0xFFFF + 10, PlainMem::Load);
        let p = Program::new(vec![Function {
            base: Addr(0x1000),
            ops: b.finish(),
        }]);
        let config = ExecConfig {
            data: DataProfile {
                l1d_miss_rate: 0.5,
                l2_hit_frac: 0.5,
            },
            ..ExecConfig::default()
        };
        let walker = || Walker::new(&p, TransactionMix::single(FuncId(0)), config.clone(), 3);
        let (mut stepped, mut emitted) = (walker(), walker());
        for max in [1, 7, 0xFFFF, u64::MAX, 5, 500_000] {
            let until = stepped.instructions() + 250_000;
            while stepped.instructions() < until {
                stepped.step(max);
            }
        }
        for _ in 0..stepped.instructions() {
            emitted.next();
        }
        for n in 0..1000 {
            assert_eq!(stepped.next(), emitted.next(), "record {n} after the steps");
        }
    }

    #[test]
    fn load_classes_follow_profile() {
        let p = {
            let mut b = FunctionBuilder::new();
            b.straight(30, PlainMem::Load);
            Program::new(vec![Function {
                base: Addr(0x1000),
                ops: b.finish(),
            }])
        };
        let config = ExecConfig {
            data: DataProfile {
                l1d_miss_rate: 0.5,
                l2_hit_frac: 1.0,
            },
            ..ExecConfig::default()
        };
        let records: Vec<FetchRecord> =
            Walker::new(&p, TransactionMix::single(FuncId(0)), config, 5)
                .take(20_000)
                .collect();
        let loads = records.iter().filter(|r| r.mem.is_load()).count();
        let l2 = records.iter().filter(|r| r.mem == MemClass::LoadL2).count();
        assert!(loads > 1000);
        let rate = l2 as f64 / loads as f64;
        assert!((rate - 0.5).abs() < 0.05, "L2 rate {rate} should be ~0.5");
        assert!(!records.iter().any(|r| r.mem == MemClass::LoadMem));
    }
}
