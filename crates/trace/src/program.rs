//! Static representation of a synthetic program.
//!
//! A [`Program`] is a set of functions laid out in a flat physical address
//! space. The representation serves two consumers:
//!
//! * the [`Walker`](crate::exec::Walker) interprets it to produce the
//!   committed instruction stream, and
//! * branch-predictor-directed prefetchers (FDIP) *decode* it, exploring
//!   control flow ahead of the fetch unit exactly as hardware decodes
//!   pre-fetched instruction bytes.
//!
//! Both views are consistent by construction: a single op encodes the
//! static structure (targets, callees) while dynamic outcomes (branch
//! directions, indirect-call choices) are drawn at execution time. Both
//! read ops through one accessor, [`Program::op`].
//!
//! Generators describe code as [`StaticOp`]s ([`FunctionBuilder`],
//! [`Function`]). A program stores them as one *image*: every function's
//! ops packed into one exactly-sized array of 8-byte ops, appended
//! function by function as they are generated, plus a function table and
//! one flat table of indirect-callee sets. A `Program` is that image
//! behind an [`Arc`] plus an address shift, so every mix slot that walks
//! the same program shares one image.

use std::ops::Range;
use std::sync::Arc;

use crate::types::{Addr, INSTR_BYTES};

/// Identifier of a function within a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Index usable for function tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Callee specification of a call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CalleeSpec {
    /// Direct call: always the same callee.
    Direct(FuncId),
    /// Data-dependent indirect call: a fresh uniform choice per execution.
    /// This is a primary stream-divergence point (paper Section 3.2).
    Indirect(Vec<FuncId>),
}

/// One 4-byte instruction slot.
#[derive(Clone, Debug, PartialEq)]
pub enum StaticOp {
    /// A non-control-transfer instruction, possibly a memory access.
    Plain {
        /// Static memory-op class (`None`, load, or store). Loads receive a
        /// dynamic latency class at execution time.
        mem: PlainMem,
    },
    /// Conditional direct branch to `target` (an instruction index within
    /// the same function); falls through when not taken.
    CondBranch {
        /// Instruction index (within this function) of the taken target.
        target: u32,
        /// Probability the branch is taken, drawn fresh each execution.
        taken_prob: f32,
        /// Marks the backward branch of an innermost loop.
        inner_loop: bool,
    },
    /// Unconditional direct jump within the function.
    Jump {
        /// Instruction index of the target.
        target: u32,
    },
    /// Call; control continues at the next instruction after the callee
    /// returns.
    Call(CalleeSpec),
    /// Return to the caller.
    Return,
}

/// Static memory class of a plain instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PlainMem {
    /// Neither load nor store.
    #[default]
    None,
    /// A load instruction.
    Load,
    /// A store instruction.
    Store,
}

/// A function: a base address plus one op per instruction slot.
#[derive(Clone, Debug)]
pub struct Function {
    /// Address of the first instruction.
    pub base: Addr,
    /// Ops, one per instruction, laid out contiguously from `base`.
    pub ops: Vec<StaticOp>,
}

impl Function {
    /// Size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.ops.len() as u64 * INSTR_BYTES
    }
}

/// A decoded instruction reference: which function and instruction index a
/// PC maps to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstrRef {
    /// Containing function.
    pub func: FuncId,
    /// Instruction index within the function.
    pub idx: u32,
}

/// One op as [`Program::op`] reads it back: a [`StaticOp`] that borrows an
/// indirect call's callee set from the image instead of owning it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op<'p> {
    /// See [`StaticOp::Plain`].
    Plain {
        /// Static memory-op class.
        mem: PlainMem,
    },
    /// See [`StaticOp::CondBranch`].
    CondBranch {
        /// Instruction index (within this function) of the taken target.
        target: u32,
        /// Probability the branch is taken, exactly as generated.
        taken_prob: f32,
        /// Marks the backward branch of an innermost loop.
        inner_loop: bool,
    },
    /// See [`StaticOp::Jump`].
    Jump {
        /// Instruction index of the target.
        target: u32,
    },
    /// See [`StaticOp::Call`].
    Call(Callee<'p>),
    /// Return to the caller.
    Return,
}

/// The callee of a call [`Op`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Callee<'p> {
    /// Direct call: always the same callee.
    Direct(FuncId),
    /// Indirect call: a fresh uniform choice from the set per execution.
    Indirect(&'p [FuncId]),
}

/// Width of a packed op's argument field.
const ARG_BITS: u32 = 28;
const ARG_SHIFT: u32 = 4;
const ARG_MASK: u64 = (1 << ARG_BITS) - 1;
const KIND_MASK: u64 = 0b111;
const INNER_LOOP: u64 = 1 << 3;
const PROB_SHIFT: u32 = 32;
/// Where a plain op keeps the ops and the loads left in its run.
const RUN_SHIFT: u32 = 32;
const LOADS_SHIFT: u32 = 48;
/// The most ops one run field counts (each field is 16 bits wide).
const RUN_MAX: u64 = 0xFFFF;

const KIND_PLAIN: u64 = 0;
const KIND_COND_BRANCH: u64 = 1;
const KIND_JUMP: u64 = 2;
const KIND_CALL: u64 = 3;
const KIND_CALL_INDIRECT: u64 = 4;
const KIND_RETURN: u64 = 5;

/// One op in 8 bytes. Bits 0..3 hold the kind and bit 3 the inner-loop
/// flag. Bits 4..32 hold the argument: the branch or jump target index,
/// the direct callee id, the callee-set index, or a plain op's mem class.
/// Bits 32..64 hold the `f32` bits of a conditional branch's taken
/// probability, so the walker draws against exactly the generated value.
///
/// A plain op's bits 32..64 describe the run it starts: bits 32..48 hold
/// the number of plain ops from it to the run's end, itself included,
/// and bits 48..64 the loads among them. The run is the rest of the
/// maximal stretch of consecutive plain ops in the function. A stretch
/// longer than [`RUN_MAX`] ops is counted as pieces of at most `RUN_MAX`
/// ops, cut from its end, and each op describes the rest of its piece.
#[derive(Clone, Copy, Debug)]
struct PackedOp(u64);

impl PackedOp {
    /// Packs `kind` with argument `arg`.
    ///
    /// # Panics
    ///
    /// Panics if `arg` does not fit [`ARG_BITS`] bits: a field is rejected,
    /// never truncated.
    fn new(kind: u64, arg: u32, what: &str) -> PackedOp {
        assert!(
            u64::from(arg) <= ARG_MASK,
            "{what} {arg} does not fit the {ARG_BITS}-bit op argument"
        );
        PackedOp(kind | u64::from(arg) << ARG_SHIFT)
    }

    fn plain(mem: PlainMem) -> PackedOp {
        let code = match mem {
            PlainMem::None => 0,
            PlainMem::Load => 1,
            PlainMem::Store => 2,
        };
        PackedOp::new(KIND_PLAIN, code, "mem class")
    }

    fn cond_branch(target: u32, taken_prob: f32, inner_loop: bool) -> PackedOp {
        let op = PackedOp::new(KIND_COND_BRANCH, target, "branch target");
        let flag = if inner_loop { INNER_LOOP } else { 0 };
        PackedOp(op.0 | flag | u64::from(taken_prob.to_bits()) << PROB_SHIFT)
    }

    fn jump(target: u32) -> PackedOp {
        PackedOp::new(KIND_JUMP, target, "jump target")
    }

    fn call(callee: FuncId) -> PackedOp {
        PackedOp::new(KIND_CALL, callee.0, "callee")
    }

    fn call_indirect(set: u32) -> PackedOp {
        PackedOp::new(KIND_CALL_INDIRECT, set, "callee set")
    }

    fn arg(self) -> u32 {
        ((self.0 >> ARG_SHIFT) & ARG_MASK) as u32
    }

    fn is_plain(self) -> bool {
        self.0 & KIND_MASK == KIND_PLAIN
    }

    /// A plain op's memory class.
    fn plain_mem(self) -> PlainMem {
        match self.arg() {
            0 => PlainMem::None,
            1 => PlainMem::Load,
            _ => PlainMem::Store,
        }
    }

    /// A plain op's count of run ops left, itself included.
    fn run_left(self) -> u32 {
        ((self.0 >> RUN_SHIFT) & RUN_MAX) as u32
    }

    /// A plain op's count of loads among its run ops left.
    fn loads_left(self) -> u32 {
        ((self.0 >> LOADS_SHIFT) & RUN_MAX) as u32
    }
}

/// Records in each op of `stretch`, a maximal stretch of plain ops, the
/// ops and the loads left in its run (see [`PackedOp`]), so a walk forms
/// a run, and counts its loads, from one op.
fn seal_stretch(stretch: &mut [PackedOp]) {
    for piece in stretch.rchunks_mut(RUN_MAX as usize) {
        let (mut left, mut loads) = (0, 0);
        for op in piece.iter_mut().rev() {
            left += 1;
            loads += u64::from(op.plain_mem() == PlainMem::Load);
            op.0 |= left << RUN_SHIFT | loads << LOADS_SHIFT;
        }
    }
}

/// One function table entry: where the function lives in the image and
/// in the (unshifted) address space.
#[derive(Clone, Copy, Debug)]
struct FuncEntry {
    base: u64,
    first: u32,
    len: u32,
}

/// The packed ops and tables of one program, shared by every shift of it.
#[derive(Debug)]
struct Image {
    ops: Box<[PackedOp]>,
    funcs: Box<[FuncEntry]>,
    /// Function ids sorted by base address, for decode.
    by_base: Box<[u32]>,
    /// The base of each function in `by_base`, so decode's binary search
    /// reads one array.
    bases: Box<[u64]>,
    /// Every indirect call site's callee set, back to back.
    callees: Box<[FuncId]>,
    /// Callee set `i` is `callees[set_bounds[i]..set_bounds[i + 1]]`.
    set_bounds: Box<[u32]>,
    /// Unshifted addresses from the lowest function base to the highest
    /// function end.
    text: Range<u64>,
}

/// Appends functions to a program image as they are generated, packing
/// each one on arrival: the one construction path of every [`Program`].
#[derive(Debug)]
pub(crate) struct ImageBuilder {
    ops: Vec<PackedOp>,
    funcs: Vec<FuncEntry>,
    callees: Vec<FuncId>,
    set_bounds: Vec<u32>,
    /// The largest callee id any call names; callees may be appended after
    /// their callers, so the range check waits for [`finish`](Self::finish).
    max_callee: Option<FuncId>,
}

impl ImageBuilder {
    pub(crate) fn new() -> ImageBuilder {
        ImageBuilder {
            ops: Vec::new(),
            funcs: Vec::new(),
            callees: Vec::new(),
            set_bounds: vec![0],
            max_callee: None,
        }
    }

    /// Appends a function whose first instruction is at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty, a branch or jump target lies outside the
    /// function, an indirect call has no candidates, or a value does not
    /// fit its packed width.
    pub(crate) fn push(&mut self, base: Addr, ops: &[StaticOp]) -> FuncId {
        let id = FuncId(u32::try_from(self.funcs.len()).expect("function ids fit u32"));
        assert!(!ops.is_empty(), "function {} is empty", id.0);
        let end = u32::try_from(self.ops.len() + ops.len())
            .unwrap_or_else(|_| panic!("function {}: image ops do not fit a u32 index", id.0));
        let len = u32::try_from(ops.len()).expect("bounded by end");
        // Start of the stretch of plain ops the next plain op extends.
        let mut stretch = self.ops.len();
        for (j, op) in ops.iter().enumerate() {
            let packed = match op {
                StaticOp::Plain { mem } => PackedOp::plain(*mem),
                StaticOp::CondBranch {
                    target,
                    taken_prob,
                    inner_loop,
                } => PackedOp::cond_branch(*target, *taken_prob, *inner_loop),
                StaticOp::Jump { target } => PackedOp::jump(*target),
                StaticOp::Call(CalleeSpec::Direct(c)) => {
                    self.note_callee(*c);
                    PackedOp::call(*c)
                }
                StaticOp::Call(CalleeSpec::Indirect(cs)) => {
                    assert!(
                        !cs.is_empty(),
                        "function {} op {j}: empty indirect set",
                        id.0
                    );
                    let set = u32::try_from(self.set_bounds.len() - 1).expect("sets fit u32");
                    let packed = PackedOp::call_indirect(set);
                    for &c in cs {
                        self.note_callee(c);
                    }
                    self.callees.extend_from_slice(cs);
                    self.set_bounds.push(
                        u32::try_from(self.callees.len())
                            .expect("callee-set entries fit a u32 index"),
                    );
                    packed
                }
                StaticOp::Return => PackedOp(KIND_RETURN),
            };
            if let StaticOp::CondBranch { target, .. } | StaticOp::Jump { target } = op {
                assert!(
                    *target < len,
                    "function {} op {j}: target {target} out of range",
                    id.0
                );
            }
            if !packed.is_plain() {
                seal_stretch(&mut self.ops[stretch..]);
                stretch = self.ops.len() + 1;
            }
            self.ops.push(packed);
        }
        seal_stretch(&mut self.ops[stretch..]);
        self.funcs.push(FuncEntry {
            base: base.0,
            first: end - len,
            len,
        });
        id
    }

    fn note_callee(&mut self, callee: FuncId) {
        self.max_callee = self.max_callee.max(Some(callee));
    }

    /// Seals the image into an unshifted [`Program`].
    ///
    /// # Panics
    ///
    /// Panics if a call names a function that was never appended, or if
    /// two functions overlap.
    pub(crate) fn finish(self) -> Program {
        let n = self.funcs.len();
        if let Some(c) = self.max_callee {
            assert!(c.index() < n, "callee {c:?} out of range of {n} functions");
        }
        let funcs = self.funcs.into_boxed_slice();
        let mut by_base: Vec<u32> = (0..n)
            .map(|i| u32::try_from(i).expect("function ids fit u32"))
            .collect();
        by_base.sort_by_key(|&i| funcs[i as usize].base);
        for w in by_base.windows(2) {
            let (a, b) = (funcs[w[0] as usize], funcs[w[1] as usize]);
            assert!(
                a.base + u64::from(a.len) * INSTR_BYTES <= b.base,
                "functions overlap at {:#x}",
                b.base
            );
        }
        let text = match (by_base.first(), by_base.last()) {
            (Some(&lo), Some(&hi)) => {
                let (lo, hi) = (funcs[lo as usize], funcs[hi as usize]);
                lo.base..hi.base + u64::from(hi.len) * INSTR_BYTES
            }
            _ => 0..0,
        };
        let bases = by_base.iter().map(|&i| funcs[i as usize].base).collect();
        Program {
            image: Arc::new(Image {
                ops: self.ops.into_boxed_slice(),
                funcs,
                by_base: by_base.into_boxed_slice(),
                bases,
                callees: self.callees.into_boxed_slice(),
                set_bounds: self.set_bounds.into_boxed_slice(),
                text,
            }),
            shift: 0,
        }
    }
}

/// A complete synthetic program: a shared packed image, placed `shift`
/// bytes above the addresses it was built at.
#[derive(Clone, Debug)]
pub struct Program {
    image: Arc<Image>,
    shift: u64,
}

impl Program {
    /// Builds a program from functions. Bases must be non-overlapping.
    ///
    /// # Panics
    ///
    /// Panics if any function is empty, has an out-of-range branch target
    /// or callee, overlaps another function, or holds a value that does
    /// not fit its packed width (a branch target, callee id or
    /// callee-set index of 2^28 or more).
    pub fn new(functions: Vec<Function>) -> Program {
        let mut image = ImageBuilder::new();
        for f in &functions {
            image.push(f.base, &f.ops);
        }
        image.finish()
    }

    /// This program's image placed `shift` bytes above the addresses it
    /// was built at, sharing the image.
    pub(crate) fn with_shift(&self, shift: u64) -> Program {
        Program {
            image: Arc::clone(&self.image),
            shift,
        }
    }

    /// Whether both programs read one shared image (whatever their shifts).
    pub fn shares_image(&self, other: &Program) -> bool {
        Arc::ptr_eq(&self.image, &other.image)
    }

    /// Number of functions.
    pub fn num_functions(&self) -> usize {
        self.image.funcs.len()
    }

    /// Instruction count of function `f`.
    #[inline]
    pub fn function_len(&self, f: FuncId) -> u32 {
        self.image.funcs[f.index()].len
    }

    /// Total instruction bytes across all functions (the static footprint).
    pub fn text_bytes(&self) -> u64 {
        self.image.ops.len() as u64 * INSTR_BYTES
    }

    /// Addresses from the lowest function base to the highest function
    /// end (padding between functions included).
    pub fn text_range(&self) -> Range<Addr> {
        let text = &self.image.text;
        Addr(text.start + self.shift)..Addr(text.end + self.shift)
    }

    /// Address of instruction `idx` of function `f`.
    #[inline]
    pub fn addr_of(&self, f: FuncId, idx: u32) -> Addr {
        Addr(self.image.funcs[f.index()].base + self.shift).add_instrs(u64::from(idx))
    }

    /// The op at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at.idx` lies past the end of its function.
    #[inline]
    pub fn op(&self, at: InstrRef) -> Op<'_> {
        let image = &*self.image;
        let f = image.funcs[at.func.index()];
        assert!(
            at.idx < f.len,
            "instruction {} past the end of {:?}",
            at.idx,
            at.func
        );
        let op = image.ops[(f.first + at.idx) as usize];
        match op.0 & KIND_MASK {
            KIND_PLAIN => Op::Plain {
                mem: op.plain_mem(),
            },
            KIND_COND_BRANCH => Op::CondBranch {
                target: op.arg(),
                taken_prob: f32::from_bits((op.0 >> PROB_SHIFT) as u32),
                inner_loop: op.0 & INNER_LOOP != 0,
            },
            KIND_JUMP => Op::Jump { target: op.arg() },
            KIND_CALL => Op::Call(Callee::Direct(FuncId(op.arg()))),
            KIND_CALL_INDIRECT => {
                let set = op.arg() as usize;
                let bounds = &image.set_bounds[set..set + 2];
                Op::Call(Callee::Indirect(
                    &image.callees[bounds[0] as usize..bounds[1] as usize],
                ))
            }
            _ => Op::Return,
        }
    }

    /// The image positions of the consecutive plain ops that start at
    /// `at`: at most `max` of them, none past the end of `at`'s function,
    /// and none past the end of the piece of at most 65,535 ops that `at`
    /// lies in (see [`PackedOp`]). Empty when the op at `at` is not plain
    /// or lies past the end of its function.
    #[inline]
    pub(crate) fn plain_run(&self, at: InstrRef, max: u32) -> Range<usize> {
        let image = &*self.image;
        let f = image.funcs[at.func.index()];
        let start = (f.first + at.idx) as usize;
        let len = if at.idx < f.len && image.ops[start].is_plain() {
            image.ops[start].run_left().min(max)
        } else {
            0
        };
        start..start + len as usize
    }

    /// The number of loads among the plain ops at image positions `ops`,
    /// which must lie within one range [`plain_run`](Self::plain_run)
    /// returned.
    #[inline]
    pub(crate) fn plain_loads(&self, ops: Range<usize>) -> u32 {
        let image = &*self.image;
        let first = image.ops[ops.start];
        let len = ops.len() as u32;
        debug_assert!(first.is_plain() && len <= first.run_left());
        // Both counts run to the same end, so their difference counts
        // the loads in between.
        let beyond = if len < first.run_left() {
            image.ops[ops.end].loads_left()
        } else {
            0
        };
        first.loads_left() - beyond
    }

    /// The memory class of the plain op at image position `pos`, a
    /// position [`plain_run`](Self::plain_run) returned.
    #[inline]
    pub(crate) fn plain_mem(&self, pos: usize) -> PlainMem {
        let op = self.image.ops[pos];
        debug_assert!(op.is_plain(), "op {pos} is not plain");
        op.plain_mem()
    }

    /// Decodes a PC to its function and instruction index, or `None` if the
    /// PC does not map to an instruction (padding, unmapped).
    #[inline]
    pub fn decode(&self, pc: Addr) -> Option<InstrRef> {
        let pc = pc.0.checked_sub(self.shift)?;
        let image = &*self.image;
        let pos = image.bases.partition_point(|&base| base <= pc);
        let fid = image.by_base[pos.checked_sub(1)?];
        let f = image.funcs[fid as usize];
        let off = pc - f.base;
        if off % INSTR_BYTES != 0 || off >= u64::from(f.len) * INSTR_BYTES {
            return None;
        }
        Some(InstrRef {
            func: FuncId(fid),
            idx: (off / INSTR_BYTES) as u32,
        })
    }
}

/// Incremental builder for one function body, with structured helpers for
/// the code shapes the paper discusses: straight-line runs, branch hammocks
/// (Section 3.1/3.2), and loops.
///
/// # Example
///
/// ```
/// use tifs_trace::program::{FunctionBuilder, PlainMem};
///
/// let mut b = FunctionBuilder::new();
/// b.straight(4, PlainMem::None);
/// b.hammock(3, 0.5, PlainMem::Load); // data-dependent, 3-instr arm
/// let start = b.begin_loop();
/// b.straight(6, PlainMem::Load);
/// b.end_loop(start, 10.0, true); // inner loop, ~10 iterations
/// let ops = b.finish();
/// assert!(ops.len() > 10);
/// ```
#[derive(Debug, Default)]
pub struct FunctionBuilder {
    ops: Vec<StaticOp>,
}

/// Marker for an open loop started with [`FunctionBuilder::begin_loop`].
#[derive(Debug, Clone, Copy)]
#[must_use = "close the loop with end_loop"]
pub struct LoopStart(u32);

impl FunctionBuilder {
    /// Creates an empty builder.
    pub fn new() -> FunctionBuilder {
        FunctionBuilder { ops: Vec::new() }
    }

    /// Creates an empty builder with room for `ops` instructions.
    pub(crate) fn with_capacity(ops: usize) -> FunctionBuilder {
        FunctionBuilder {
            ops: Vec::with_capacity(ops),
        }
    }

    /// Current instruction count.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if no ops have been added.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends `n` plain instructions; memory instructions are interspersed
    /// with the given class every third slot (a rough commercial-code mix is
    /// produced by callers alternating classes).
    pub fn straight(&mut self, n: u32, mem: PlainMem) -> &mut Self {
        for i in 0..n {
            let m = if mem != PlainMem::None && i % 3 == 0 {
                mem
            } else {
                PlainMem::None
            };
            self.ops.push(StaticOp::Plain { mem: m });
        }
        self
    }

    /// Appends one plain instruction with an explicit memory class.
    pub fn instr(&mut self, mem: PlainMem) -> &mut Self {
        self.ops.push(StaticOp::Plain { mem });
        self
    }

    /// Appends a branch hammock: a conditional branch that skips over an
    /// `arm`-instruction then-arm with probability `skip_prob`, re-converging
    /// after the arm (paper Figure 2).
    pub fn hammock(&mut self, arm: u32, skip_prob: f32, mem: PlainMem) -> &mut Self {
        let branch_idx = self.ops.len() as u32;
        self.ops.push(StaticOp::CondBranch {
            target: branch_idx + 1 + arm,
            taken_prob: skip_prob,
            inner_loop: false,
        });
        self.straight(arm, mem);
        self
    }

    /// Opens a loop; the returned marker is passed to
    /// [`end_loop`](Self::end_loop).
    pub fn begin_loop(&mut self) -> LoopStart {
        LoopStart(self.ops.len() as u32)
    }

    /// Closes a loop with a backward conditional branch taken with
    /// probability `1 - 1/avg_iters` (geometric iteration count).
    /// `inner` marks innermost loops for the Figure 10 filter.
    ///
    /// # Panics
    ///
    /// Panics if `avg_iters < 1.0`.
    pub fn end_loop(&mut self, start: LoopStart, avg_iters: f64, inner: bool) -> &mut Self {
        assert!(avg_iters >= 1.0, "loops iterate at least once");
        let p = 1.0 - 1.0 / avg_iters;
        self.ops.push(StaticOp::CondBranch {
            target: start.0,
            taken_prob: p as f32,
            inner_loop: inner,
        });
        self
    }

    /// Appends a direct call site.
    pub fn call(&mut self, callee: FuncId) -> &mut Self {
        self.ops.push(StaticOp::Call(CalleeSpec::Direct(callee)));
        self
    }

    /// Appends a data-dependent indirect call site choosing uniformly among
    /// `callees` at each execution.
    pub fn call_indirect(&mut self, callees: Vec<FuncId>) -> &mut Self {
        assert!(!callees.is_empty(), "indirect call needs candidates");
        self.ops.push(StaticOp::Call(CalleeSpec::Indirect(callees)));
        self
    }

    /// Appends a conditional branch to an absolute instruction index within
    /// this function. Used for hammocks whose arm contains non-plain ops
    /// (e.g. a whole call site); the caller is responsible for ensuring the
    /// target lands on a valid instruction.
    pub fn cond_branch_to(&mut self, target: u32, taken_prob: f32) -> &mut Self {
        self.ops.push(StaticOp::CondBranch {
            target,
            taken_prob,
            inner_loop: false,
        });
        self
    }

    /// Appends an unconditional forward jump over `skip` instructions.
    pub fn jump_over(&mut self, skip: u32) -> &mut Self {
        let idx = self.ops.len() as u32;
        self.ops.push(StaticOp::Jump {
            target: idx + 1 + skip,
        });
        self.straight(skip, PlainMem::None);
        self
    }

    /// Terminates the body with a `Return` and yields the ops.
    pub fn finish(mut self) -> Vec<StaticOp> {
        self.ops.push(StaticOp::Return);
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> Program {
        let mut main = FunctionBuilder::new();
        main.straight(4, PlainMem::Load);
        main.call(FuncId(1));
        main.straight(2, PlainMem::None);
        let f0 = Function {
            base: Addr(0x1000),
            ops: main.finish(),
        };
        let mut leaf = FunctionBuilder::new();
        leaf.straight(3, PlainMem::Store);
        let f1 = Function {
            base: Addr(0x2000),
            ops: leaf.finish(),
        };
        Program::new(vec![f0, f1])
    }

    #[test]
    fn decode_roundtrip() {
        let p = tiny_program();
        for fi in 0..p.num_functions() as u32 {
            for idx in 0..p.function_len(FuncId(fi)) {
                let pc = p.addr_of(FuncId(fi), idx);
                let r = p.decode(pc).expect("mapped");
                assert_eq!(r.func, FuncId(fi));
                assert_eq!(r.idx, idx);
            }
        }
    }

    #[test]
    fn ops_read_back_as_built() {
        let p = tiny_program();
        let at = |func, idx| InstrRef {
            func: FuncId(func),
            idx,
        };
        assert_eq!(
            p.op(at(0, 0)),
            Op::Plain {
                mem: PlainMem::Load
            }
        );
        assert_eq!(p.op(at(0, 4)), Op::Call(Callee::Direct(FuncId(1))));
        assert_eq!(p.op(at(1, 3)), Op::Return);
        let mut b = FunctionBuilder::new();
        let l = b.begin_loop();
        b.call_indirect(vec![FuncId(0), FuncId(0)]);
        b.end_loop(l, 3.0, true);
        b.jump_over(1);
        let q = Program::new(vec![Function {
            base: Addr(0x1000),
            ops: b.finish(),
        }]);
        assert_eq!(
            q.op(at(0, 0)),
            Op::Call(Callee::Indirect(&[FuncId(0), FuncId(0)]))
        );
        assert_eq!(
            q.op(at(0, 1)),
            Op::CondBranch {
                target: 0,
                taken_prob: (1.0 - 1.0 / 3.0f64) as f32,
                inner_loop: true
            }
        );
        assert_eq!(q.op(at(0, 2)), Op::Jump { target: 4 });
    }

    #[test]
    fn shifted_program_shares_its_image() {
        let p = tiny_program();
        let q = p.with_shift(0x10_0000);
        assert!(q.shares_image(&p));
        assert!(!q.shares_image(&tiny_program()));
        assert_eq!(q.addr_of(FuncId(1), 2), Addr(0x10_2008));
        assert_eq!(
            q.decode(Addr(0x10_2008)),
            Some(InstrRef {
                func: FuncId(1),
                idx: 2
            })
        );
        assert_eq!(q.decode(Addr(0x2008)), None, "below the shift");
        assert_eq!(q.text_range(), Addr(0x10_1000)..Addr(0x10_2010));
    }

    #[test]
    fn decode_unmapped() {
        let p = tiny_program();
        assert_eq!(p.decode(Addr(0x0)), None);
        assert_eq!(p.decode(Addr(0x1001)), None, "misaligned");
        assert_eq!(p.decode(Addr(0x9_0000)), None, "past end");
        // Past the end of function 0 but before function 1.
        assert_eq!(p.decode(Addr(0x1800)), None);
    }

    #[test]
    fn text_bytes_counts_all() {
        let p = tiny_program();
        assert_eq!(p.text_bytes(), (8 + 4) * INSTR_BYTES);
    }

    #[test]
    fn hammock_targets_reconverge() {
        let mut b = FunctionBuilder::new();
        b.straight(2, PlainMem::None);
        b.hammock(3, 0.5, PlainMem::None);
        b.straight(1, PlainMem::None);
        let ops = b.finish();
        match &ops[2] {
            StaticOp::CondBranch { target, .. } => assert_eq!(*target, 6),
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn loop_targets_backward() {
        let mut b = FunctionBuilder::new();
        b.straight(1, PlainMem::None);
        let l = b.begin_loop();
        b.straight(4, PlainMem::None);
        b.end_loop(l, 8.0, true);
        let ops = b.finish();
        match &ops[5] {
            StaticOp::CondBranch {
                target,
                taken_prob,
                inner_loop,
            } => {
                assert_eq!(*target, 1);
                assert!(*inner_loop);
                assert!((*taken_prob - 0.875).abs() < 1e-6);
            }
            other => panic!("expected loop branch, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "target")]
    fn out_of_range_target_rejected() {
        let f = Function {
            base: Addr(0x1000),
            ops: vec![StaticOp::Jump { target: 99 }, StaticOp::Return],
        };
        Program::new(vec![f]);
    }

    #[test]
    #[should_panic(expected = "callee set 268435456 does not fit")]
    fn oversized_callee_set_index_rejected() {
        // Reaching 2^28 sets through the appender would take 2^28 call
        // sites; the packing is what must refuse the index.
        PackedOp::call_indirect(1 << ARG_BITS);
    }

    /// The plain ops from `at` to the first non-plain op or the end of
    /// the function, and the loads among them, counted op by op.
    fn scan_run(p: &Program, at: InstrRef) -> (u32, u32) {
        let (mut ops, mut loads) = (0, 0);
        for idx in at.idx..p.function_len(at.func) {
            match p.op(InstrRef { idx, ..at }) {
                Op::Plain { mem } => {
                    ops += 1;
                    loads += u32::from(mem == PlainMem::Load);
                }
                _ => break,
            }
        }
        (ops, loads)
    }

    /// The loads among ops `idx` of `func`, counted op by op.
    fn count_loads(p: &Program, func: FuncId, idx: Range<u32>) -> u32 {
        let load = Op::Plain {
            mem: PlainMem::Load,
        };
        idx.filter(|&idx| p.op(InstrRef { func, idx }) == load)
            .count() as u32
    }

    #[test]
    fn run_fields_match_a_scan_in_the_table1_images() {
        use crate::workload::{Workload, WorkloadSpec};
        for seed in [42, 1729] {
            for spec in WorkloadSpec::all_six() {
                let p = Workload::build(&spec, seed).program;
                for func in (0..p.num_functions() as u32).map(FuncId) {
                    for idx in 0..p.function_len(func) {
                        let at = InstrRef { func, idx };
                        let (ops, loads) = scan_run(&p, at);
                        let what = format!("{} seed {seed} {func:?} op {idx}", spec.name);
                        let run = p.plain_run(at, u32::MAX);
                        assert_eq!(run.len() as u32, ops, "{what}: run length");
                        for max in [1, 3] {
                            assert_eq!(
                                p.plain_run(at, max),
                                run.start..run.start + ops.min(max) as usize
                            );
                        }
                        if ops == 0 {
                            continue;
                        }
                        assert_eq!(p.plain_loads(run.clone()), loads, "{what}: loads");
                        // A run taken in two steps counts each part.
                        let half = ops / 2;
                        let head = count_loads(&p, func, idx..idx + half);
                        let mid = run.start + half as usize;
                        if half > 0 {
                            assert_eq!(p.plain_loads(run.start..mid), head, "{what}: head");
                        }
                        assert_eq!(p.plain_loads(mid..run.end), loads - head, "{what}: tail");
                    }
                }
            }
        }
    }

    #[test]
    fn long_stretches_count_in_pieces() {
        // 3 pieces of RUN_MAX ops and 10 more, every third op a load,
        // then a call, a short stretch and the return.
        let total = 3 * RUN_MAX as u32 + 10;
        let mut b = FunctionBuilder::new();
        b.straight(total, PlainMem::Load);
        b.call(FuncId(0));
        b.straight(5, PlainMem::Load);
        let p = Program::new(vec![Function {
            base: Addr(0x1000),
            ops: b.finish(),
        }]);
        let at = |idx| InstrRef {
            func: FuncId(0),
            idx,
        };
        for idx in [0, 1, 9, 10, 11, 10 + RUN_MAX as u32, total - 1, total + 1] {
            let (ops, _) = scan_run(&p, at(idx));
            // Pieces are cut from the stretch's end.
            let piece = (ops - 1) % RUN_MAX as u32 + 1;
            let run = p.plain_run(at(idx), u32::MAX);
            assert_eq!(run.len() as u32, piece, "op {idx}");
            let loads = count_loads(&p, FuncId(0), idx..idx + piece);
            assert_eq!(p.plain_loads(run), loads, "op {idx}");
        }
        // Runs taken back to back cover the stretch exactly.
        let mut idx = 0;
        while idx < total {
            idx += p.plain_run(at(idx), u32::MAX).len() as u32;
        }
        assert_eq!(idx, total);
        assert!(p.plain_run(at(total), u32::MAX).is_empty(), "the call");
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_functions_rejected() {
        let mk = |base| Function {
            base: Addr(base),
            ops: vec![StaticOp::Return; 8],
        };
        Program::new(vec![mk(0x1000), mk(0x1010)]);
    }
}
