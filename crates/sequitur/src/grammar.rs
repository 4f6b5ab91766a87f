//! The SEQUITUR hierarchical grammar-compression algorithm.
//!
//! SEQUITUR (Nevill-Manning & Witten, JAIR 1997) incrementally builds a
//! context-free grammar that exactly generates its input, maintaining two
//! invariants:
//!
//! 1. **Digram uniqueness** — no pair of adjacent symbols appears more than
//!    once in the grammar. A repeated digram is replaced by a non-terminal.
//! 2. **Rule utility** — every rule is referenced at least twice. A rule that
//!    drops to a single reference is inlined at its remaining use.
//!
//! Production rules of the final grammar correspond exactly to recurring
//! subsequences of the input, which is why the TIFS paper uses SEQUITUR to
//! identify recurring L1-I miss streams (paper Section 4.1).
//!
//! # Engine layout
//!
//! Symbols live in a generational arena (`Arena`): doubly-linked nodes
//! addressed by `u32` index, one guard node per rule, a free list for
//! reuse, and a generation tag per slot that is bumped on every free so
//! stale handles are detectable in debug builds. No per-node allocation
//! ever happens — a build allocates its node slab and digram table up
//! front (see [`Sequitur::with_capacity`]) and then runs allocation-free.
//!
//! The digram index is a [`tifs_collections::DigramIndex`]: the same
//! open-addressed table idiom as the simulator's Index Table (fibonacci
//! hashing, linear probing, backward-shift deletion), storing a 64-bit
//! digram hash plus the node id of the indexed occurrence per slot. Keys
//! are never materialized — equality is resolved by reading the two
//! symbols straight out of the arena — so a digram operation costs a few
//! multiplies instead of a `SipHash` pass over a 32-byte enum pair.
//!
//! Unlike the classic recursive formulation, digram checks are processed
//! from an explicit work queue: every structural change enqueues the
//! digrams it may have created, and the queue is drained to quiescence
//! after each input symbol. This removes the reentrancy hazards of
//! recursive cascades (rules dying mid-cascade, stale node references)
//! while performing the same amortized O(1) work per input symbol. The
//! queue stores raw node ids and re-checks whatever occupies the slot at
//! drain time, which reproduces the reference cascade order exactly —
//! the grammar-equivalence suite in `tests/equivalence.rs` pins the
//! whole engine, rule for rule, against the pre-arena implementation.

use std::collections::VecDeque;
use std::fmt;

use tifs_collections::DigramIndex;

/// Sentinel node index meaning "no node".
const NIL: u32 = u32::MAX;

/// Internal symbol value carried by an arena node.
///
/// `Guard` carries the id of the rule it belongs to, which lets a digram
/// match discover "this digram is the complete right-hand side of rule R"
/// in O(1), exactly as in the reference implementation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Value {
    /// A terminal symbol from the input alphabet.
    Terminal(u64),
    /// A reference to (use of) a rule.
    Rule(u32),
    /// The guard node of a rule's circular list; never part of a digram.
    Guard(u32),
}

impl Value {
    fn is_guard(self) -> bool {
        matches!(self, Value::Guard(_))
    }
}

/// Node kind discriminant; `Dead` marks a freed slot awaiting reuse.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Dead,
    Terminal,
    Rule,
    Guard,
}

/// One arena slot: a doubly-linked symbol node with its value unpacked
/// into plain fields (24 bytes instead of the 32 an embedded enum
/// costs), plus the slot's generation tag.
#[derive(Clone, Debug)]
struct Node {
    prev: u32,
    next: u32,
    /// Terminal payload for `Terminal` nodes.
    term: u64,
    /// Rule id for `Rule` / `Guard` nodes.
    aux: u32,
    kind: Kind,
    /// Bumped (wrapping) each time the slot is freed; lets debug builds
    /// catch a handle that outlived its node even after slot reuse.
    gen: u8,
}

impl Node {
    #[inline]
    fn value(&self) -> Value {
        match self.kind {
            Kind::Terminal => Value::Terminal(self.term),
            Kind::Rule => Value::Rule(self.aux),
            Kind::Guard => Value::Guard(self.aux),
            Kind::Dead => unreachable!("value() on dead node"),
        }
    }

    #[inline]
    fn set_value(&mut self, v: Value) {
        match v {
            Value::Terminal(t) => {
                self.kind = Kind::Terminal;
                self.term = t;
                self.aux = 0;
            }
            Value::Rule(r) => {
                self.kind = Kind::Rule;
                self.term = 0;
                self.aux = r;
            }
            Value::Guard(r) => {
                self.kind = Kind::Guard;
                self.term = 0;
                self.aux = r;
            }
        }
    }
}

/// The generational node slab: index-addressed, free-list reuse,
/// generation tags. All structural pointers (`prev`/`next`) are raw
/// `u32` indices into this arena.
#[derive(Clone, Debug, Default)]
struct Arena {
    nodes: Vec<Node>,
    free: Vec<u32>,
}

impl Arena {
    /// Allocates a node carrying `value`, reusing a freed slot if one
    /// exists (the reused slot keeps its bumped generation tag).
    fn alloc(&mut self, value: Value) -> u32 {
        if let Some(id) = self.free.pop() {
            let node = &mut self.nodes[id as usize];
            debug_assert_eq!(node.kind, Kind::Dead, "free list holds live node");
            node.prev = NIL;
            node.next = NIL;
            node.set_value(value);
            id
        } else {
            let id = self.nodes.len() as u32;
            let mut node = Node {
                prev: NIL,
                next: NIL,
                term: 0,
                aux: 0,
                kind: Kind::Dead,
                gen: 0,
            };
            node.set_value(value);
            self.nodes.push(node);
            id
        }
    }

    /// Marks `id` dead and recycles its slot, bumping the generation.
    fn free(&mut self, id: u32) {
        let node = &mut self.nodes[id as usize];
        debug_assert_ne!(node.kind, Kind::Dead, "double free of node");
        node.kind = Kind::Dead;
        node.gen = node.gen.wrapping_add(1);
        self.free.push(id);
    }

    #[inline]
    fn value(&self, n: u32) -> Value {
        self.nodes[n as usize].value()
    }

    #[inline]
    fn next(&self, n: u32) -> u32 {
        self.nodes[n as usize].next
    }

    #[inline]
    fn prev(&self, n: u32) -> u32 {
        self.nodes[n as usize].prev
    }

    #[inline]
    fn alive(&self, n: u32) -> bool {
        self.nodes[n as usize].kind != Kind::Dead
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn reserve(&mut self, n: usize) {
        self.nodes.reserve(n);
    }
}

// ---------------------------------------------------------------------------
// Digram hashing
// ---------------------------------------------------------------------------

const HASH_K1: u64 = 0x9E37_79B9_7F4A_7C15;
const HASH_K2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Mixes one symbol into 64 bits. Distinct variants are separated by
/// multiplier and tag; collisions across variants are possible but
/// harmless — the index resolves equality against the arena.
#[inline]
fn sym_hash(v: Value) -> u64 {
    match v {
        Value::Terminal(t) => t.wrapping_mul(HASH_K1),
        Value::Rule(r) => (r as u64 ^ 0x5151_5151_5151_5151).wrapping_mul(HASH_K2),
        Value::Guard(_) => unreachable!("guards are never hashed"),
    }
}

/// Hash of an adjacent symbol pair. Asymmetric (rotate before combine)
/// so `(a, b)` and `(b, a)` land apart, then one avalanche multiply;
/// the table applies its own fibonacci mix for the home slot on top.
#[inline]
fn digram_hash(a: Value, b: Value) -> u64 {
    (sym_hash(a).rotate_left(31) ^ sym_hash(b)).wrapping_mul(HASH_K1)
}

#[derive(Clone, Debug)]
struct RuleMeta {
    /// Guard node of this rule's circular symbol list.
    guard: u32,
    /// Number of references to this rule from other rule bodies.
    usage: u32,
    /// Dead rules have been inlined and their ids await reuse.
    alive: bool,
}

/// Incremental SEQUITUR grammar builder.
///
/// Push symbols one at a time with [`push`](Sequitur::push) (or in bulk via
/// [`Extend`]); extract the final grammar with
/// [`into_grammar`](Sequitur::into_grammar).
///
/// # Example
///
/// ```
/// use tifs_sequitur::Sequitur;
///
/// let mut s = Sequitur::new();
/// s.extend([1u64, 2, 3, 1, 2, 3].iter().copied());
/// let g = s.into_grammar();
/// assert_eq!(g.expand(), vec![1, 2, 3, 1, 2, 3]);
/// // One rule was formed for the repeated "1 2 3".
/// assert!(g.num_rules() >= 2); // start rule + at least one body rule
/// ```
pub struct Sequitur {
    arena: Arena,
    rules: Vec<RuleMeta>,
    free_rules: Vec<u32>,
    /// Digram index: open-addressed `(hash, node id)` slots; the indexed
    /// occurrence's key is read back from the arena on lookup.
    digrams: DigramIndex,
    /// Nodes whose following digram may need (re)checking.
    pending: VecDeque<u32>,
    /// Number of terminals pushed so far.
    len: usize,
}

impl fmt::Debug for Sequitur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sequitur")
            .field("len", &self.len)
            .field("rules", &self.rules.len())
            .field("digrams", &self.digrams.len())
            .finish()
    }
}

impl Default for Sequitur {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequitur {
    /// Creates an empty grammar containing only the start rule.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty grammar with capacity for a trace of `n`
    /// symbols: an `n`-terminal stream allocates up to `n` live nodes
    /// (plus rule guards) and at most `n` digram-index entries, so both
    /// are reserved in full and a pre-sized build never reallocates the
    /// slab nor rehashes the digram table mid-stream.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Sequitur {
            arena: Arena::default(),
            rules: Vec::new(),
            free_rules: Vec::new(),
            digrams: if n == 0 {
                DigramIndex::new()
            } else {
                DigramIndex::with_capacity(n)
            },
            pending: VecDeque::new(),
            len: 0,
        };
        // Worst case (no repetition) keeps every terminal as a live
        // node; guards and transient rule bodies ride in the slack.
        s.arena.reserve(n + n / 8 + 8);
        let start = s.new_rule();
        debug_assert_eq!(start, 0);
        s
    }

    /// Number of slots in the digram table (see
    /// [`DigramIndex::slots`]); exposed so tests can assert a pre-sized
    /// build never grows it.
    pub fn digram_slots(&self) -> usize {
        self.digrams.slots()
    }

    /// Number of terminal symbols pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no symbols have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one terminal symbol to the input sequence, restoring both
    /// SEQUITUR invariants before returning.
    pub fn push(&mut self, terminal: u64) {
        self.len += 1;
        let guard = self.rules[0].guard;
        let last = self.arena.prev(guard);
        self.insert_after(last, Value::Terminal(terminal));
        if last != guard {
            self.enqueue(last);
        }
        self.drain_queue();
    }

    /// Consumes the builder and returns an immutable, compact [`Grammar`].
    pub fn into_grammar(self) -> Grammar {
        Grammar::from_builder(&self)
    }

    // ----- arena helpers ---------------------------------------------------

    fn new_rule(&mut self) -> u32 {
        let id = if let Some(id) = self.free_rules.pop() {
            id
        } else {
            self.rules.push(RuleMeta {
                guard: NIL,
                usage: 0,
                alive: false,
            });
            (self.rules.len() - 1) as u32
        };
        let guard = self.arena.alloc(Value::Guard(id));
        self.arena.nodes[guard as usize].prev = guard;
        self.arena.nodes[guard as usize].next = guard;
        self.rules[id as usize] = RuleMeta {
            guard,
            usage: 0,
            alive: true,
        };
        id
    }

    #[inline]
    fn value(&self, n: u32) -> Value {
        self.arena.value(n)
    }

    #[inline]
    fn next(&self, n: u32) -> u32 {
        self.arena.next(n)
    }

    #[inline]
    fn prev(&self, n: u32) -> u32 {
        self.arena.prev(n)
    }

    fn enqueue(&mut self, n: u32) {
        self.pending.push_back(n);
    }

    /// Looks up the indexed occurrence of the digram `(a, b)`.
    #[inline]
    fn find_digram(&self, a: Value, b: Value) -> Option<u32> {
        let arena = &self.arena;
        self.digrams.find(digram_hash(a, b), |e| {
            arena.value(e) == a && arena.value(arena.next(e)) == b
        })
    }

    /// Removes the digram-index entry for the digram starting at `n`, if the
    /// index points at exactly this occurrence.
    ///
    /// When an entry is removed, the node's immediate neighbours are
    /// enqueued for recheck: an occurrence of the same digram that was
    /// previously skipped as *overlapping* (runs such as `a a a`) is always
    /// adjacent to the indexed occurrence, and it must be re-indexed (or
    /// matched) now that the entry is gone.
    fn delete_digram(&mut self, n: u32) {
        let nv = self.value(n);
        if nv.is_guard() {
            return;
        }
        let m = self.next(n);
        if m == NIL {
            return;
        }
        let mv = self.value(m);
        if mv.is_guard() {
            return;
        }
        if self.find_digram(nv, mv) == Some(n) {
            self.digrams.remove(digram_hash(nv, mv), n);
            let p = self.prev(n);
            if p != NIL && !self.value(p).is_guard() {
                self.enqueue(p);
            }
            self.enqueue(m);
        }
    }

    /// Links `left -> right`, un-indexing the digram that previously started
    /// at `left`.
    fn join(&mut self, left: u32, right: u32) {
        if self.arena.next(left) != NIL {
            self.delete_digram(left);
        }
        self.arena.nodes[left as usize].next = right;
        self.arena.nodes[right as usize].prev = left;
    }

    /// Inserts a fresh node carrying `value` immediately after `after`;
    /// returns the new node id.
    fn insert_after(&mut self, after: u32, value: Value) -> u32 {
        let node = self.arena.alloc(value);
        let old_next = self.next(after);
        self.join(node, old_next);
        self.join(after, node);
        if let Value::Rule(r) = value {
            self.rules[r as usize].usage += 1;
        }
        node
    }

    /// Unlinks and frees node `n`, decrementing the usage of any rule it
    /// referenced.
    fn delete_node(&mut self, n: u32) {
        let p = self.prev(n);
        let x = self.next(n);
        self.delete_digram(n);
        self.join(p, x);
        if let Value::Rule(r) = self.value(n) {
            self.rules[r as usize].usage -= 1;
        }
        self.arena.free(n);
    }

    /// Drains the pending-check queue, restoring digram uniqueness and rule
    /// utility. Stale entries (freed or restructured nodes) are skipped;
    /// freed node ids may have been reused, in which case the check is
    /// merely a harmless re-validation of a live digram. The queue
    /// deliberately stores raw ids rather than `(id, generation)` pairs:
    /// re-checking the slot's current occupant is exactly what the
    /// reference implementation did, and the equivalence suite pins the
    /// resulting cascade order.
    fn drain_queue(&mut self) {
        while let Some(n) = self.pending.pop_front() {
            if (n as usize) < self.arena.len() && self.arena.alive(n) {
                self.check(n);
            }
        }
    }

    /// Checks the digram starting at node `n`; if it duplicates an indexed
    /// occurrence, restores digram uniqueness.
    fn check(&mut self, n: u32) {
        let nv = self.value(n);
        if nv.is_guard() {
            return;
        }
        let m = self.next(n);
        let mv = self.value(m);
        if mv.is_guard() {
            return;
        }
        match self.find_digram(nv, mv) {
            None => {
                self.digrams.insert(digram_hash(nv, mv), n);
            }
            Some(e) if e == n => {}
            Some(e) if self.next(e) == n || self.next(n) == e => {
                // Overlapping occurrences (e.g. "aaa"); leave alone.
            }
            Some(e) => self.resolve_match(n, e),
        }
    }

    /// The digram at `n` duplicates the indexed digram at `e`. Restore
    /// digram uniqueness by replacing occurrences with a non-terminal.
    fn resolve_match(&mut self, n: u32, e: u32) {
        if let Some(r) = self.complete_rhs_rule(e) {
            // The indexed occurrence is the complete RHS of rule r: replace
            // the new occurrence with a reference to r.
            self.substitute(n, r);
            self.enforce_utility_for_body(r);
        } else if let Some(r) = self.complete_rhs_rule(n) {
            // Symmetric case (can arise when a splice re-creates a rule's
            // body digram elsewhere): replace the other occurrence.
            self.substitute(e, r);
            self.enforce_utility_for_body(r);
        } else {
            // Neither side is a rule body: mint a new rule for the digram.
            let a = self.value(n);
            let b = self.value(self.next(n));
            let r = self.new_rule();
            let guard = self.rules[r as usize].guard;
            let first = self.insert_after(guard, a);
            self.insert_after(first, b);
            // Replace the indexed occurrence first (it owns the index entry,
            // which its deletion clears), then the new occurrence.
            self.substitute(e, r);
            self.substitute(n, r);
            // Index the rule's own body digram; its key slot was cleared by
            // the substitution of `e`.
            let body_first = self.next(self.rules[r as usize].guard);
            let (ba, bb) = (self.value(body_first), self.value(self.next(body_first)));
            debug_assert!(self.find_digram(ba, bb).is_none());
            self.digrams.insert(digram_hash(ba, bb), body_first);
            self.enforce_utility_for_body(r);
        }
    }

    /// If the digram starting at `x` constitutes the complete right-hand
    /// side of a rule, returns that rule.
    fn complete_rhs_rule(&self, x: u32) -> Option<u32> {
        let p = self.prev(x);
        let nn = self.next(self.next(x));
        match (self.value(p), self.value(nn)) {
            (Value::Guard(r1), Value::Guard(r2)) if r1 == r2 && r1 != 0 => Some(r1),
            _ => None,
        }
    }

    /// Replaces the digram starting at `n` with a reference to rule `r`,
    /// enqueueing the neighbouring digrams for recheck.
    fn substitute(&mut self, n: u32, r: u32) {
        let left = self.prev(n);
        let second = self.next(n);
        self.delete_node(n);
        self.delete_node(second);
        let node = self.insert_after(left, Value::Rule(r));
        if !self.value(left).is_guard() {
            self.enqueue(left);
        }
        self.enqueue(node);
    }

    /// After a match resolution involving rule `r`, a rule referenced from
    /// `r`'s (two-symbol) body may have dropped to a single use — and that
    /// remaining use is necessarily inside `r`'s body. Inline any such rule.
    fn enforce_utility_for_body(&mut self, r: u32) {
        if !self.rules[r as usize].alive {
            return;
        }
        let guard = self.rules[r as usize].guard;
        let first = self.next(guard);
        self.expand_if_underused(first);
        if !self.rules[r as usize].alive {
            return;
        }
        let guard = self.rules[r as usize].guard;
        let second = self.next(self.next(guard));
        if !self.value(second).is_guard() {
            self.expand_if_underused(second);
        }
    }

    /// If node `n` references a rule with a single remaining use, inline
    /// that rule at `n`.
    fn expand_if_underused(&mut self, n: u32) {
        if !self.arena.alive(n) {
            return;
        }
        if let Value::Rule(q) = self.value(n) {
            if self.rules[q as usize].usage == 1 {
                self.inline_rule(n, q);
            }
        }
    }

    /// Inlines rule `q` at its single remaining reference `n`, then deletes
    /// the rule. The body's internal digram-index entries stay valid because
    /// the body nodes are spliced wholesale.
    fn inline_rule(&mut self, n: u32, q: u32) {
        debug_assert_eq!(self.rules[q as usize].usage, 1);
        let guard = self.rules[q as usize].guard;
        let first = self.next(guard);
        let last = self.prev(guard);
        debug_assert!(first != guard, "rule bodies always hold >= 2 symbols");

        let left = self.prev(n);
        let right = self.next(n);

        // Unlink the reference node by hand: joining left to right here
        // would create a transient digram we would immediately tear apart.
        self.delete_digram(left);
        self.delete_digram(n);
        self.rules[q as usize].usage -= 1;
        self.arena.free(n);

        // Splice the body in place of the reference.
        self.arena.nodes[left as usize].next = first;
        self.arena.nodes[first as usize].prev = left;
        self.arena.nodes[last as usize].next = right;
        self.arena.nodes[right as usize].prev = last;

        // Retire the rule.
        self.arena.free(guard);
        self.rules[q as usize].alive = false;
        self.rules[q as usize].guard = NIL;
        self.free_rules.push(q);

        // Recheck the junction digrams.
        if !self.value(left).is_guard() {
            self.enqueue(left);
        }
        self.enqueue(last);
    }

    /// Renders the current rule set in a compact human-readable form, e.g.
    /// `S -> R1 R1 x; R1 -> a b`. Intended for debugging and tests.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (id, rule) in self.rules.iter().enumerate() {
            if !rule.alive {
                continue;
            }
            let _ = write!(out, "R{id}[u{}] ->", rule.usage);
            let guard = rule.guard;
            let mut n = self.next(guard);
            while n != guard {
                match self.value(n) {
                    Value::Terminal(t) => {
                        let _ = write!(out, " {t}");
                    }
                    Value::Rule(r) => {
                        let _ = write!(out, " R{r}");
                    }
                    Value::Guard(_) => {
                        let _ = write!(out, " <guard!>");
                    }
                }
                let _ = write!(out, "({n})");
                n = self.next(n);
            }
            let _ = writeln!(out, ";");
        }
        out
    }

    // ----- verification (used by tests) ------------------------------------

    /// Verifies both SEQUITUR invariants, panicking with a diagnostic if one
    /// is violated. Intended for tests; cost is O(grammar size).
    #[expect(
        clippy::disallowed_types,
        reason = "both tables are only probed by key, never enumerated"
    )]
    pub fn assert_invariants(&self) {
        use std::collections::HashMap;
        let mut seen: HashMap<(Value, Value), u32> = HashMap::new();
        let mut usage: HashMap<u32, u32> = HashMap::new();
        for (id, rule) in self.rules.iter().enumerate() {
            if !rule.alive {
                continue;
            }
            let guard = rule.guard;
            let mut n = self.next(guard);
            let mut body_len = 0;
            while n != guard {
                assert!(self.arena.alive(n), "rule {id} contains dead node {n}");
                body_len += 1;
                if let Value::Rule(q) = self.value(n) {
                    *usage.entry(q).or_insert(0) += 1;
                    assert!(
                        self.rules[q as usize].alive,
                        "rule {id} references dead rule {q}"
                    );
                }
                let m = self.next(n);
                if m != guard && !self.value(m).is_guard() {
                    let key = (self.value(n), self.value(m));
                    if let Some(prev) = seen.insert(key, n) {
                        // Overlapping digrams of equal symbols are permitted.
                        let overlap = self.next(prev) == n;
                        assert!(
                            overlap,
                            "digram {key:?} appears twice (nodes {prev} and {n})"
                        );
                    }
                }
                n = m;
            }
            if id != 0 {
                assert!(body_len >= 2, "rule {id} has body length {body_len} < 2");
            }
        }
        for (id, rule) in self.rules.iter().enumerate() {
            if !rule.alive || id == 0 {
                continue;
            }
            let u = usage.get(&(id as u32)).copied().unwrap_or(0);
            assert_eq!(u, rule.usage, "rule {id} usage counter out of sync");
            assert!(u >= 2, "rule {id} used {u} < 2 times (utility violated)");
        }
        // Every digram-index entry must point at a live, correctly-hashed
        // occurrence whose digram is part of some rule body.
        for (hash, n) in self.digrams.entries() {
            assert!(
                self.arena.alive(n),
                "index entry (hash {hash:#x}) points at dead node {n}"
            );
            let a = self.value(n);
            assert!(!a.is_guard(), "index entry starts at guard node {n}");
            let m = self.next(n);
            let b = self.value(m);
            assert!(!b.is_guard(), "index entry ends at guard node {m}");
            assert_eq!(
                digram_hash(a, b),
                hash,
                "index hash stale for digram {:?} at node {n}",
                (a, b)
            );
        }
    }
}

impl Extend<u64> for Sequitur {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        for s in iter {
            self.push(s);
        }
    }
}

impl FromIterator<u64> for Sequitur {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut s = Sequitur::new();
        s.extend(iter);
        s
    }
}

// ---------------------------------------------------------------------------
// Compact exported grammar
// ---------------------------------------------------------------------------

/// A symbol in an exported [`Grammar`] rule body.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sym {
    /// A terminal from the input alphabet.
    T(u64),
    /// A reference to `Grammar::rules()[index]`.
    R(usize),
}

/// One production rule of an exported [`Grammar`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// Right-hand side of the production.
    pub symbols: Vec<Sym>,
    /// Number of references to this rule (0 for the start rule).
    pub usage: usize,
    /// Number of terminals this rule expands to.
    pub expansion_len: usize,
}

/// Summary statistics of a [`Grammar`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrammarStats {
    /// Terminals in the original input.
    pub input_len: usize,
    /// Number of rules, including the start rule.
    pub num_rules: usize,
    /// Total symbols across all rule bodies (the compressed size).
    pub grammar_size: usize,
}

/// An immutable context-free grammar produced by [`Sequitur`].
///
/// Rule 0 is the start rule; expanding it reproduces the input exactly.
#[derive(Clone, Debug)]
pub struct Grammar {
    rules: Vec<Rule>,
    input_len: usize,
}

impl Grammar {
    fn from_builder(b: &Sequitur) -> Grammar {
        // Map live rule ids to compact indices, start rule first.
        let mut index = vec![usize::MAX; b.rules.len()];
        let mut order = Vec::new();
        for (id, r) in b.rules.iter().enumerate() {
            if r.alive {
                index[id] = order.len();
                order.push(id as u32);
            }
        }
        let mut rules = Vec::with_capacity(order.len());
        for &id in &order {
            let meta = &b.rules[id as usize];
            let mut symbols = Vec::new();
            let guard = meta.guard;
            let mut n = b.next(guard);
            while n != guard {
                symbols.push(match b.value(n) {
                    Value::Terminal(t) => Sym::T(t),
                    Value::Rule(r) => Sym::R(index[r as usize]),
                    Value::Guard(_) => unreachable!("guards are list heads only"),
                });
                n = b.next(n);
            }
            rules.push(Rule {
                symbols,
                usage: meta.usage as usize,
                expansion_len: 0,
            });
        }
        let mut g = Grammar {
            rules,
            input_len: b.len,
        };
        g.compute_expansion_lens();
        g
    }

    /// Fills in `expansion_len` for every rule via memoized recursion over
    /// the rule DAG.
    fn compute_expansion_lens(&mut self) {
        fn expand_len(rules: &[Rule], memo: &mut [usize], r: usize) -> usize {
            if memo[r] != usize::MAX {
                return memo[r];
            }
            let mut total = 0;
            for i in 0..rules[r].symbols.len() {
                total += match rules[r].symbols[i] {
                    Sym::T(_) => 1,
                    Sym::R(q) => expand_len(rules, memo, q),
                };
            }
            memo[r] = total;
            total
        }
        let mut memo = vec![usize::MAX; self.rules.len()];
        for r in 0..self.rules.len() {
            expand_len(&self.rules, &mut memo, r);
        }
        for (rule, len) in self.rules.iter_mut().zip(memo) {
            rule.expansion_len = len;
        }
    }

    /// The start rule (rule 0).
    pub fn start(&self) -> &Rule {
        &self.rules[0]
    }

    /// All rules; index 0 is the start rule.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules including the start rule.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// Number of terminals in the original input.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Expands the start rule, reconstructing the original input.
    pub fn expand(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.input_len);
        self.expand_rule_into(0, &mut out);
        out
    }

    /// Expands an arbitrary rule to its terminal sequence.
    pub fn expand_rule(&self, rule: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.rules[rule].expansion_len);
        self.expand_rule_into(rule, &mut out);
        out
    }

    fn expand_rule_into(&self, rule: usize, out: &mut Vec<u64>) {
        // Iterative DFS to avoid deep recursion on pathological grammars.
        let mut stack: Vec<(usize, usize)> = vec![(rule, 0)];
        while let Some((r, i)) = stack.pop() {
            if i >= self.rules[r].symbols.len() {
                continue;
            }
            stack.push((r, i + 1));
            match self.rules[r].symbols[i] {
                Sym::T(t) => out.push(t),
                Sym::R(q) => stack.push((q, 0)),
            }
        }
    }

    /// Summary statistics.
    pub fn stats(&self) -> GrammarStats {
        GrammarStats {
            input_len: self.input_len,
            num_rules: self.rules.len(),
            grammar_size: self.rules.iter().map(|r| r.symbols.len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(input: &[u64]) -> Grammar {
        let mut s = Sequitur::new();
        for &x in input {
            s.push(x);
            s.assert_invariants();
        }
        let g = s.into_grammar();
        assert_eq!(g.expand(), input, "grammar must regenerate its input");
        g
    }

    #[test]
    fn empty_input() {
        let g = roundtrip(&[]);
        assert_eq!(g.num_rules(), 1);
        assert_eq!(g.stats().grammar_size, 0);
    }

    #[test]
    fn single_symbol() {
        let g = roundtrip(&[42]);
        assert_eq!(g.num_rules(), 1);
    }

    #[test]
    fn no_repetition() {
        let g = roundtrip(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(g.num_rules(), 1, "nothing to compress");
        assert_eq!(g.stats().grammar_size, 8);
    }

    #[test]
    fn simple_digram_repeat() {
        // "abab" -> S = A A, A = a b
        let g = roundtrip(&[1, 2, 1, 2]);
        assert_eq!(g.num_rules(), 2);
        assert_eq!(g.start().symbols, vec![Sym::R(1), Sym::R(1)]);
        assert_eq!(g.rules()[1].symbols, vec![Sym::T(1), Sym::T(2)]);
        assert_eq!(g.rules()[1].usage, 2);
    }

    #[test]
    fn classic_abcdbc() {
        // From the SEQUITUR paper: "abcdbc" -> S = a A d A, A = b c
        let g = roundtrip(&[
            b'a' as u64,
            b'b' as u64,
            b'c' as u64,
            b'd' as u64,
            b'b' as u64,
            b'c' as u64,
        ]);
        assert_eq!(g.num_rules(), 2);
        assert_eq!(g.rules()[1].symbols.len(), 2);
        assert_eq!(g.rules()[1].expansion_len, 2);
    }

    #[test]
    fn nested_rules_form() {
        // "abcabcabcabc": expect hierarchy; exact shape may vary, but the
        // grammar must be smaller than the input and regenerate it.
        let input: Vec<u64> = [1, 2, 3].iter().cycle().take(12).copied().collect();
        let g = roundtrip(&input);
        assert!(g.stats().grammar_size < input.len());
        assert!(g.num_rules() >= 2);
    }

    #[test]
    fn run_of_equal_symbols() {
        for n in 1..=40 {
            let input = vec![7u64; n];
            roundtrip(&input);
        }
    }

    #[test]
    fn alternating_overlap() {
        roundtrip(&[1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2]);
    }

    #[test]
    fn rule_utility_inlines_single_use() {
        // Force a rule to become underused: "abcdabcd" then diverge.
        let mut input = vec![1u64, 2, 3, 4, 1, 2, 3, 4];
        input.extend_from_slice(&[1, 2, 9, 1, 2, 9, 1, 2, 9]);
        let g = roundtrip(&input);
        for (i, r) in g.rules().iter().enumerate().skip(1) {
            assert!(r.usage >= 2, "rule {i} underused in final grammar");
        }
    }

    #[test]
    fn figure4_trace() {
        // p q r s (w x y z)^3 from the paper's Figure 4.
        let mut input = vec![100u64, 101, 102, 103];
        for _ in 0..3 {
            input.extend_from_slice(&[1, 2, 3, 4]);
        }
        let g = roundtrip(&input);
        // w x y z must be captured by a repeated rule.
        let has_wxyz = (1..g.num_rules()).any(|idx| {
            let exp = g.expand_rule(idx);
            exp.windows(4).any(|w| w == [1, 2, 3, 4])
        });
        assert!(has_wxyz, "repeated stream should be a rule: {g:?}");
    }

    #[test]
    fn long_periodic_input_compresses_well() {
        let period: Vec<u64> = (0..50).collect();
        let input: Vec<u64> = period.iter().cycle().take(5000).copied().collect();
        let g = roundtrip(&input);
        let stats = g.stats();
        assert!(
            stats.grammar_size < input.len() / 10,
            "periodic input should compress >10x, got {stats:?}"
        );
    }

    #[test]
    fn interleaved_streams() {
        // Two distinct repeated streams, interleaved with noise.
        let mut input = Vec::new();
        let s1: Vec<u64> = (100..120).collect();
        let s2: Vec<u64> = (200..230).collect();
        for (i, noise) in (1000u64..1020).enumerate() {
            input.extend_from_slice(if i % 2 == 0 { &s1 } else { &s2 });
            input.push(noise);
        }
        roundtrip(&input);
    }

    #[test]
    fn usage_counts_match_export() {
        let input: Vec<u64> = [5, 6, 7, 8, 5, 6, 7, 8, 5, 6].to_vec();
        let g = roundtrip(&input);
        // Recompute usage from exported bodies and compare.
        let mut usage = vec![0usize; g.num_rules()];
        for r in g.rules() {
            for s in &r.symbols {
                if let Sym::R(q) = s {
                    usage[*q] += 1;
                }
            }
        }
        for (i, r) in g.rules().iter().enumerate().skip(1) {
            assert_eq!(usage[i], r.usage, "rule {i}");
        }
    }

    #[test]
    fn expansion_len_consistent() {
        let input: Vec<u64> = (0..8).chain(0..8).chain(0..4).collect();
        let g = roundtrip(&input);
        for i in 0..g.num_rules() {
            assert_eq!(g.rules()[i].expansion_len, g.expand_rule(i).len());
        }
        assert_eq!(g.start().expansion_len, input.len());
    }

    #[test]
    fn stress_many_patterns() {
        // Deterministic pseudo-random small-alphabet input; checks the
        // queue-based cascade handling across a large state space.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut input = Vec::new();
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            input.push(x % 5);
        }
        let mut s = Sequitur::new();
        for &v in &input {
            s.push(v);
        }
        s.assert_invariants();
        let g = s.into_grammar();
        assert_eq!(g.expand(), input);
    }
}
