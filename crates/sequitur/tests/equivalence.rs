//! Grammar-equivalence suite: the new arena engine pinned, rule for
//! rule, against the pre-arena implementation.
//!
//! `mod reference` below is the complete linked-list/`HashMap` SEQUITUR
//! engine exactly as it stood before the rewrite (commit 730777a),
//! frozen here as an executable oracle. The properties assert that for
//! arbitrary streams the new default-mode engine produces an
//! *identical* grammar: same rules in the same order, same `usage` and
//! `expansion_len` per rule, same `expand()` output, same
//! `GrammarStats`. Run in release mode in CI; see
//! `.github/workflows/ci.yml`.

#[expect(
    dead_code,
    clippy::all,
    clippy::iter_over_hash_type,
    reason = "frozen verbatim as an oracle: its unused items, style and hash-table \
              enumeration stay as they were; every enumeration only asserts a \
              per-entry invariant, so visit order cannot change the outcome"
)]
mod reference {

    use std::collections::{HashMap, VecDeque};
    use std::fmt;

    /// Sentinel node index meaning "no node".
    const NIL: u32 = u32::MAX;

    /// Internal symbol value stored in a linked-list node.
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

    #[derive(Clone, Debug)]
    struct Node {
        prev: u32,
        next: u32,
        value: Value,
        alive: bool,
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
        nodes: Vec<Node>,
        free_nodes: Vec<u32>,
        rules: Vec<RuleMeta>,
        free_rules: Vec<u32>,
        /// Digram index: maps a pair of adjacent symbol values to the node id of
        /// the first symbol of the (unique) indexed occurrence.
        digrams: HashMap<(Value, Value), u32>,
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
            let mut s = Sequitur {
                nodes: Vec::new(),
                free_nodes: Vec::new(),
                rules: Vec::new(),
                free_rules: Vec::new(),
                digrams: HashMap::new(),
                pending: VecDeque::new(),
                len: 0,
            };
            let start = s.new_rule();
            debug_assert_eq!(start, 0);
            s
        }

        /// Creates an empty grammar with capacity hints for a trace of `n` symbols.
        pub fn with_capacity(n: usize) -> Self {
            let mut s = Self::new();
            s.nodes.reserve(n / 2);
            s.digrams.reserve(n / 2);
            s
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
            let guard = self.rules[0].guard;
            let last = self.nodes[guard as usize].prev;
            self.insert_after(last, Value::Terminal(terminal));
            self.len += 1;
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

        fn new_node(&mut self, value: Value) -> u32 {
            let node = Node {
                prev: NIL,
                next: NIL,
                value,
                alive: true,
            };
            if let Some(id) = self.free_nodes.pop() {
                self.nodes[id as usize] = node;
                id
            } else {
                let id = self.nodes.len() as u32;
                self.nodes.push(node);
                id
            }
        }

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
            let guard = self.new_node(Value::Guard(id));
            self.nodes[guard as usize].prev = guard;
            self.nodes[guard as usize].next = guard;
            self.rules[id as usize] = RuleMeta {
                guard,
                usage: 0,
                alive: true,
            };
            id
        }

        #[inline]
        fn value(&self, n: u32) -> Value {
            self.nodes[n as usize].value
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
            self.nodes[n as usize].alive
        }

        fn enqueue(&mut self, n: u32) {
            self.pending.push_back(n);
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
            if let Some(&entry) = self.digrams.get(&(nv, mv)) {
                if entry == n {
                    self.digrams.remove(&(nv, mv));
                    let p = self.prev(n);
                    if p != NIL && !self.value(p).is_guard() {
                        self.enqueue(p);
                    }
                    if !mv.is_guard() {
                        self.enqueue(m);
                    }
                }
            }
        }

        /// Links `left -> right`, un-indexing the digram that previously started
        /// at `left`.
        fn join(&mut self, left: u32, right: u32) {
            if self.nodes[left as usize].next != NIL {
                self.delete_digram(left);
            }
            self.nodes[left as usize].next = right;
            self.nodes[right as usize].prev = left;
        }

        /// Inserts a fresh node carrying `value` immediately after `after`;
        /// returns the new node id.
        fn insert_after(&mut self, after: u32, value: Value) -> u32 {
            let node = self.new_node(value);
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
            self.nodes[n as usize].alive = false;
            self.free_nodes.push(n);
        }

        /// Drains the pending-check queue, restoring digram uniqueness and rule
        /// utility. Stale entries (freed or restructured nodes) are skipped;
        /// freed node ids may have been reused, in which case the check is
        /// merely a harmless re-validation of a live digram.
        fn drain_queue(&mut self) {
            while let Some(n) = self.pending.pop_front() {
                if (n as usize) < self.nodes.len() && self.alive(n) {
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
            let key = (nv, mv);
            let entry = self.digrams.get(&key).copied();
            match entry {
                None => {
                    self.digrams.insert(key, n);
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
                let key = (self.value(body_first), self.value(self.next(body_first)));
                debug_assert!(!self.digrams.contains_key(&key));
                self.digrams.insert(key, body_first);
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
            if !self.alive(n) {
                return;
            }
            if let Value::Rule(q) = self.value(n) {
                if self.rules[q as usize].usage == 1 {
                    self.expand(n, q);
                }
            }
        }

        /// Inlines rule `q` at its single remaining reference `n`, then deletes
        /// the rule. The body's internal digram-index entries stay valid because
        /// the body nodes are spliced wholesale.
        fn expand(&mut self, n: u32, q: u32) {
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
            self.nodes[n as usize].alive = false;
            self.free_nodes.push(n);

            // Splice the body in place of the reference.
            self.nodes[left as usize].next = first;
            self.nodes[first as usize].prev = left;
            self.nodes[last as usize].next = right;
            self.nodes[right as usize].prev = last;

            // Retire the rule.
            self.nodes[guard as usize].alive = false;
            self.free_nodes.push(guard);
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
        pub fn assert_invariants(&self) {
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
                    assert!(self.alive(n), "rule {id} contains dead node {n}");
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
            // Every digram-index entry must point at a live node whose digram
            // matches its key.
            for (&(a, b), &n) in &self.digrams {
                assert!(
                    self.alive(n),
                    "index entry {:?} points at dead node",
                    (a, b)
                );
                assert_eq!(self.value(n), a, "index key/first mismatch at node {n}");
                assert_eq!(
                    self.value(self.next(n)),
                    b,
                    "index key/second mismatch at node {n}"
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
}

// ---------------------------------------------------------------------------
// Equivalence properties
// ---------------------------------------------------------------------------

use proptest::prelude::*;
use tifs_sequitur::grammar::{Grammar, Sequitur, Sym};

/// Engine-neutral rendering of one rule: `(symbols, usage, expansion_len)`
/// with terminals as `(0, t)` and rule references as `(1, index)`.
type FlatRule = (Vec<(u8, u64)>, usize, usize);

fn flatten_new(g: &Grammar) -> Vec<FlatRule> {
    g.rules()
        .iter()
        .map(|r| {
            let syms = r
                .symbols
                .iter()
                .map(|s| match *s {
                    Sym::T(t) => (0u8, t),
                    Sym::R(q) => (1u8, q as u64),
                })
                .collect();
            (syms, r.usage, r.expansion_len)
        })
        .collect()
}

fn flatten_ref(g: &reference::Grammar) -> Vec<FlatRule> {
    g.rules()
        .iter()
        .map(|r| {
            let syms = r
                .symbols
                .iter()
                .map(|s| match *s {
                    reference::Sym::T(t) => (0u8, t),
                    reference::Sym::R(q) => (1u8, q as u64),
                })
                .collect();
            (syms, r.usage, r.expansion_len)
        })
        .collect()
}

/// Builds the same stream through both engines and asserts the exported
/// grammars are identical in every observable respect.
fn assert_equivalent(stream: &[u64]) {
    let mut new_engine = Sequitur::new();
    let mut old_engine = reference::Sequitur::new();
    new_engine.extend(stream.iter().copied());
    old_engine.extend(stream.iter().copied());
    let new_g = new_engine.into_grammar();
    let old_g = old_engine.into_grammar();
    assert_eq!(flatten_new(&new_g), flatten_ref(&old_g), "rules differ");
    assert_eq!(new_g.expand(), old_g.expand(), "expansions differ");
    let (ns, os) = (new_g.stats(), old_g.stats());
    assert_eq!(ns.input_len, os.input_len);
    assert_eq!(ns.num_rules, os.num_rules);
    assert_eq!(ns.grammar_size, os.grammar_size);
}

fn dense_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..5, 0..400)
}

fn runny_stream() -> impl Strategy<Value = Vec<u64>> {
    proptest::strategy::fn_strategy(|rng| {
        let runs = prop::collection::vec((0u64..4, 1usize..12), 0..40).generate(rng);
        runs.into_iter()
            .flat_map(|(v, k)| std::iter::repeat_n(v, k))
            .collect()
    })
}

fn wide_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![0u64..30, u64::MAX - 5..=u64::MAX, any::<u64>()],
        0..200,
    )
}

proptest! {
    #[test]
    fn grammars_identical_dense(stream in dense_stream()) {
        assert_equivalent(&stream);
    }

    #[test]
    fn grammars_identical_runny(stream in runny_stream()) {
        assert_equivalent(&stream);
    }

    #[test]
    fn grammars_identical_wide(stream in wide_stream()) {
        assert_equivalent(&stream);
    }
}

#[test]
fn grammars_identical_on_known_hard_streams() {
    // Streams that historically exercised tricky paths: overlap-entry
    // eviction, rule inlining on the final push, long periodic input.
    let hard: &[&[u64]] = &[
        &[1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2],
        &[2, 0, 3, 2, 2, 1, 0, 3, 2, 1, 1, 0, 0, 3, 2],
        &[0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1],
    ];
    for stream in hard {
        assert_equivalent(stream);
    }
    let periodic: Vec<u64> = (0..7).cycle().take(700).collect();
    assert_equivalent(&periodic);
    let mut x: u64 = 0x243F6A8885A308D3;
    let mut noisy = Vec::new();
    for _ in 0..3000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        noisy.push(x % 6);
    }
    assert_equivalent(&noisy);
}
