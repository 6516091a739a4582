//! A DPLL-style weighted model counter with caching and components.
//!
//! This is the grounded-inference engine of §7: full backtracking search
//! using Shannon expansion (rule (11)) and the *components* rule (rule (12)),
//! with component caching in the style of Cachet/sharpSAT. Unit clauses are
//! branched first (unit propagation as a degenerate Shannon step), so the
//! recorded trace stays a pure decision structure.
//!
//! Following Huang–Darwiche, the **trace** of a run is a knowledge-compilation
//! circuit:
//! * caching + fixed variable order ⇒ an OBDD,
//! * caching, free order, no components ⇒ an FBDD,
//! * caching + components ⇒ a decision-DNNF.
//!
//! The trace is recorded as a [`Trace`] DAG (cache hits create sharing);
//! `pdb-compile` re-exports it as a decision-DNNF circuit, and the Theorem 7.1
//! experiments measure its size.
//!
//! ## One solver
//!
//! [`Dpll::run`] and [`run_parallel`] are the same recursion. A run interns
//! the CNF once into a clause arena over the variables it actually uses,
//! renumbered densely in the caller's order (so every comparison, and hence
//! every branching and ordering decision, is the same as over the caller's
//! ids). A search node is a list of clause indices on a stack; conditioning
//! on `var = value` is a trail assignment plus the child's shorter index
//! list, so no clause is ever copied or rebuilt. Components are found by
//! union-find over reusable variable-indexed arrays.
//!
//! Each component's canonical key — its clauses with assigned literals
//! dropped, sorted, `0`-terminated — is computed once and serves three
//! times: to fix the order in which component values are multiplied, to
//! probe the cache, and as the stored entry. The cache compares keys
//! exactly, so a hit always means an equal clause multiset.
//!
//! On a pool of more than one thread, without a trace, the two Shannon
//! branches and the components of a split fork as pool tasks near the root
//! (depth < `PAR_DEPTH`, on nodes of at least `PAR_MIN_LITERALS` literals)
//! and share the cache. Every floating-point combination — the
//! left-to-right component product and `p·hi + (1−p)·lo` — is evaluated in
//! the same order as on one thread.
//!
//! That makes pool runs reproduce the one-thread bits in practice, but not
//! by construction. Two nodes with equal keys can list their unit clauses
//! in different clause orders, so they branch on the same units in a
//! different order and can round the product of the unit probabilities
//! differently in the last place. On one thread the first such node in
//! search order is solved and the others hit the cache; on a pool,
//! concurrent tasks (or a busy cache shard) can solve another one. The
//! golden corpus (`tests/dpll_golden.rs`) and `tests/parallel_determinism.rs`
//! pin identical bits at pools 1–8.

use pdb_lineage::Cnf;
use pdb_par::Pool;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Tuning knobs for the counter (each maps to a §7 concept).
#[derive(Clone, Debug)]
pub struct DpllOptions {
    /// Apply the components rule (12). Off ⇒ FBDD-shaped traces.
    pub components: bool,
    /// Cache component results. Off ⇒ the trace is a tree (no sharing).
    pub caching: bool,
    /// Record the trace DAG.
    pub record_trace: bool,
    /// Fixed variable order (OBDD-shaped traces when components are off).
    /// Variables not listed are ordered after listed ones, by index.
    pub var_order: Option<Vec<u32>>,
    /// Abort after this many decision nodes (0 = unlimited); exponential
    /// instances are the *point* of some experiments, so callers can bound
    /// the blow-up and detect it.
    pub max_decisions: u64,
}

impl Default for DpllOptions {
    fn default() -> DpllOptions {
        DpllOptions {
            components: true,
            caching: true,
            record_trace: false,
            var_order: None,
            max_decisions: 0,
        }
    }
}

/// Counters describing a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DpllStats {
    /// Shannon branches taken (unit propagations included).
    pub decisions: u64,
    /// Component cache hits.
    pub cache_hits: u64,
    /// Component cache misses (entries stored).
    pub cache_misses: u64,
    /// Number of times a formula split into ≥ 2 components.
    pub component_splits: u64,
    /// Maximum recursion depth reached.
    pub max_depth: u64,
    /// Clauses copied into the run's clause arena: one per input clause,
    /// once per run, whatever the pool size. Nothing else copies a clause.
    pub clauses_interned: u64,
    /// Clauses a decision shortened without satisfying them. Shortening is
    /// a trail assignment; the clause itself is never rebuilt.
    pub clauses_reduced: u64,
}

impl DpllStats {
    /// Adds the counters of a forked search into this one.
    fn absorb(&mut self, forked: &DpllStats) {
        self.cache_hits += forked.cache_hits;
        self.cache_misses += forked.cache_misses;
        self.component_splits += forked.component_splits;
        self.max_depth = self.max_depth.max(forked.max_depth);
        self.clauses_interned += forked.clauses_interned;
        self.clauses_reduced += forked.clauses_reduced;
    }
}

/// Identifier of a trace node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceNodeId(pub u32);

/// One node of the recorded trace DAG.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceNode {
    /// The constant-true leaf.
    True,
    /// The constant-false leaf.
    False,
    /// A Shannon decision on `var`.
    Decision {
        /// The branched variable.
        var: u32,
        /// Subtrace under `var = 1`.
        hi: TraceNodeId,
        /// Subtrace under `var = 0`.
        lo: TraceNodeId,
    },
    /// An independent-∧ node (component split).
    And {
        /// The independent subtraces.
        children: Vec<TraceNodeId>,
    },
}

/// The trace DAG of a DPLL run (a decision-DNNF per Huang–Darwiche).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    nodes: Vec<TraceNode>,
    root: Option<TraceNodeId>,
}

impl Trace {
    const TRUE: TraceNodeId = TraceNodeId(0);
    const FALSE: TraceNodeId = TraceNodeId(1);

    fn new() -> Trace {
        Trace {
            nodes: vec![TraceNode::True, TraceNode::False],
            root: None,
        }
    }

    fn push(&mut self, node: TraceNode) -> TraceNodeId {
        let id = TraceNodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// The root node id.
    pub fn root(&self) -> TraceNodeId {
        self.root.expect("trace has a root after a completed run")
    }

    /// The node behind an id.
    pub fn node(&self, id: TraceNodeId) -> &TraceNode {
        &self.nodes[id.0 as usize]
    }

    /// All nodes (index = id).
    pub fn nodes(&self) -> &[TraceNode] {
        &self.nodes
    }

    /// The nodes reachable from the root, each once.
    fn reachable(&self) -> impl Iterator<Item = &TraceNode> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<TraceNodeId> = self.root.into_iter().collect();
        std::iter::from_fn(move || loop {
            let id = stack.pop()?;
            if std::mem::replace(&mut seen[id.0 as usize], true) {
                continue;
            }
            let node = &self.nodes[id.0 as usize];
            match node {
                TraceNode::True | TraceNode::False => {}
                TraceNode::Decision { hi, lo, .. } => stack.extend([*hi, *lo]),
                TraceNode::And { children } => stack.extend(children.iter().copied()),
            }
            return Some(node);
        })
    }

    /// Number of nodes *reachable from the root* — the size measure used in
    /// the Theorem 7.1 experiments.
    pub fn reachable_size(&self) -> usize {
        self.reachable().count()
    }

    /// Number of decision nodes reachable from the root.
    pub fn decision_count(&self) -> usize {
        self.reachable()
            .filter(|n| matches!(n, TraceNode::Decision { .. }))
            .count()
    }

    /// Evaluates the trace as a circuit on an assignment (for validation:
    /// the trace must compute exactly the counted formula).
    pub fn eval(&self, assignment: &dyn Fn(u32) -> bool) -> bool {
        fn go(t: &Trace, id: TraceNodeId, a: &dyn Fn(u32) -> bool) -> bool {
            match t.node(id) {
                TraceNode::True => true,
                TraceNode::False => false,
                TraceNode::Decision { var, hi, lo } => {
                    if a(*var) {
                        go(t, *hi, a)
                    } else {
                        go(t, *lo, a)
                    }
                }
                TraceNode::And { children } => children.iter().all(|c| go(t, *c, a)),
            }
        }
        go(self, self.root(), assignment)
    }
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct DpllResult {
    /// The weighted count: `p(F)` under the given per-variable probabilities.
    pub probability: f64,
    /// Run statistics.
    pub stats: DpllStats,
    /// The recorded trace, when requested.
    pub trace: Option<Trace>,
    /// True when `max_decisions` aborted the run (probability is invalid).
    pub aborted: bool,
}

/// The counter itself. Create with [`Dpll::new`], run with [`Dpll::run`].
pub struct Dpll {
    formula: Formula,
    /// Clauses [`Formula::new`] copied for this run.
    interned: u64,
    options: DpllOptions,
}

impl Dpll {
    /// Prepares a counter for `cnf` with per-variable probabilities
    /// (`probs.len() == cnf.num_vars`; Tseitin auxiliaries should get 1/2 and
    /// the caller corrects by `2^aux` — see `pdb-wmc::prob`).
    pub fn new(cnf: &Cnf, probs: Vec<f64>, options: DpllOptions) -> Dpll {
        Dpll::with(cnf, &probs, options)
    }

    fn with(cnf: &Cnf, probs: &[f64], options: DpllOptions) -> Dpll {
        let (formula, interned) = Formula::new(cnf, probs, &options);
        Dpll {
            formula,
            interned,
            options,
        }
    }

    /// Runs the counter on the calling thread.
    pub fn run(self) -> DpllResult {
        self.run_on(None)
    }

    /// Runs the counter, forking near the root when `pool` has more than
    /// one thread, no trace is recorded and the CNF is large enough for
    /// some node to fork (no node has more literals than the root).
    fn run_on(&self, pool: Option<&Pool>) -> DpllResult {
        let big = self.formula.lits.len() >= PAR_MIN_LITERALS;
        let forks = pool.filter(|p| p.threads() > 1 && !self.options.record_trace && big);
        let shared = Shared {
            formula: &self.formula,
            options: &self.options,
            cache: Cache::new(if forks.is_some() { 16 } else { 1 }),
            decisions: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            pool: forks,
        };
        let mut search = Search::new(&shared);
        if self.options.record_trace {
            search.trace = Some(Trace::new());
        }
        let clauses = self.formula.ends.len() - 1;
        search.stack.extend(0..clauses as u32);
        let (p, root) = search.visit(Span::new(0, clauses), None, 0);
        let mut stats = search.stats;
        stats.decisions = shared.decisions.load(Ordering::Relaxed);
        stats.clauses_interned += self.interned;
        let aborted = shared.aborted.load(Ordering::Relaxed);
        let trace = search.trace.map(|mut t| {
            t.root = Some(root);
            t
        });
        DpllResult {
            probability: if aborted { f64::NAN } else { p },
            stats,
            trace,
            aborted,
        }
    }
}

/// Counts `cnf` on `pool`. Independent components and the two Shannon
/// branches run as pool tasks at shallow depths over a shared component
/// cache; the clause arena is interned once and shared by every task.
///
/// The returned probability combines values in the order [`Dpll::run`]
/// does (see the module docs for when its bits can still differ). With a
/// pool of size 1, when a trace is requested, or on a CNF with fewer than
/// `PAR_MIN_LITERALS` literals, no task forks and the run *is*
/// [`Dpll::run`], trace and stats included. On larger pools
/// `stats.decisions` and the cache counters can differ from the
/// sequential run (concurrent branches race to the cache), so
/// `max_decisions` budgets are only approximate there — abort detection
/// itself remains reliable.
pub fn run_parallel(cnf: &Cnf, probs: &[f64], options: DpllOptions, pool: &Pool) -> DpllResult {
    Dpll::with(cnf, probs, options).run_on(Some(pool))
}

/// Fork pool tasks only this close to the root: deeper subproblems are
/// small and task overhead would dominate.
const PAR_DEPTH: u64 = 4;

/// Fork only nodes with at least this many unassigned literals: a smaller
/// node's subtree is solved faster than a pool task is handed over. Set at
/// the crossover measured on grounded H0 lineages of complete n×n
/// bipartite instances (3n² literals), 2-thread pool over one thread, on a
/// 2-CPU x86-64 host: forking every node near the root took 1.33× as long
/// at n = 6 and 1.08× at n = 7; with this gate n ≤ 6 never forks (1.00×),
/// n = 7 took 0.90–1.00×, and n = 8..13 took 0.62–0.85×.
const PAR_MIN_LITERALS: usize = 128;

/// The interned CNF of a run. Variables are renumbered densely over the
/// ones the CNF uses, in the caller's order, and literals are coded
/// `±(v + 1)` — the same code the canonical keys use.
struct Formula {
    /// Literal codes, clause after clause.
    lits: Vec<i32>,
    /// Clause `c` is `lits[ends[c]..ends[c + 1]]` (`ends[0] = 0`).
    ends: Vec<u32>,
    /// Dense variable → the caller's variable id (ascending).
    vars: Vec<u32>,
    /// Dense variable → probability.
    probs: Vec<f64>,
    /// Dense variable → rank in `var_order` (`u32::MAX` when unlisted).
    rank: Vec<u32>,
}

impl Formula {
    /// Interns `cnf`: the single place a run copies clauses. Returns the
    /// formula and the number of clauses copied, which the caller adds to
    /// the run's `clauses_interned`.
    fn new(cnf: &Cnf, probs: &[f64], options: &DpllOptions) -> (Formula, u64) {
        assert_eq!(probs.len() as u32, cnf.num_vars, "one probability per var");
        let mut vars: Vec<u32> = cnf
            .clauses
            .iter()
            .flat_map(|c| c.lits().iter().map(|l| l.var()))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let dense = |v: u32| vars.binary_search(&v).expect("literal of a used var") as i32 + 1;
        let mut lits = Vec::with_capacity(cnf.clauses.iter().map(|c| c.lits().len()).sum());
        let mut ends = Vec::with_capacity(cnf.clauses.len() + 1);
        ends.push(0);
        let mut copied = 0;
        for c in &cnf.clauses {
            lits.extend(c.lits().iter().map(|l| {
                let d = dense(l.var());
                if l.is_pos() {
                    d
                } else {
                    -d
                }
            }));
            ends.push(lits.len() as u32);
            copied += 1;
        }
        let mut rank = vec![u32::MAX; vars.len()];
        for (r, v) in options.var_order.iter().flatten().enumerate() {
            if let Ok(d) = vars.binary_search(v) {
                rank[d] = r as u32;
            }
        }
        let formula = Formula {
            probs: vars.iter().map(|&v| probs[v as usize]).collect(),
            lits,
            ends,
            vars,
            rank,
        };
        (formula, copied)
    }

    fn clause(&self, c: u32) -> &[i32] {
        &self.lits[self.ends[c as usize] as usize..self.ends[c as usize + 1] as usize]
    }
}

/// The dense variable of a literal code.
fn var_of(lit: i32) -> usize {
    lit.unsigned_abs() as usize - 1
}

/// State shared by every task of one run.
struct Shared<'a> {
    formula: &'a Formula,
    options: &'a DpllOptions,
    cache: Cache,
    /// Decisions across all tasks: the `max_decisions` budget is global.
    decisions: AtomicU64,
    aborted: AtomicBool,
    /// The pool to fork on; `None` runs everything on the calling thread.
    pool: Option<&'a Pool>,
}

/// A `start..end` range into one of a search's stacks (`Copy`, unlike
/// `Range`).
#[derive(Clone, Copy, Debug)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    fn of<T>(self, stack: &[T]) -> &[T] {
        &stack[self.start..self.end]
    }
}

/// A child of a search node: its clause list, its canonical key when
/// already built (the components of a split), and the branch assignment
/// that leads to it (the two Shannon branches).
#[derive(Clone, Copy, Debug)]
struct Child {
    clauses: Span,
    key: Option<Span>,
    assign: Option<(usize, i8)>,
}

/// The working state of one task: the root search, or a forked one.
///
/// A node's clause list and key live on `stack` and `keys`, its children
/// on `children` and their values on `values`. A node's children push
/// theirs above it and every node pops what it pushed, so the stacks stay
/// as deep as the search. `red`, `red_ends` and `order` describe only the
/// node being entered and are overwritten by its children; `counts` and
/// `uf` are per-variable scratch.
struct Search<'a> {
    shared: &'a Shared<'a>,
    /// Dense variable → 0 unassigned, 1 true, −1 false (the trail).
    value: Vec<i8>,
    /// Per-node clause-index lists.
    stack: Vec<u32>,
    /// Per-node canonical keys.
    keys: Vec<i32>,
    /// The children of the nodes on the path.
    children: Vec<Child>,
    /// Solved children's values, in child order.
    values: Vec<(f64, TraceNodeId)>,
    /// The node's clauses without their assigned (false) literals.
    red: Vec<i32>,
    /// Clause `i` of the node is `red[red_ends[i]..red_ends[i + 1]]`.
    red_ends: Vec<u32>,
    /// `(component, prefix, clause position)` triples, sorted into key
    /// order (see [`prefix`]).
    order: Vec<(u32, u64, u32)>,
    /// Dense variable → occurrence count or component number; all zero
    /// between uses.
    counts: Vec<u32>,
    /// Dense variable → union-find parent.
    uf: Vec<u32>,
    stats: DpllStats,
    trace: Option<Trace>,
}

impl<'a> Search<'a> {
    fn new(shared: &'a Shared<'a>) -> Search<'a> {
        let vars = shared.formula.vars.len();
        Search {
            shared,
            value: vec![0; vars],
            stack: Vec::new(),
            keys: Vec::new(),
            children: Vec::new(),
            values: Vec::new(),
            red: Vec::new(),
            red_ends: Vec::new(),
            order: Vec::new(),
            counts: vec![0; vars],
            uf: vec![0; vars],
            stats: DpllStats::default(),
            trace: None,
        }
    }

    /// Counts the node whose clause list is `clauses` (a span of `stack`)
    /// under the current assignment, then pops everything the node pushed.
    /// `key` is the node's canonical key when the caller already built it.
    fn visit(&mut self, clauses: Span, key: Option<Span>, depth: u64) -> (f64, TraceNodeId) {
        let marks = (
            self.stack.len(),
            self.keys.len(),
            self.children.len(),
            self.values.len(),
        );
        let out = self.solve(clauses, key, depth);
        self.stack.truncate(marks.0);
        self.keys.truncate(marks.1);
        self.children.truncate(marks.2);
        self.values.truncate(marks.3);
        out
    }

    fn solve(&mut self, clauses: Span, key: Option<Span>, depth: u64) -> (f64, TraceNodeId) {
        let shared = self.shared;
        let options = shared.options;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        if shared.aborted.load(Ordering::Relaxed) {
            return (f64::NAN, Trace::TRUE);
        }
        if clauses.start == clauses.end {
            return (1.0, Trace::TRUE);
        }
        if !self.reduce(clauses) {
            return (0.0, Trace::FALSE);
        }
        // Cache lookup.
        let cached = options.caching.then(|| {
            let key = key.unwrap_or_else(|| self.node_key());
            (key, key_hash(key.of(&self.keys)))
        });
        if let Some((key, h)) = cached {
            if let Some(hit) = shared.cache.get(h, key.of(&self.keys)) {
                self.stats.cache_hits += 1;
                return hit;
            }
        }
        // Component decomposition: multiply the components' values in key
        // order.
        let c0 = self.children.len();
        if options.components && self.split(clauses) {
            self.stats.component_splits += 1;
            let v0 = self.solve_children(c0, depth);
            let mut p = 1.0;
            for &(cp, _) in &self.values[v0..] {
                p *= cp;
            }
            let node = match self.trace {
                Some(_) => {
                    let mut children = Vec::with_capacity(self.values.len() - v0);
                    children.extend(self.values[v0..].iter().map(|&(_, node)| node));
                    self.record(TraceNode::And { children })
                }
                None => Trace::TRUE,
            };
            self.store(cached, (p, node));
            return (p, node);
        }
        // Pick the branch variable: a unit literal's variable if any
        // (unit propagation as a Shannon step), else the heuristic choice.
        let var = match self.red_ends.windows(2).find(|w| w[1] - w[0] == 1) {
            Some(w) => var_of(self.red[w[0] as usize]),
            None if options.var_order.is_some() => self.lowest_rank_var(),
            None => self.most_frequent_var(),
        };
        let decisions = shared.decisions.fetch_add(1, Ordering::Relaxed) + 1;
        if options.max_decisions > 0 && decisions > options.max_decisions {
            shared.aborted.store(true, Ordering::Relaxed);
            return (f64::NAN, Trace::TRUE);
        }
        for value in [true, false] {
            let child = Child {
                clauses: self.condition(clauses, var, value),
                key: None,
                assign: Some((var, if value { 1 } else { -1 })),
            };
            self.children.push(child);
        }
        let v0 = self.solve_children(c0, depth);
        let ((hi, hi_node), (lo, lo_node)) = (self.values[v0], self.values[v0 + 1]);
        let p = shared.formula.probs[var];
        let total = p * hi + (1.0 - p) * lo;
        let node = self.record(TraceNode::Decision {
            var: shared.formula.vars[var],
            hi: hi_node,
            lo: lo_node,
        });
        self.store(cached, (total, node));
        (total, node)
    }

    /// Solves the children `children[c0..]` of a node at `depth` — as pool
    /// tasks when the run forks there, else in order on this search — and
    /// returns where their values start on `values` (in child order).
    fn solve_children(&mut self, c0: usize, depth: u64) -> usize {
        let v0 = self.values.len();
        match self.forks(depth) {
            Some(pool) => {
                let mut values = std::mem::take(&mut self.values);
                values.resize(v0 + self.children.len() - c0, (f64::NAN, Trace::TRUE));
                let stats = self.fork_all(&self.children[c0..], &mut values[v0..], pool, depth + 1);
                self.values = values;
                self.stats.absorb(&stats);
            }
            None => {
                for i in c0..self.children.len() {
                    let child = self.children[i];
                    if let Some((var, value)) = child.assign {
                        self.value[var] = value;
                    }
                    let out = self.visit(child.clauses, child.key, depth + 1);
                    if let Some((var, _)) = child.assign {
                        self.value[var] = 0;
                    }
                    self.values.push(out);
                }
            }
        }
        v0
    }

    /// The pool to fork the children of the node being solved (at
    /// `depth`) on, if this run forks there.
    fn forks(&self, depth: u64) -> Option<&'a Pool> {
        let big = self.red.len() >= PAR_MIN_LITERALS;
        self.shared.pool.filter(|_| depth < PAR_DEPTH && big)
    }

    /// Forks one pool task per child, splitting the list in halves with
    /// `join`, and writes each child's value to its slot of `out`. Returns
    /// the tasks' combined stats.
    fn fork_all(
        &self,
        children: &[Child],
        out: &mut [(f64, TraceNodeId)],
        pool: &Pool,
        depth: u64,
    ) -> DpllStats {
        if let ([child], [slot]) = (children, &mut *out) {
            let (p, stats) = self.fork(*child, depth);
            *slot = (p, Trace::TRUE);
            return stats;
        }
        let (left, right) = children.split_at(children.len() / 2);
        let (left_out, right_out) = out.split_at_mut(left.len());
        let (mut stats, right_stats) = pool.join(
            || self.fork_all(left, left_out, pool, depth),
            || self.fork_all(right, right_out, pool, depth),
        );
        stats.absorb(&right_stats);
        stats
    }

    /// Solves a child on a fresh search of its own (a forked task): a copy
    /// of this search's assignment plus the child's, and of the child's
    /// clause list and key. Forks never record a trace.
    fn fork(&self, child: Child, depth: u64) -> (f64, DpllStats) {
        let mut search = Search::new(self.shared);
        search.value.copy_from_slice(&self.value);
        if let Some((var, value)) = child.assign {
            search.value[var] = value;
        }
        search
            .stack
            .extend_from_slice(child.clauses.of(&self.stack));
        let key = child.key.map(|k| {
            search.keys.extend_from_slice(k.of(&self.keys));
            Span::new(0, search.keys.len())
        });
        let (p, _) = search.visit(Span::new(0, search.stack.len()), key, depth);
        (p, search.stats)
    }

    /// Stores a solved node under its key (when caching).
    fn store(&mut self, cached: Option<(Span, u64)>, value: (f64, TraceNodeId)) {
        if let Some((key, h)) = cached {
            self.shared.cache.insert(h, key.of(&self.keys), value);
            self.stats.cache_misses += 1;
        }
    }

    fn record(&mut self, node: TraceNode) -> TraceNodeId {
        match &mut self.trace {
            Some(trace) => trace.push(node),
            None => Trace::TRUE,
        }
    }

    /// Fills `red`/`red_ends` with the node's clauses minus their assigned
    /// literals. Returns false if some clause has none left.
    fn reduce(&mut self, clauses: Span) -> bool {
        let formula = self.shared.formula;
        self.red.clear();
        self.red_ends.clear();
        self.red_ends.push(0);
        for &c in clauses.of(&self.stack) {
            let start = self.red.len();
            for &lit in formula.clause(c) {
                if self.value[var_of(lit)] == 0 {
                    self.red.push(lit);
                }
            }
            if self.red.len() == start {
                return false;
            }
            self.red_ends.push(self.red.len() as u32);
        }
        true
    }

    /// Pushes the canonical key of the node's whole clause list.
    fn node_key(&mut self) -> Span {
        let n = self.red_ends.len() as u32 - 1;
        let (red, ends) = (&self.red, &self.red_ends);
        self.order.clear();
        self.order
            .extend((0..n).map(|i| (0, prefix(reduced(red, ends, i)), i)));
        self.sort_order();
        self.push_key(0, self.order.len())
    }

    /// Sorts `order` by component, then by reduced clause — the clause
    /// order of the canonical key.
    fn sort_order(&mut self) {
        let (red, ends) = (&self.red, &self.red_ends);
        self.order.sort_unstable_by(|a, b| {
            (a.0, a.1)
                .cmp(&(b.0, b.1))
                .then_with(|| reduced(red, ends, a.2).cmp(reduced(red, ends, b.2)))
        });
    }

    /// Appends the canonical key of the clauses `order[from..to]` (already
    /// sorted): each clause's literal codes, then `0`.
    fn push_key(&mut self, from: usize, to: usize) -> Span {
        let start = self.keys.len();
        for &(_, _, i) in &self.order[from..to] {
            self.keys
                .extend_from_slice(reduced(&self.red, &self.red_ends, i));
            self.keys.push(0);
        }
        Span::new(start, self.keys.len())
    }

    /// The components rule (12): partitions the node's clauses into
    /// variable-disjoint components by union-find over their variables.
    /// With two or more, pushes each one's clause list (in node order) and
    /// key onto the stacks and the components onto `children`, sorted by
    /// key, and returns true.
    fn split(&mut self, clauses: Span) -> bool {
        fn find(uf: &mut [u32], mut v: usize) -> usize {
            while uf[v] as usize != v {
                uf[v] = uf[uf[v] as usize];
                v = uf[v] as usize;
            }
            v
        }
        for &lit in &self.red {
            self.uf[var_of(lit)] = var_of(lit) as u32;
        }
        let n = self.red_ends.len() as u32 - 1;
        for i in 0..n {
            let clause = reduced(&self.red, &self.red_ends, i);
            let root = find(&mut self.uf, var_of(clause[0]));
            for &lit in &clause[1..] {
                let other = find(&mut self.uf, var_of(lit));
                self.uf[other] = root as u32;
            }
        }
        // Number the components in order of first appearance.
        self.order.clear();
        let mut components = 0;
        for i in 0..n {
            let clause = reduced(&self.red, &self.red_ends, i);
            let root = find(&mut self.uf, var_of(clause[0]));
            if self.counts[root] == 0 {
                components += 1;
                self.counts[root] = components;
            }
            self.order.push((self.counts[root] - 1, prefix(clause), i));
        }
        for &lit in &self.red {
            self.counts[var_of(lit)] = 0;
        }
        if components < 2 {
            return false;
        }
        self.sort_order();
        let c0 = self.children.len();
        let mut from = 0;
        while from < self.order.len() {
            let component = self.order[from].0;
            let to = from
                + self.order[from..]
                    .iter()
                    .take_while(|o| o.0 == component)
                    .count();
            let key = self.push_key(from, to);
            let start = self.stack.len();
            for k in from..to {
                let c = self.stack[clauses.start + self.order[k].2 as usize];
                self.stack.push(c);
            }
            // Node order within the component (the unit-clause rule reads it).
            self.stack[start..].sort_unstable();
            self.children.push(Child {
                clauses: Span::new(start, self.stack.len()),
                key: Some(key),
                assign: None,
            });
            from = to;
        }
        let keys = &self.keys;
        self.children[c0..].sort_unstable_by_key(|c| c.key.map(|k| k.of(keys)));
        true
    }

    /// Pushes the clause list of the child `var = value`: the node's
    /// clauses minus those the assignment satisfies, in node order.
    fn condition(&mut self, clauses: Span, var: usize, value: bool) -> Span {
        let formula = self.shared.formula;
        let start = self.stack.len();
        for i in clauses.start..clauses.end {
            let c = self.stack[i];
            let mut touched = false;
            let mut satisfied = false;
            for &lit in formula.clause(c) {
                if var_of(lit) == var {
                    touched = true;
                    satisfied |= (lit > 0) == value;
                }
            }
            if satisfied {
                continue;
            }
            if touched {
                self.stats.clauses_reduced += 1;
            }
            self.stack.push(c);
        }
        Span::new(start, self.stack.len())
    }

    /// The variable with the lowest `(rank, index)` among the node's
    /// (fixed-order branching).
    fn lowest_rank_var(&self) -> usize {
        let rank = &self.shared.formula.rank;
        let best = self.red.iter().map(|&l| (rank[var_of(l)], var_of(l))).min();
        best.expect("non-empty clauses have variables").1
    }

    /// The most frequently occurring variable, ties broken toward the
    /// lowest index.
    fn most_frequent_var(&mut self) -> usize {
        for &lit in &self.red {
            self.counts[var_of(lit)] += 1;
        }
        let mut best = usize::MAX;
        let mut best_count = 0;
        for &lit in &self.red {
            let v = var_of(lit);
            let n = self.counts[v];
            if n > best_count || (n == best_count && v < best) {
                best_count = n;
                best = v;
            }
        }
        for &lit in &self.red {
            self.counts[var_of(lit)] = 0;
        }
        best
    }
}

/// Clause `i` of a node's reduced clauses.
fn reduced<'r>(red: &'r [i32], ends: &[u32], i: u32) -> &'r [i32] {
    &red[ends[i as usize] as usize..ends[i as usize + 1] as usize]
}

/// The first two literal codes of a clause, packed so that comparing
/// prefixes as integers orders clauses as comparing their slices does
/// (a missing literal packs as 0, below every code). Equal prefixes fall
/// back to comparing the slices.
fn prefix(clause: &[i32]) -> u64 {
    let code = |i: usize| {
        clause
            .get(i)
            .map_or(0, |&l| u64::from(l as u32 ^ 0x8000_0000))
    };
    code(0) << 32 | code(1)
}

/// Hash of a canonical key (FxHash-style mixing, then a splitmix64
/// finalizer so every bit of the result is usable).
fn key_hash(key: &[i32]) -> u64 {
    let mut h = key.len() as u64;
    for &x in key {
        h = (h.rotate_left(5) ^ u64::from(x as u32)).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// The component cache: canonical key → `(probability, trace node)`,
/// compared exactly. Keys are hashed once by the search; shards (picked by
/// hash) let concurrent tasks contend only when they touch the same one.
/// A task never waits for a shard: a busy shard reads as a miss and skips
/// the store, so a pool worker is never blocked. On one thread no shard is
/// ever busy.
struct Cache {
    shards: Vec<Mutex<Shard>>,
}

/// One cache shard. Keys live back to back in one arena; `heads` maps a
/// key hash to its newest entry, and entries with equal hashes chain.
#[derive(Default)]
struct Shard {
    heads: HashMap<u64, usize, BuildHasherDefault<KeyHashed>>,
    entries: Vec<Entry>,
    keys: Vec<i32>,
}

struct Entry {
    key: Span,
    /// The previous entry with the same hash.
    next: Option<usize>,
    value: (f64, TraceNodeId),
}

impl Cache {
    fn new(shards: usize) -> Cache {
        Cache {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard(&self, h: u64) -> &Mutex<Shard> {
        // The low bits index the shard's table; pick the shard by others.
        &self.shards[(h >> 32) as usize % self.shards.len()]
    }

    fn get(&self, h: u64, key: &[i32]) -> Option<(f64, TraceNodeId)> {
        let shard = self.shard(h).try_lock().ok()?;
        shard.find(h, key).map(|e| shard.entries[e].value)
    }

    fn insert(&self, h: u64, key: &[i32], value: (f64, TraceNodeId)) {
        let Ok(mut shard) = self.shard(h).try_lock() else {
            return;
        };
        // Concurrent tasks may race to solve the same component; the first
        // entry stands, as on one thread, where a key is stored once.
        if shard.find(h, key).is_some() {
            return;
        }
        let start = shard.keys.len();
        shard.keys.extend_from_slice(key);
        let entry = Entry {
            key: Span::new(start, shard.keys.len()),
            next: shard.heads.get(&h).copied(),
            value,
        };
        let id = shard.entries.len();
        shard.entries.push(entry);
        shard.heads.insert(h, id);
    }
}

impl Shard {
    fn find(&self, h: u64, key: &[i32]) -> Option<usize> {
        let mut next = self.heads.get(&h).copied();
        while let Some(e) = next {
            if self.entries[e].key.of(&self.keys) == key {
                return Some(e);
            }
            next = self.entries[e].next;
        }
        None
    }
}

/// Hasher for keys that already are [`key_hash`] values: passes them
/// through.
#[derive(Default)]
struct KeyHashed(u64);

impl Hasher for KeyHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use pdb_data::TupleId;
    use pdb_lineage::{BoolExpr, Clause, Lit};
    use pdb_num::assert_close;

    fn v(i: u32) -> BoolExpr {
        BoolExpr::var(TupleId(i))
    }

    fn check_against_brute(expr: &BoolExpr, probs: &[f64], options: DpllOptions) {
        // Count ¬expr via CNF and compare 1 − p.
        let cnf = Cnf::from_negated_dnf(expr, probs.len() as u32);
        let expected = 1.0 - brute::expr_probability(expr, probs);
        let result = Dpll::new(&cnf, probs.to_vec(), options).run();
        assert!(!result.aborted);
        assert_close(result.probability, expected, 1e-10);
    }

    #[test]
    fn counts_simple_dnf() {
        let f = BoolExpr::or_all([BoolExpr::and_all([v(0), v(1)]), v(2)]);
        let probs = [0.3, 0.6, 0.2];
        check_against_brute(&f, &probs, DpllOptions::default());
    }

    #[test]
    fn all_option_combinations_agree() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(1), v(2)]),
            BoolExpr::and_all([v(3), v(4)]),
        ]);
        let probs = [0.1, 0.5, 0.9, 0.3, 0.7];
        for components in [false, true] {
            for caching in [false, true] {
                let opts = DpllOptions {
                    components,
                    caching,
                    record_trace: true,
                    ..Default::default()
                };
                check_against_brute(&f, &probs, opts);
            }
        }
    }

    #[test]
    fn trace_computes_the_formula() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(1)]),
            BoolExpr::and_all([v(2), v(3)]),
        ]);
        let cnf = Cnf::from_negated_dnf(&f, 4);
        let opts = DpllOptions {
            record_trace: true,
            ..Default::default()
        };
        let result = Dpll::new(&cnf, vec![0.5; 4], opts).run();
        let trace = result.trace.unwrap();
        // The trace computes ¬f (we counted the negated DNF).
        for mask in 0u32..16 {
            let a = |var: u32| mask >> var & 1 == 1;
            assert_eq!(trace.eval(&a), !f.eval(&|t| a(t.0)), "mask={mask}");
        }
        assert!(trace.reachable_size() > 2);
    }

    #[test]
    fn components_rule_fires_on_disjoint_parts() {
        // Two independent blocks: (x0 ∨ x1) ∧ (x2 ∨ x3)
        let cnf = Cnf::new(
            vec![
                Clause::new(vec![Lit::pos(0), Lit::pos(1)]),
                Clause::new(vec![Lit::pos(2), Lit::pos(3)]),
            ],
            4,
        );
        let opts = DpllOptions {
            record_trace: true,
            ..Default::default()
        };
        let result = Dpll::new(&cnf, vec![0.5; 4], opts).run();
        assert!(result.stats.component_splits >= 1);
        assert_close(result.probability, 0.75 * 0.75, 1e-12);
    }

    #[test]
    fn unit_propagation_branches_units_first() {
        // x0 ∧ (x0 ∨ x1): unit clause forces x0.
        let cnf = Cnf::new(
            vec![
                Clause::new(vec![Lit::pos(0)]),
                Clause::new(vec![Lit::pos(0), Lit::pos(1)]),
            ],
            2,
        );
        let result = Dpll::new(&cnf, vec![0.3, 0.9], DpllOptions::default()).run();
        assert_close(result.probability, 0.3, 1e-12);
    }

    #[test]
    fn caching_reduces_work() {
        // A formula with many identical subproblems: chain of implications.
        let mut clauses = Vec::new();
        for i in 0..10u32 {
            clauses.push(Clause::new(vec![Lit::neg(i), Lit::pos(i + 1)]));
        }
        let cnf = Cnf::new(clauses, 11);
        let with_cache = Dpll::new(
            &cnf,
            vec![0.5; 11],
            DpllOptions {
                caching: true,
                ..Default::default()
            },
        )
        .run();
        let without_cache = Dpll::new(
            &cnf,
            vec![0.5; 11],
            DpllOptions {
                caching: false,
                ..Default::default()
            },
        )
        .run();
        assert_close(with_cache.probability, without_cache.probability, 1e-12);
        assert!(with_cache.stats.decisions <= without_cache.stats.decisions);
    }

    #[test]
    fn fixed_variable_order_is_respected_and_correct() {
        let f = BoolExpr::or_all([
            BoolExpr::and_all([v(0), v(2)]),
            BoolExpr::and_all([v(1), v(3)]),
        ]);
        let probs = [0.2, 0.4, 0.6, 0.8];
        let opts = DpllOptions {
            components: false,
            var_order: Some(vec![3, 2, 1, 0]),
            ..Default::default()
        };
        check_against_brute(&f, &probs, opts);
    }

    #[test]
    fn unsatisfiable_counts_zero() {
        let cnf = Cnf::new(
            vec![
                Clause::new(vec![Lit::pos(0)]),
                Clause::new(vec![Lit::neg(0)]),
            ],
            1,
        );
        let result = Dpll::new(&cnf, vec![0.5], DpllOptions::default()).run();
        assert_close(result.probability, 0.0, 1e-12);
    }

    #[test]
    fn empty_cnf_counts_one() {
        let cnf = Cnf::new(vec![], 3);
        let result = Dpll::new(&cnf, vec![0.5; 3], DpllOptions::default()).run();
        assert_close(result.probability, 1.0, 1e-12);
    }

    #[test]
    fn max_decisions_aborts() {
        // A hard-ish random instance with a tiny budget.
        let mut clauses = Vec::new();
        for i in 0..6u32 {
            for j in 0..6u32 {
                clauses.push(Clause::new(vec![
                    Lit::neg(i),
                    Lit::pos(6 + i * 6 + j),
                    Lit::neg(42 + j),
                ]));
            }
        }
        let cnf = Cnf::new(clauses, 48);
        let opts = DpllOptions {
            max_decisions: 3,
            ..Default::default()
        };
        let result = Dpll::new(&cnf, vec![0.5; 48], opts).run();
        assert!(result.aborted);
        assert!(result.probability.is_nan());
    }

    #[test]
    fn run_parallel_respects_max_decisions() {
        let mut clauses = Vec::new();
        for i in 0..6u32 {
            for j in 0..6u32 {
                clauses.push(Clause::new(vec![
                    Lit::neg(i),
                    Lit::pos(6 + i * 6 + j),
                    Lit::neg(42 + j),
                ]));
            }
        }
        let cnf = Cnf::new(clauses, 48);
        let opts = DpllOptions {
            max_decisions: 3,
            ..Default::default()
        };
        let pool = pdb_par::Pool::new(4);
        let result = run_parallel(&cnf, &[0.5; 48], opts, &pool);
        assert!(result.aborted);
        assert!(result.probability.is_nan());
    }

    #[test]
    fn model_counting_via_half_probabilities() {
        // #F for F = (x0 ∨ x1) ∧ (x1 ∨ x2): brute force says 4 models... let
        // us verify against the enumerator rather than hand-counting.
        let cnf = Cnf::new(
            vec![
                Clause::new(vec![Lit::pos(0), Lit::pos(1)]),
                Clause::new(vec![Lit::pos(1), Lit::pos(2)]),
            ],
            3,
        );
        let expected = brute::cnf_model_count(&cnf) as f64;
        let result = Dpll::new(&cnf, vec![0.5; 3], DpllOptions::default()).run();
        assert_close(result.probability * 8.0, expected, 1e-12);
    }

    #[test]
    fn canonical_key_sorts_reduced_clauses() {
        // (x2) ∧ (x0 ∨ ¬x1) ∧ (¬x3 ∨ x2) under x3 = 1: the third clause
        // reduces to a second (x2).
        let cnf = Cnf::new(
            vec![
                Clause::new(vec![Lit::pos(2)]),
                Clause::new(vec![Lit::pos(0), Lit::neg(1)]),
                Clause::new(vec![Lit::neg(3), Lit::pos(2)]),
            ],
            4,
        );
        let dpll = Dpll::new(&cnf, vec![0.5; 4], DpllOptions::default());
        let shared = Shared {
            formula: &dpll.formula,
            options: &dpll.options,
            cache: Cache::new(1),
            decisions: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            pool: None,
        };
        let mut search = Search::new(&shared);
        search.stack.extend(0..3);
        search.value[3] = 1;
        assert!(search.reduce(Span::new(0, 3)));
        let key = search.node_key();
        // Clauses sorted (x0 ∨ ¬x1) < (x2) = (x2); literals in `Lit`
        // order, encoded ±(var+1), 0-terminated.
        assert_eq!(key.of(&search.keys), [-2, 1, 0, 3, 0, 3, 0]);
    }

    #[test]
    fn cache_compares_keys_exactly() {
        let cache = Cache::new(1);
        cache.insert(7, &[1, 0], (0.25, Trace::TRUE));
        // Same hash, different key: a collision, not a hit.
        assert_eq!(cache.get(7, &[2, 0]), None);
        cache.insert(7, &[2, 0], (0.5, Trace::FALSE));
        assert_eq!(cache.get(7, &[1, 0]), Some((0.25, Trace::TRUE)));
        assert_eq!(cache.get(7, &[2, 0]), Some((0.5, Trace::FALSE)));
    }

    #[test]
    fn no_per_branch_clause_clones_sequential_or_parallel() {
        // The negated lineage of ∃x∃y R(x) ∧ S(x,y) ∧ T(y) over a complete
        // 10×10 bipartite instance: 100 clauses, 300 literals — large
        // enough for a pool run to fork.
        let n = 10u32;
        let mut clauses = Vec::new();
        for x in 0..n {
            for y in 0..n {
                let s = 2 * n + x * n + y;
                clauses.push(Clause::new(vec![Lit::neg(x), Lit::neg(s), Lit::neg(n + y)]));
            }
        }
        let vars = 2 * n + n * n;
        let cnf = Cnf::new(clauses, vars);
        let literals: usize = cnf.clauses.iter().map(|c| c.lits().len()).sum();
        assert!(literals >= PAR_MIN_LITERALS);
        let probs: Vec<f64> = (0..vars)
            .map(|v| 0.1 + 0.8 * (v % 7) as f64 / 7.0)
            .collect();
        let seq = Dpll::new(&cnf, probs.clone(), DpllOptions::default()).run();
        let pool = pdb_par::Pool::new(4);
        let jobs = pool.stats().jobs;
        let par = run_parallel(&cnf, &probs, DpllOptions::default(), &pool);
        assert!(pool.stats().jobs > jobs, "the pool run forked");
        assert_eq!(seq.probability.to_bits(), par.probability.to_bits());
        for run in [&seq, &par] {
            // Each run copied exactly its input clauses, once, whatever
            // the number of forked tasks...
            assert_eq!(run.stats.clauses_interned, cnf.clauses.len() as u64);
            // ...and branches shortened clauses through the trail.
            assert!(run.stats.clauses_reduced > 0, "decisions reduce clauses");
        }
    }
}
