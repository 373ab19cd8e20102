//! The branch-and-bound search engine.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use petri::{BitSet, StopGuard, StopReason};

use crate::expr::Var;
use crate::problem::Problem;
use crate::slots::SlotTable;

/// Search options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverOptions {
    /// Unit-propagate the Unf-compatibility closure (§4). Disabling
    /// this reproduces the paper's "standard solver" baseline; the
    /// problem must then carry explicit compatibility constraints.
    pub use_closure: bool,
    /// Abort (with [`SearchStats::aborted`] set) after this many
    /// propagation steps.
    pub max_steps: u64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            use_closure: true,
            max_steps: u64::MAX,
        }
    }
}

/// Why a search stopped before exhausting its space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// The [`SolverOptions::max_steps`] propagation budget ran out.
    StepLimit(u64),
    /// The caller's [`StopGuard`] fired (cancellation or deadline).
    Stopped(StopReason),
}

impl fmt::Display for AbortCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortCause::StepLimit(n) => write!(f, "step budget of {n} propagations exhausted"),
            AbortCause::Stopped(reason) => write!(f, "{reason}"),
        }
    }
}

/// Counters describing a finished (or aborted) search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Branching decisions taken.
    pub decisions: u64,
    /// Variable assignments (decisions + propagated).
    pub propagations: u64,
    /// Dead ends encountered.
    pub conflicts: u64,
    /// Total assignments reaching the leaf callback.
    pub leaves: u64,
    /// Whether the search ran out of its step budget or was stopped.
    pub aborted: bool,
    /// Why the search stopped early, when [`SearchStats::aborted`].
    pub abort: Option<AbortCause>,
}

/// An incomplete search: the solver stopped before the space was
/// exhausted, so "no solution found" must not be read as "none
/// exists". Returned by [`Solver::solve_checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveError {
    /// What cut the search short.
    pub cause: AbortCause,
    /// Counters at the moment the search stopped.
    pub stats: SearchStats,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "search aborted ({}) after {} propagations",
            self.cause, self.stats.propagations
        )
    }
}

impl Error for SolveError {}

/// A branching point. Every decision tries `x(e) = 1` first, which
/// pulls the event's whole history in by closure; `flipped` marks
/// that the `x(e) = 0` branch is the one being explored.
struct Decision {
    var: Var,
    flipped: bool,
    trail_len: usize,
    scan_from: usize,
}

/// A DFS solver over a [`Problem`].
///
/// The search enumerates total Unf-compatible assignments satisfying
/// all constraints; for each one the *leaf callback* decides whether
/// to accept (stop and return) or reject (continue exhaustively).
/// See the crate-level example.
pub struct Solver<'p, 'r> {
    problem: &'p Problem<'r>,
    options: SolverOptions,
    values: Vec<Option<bool>>,
    /// `assigned[b][s]`: the events whose side-`s` variable holds `b`,
    /// so closure propagation skips them word by word.
    assigned: [Vec<BitSet>; 2],
    trail: Vec<Var>,
    queue: VecDeque<(Var, bool)>,
    slots: SlotTable<'p>,
    forced: Vec<(Var, bool)>,
    /// The static decision order, the fail-first rule's tie-break.
    order: Vec<Var>,
    /// `rank[v]`: the position of `v` in `order`.
    rank: Vec<u32>,
    stats: SearchStats,
    guard: StopGuard,
}

impl<'p, 'r> Solver<'p, 'r> {
    /// Prepares a solver for `problem`.
    pub fn new(problem: &'p Problem<'r>, options: SolverOptions) -> Self {
        let order = problem.decision_order_or_default();
        let mut rank = vec![0; order.len()];
        for (pos, v) in order.iter().enumerate() {
            rank[v.index()] = pos as u32;
        }
        Solver {
            problem,
            options,
            values: vec![None; problem.num_vars()],
            assigned: std::array::from_fn(|_| {
                vec![BitSet::new(problem.relations().num_events()); problem.sides()]
            }),
            trail: Vec::new(),
            queue: VecDeque::new(),
            slots: SlotTable::new(problem.constraints(), problem.num_vars()),
            forced: Vec::new(),
            order,
            rank,
            stats: SearchStats::default(),
            guard: StopGuard::unlimited(),
        }
    }

    /// Installs a [`StopGuard`] polled once per propagation (with a
    /// strided clock read), so a cancellation flag or deadline stops
    /// the search mid-flight. The abort surfaces exactly like the
    /// step budget: [`SearchStats::aborted`] with
    /// [`AbortCause::Stopped`].
    pub fn set_guard(&mut self, guard: StopGuard) {
        self.guard = guard;
    }

    /// The statistics of the last [`Solver::solve`] run.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Drains the queue, assigning each variable and propagating its
    /// consequences. Returns `false` on a conflict or an abort.
    fn propagate(&mut self) -> bool {
        let consistent = self.drain_queue();
        debug_assert!(
            self.slots.matches(&self.values),
            "slot bounds drifted from the assignment"
        );
        consistent
    }

    fn drain_queue(&mut self) -> bool {
        while let Some((v, b)) = self.queue.pop_front() {
            match self.values[v.index()] {
                Some(x) if x == b => continue,
                Some(_) => {
                    self.queue.clear();
                    return false;
                }
                None => {}
            }
            let (side, e) = self.problem.side_event(v);
            self.values[v.index()] = Some(b);
            self.assigned[usize::from(b)][side].insert(e.index());
            self.slots.assign(v, b);
            self.trail.push(v);
            self.stats.propagations += 1;
            if self.stats.propagations > self.options.max_steps {
                self.abort(AbortCause::StepLimit(self.options.max_steps));
                return false;
            }
            if let Err(reason) = self.guard.poll() {
                self.abort(AbortCause::Stopped(reason));
                return false;
            }

            // A variable already holding the target value would be
            // skipped when popped, so it is not queued at all.
            let n = self.problem.relations().num_events();
            let base = side * n;
            let [zeros, ones] = &self.assigned;

            // Unf-compatibility closure (Theorem 1 / MCC).
            if self.options.use_closure {
                let rel = self.problem.relations();
                let mut enqueue = |f: usize, value: bool| {
                    self.queue.push_back((Var((base + f) as u32), value));
                };
                if b {
                    rel.predecessors(e)
                        .iter_difference(&ones[side])
                        .for_each(|f| enqueue(f, true));
                    rel.conflicts(e)
                        .iter_difference(&zeros[side])
                        .for_each(|g| enqueue(g, false));
                } else {
                    rel.successors(e)
                        .iter_difference(&zeros[side])
                        .for_each(|f| enqueue(f, false));
                }
            }

            // Subset chaining (§7): x⁰(e) ≤ x¹(e).
            if self.problem.subset_chain() {
                let other = 1 - side;
                let holds = if b { ones } else { zeros };
                if b == (side == 0) && !holds[other].contains(e.index()) {
                    self.queue
                        .push_back((Var((other * n + e.index()) as u32), b));
                }
            }

            // Wake the constraints `v` occurs in; what they force is
            // queued after all of them have been checked.
            self.forced.clear();
            if !self.slots.wake(v, &self.values, &mut self.forced) {
                self.queue.clear();
                return false;
            }
            self.queue.extend(self.forced.drain(..));
        }
        true
    }

    fn abort(&mut self, cause: AbortCause) {
        self.stats.aborted = true;
        self.stats.abort = Some(cause);
        self.queue.clear();
    }

    fn unwind_to(&mut self, len: usize) {
        while self.trail.len() > len {
            let Some(v) = self.trail.pop() else { break };
            if let Some(b) = self.values[v.index()].take() {
                let (side, e) = self.problem.side_event(v);
                self.assigned[usize::from(b)][side].remove(e.index());
                self.slots.retract(v, b);
            }
        }
    }

    /// The next decision variable and the static walk's position
    /// after it (fail-first): the unassigned term earliest in the
    /// static order of the first `Linear` constraint with the fewest
    /// unassigned terms; failing that, the first unassigned variable
    /// of the static order from `scan_from` on (every earlier one is
    /// assigned). `None` under a total assignment.
    fn next_decision(&self, scan_from: usize) -> Option<(Var, usize)> {
        if let Some(terms) = self.slots.fewest_free_linear() {
            let v = terms
                .iter()
                .map(|&(u, _)| u)
                .filter(|u| self.values[u.index()].is_none())
                .min_by_key(|u| self.rank[u.index()])?;
            return Some((v, scan_from));
        }
        (scan_from..self.order.len())
            .map(|pos| (self.order[pos], pos + 1))
            .find(|(v, _)| self.values[v.index()].is_none())
    }

    /// Runs the search. `on_leaf` is invoked for every constraint-
    /// satisfying total assignment; returning `true` accepts it (the
    /// solution is returned), `false` rejects it and the search
    /// continues exhaustively.
    ///
    /// Returns `None` when the space is exhausted without an accepted
    /// solution, or when the step budget ran out (check
    /// [`Solver::stats`]).
    pub fn solve(&mut self, mut on_leaf: impl FnMut(&[BitSet]) -> bool) -> Option<Vec<BitSet>> {
        self.stats = SearchStats::default();
        self.values.fill(None);
        self.assigned.iter_mut().flatten().for_each(BitSet::clear);
        self.slots.reset();
        self.trail.clear();
        self.queue.clear();

        for &(v, b) in self.problem.fixed() {
            self.queue.push_back((v, b));
        }
        if !self.propagate() {
            self.stats.conflicts += 1;
            return None;
        }

        let mut decisions: Vec<Decision> = Vec::new();
        let mut scan_from = 0usize;
        loop {
            if self.stats.aborted {
                return None;
            }
            match self.next_decision(scan_from) {
                Some((v, next_scan)) => {
                    decisions.push(Decision {
                        var: v,
                        flipped: false,
                        trail_len: self.trail.len(),
                        scan_from,
                    });
                    scan_from = next_scan;
                    self.stats.decisions += 1;
                    self.queue.push_back((v, true));
                }
                None => {
                    // Total assignment.
                    self.stats.leaves += 1;
                    if self.slots.all_hold() {
                        let sides = self.assigned[1].clone();
                        if on_leaf(&sides) {
                            return Some(sides);
                        }
                    }
                    // Treat as a dead end and continue.
                    if !self.backtrack(&mut decisions, &mut scan_from) {
                        return None;
                    }
                    continue;
                }
            }
            if !self.propagate() {
                self.stats.conflicts += 1;
                if self.stats.aborted {
                    return None;
                }
                if !self.backtrack(&mut decisions, &mut scan_from) {
                    return None;
                }
            }
        }
    }

    /// Like [`Solver::solve`], but distinguishes "space exhausted, no
    /// accepted solution" (`Ok(None)`) from "search cut short"
    /// (`Err`), so callers cannot mistake an aborted search for a
    /// proof of absence.
    ///
    /// # Errors
    ///
    /// [`SolveError`] when the step budget ran out or the installed
    /// [`StopGuard`] fired before the space was exhausted.
    pub fn solve_checked(
        &mut self,
        on_leaf: impl FnMut(&[BitSet]) -> bool,
    ) -> Result<Option<Vec<BitSet>>, SolveError> {
        let solution = self.solve(on_leaf);
        match (solution, self.stats.abort) {
            (None, Some(cause)) => Err(SolveError {
                cause,
                stats: self.stats,
            }),
            (solution, _) => Ok(solution),
        }
    }

    /// Unwinds to the deepest decision with an untried value, flips
    /// it and re-propagates (repeating on conflict). Returns `false`
    /// when the space is exhausted.
    fn backtrack(&mut self, decisions: &mut Vec<Decision>, scan_from: &mut usize) -> bool {
        loop {
            let Some(top) = decisions.last_mut() else {
                return false;
            };
            self.queue.clear();
            if top.flipped {
                self.unwind_to(top.trail_len);
                *scan_from = top.scan_from;
                decisions.pop();
                continue;
            }
            top.flipped = true;
            self.unwind_to(top.trail_len);
            self.queue.push_back((top.var, false));
            if self.propagate() {
                return true;
            }
            self.stats.conflicts += 1;
            if self.stats.aborted {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::CmpOp;
    use crate::expr::LinExpr;
    use petri::{Marking, NetBuilder};
    use unfolding::{EventId, EventRelations, Prefix, UnfoldOptions};

    /// A chain p -> a -> q -> b -> r plus a competitor c for p.
    fn prefix() -> (Prefix, EventRelations) {
        let mut nb = NetBuilder::new();
        let p = nb.add_place("p");
        let q = nb.add_place("q");
        let r = nb.add_place("r");
        let s = nb.add_place("s");
        let a = nb.add_transition("a");
        let b = nb.add_transition("b");
        let c = nb.add_transition("c");
        nb.arc_pt(p, a).unwrap();
        nb.arc_tp(a, q).unwrap();
        nb.arc_pt(q, b).unwrap();
        nb.arc_tp(b, r).unwrap();
        nb.arc_pt(p, c).unwrap();
        nb.arc_tp(c, s).unwrap();
        let net = nb.build().unwrap();
        let m0 = Marking::with_tokens(4, &[(p, 1)]);
        let prefix = Prefix::unfold(&net, &m0, UnfoldOptions::default()).unwrap();
        let rel = EventRelations::of(&prefix);
        (prefix, rel)
    }

    fn event_named(prefix: &Prefix, name: &str) -> EventId {
        // Transition names a=0, b=1, c=2 by construction.
        let idx = match name {
            "a" => 0,
            "b" => 1,
            _ => 2,
        };
        prefix
            .events()
            .find(|&e| prefix.event_transition(e).index() == idx)
            .unwrap()
    }

    #[test]
    fn closure_forces_causal_past_and_blocks_conflicts() {
        let (prefix, rel) = prefix();
        let ea = event_named(&prefix, "a");
        let eb = event_named(&prefix, "b");
        let ec = event_named(&prefix, "c");
        let mut problem = Problem::new(&rel, 1);
        // Demand x(b) = 1.
        let mut expr = LinExpr::new();
        expr.push(problem.var(0, eb), 1);
        expr.add_constant(-1);
        problem.add_linear(expr, CmpOp::Eq);
        let mut solver = Solver::new(&problem, SolverOptions::default());
        let sol = solver.solve(|_| true).expect("b is executable");
        assert!(sol[0].contains(eb.index()));
        assert!(
            sol[0].contains(ea.index()),
            "a must be pulled in by closure"
        );
        assert!(!sol[0].contains(ec.index()), "c conflicts with a");
    }

    /// The four configurations of [`prefix`] as `[a, b, c]` flags.
    const CONFIGS: [[bool; 3]; 4] = [
        [false, false, false],
        [true, false, false],
        [false, false, true],
        [true, true, false],
    ];

    /// Enumerates every solution of `problem` (two sides over
    /// [`prefix`]) as pairs of indices into [`CONFIGS`].
    fn solution_pairs(
        problem: &Problem<'_>,
        prefix: &Prefix,
    ) -> (Vec<(usize, usize)>, SearchStats) {
        let ids = ["a", "b", "c"].map(|name| event_named(prefix, name).index());
        let index_of = |side: &BitSet| {
            CONFIGS
                .iter()
                .position(|flags| (0..3).all(|i| flags[i] == side.contains(ids[i])))
                .expect("solutions are configurations")
        };
        let mut solver = Solver::new(problem, SolverOptions::default());
        let mut found = Vec::new();
        solver.solve(|sides| {
            found.push((index_of(&sides[0]), index_of(&sides[1])));
            false
        });
        found.sort_unstable();
        (found, solver.stats())
    }

    /// The pairs of [`CONFIGS`] on which `holds` accepts the total
    /// assignment.
    fn brute_force_pairs(
        problem: &Problem<'_>,
        prefix: &Prefix,
        holds: impl Fn(&dyn Fn(Var) -> Option<bool>) -> bool,
    ) -> Vec<(usize, usize)> {
        let ids = ["a", "b", "c"].map(|name| event_named(prefix, name));
        let mut pairs = Vec::new();
        for (i, x) in CONFIGS.iter().enumerate() {
            for (j, y) in CONFIGS.iter().enumerate() {
                let value = |v: Var| {
                    let (s, e) = problem.side_event(v);
                    let k = ids.iter().position(|&id| id == e)?;
                    Some(if s == 0 { x[k] } else { y[k] })
                };
                if holds(&value) {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    /// A small xorshift generator, so the random problems are
    /// reproducible.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    fn random_expr(
        problem: &Problem<'_>,
        prefix: &Prefix,
        rng: &mut Rng,
        side: Option<usize>,
    ) -> LinExpr {
        let mut expr = LinExpr::new();
        for name in ["a", "b", "c"] {
            for s in 0..2 {
                if side.is_none_or(|side| side == s) && rng.below(2) == 0 {
                    let coeff = rng.below(7) as i32 - 3;
                    expr.push(problem.var(s, event_named(prefix, name)), coeff);
                }
            }
        }
        expr.add_constant(rng.below(5) as i64 - 2);
        expr
    }

    #[test]
    fn random_linear_constraints_match_brute_force_under_closure() {
        let (prefix, rel) = prefix();
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let mut backtracked = 0;
        for _ in 0..300 {
            let mut problem = Problem::new(&rel, 2);
            let mut rows = Vec::new();
            for k in 0..1 + rng.below(3) as usize {
                let op = [CmpOp::Eq, CmpOp::Le, CmpOp::Ge][k % 3];
                let expr = random_expr(&problem, &prefix, &mut rng, None);
                rows.push((expr.clone(), op));
                problem.add_linear(expr, op);
            }
            let (got, stats) = solution_pairs(&problem, &prefix);
            let expected = brute_force_pairs(&problem, &prefix, |value| {
                rows.iter().all(|(expr, op)| {
                    let v = expr.eval(value);
                    match op {
                        CmpOp::Eq => v == 0,
                        CmpOp::Le => v <= 0,
                        CmpOp::Ge => v >= 0,
                    }
                })
            });
            assert_eq!(got, expected);
            assert!(stats.leaves as usize >= got.len());
            backtracked += usize::from(stats.conflicts > 0);
        }
        assert!(backtracked > 0, "some searches must hit conflicts");
    }

    #[test]
    fn fail_first_branches_inside_the_row_with_one_free_term() {
        let (prefix, rel) = prefix();
        let mut problem = Problem::new(&rel, 2);
        let order = problem.decision_order_or_default();
        let last = *order.last().expect("six variables");
        // Every variable: six free terms.
        let mut all = LinExpr::new();
        for &v in &order {
            all.push(v, 1);
        }
        all.add_constant(-6);
        problem.add_linear(all, CmpOp::Le);
        // Two free terms: x⁰(a) and x¹(c).
        let pair = [
            problem.var(0, event_named(&prefix, "a")),
            problem.var(1, event_named(&prefix, "c")),
        ];
        let mut two = LinExpr::new();
        pair.iter().for_each(|&v| two.push(v, 1));
        problem.add_linear(two, CmpOp::Ge);
        // One free term, on the variable the static order decides last.
        let mut one = LinExpr::new();
        one.push(last, 1);
        problem.add_linear(one, CmpOp::Ge);

        let mut solver = Solver::new(&problem, SolverOptions::default());
        assert_ne!(order[0], last);
        assert_eq!(solver.next_decision(0), Some((last, 0)));
        // With that row assigned, the two-term row is the fewest-free
        // one; its terms tie-break by the static order.
        solver.values[last.index()] = Some(true);
        solver.slots.assign(last, true);
        let earliest = *pair
            .iter()
            .filter(|&&v| v != last)
            .min_by_key(|v| order.iter().position(|u| u == *v))
            .expect("a free term");
        assert_eq!(solver.next_decision(0), Some((earliest, 0)));
        // The search still enumerates every pair of configurations.
        let (got, _) = solution_pairs(&problem, &prefix);
        assert_eq!(got.len(), CONFIGS.len() * CONFIGS.len());
    }

    #[test]
    fn without_free_linear_terms_the_static_order_decides() {
        let (_prefix, rel) = prefix();
        let problem = Problem::new(&rel, 2);
        let order = problem.decision_order_or_default();
        let solver = Solver::new(&problem, SolverOptions::default());
        assert_eq!(solver.next_decision(0), Some((order[0], 1)));
        assert_eq!(solver.next_decision(3), Some((order[3], 4)));
    }

    #[test]
    fn lex_less_and_not_equal_survive_backtracking() {
        let (prefix, rel) = prefix();
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for round in 0..200 {
            let mut problem = Problem::new(&rel, 2);
            let digits = 1 + rng.below(3) as usize;
            let lhs: Vec<LinExpr> = (0..digits)
                .map(|_| random_expr(&problem, &prefix, &mut rng, Some(0)))
                .collect();
            let rhs: Vec<LinExpr> = (0..digits)
                .map(|_| random_expr(&problem, &prefix, &mut rng, Some(1)))
                .collect();
            let lex = round % 2 == 0;
            if lex {
                problem.add_lex_less(lhs.clone(), rhs.clone());
            } else {
                problem.add_not_equal(lhs.clone(), rhs.clone());
            }
            let (got, _) = solution_pairs(&problem, &prefix);
            let expected = brute_force_pairs(&problem, &prefix, |value| {
                let l: Vec<i64> = lhs.iter().map(|e| e.eval(value)).collect();
                let r: Vec<i64> = rhs.iter().map(|e| e.eval(value)).collect();
                if lex {
                    l < r
                } else {
                    l != r
                }
            });
            assert_eq!(got, expected, "round {round}");
        }
    }

    #[test]
    fn conflict_among_fixed_variables_stops_at_the_root() {
        let (prefix, rel) = prefix();
        let ea = event_named(&prefix, "a");
        let eb = event_named(&prefix, "b");
        // Closure: b needs its cause a.
        let mut problem = Problem::new(&rel, 1);
        problem.fix(problem.var(0, eb), true);
        problem.fix(problem.var(0, ea), false);
        let mut solver = Solver::new(&problem, SolverOptions::default());
        assert_eq!(solver.solve_checked(|_| true), Ok(None));
        let stats = solver.stats();
        assert_eq!((stats.decisions, stats.conflicts, stats.leaves), (0, 1, 0));
        // Linear: x(a) ≤ 0 with a fixed to 1.
        let mut problem = Problem::new(&rel, 1);
        let mut expr = LinExpr::new();
        expr.push(problem.var(0, ea), 1);
        problem.add_linear(expr, CmpOp::Le);
        problem.fix(problem.var(0, ea), true);
        let mut solver = Solver::new(&problem, SolverOptions::default());
        assert!(solver.solve(|_| true).is_none());
        let stats = solver.stats();
        assert_eq!(
            (stats.decisions, stats.conflicts, stats.propagations),
            (0, 1, 1)
        );
    }

    #[test]
    fn exhaustive_enumeration_counts_configurations() {
        let (prefix, rel) = prefix();
        let problem = Problem::new(&rel, 1);
        let mut solver = Solver::new(&problem, SolverOptions::default());
        let mut seen = Vec::new();
        let result = solver.solve(|sides| {
            seen.push(sides[0].clone());
            false
        });
        assert!(result.is_none());
        // Configurations: {}, {a}, {c}, {a,b} — all Unf-compatible
        // vectors of this prefix.
        assert_eq!(seen.len(), 4);
        for c in &seen {
            assert!(prefix.is_configuration(c));
        }
        assert_eq!(solver.stats().leaves, 4);
    }

    #[test]
    fn ablation_without_closure_needs_compatibility_constraints() {
        let (prefix, rel) = prefix();
        let mut problem = Problem::new(&rel, 1);
        problem.add_compatibility_constraints(&prefix);
        let options = SolverOptions {
            use_closure: false,
            ..Default::default()
        };
        let mut solver = Solver::new(&problem, options);
        let mut count = 0usize;
        let mut all_valid = true;
        solver.solve(|sides| {
            count += 1;
            all_valid &= prefix.is_configuration(&sides[0]);
            false
        });
        // The marking equation characterises configurations exactly on
        // occurrence nets, so the same 4 solutions must appear.
        assert_eq!(count, 4);
        assert!(all_valid);
    }

    #[test]
    fn infeasible_problem_returns_none() {
        let (prefix, rel) = prefix();
        let eb = event_named(&prefix, "b");
        let ec = event_named(&prefix, "c");
        let mut problem = Problem::new(&rel, 1);
        // x(b) + x(c) = 2: but b and c are in conflict.
        let mut expr = LinExpr::new();
        expr.push(problem.var(0, eb), 1);
        expr.push(problem.var(0, ec), 1);
        expr.add_constant(-2);
        problem.add_linear(expr, CmpOp::Eq);
        let mut solver = Solver::new(&problem, SolverOptions::default());
        assert!(solver.solve(|_| true).is_none());
        assert!(!solver.stats().aborted);
    }

    #[test]
    fn fixed_variables_respected() {
        let (prefix, rel) = prefix();
        let ea = event_named(&prefix, "a");
        let mut problem = Problem::new(&rel, 1);
        problem.fix(problem.var(0, ea), false);
        let mut solver = Solver::new(&problem, SolverOptions::default());
        let mut seen = 0usize;
        solver.solve(|sides| {
            assert!(!sides[0].contains(ea.index()));
            seen += 1;
            false
        });
        assert_eq!(seen, 2); // {} and {c}
    }

    #[test]
    fn step_budget_aborts() {
        let (_prefix, rel) = prefix();
        let problem = Problem::new(&rel, 2);
        let options = SolverOptions {
            max_steps: 1,
            ..Default::default()
        };
        let mut solver = Solver::new(&problem, options);
        assert!(solver.solve(|_| false).is_none());
        assert!(solver.stats().aborted);
        assert_eq!(solver.stats().abort, Some(AbortCause::StepLimit(1)));
    }

    #[test]
    fn solve_checked_reports_aborts_as_errors() {
        let (_prefix, rel) = prefix();
        let problem = Problem::new(&rel, 2);
        let options = SolverOptions {
            max_steps: 1,
            ..Default::default()
        };
        let mut solver = Solver::new(&problem, options);
        let err = solver.solve_checked(|_| false).expect_err("must abort");
        assert_eq!(err.cause, AbortCause::StepLimit(1));
        assert!(err.to_string().contains("aborted"));

        let mut solver = Solver::new(&problem, SolverOptions::default());
        let exhausted = solver.solve_checked(|_| false).expect("no budget in force");
        assert!(exhausted.is_none());
    }

    #[test]
    fn cancelled_guard_stops_search() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let (_prefix, rel) = prefix();
        let problem = Problem::new(&rel, 2);
        let flag = Arc::new(AtomicBool::new(true));
        let mut solver = Solver::new(&problem, SolverOptions::default());
        solver.set_guard(StopGuard::new(Some(flag.clone()), None));
        let err = solver.solve_checked(|_| false).expect_err("pre-cancelled");
        assert_eq!(err.cause, AbortCause::Stopped(StopReason::Cancelled));

        flag.store(false, Ordering::Relaxed);
        assert!(solver.solve_checked(|_| false).expect("cleared").is_none());
    }

    #[test]
    fn subset_chain_orders_sides() {
        let (prefix, rel) = prefix();
        let mut problem = Problem::new(&rel, 2);
        problem.set_subset_chain();
        let mut solver = Solver::new(&problem, SolverOptions::default());
        let mut checked = 0usize;
        solver.solve(|sides| {
            assert!(sides[0].is_subset(&sides[1]));
            checked += 1;
            false
        });
        // Ordered pairs of the 4 configurations: (C, C') with C ⊆ C'.
        // {}⊆ all 4, {a}⊆{a},{a,b}, {c}⊆{c}, {a,b}⊆{a,b} => 4+2+1+1 = 8.
        assert_eq!(checked, 8);
        let _ = prefix;
    }
}
