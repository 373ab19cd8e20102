//! The propagation kernel's slot table.
//!
//! Every linear expression of a [`Problem`](crate::Problem) gets one
//! *slot*: the expression of each `Linear` constraint, and each digit
//! on both sides of a `LexLess` or `NotEqual` constraint. A slot keeps
//! the running interval `(lo, hi)` of its expression under the
//! solver's partial assignment. Assigning or retracting a variable
//! moves the bounds of the slots it occurs in, found through one CSR
//! occurrence array, so a constraint wake reads its bounds in O(1)
//! instead of recomputing them from the terms. The same move keeps
//! each slot's count of unassigned terms, which the solver's
//! fail-first branching rule reads.

use crate::constraint::{CmpOp, Constraint};
use crate::expr::{LinExpr, Var};

/// How a constraint reads its slots.
#[derive(Debug, Clone, Copy)]
enum Row<'p> {
    /// `expr ⋈ 0` over slot `slot`; `terms` are the expression's.
    Linear {
        slot: usize,
        op: CmpOp,
        terms: &'p [(Var, i32)],
    },
    /// `lhs <lex rhs`; digit `i` is the slot pair
    /// `(first + 2i, first + 2i + 1)`.
    LexLess { first: usize, digits: usize },
    /// `lhs ≠ rhs`, laid out like [`Row::LexLess`].
    NotEqual { first: usize, digits: usize },
}

/// The expressions of a constraint in slot order: a `Linear`
/// constraint's expression, or the digits of a `LexLess`/`NotEqual`
/// constraint interleaved as `lhs[0], rhs[0], lhs[1], rhs[1], …`.
fn expressions(c: &Constraint) -> Vec<&LinExpr> {
    match c {
        Constraint::Linear { expr, .. } => vec![expr],
        Constraint::LexLess { lhs, rhs } | Constraint::NotEqual { lhs, rhs } => {
            lhs.iter().zip(rhs).flat_map(|(l, r)| [l, r]).collect()
        }
    }
}

/// Running bounds of every linear expression of a problem.
pub(crate) struct SlotTable<'p> {
    constraints: &'p [Constraint],
    rows: Vec<Row<'p>>,
    /// Bounds with nothing assigned.
    init: Vec<(i64, i64)>,
    /// Bounds under the current partial assignment.
    bounds: Vec<(i64, i64)>,
    /// Terms per slot.
    init_free: Vec<u32>,
    /// Unassigned terms per slot under the current partial assignment.
    free: Vec<u32>,
    /// The constraint each slot belongs to.
    owner: Vec<u32>,
    /// `occ[occ_start[v]..occ_start[v + 1]]` are the `(slot, coeff)`
    /// occurrences of variable `v`, in ascending slot order.
    occ_start: Vec<u32>,
    occ: Vec<(u32, i32)>,
    /// Per `NotEqual` row, the digit last seen open (not fixed
    /// equal). Retracting assignments never closes a digit, so the
    /// watch stays valid across backtracking and a wake scans only
    /// when the watched digit has closed.
    open_digit: Vec<usize>,
}

impl<'p> SlotTable<'p> {
    /// Flattens `constraints` over `num_vars` variables.
    pub(crate) fn new(constraints: &'p [Constraint], num_vars: usize) -> Self {
        let mut rows = Vec::with_capacity(constraints.len());
        let mut init = Vec::new();
        let mut init_free = Vec::new();
        let mut owner = Vec::new();
        let mut entries: Vec<(Var, u32, i32)> = Vec::new();
        let unassigned = |_: Var| None;
        for (ci, c) in constraints.iter().enumerate() {
            let first = init.len();
            for expr in expressions(c) {
                let slot = init.len() as u32;
                init.push(expr.bounds(&unassigned));
                init_free.push(expr.terms().len() as u32);
                owner.push(ci as u32);
                entries.extend(expr.terms().iter().map(|&(v, k)| (v, slot, k)));
            }
            rows.push(match c {
                Constraint::Linear { expr, op } => Row::Linear {
                    slot: first,
                    op: *op,
                    terms: expr.terms(),
                },
                Constraint::LexLess { lhs, .. } => Row::LexLess {
                    first,
                    digits: lhs.len(),
                },
                Constraint::NotEqual { lhs, .. } => Row::NotEqual {
                    first,
                    digits: lhs.len(),
                },
            });
        }
        // Counting sort by variable; entries are already in slot
        // order, and the sort is stable.
        let mut occ_start = vec![0u32; num_vars + 1];
        for &(v, _, _) in &entries {
            occ_start[v.index() + 1] += 1;
        }
        for i in 0..num_vars {
            occ_start[i + 1] += occ_start[i];
        }
        let mut fill = occ_start.clone();
        let mut occ = vec![(0u32, 0i32); entries.len()];
        for (v, slot, k) in entries {
            let at = &mut fill[v.index()];
            occ[*at as usize] = (slot, k);
            *at += 1;
        }
        SlotTable {
            constraints,
            open_digit: vec![0; rows.len()],
            rows,
            bounds: init.clone(),
            init,
            free: init_free.clone(),
            init_free,
            owner,
            occ_start,
            occ,
        }
    }

    /// Forgets every assignment.
    pub(crate) fn reset(&mut self) {
        self.bounds.copy_from_slice(&self.init);
        self.free.copy_from_slice(&self.init_free);
        self.open_digit.fill(0);
    }

    /// Moves the bounds and free-term counts of `v`'s slots for
    /// `v := value` (`sign = 1`) or for retracting that assignment
    /// (`sign = -1`). An unassigned term contributes `min(c, 0)` to
    /// `lo` and `max(c, 0)` to `hi`; an assigned one contributes `c`
    /// or `0` to both.
    fn shift(&mut self, v: Var, value: bool, sign: i64) {
        let i = v.index();
        let (from, to) = (self.occ_start[i] as usize, self.occ_start[i + 1] as usize);
        for &(slot, c) in &self.occ[from..to] {
            let c = i64::from(c);
            let (dlo, dhi) = if value {
                (c.max(0), c.min(0))
            } else {
                (-c.min(0), -c.max(0))
            };
            let b = &mut self.bounds[slot as usize];
            b.0 += sign * dlo;
            b.1 += sign * dhi;
            let free = &mut self.free[slot as usize];
            if sign > 0 {
                *free -= 1;
            } else {
                *free += 1;
            }
        }
    }

    /// Records `v := value`.
    pub(crate) fn assign(&mut self, v: Var, value: bool) {
        self.shift(v, value, 1);
    }

    /// Retracts `v := value`.
    pub(crate) fn retract(&mut self, v: Var, value: bool) {
        self.shift(v, value, -1);
    }

    /// The terms of the first `Linear` constraint with the fewest
    /// unassigned terms, among those with at least one; `None` when
    /// every `Linear` constraint is fully assigned.
    pub(crate) fn fewest_free_linear(&self) -> Option<&'p [(Var, i32)]> {
        let mut best: Option<(u32, &'p [(Var, i32)])> = None;
        for row in &self.rows {
            let Row::Linear { slot, terms, .. } = *row else {
                continue;
            };
            let free = self.free[slot];
            if free > 0 && best.is_none_or(|(fewest, _)| free < fewest) {
                best = Some((free, terms));
                if free == 1 {
                    break;
                }
            }
        }
        best.map(|(_, terms)| terms)
    }

    /// Wakes every constraint `v` occurs in, in constraint order,
    /// after `v` was assigned. Variables forced by a tight linear
    /// bound are appended to `forced` in term order. Returns `false`
    /// if some constraint can no longer be satisfied.
    pub(crate) fn wake(
        &mut self,
        v: Var,
        values: &[Option<bool>],
        forced: &mut Vec<(Var, bool)>,
    ) -> bool {
        let i = v.index();
        let mut last = u32::MAX;
        for k in self.occ_start[i] as usize..self.occ_start[i + 1] as usize {
            let ci = self.owner[self.occ[k].0 as usize];
            if ci == last {
                continue;
            }
            last = ci;
            if !self.wake_row(ci as usize, values, forced) {
                return false;
            }
        }
        true
    }

    fn wake_row(
        &mut self,
        ci: usize,
        values: &[Option<bool>],
        forced: &mut Vec<(Var, bool)>,
    ) -> bool {
        match self.rows[ci] {
            Row::Linear { slot, op, terms } => {
                let (lo, hi) = self.bounds[slot];
                // `Some(true)`: the expression must take its minimum
                // (positive terms to 0, negative to 1); `Some(false)`:
                // its maximum.
                let at_min = match op {
                    CmpOp::Eq if lo > 0 || hi < 0 => return false,
                    CmpOp::Le if lo > 0 => return false,
                    CmpOp::Ge if hi < 0 => return false,
                    CmpOp::Eq | CmpOp::Le if lo == 0 => Some(true),
                    CmpOp::Eq | CmpOp::Ge if hi == 0 => Some(false),
                    _ => None,
                };
                // `lo == hi` leaves no unassigned term to force.
                if let Some(at_min) = at_min.filter(|_| lo < hi) {
                    for &(u, c) in terms {
                        if values[u.index()].is_none() {
                            forced.push((u, (c < 0) == at_min));
                        }
                    }
                }
                true
            }
            Row::LexLess { first, digits } => {
                // Feasible iff for some digit: all earlier digits can
                // be equal and this one can be strictly less.
                for d in 0..digits {
                    let (llo, lhi) = self.bounds[first + 2 * d];
                    let (rlo, rhi) = self.bounds[first + 2 * d + 1];
                    if llo < rhi {
                        return true;
                    }
                    if llo > rhi || rlo > lhi {
                        return false;
                    }
                }
                false
            }
            Row::NotEqual { first, digits } => {
                let open = |d: usize| {
                    let (llo, lhi) = self.bounds[first + 2 * d];
                    let (rlo, rhi) = self.bounds[first + 2 * d + 1];
                    !(llo == lhi && rlo == rhi && llo == rlo)
                };
                let watched = self.open_digit[ci];
                match (watched..digits).chain(0..watched).find(|&d| open(d)) {
                    Some(d) => {
                        self.open_digit[ci] = d;
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// Whether every constraint holds. Under a total assignment each
    /// slot's `lo` is its expression's value.
    pub(crate) fn all_hold(&self) -> bool {
        let value = |slot: usize| {
            let (lo, hi) = self.bounds[slot];
            debug_assert_eq!(lo, hi, "leaf check requires a total assignment");
            lo
        };
        self.rows.iter().all(|row| match *row {
            Row::Linear { slot, op, .. } => {
                let v = value(slot);
                match op {
                    CmpOp::Eq => v == 0,
                    CmpOp::Le => v <= 0,
                    CmpOp::Ge => v >= 0,
                }
            }
            Row::LexLess { first, digits } => (0..digits)
                .map(|d| value(first + 2 * d).cmp(&value(first + 2 * d + 1)))
                .find(|o| o.is_ne())
                .is_some_and(|o| o.is_lt()),
            Row::NotEqual { first, digits } => {
                (0..digits).any(|d| value(first + 2 * d) != value(first + 2 * d + 1))
            }
        })
    }

    /// Whether every slot's running bounds and free-term count equal
    /// [`LinExpr::bounds`] and the unassigned terms recounted from
    /// `values` — the kernel's invariant, checked by the solver in
    /// debug builds.
    pub(crate) fn matches(&self, values: &[Option<bool>]) -> bool {
        let value = |u: Var| values[u.index()];
        self.constraints
            .iter()
            .flat_map(expressions)
            .zip(self.bounds.iter().zip(&self.free))
            .all(|(expr, (&b, &free))| {
                let recount = expr
                    .terms()
                    .iter()
                    .filter(|&&(u, _)| value(u).is_none())
                    .count();
                expr.bounds(&value) == b && recount == free as usize
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(terms: &[(u32, i32)], c: i64) -> LinExpr {
        let mut e = LinExpr::new();
        for &(v, k) in terms {
            e.push(Var(v), k);
        }
        e.add_constant(c);
        e
    }

    fn linear(terms: &[(u32, i32)], c: i64, op: CmpOp) -> Constraint {
        Constraint::Linear {
            expr: expr(terms, c),
            op,
        }
    }

    /// Assigns `assignment` in order, checking the invariant after
    /// each step.
    fn assign_all(
        table: &mut SlotTable<'_>,
        values: &mut [Option<bool>],
        assignment: &[(u32, bool)],
    ) {
        for &(v, b) in assignment {
            values[v as usize] = Some(b);
            table.assign(Var(v), b);
            assert!(table.matches(values));
        }
    }

    /// A small xorshift generator, so the sequences are reproducible.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// `matches` recomputes both the bounds and the free-term count of
    /// every slot, so each step checks the counts against a recount.
    #[test]
    fn random_assign_unwind_sequences_keep_bounds_exact() {
        const N: usize = 8;
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..200 {
            let mut constraints = Vec::new();
            for ci in 0..4 {
                let mut e = LinExpr::new();
                for v in 0..N as u32 {
                    if rng.below(2) == 0 {
                        e.push(Var(v), rng.below(9) as i32 - 4);
                    }
                }
                e.add_constant(rng.below(7) as i64 - 3);
                let op = [CmpOp::Eq, CmpOp::Le, CmpOp::Ge][ci % 3];
                constraints.push(Constraint::Linear { expr: e, op });
            }
            let mut table = SlotTable::new(&constraints, N);
            let mut values = vec![None; N];
            let mut trail: Vec<Var> = Vec::new();
            for _ in 0..40 {
                let unassigned: Vec<usize> = (0..N).filter(|&v| values[v].is_none()).collect();
                if !unassigned.is_empty() && rng.below(3) != 0 {
                    let v = unassigned[rng.below(unassigned.len() as u64) as usize];
                    let b = rng.below(2) == 0;
                    values[v] = Some(b);
                    table.assign(Var(v as u32), b);
                    trail.push(Var(v as u32));
                } else {
                    let keep = rng.below(trail.len() as u64 + 1) as usize;
                    while trail.len() > keep {
                        let Some(v) = trail.pop() else { break };
                        let Some(b) = values[v.index()].take() else {
                            unreachable!("trailed variables are assigned")
                        };
                        table.retract(v, b);
                    }
                }
                assert!(table.matches(&values));
            }
            table.reset();
            assert!(table.matches(&[None; N]));
        }
    }

    #[test]
    fn fewest_free_linear_skips_lex_rows_and_assigned_terms() {
        let constraints = [
            linear(&[(0, 1), (1, 1), (2, 1)], 0, CmpOp::Le),
            Constraint::LexLess {
                lhs: vec![expr(&[(3, 1)], 0)],
                rhs: vec![expr(&[(0, 1)], 0)],
            },
            linear(&[(1, 1), (3, -1)], 0, CmpOp::Ge),
            linear(&[(2, 2), (3, 1)], 0, CmpOp::Eq),
        ];
        let mut table = SlotTable::new(&constraints, 4);
        let terms = |t: Option<&[(Var, i32)]>| t.map(<[_]>::to_vec);
        // Rows 2 and 3 tie at two free terms: the first wins.
        assert_eq!(
            terms(table.fewest_free_linear()),
            Some(vec![(Var(1), 1), (Var(3), -1)])
        );
        let mut values = [None; 4];
        assign_all(&mut table, &mut values, &[(2, true)]);
        assert_eq!(
            terms(table.fewest_free_linear()),
            Some(vec![(Var(2), 2), (Var(3), 1)])
        );
        assign_all(
            &mut table,
            &mut values,
            &[(0, false), (1, true), (3, false)],
        );
        assert_eq!(table.fewest_free_linear(), None);
        table.reset();
        assert!(table.matches(&[None; 4]));
    }

    #[test]
    fn linear_eq_detects_conflict_and_forces() {
        // x0 + x1 - 2 = 0 with x0 = 0 is infeasible.
        let constraints = [linear(&[(0, 1), (1, 1)], -2, CmpOp::Eq)];
        let mut table = SlotTable::new(&constraints, 2);
        let mut forced = Vec::new();
        // With nothing assigned, hi = 0 forces both to 1.
        assert!(table.wake_row(0, &[None, None], &mut forced));
        assert_eq!(forced, vec![(Var(0), true), (Var(1), true)]);
        let mut values = [None; 2];
        assign_all(&mut table, &mut values, &[(0, false)]);
        assert!(!table.wake(Var(0), &values, &mut forced));
    }

    #[test]
    fn linear_forcing_respects_negative_coefficients() {
        // x0 - x1 ≤ 0 with x0 = 1 forces x1 = 1 (minimum: negative to 1).
        let le = [linear(&[(0, 1), (1, -1)], 0, CmpOp::Le)];
        let mut table = SlotTable::new(&le, 2);
        let mut values = [None; 2];
        assign_all(&mut table, &mut values, &[(0, true)]);
        let mut forced = Vec::new();
        assert!(table.wake(Var(0), &values, &mut forced));
        assert_eq!(forced, vec![(Var(1), true)]);
        // -x0 + x1 - 1 ≥ 0 with nothing assigned: hi = 0 forces the
        // maximum, x0 = 0 and x1 = 1.
        let ge = [linear(&[(0, -1), (1, 1)], -1, CmpOp::Ge)];
        let mut table = SlotTable::new(&ge, 2);
        forced.clear();
        assert!(table.wake_row(0, &[None, None], &mut forced));
        assert_eq!(forced, vec![(Var(0), false), (Var(1), true)]);
    }

    #[test]
    fn lex_less_reads_digit_pairs() {
        // (x0) <lex (x1): x0 = 1 leaves equality possible but never
        // strictness.
        let constraints = [Constraint::LexLess {
            lhs: vec![expr(&[(0, 1)], 0)],
            rhs: vec![expr(&[(1, 1)], 0)],
        }];
        let mut table = SlotTable::new(&constraints, 2);
        let mut forced = Vec::new();
        assert!(table.wake_row(0, &[None, None], &mut forced));
        let mut values = [None; 2];
        assign_all(&mut table, &mut values, &[(0, true)]);
        assert!(!table.wake(Var(0), &values, &mut forced));
        // Backtrack and take the other branch.
        table.retract(Var(0), true);
        values = [None; 2];
        assign_all(&mut table, &mut values, &[(0, false), (1, true)]);
        assert!(table.wake(Var(1), &values, &mut forced));
        assert!(table.all_hold());
        assert!(forced.is_empty());
    }

    #[test]
    fn not_equal_conflicts_only_when_every_digit_is_fixed_equal() {
        let constraints = [Constraint::NotEqual {
            lhs: vec![expr(&[(0, 1)], 0)],
            rhs: vec![expr(&[(1, 1)], 0)],
        }];
        let mut table = SlotTable::new(&constraints, 2);
        let mut forced = Vec::new();
        let mut values = [None; 2];
        assign_all(&mut table, &mut values, &[(0, true)]);
        assert!(table.wake(Var(0), &values, &mut forced));
        assign_all(&mut table, &mut values, &[(1, true)]);
        assert!(!table.wake(Var(1), &values, &mut forced));
        assert!(!table.all_hold());
    }

    #[test]
    fn occurrences_follow_slot_order() {
        let constraints = [
            Constraint::LexLess {
                lhs: vec![expr(&[(0, 1), (2, 1)], 0)],
                rhs: vec![expr(&[(2, -1), (1, 1)], 0)],
            },
            linear(&[(2, 3)], 0, CmpOp::Le),
        ];
        let table = SlotTable::new(&constraints, 3);
        assert_eq!(table.occ_start, vec![0, 1, 2, 5]);
        assert_eq!(&table.occ[2..], &[(0, 1), (1, -1), (2, 3)]);
        assert_eq!(table.owner, vec![0, 0, 1]);
    }
}
