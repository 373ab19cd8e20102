//! Problem assembly: configuration-vector variables, constraints and
//! structural options.

use unfolding::{EventId, EventRelations};

use crate::constraint::{CmpOp, Constraint};
use crate::expr::{LinExpr, Var};

/// A verification problem over `sides` configuration vectors of a
/// prefix with `n` events (the paper's `x'`, `x''`, …).
///
/// Each variable is a component `x^{(s)}(e)`; unit propagation keeps
/// every side *Unf-compatible* (Theorem 1) unless closure is disabled
/// for the generic-solver ablation, in which case
/// [`Problem::add_compatibility_constraints`] should supply the
/// marking-equation inequalities instead.
#[derive(Debug, Clone)]
pub struct Problem<'a> {
    relations: &'a EventRelations,
    sides: usize,
    constraints: Vec<Constraint>,
    fixed: Vec<(Var, bool)>,
    subset_chain: bool,
}

impl<'a> Problem<'a> {
    /// Creates a problem over `sides` configuration vectors.
    ///
    /// # Panics
    ///
    /// Panics if `sides == 0`.
    pub fn new(relations: &'a EventRelations, sides: usize) -> Self {
        assert!(sides >= 1, "a problem needs at least one vector");
        Problem {
            relations,
            sides,
            constraints: Vec::new(),
            fixed: Vec::new(),
            subset_chain: false,
        }
    }

    /// The variable for component `x^{(side)}(event)`.
    ///
    /// # Panics
    ///
    /// Panics if `side` or `event` is out of range.
    pub fn var(&self, side: usize, event: EventId) -> Var {
        assert!(side < self.sides, "side out of range");
        assert!(
            event.index() < self.relations.num_events(),
            "event out of range"
        );
        Var((side * self.relations.num_events() + event.index()) as u32)
    }

    /// Splits a variable back into `(side, event)`.
    pub fn side_event(&self, v: Var) -> (usize, EventId) {
        let n = self.relations.num_events();
        (v.index() / n, EventId::from_index(v.index() % n))
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.sides * self.relations.num_events()
    }

    /// Number of configuration vectors.
    pub fn sides(&self) -> usize {
        self.sides
    }

    /// The underlying event relations.
    pub fn relations(&self) -> &'a EventRelations {
        self.relations
    }

    /// Adds a linear constraint `expr ⋈ 0`.
    pub fn add_linear(&mut self, expr: LinExpr, op: CmpOp) {
        self.constraints.push(Constraint::Linear { expr, op });
    }

    /// Adds a lexicographic order constraint `lhs <lex rhs`.
    pub fn add_lex_less(&mut self, lhs: Vec<LinExpr>, rhs: Vec<LinExpr>) {
        assert_eq!(lhs.len(), rhs.len(), "digit vectors must align");
        self.constraints.push(Constraint::LexLess { lhs, rhs });
    }

    /// Adds a disequality constraint `lhs ≠ rhs`.
    pub fn add_not_equal(&mut self, lhs: Vec<LinExpr>, rhs: Vec<LinExpr>) {
        assert_eq!(lhs.len(), rhs.len(), "digit vectors must align");
        self.constraints.push(Constraint::NotEqual { lhs, rhs });
    }

    /// Fixes a variable before search (the paper's cut-off
    /// constraints `x(e) = 0`).
    pub fn fix(&mut self, v: Var, value: bool) {
        self.fixed.push((v, value));
    }

    /// Fixes `x^{(s)}(e) = 0` for every cut-off event `e` and side
    /// `s`, given the cut-off predicate.
    pub fn fix_cutoffs(&mut self, is_cutoff: impl Fn(EventId) -> bool) {
        for e in 0..self.relations.num_events() {
            let e = EventId::from_index(e);
            if is_cutoff(e) {
                for s in 0..self.sides {
                    self.fixed.push((self.var(s, e), false));
                }
            }
        }
    }

    /// Enables the §7 conflict-free optimisation: restricts the
    /// search to `x^{(0)} ⊆ x^{(1)}` (requires exactly two sides).
    ///
    /// # Panics
    ///
    /// Panics unless `sides == 2`.
    pub fn set_subset_chain(&mut self) {
        assert_eq!(self.sides, 2, "subset chaining is defined for pairs");
        self.subset_chain = true;
    }

    /// Whether subset chaining is enabled.
    pub fn subset_chain(&self) -> bool {
        self.subset_chain
    }

    /// The static decision order: descending event id, interleaving
    /// the sides so paired decisions stay close. The solver's
    /// fail-first rule breaks ties by it, and decides by it alone
    /// once every `Linear` constraint is assigned.
    pub(crate) fn decision_order_or_default(&self) -> Vec<Var> {
        let n = self.relations.num_events();
        let mut order = Vec::with_capacity(self.num_vars());
        for e in (0..n).rev() {
            for s in 0..self.sides {
                order.push(Var((s * n + e) as u32));
            }
        }
        order
    }

    pub(crate) fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    pub(crate) fn fixed(&self) -> &[(Var, bool)] {
        &self.fixed
    }

    /// Adds the explicit compatibility (marking-equation)
    /// constraints `M_in(b) + Σ_{f ∈ •b} x(f) − Σ_{f ∈ b•} x(f) ≥ 0`
    /// for every condition of the prefix and every side. These are
    /// redundant when closure propagation is on (§4: every
    /// Unf-compatible vector satisfies them) and are used by the
    /// generic-IP ablation with closure off.
    pub fn add_compatibility_constraints(&mut self, prefix: &unfolding::Prefix) {
        for s in 0..self.sides {
            for b in prefix.conditions() {
                let mut expr = LinExpr::new();
                match prefix.cond_producer(b) {
                    None => expr.add_constant(1),
                    Some(e) => expr.push(self.var(s, e), 1),
                }
                for &e in prefix.cond_consumers(b) {
                    expr.push(self.var(s, e), -1);
                }
                self.add_linear(expr, CmpOp::Ge);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petri::{Marking, NetBuilder};
    use unfolding::{Prefix, UnfoldOptions};

    fn tiny() -> (Prefix, EventRelations) {
        let mut b = NetBuilder::new();
        let p = b.add_place("p");
        let q = b.add_place("q");
        let t = b.add_transition("t");
        b.arc_pt(p, t).unwrap();
        b.arc_tp(t, q).unwrap();
        let net = b.build().unwrap();
        let m0 = Marking::with_tokens(2, &[(p, 1)]);
        let prefix = Prefix::unfold(&net, &m0, UnfoldOptions::default()).unwrap();
        let rel = EventRelations::of(&prefix);
        (prefix, rel)
    }

    #[test]
    fn variable_indexing_roundtrips() {
        let (_prefix, rel) = tiny();
        let p = Problem::new(&rel, 2);
        let v = p.var(1, EventId::from_index(0));
        assert_eq!(p.side_event(v), (1, EventId::from_index(0)));
        assert_eq!(p.num_vars(), 2);
    }

    #[test]
    fn default_decision_order_covers_all_vars() {
        let (_prefix, rel) = tiny();
        let p = Problem::new(&rel, 2);
        let order = p.decision_order_or_default();
        assert_eq!(order.len(), 2);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 2);
    }

    #[test]
    fn compatibility_constraints_cover_conditions() {
        let (prefix, rel) = tiny();
        let mut p = Problem::new(&rel, 1);
        p.add_compatibility_constraints(&prefix);
        assert_eq!(p.constraints().len(), prefix.num_conditions());
    }

    #[test]
    #[should_panic(expected = "side out of range")]
    fn out_of_range_side_panics() {
        let (_prefix, rel) = tiny();
        let p = Problem::new(&rel, 1);
        p.var(1, EventId::from_index(0));
    }
}
