//! The unfolding + integer-programming checker.

use std::cell::Cell;
use std::sync::Arc;

use ilp::{AbortCause, CmpOp, LinExpr, Problem, Solver, SolverOptions};
use petri::{BitSet, StopGuard};
use stg::{Signal, Stg};
use unfolding::{EventRelations, Prefix, UnfoldOptions};

use crate::error::CheckError;
use crate::exprs::{code_diff_expr, marking_exprs};
use crate::witness::{ConflictKind, ConflictWitness, NormalcyWitness};

/// Options of a [`Checker`].
///
/// The explicit marking-equation compatibility constraints
/// (`M_in + I·x ≥ 0`) follow `solver.use_closure`: they are redundant
/// while closure propagation is on, and added exactly when it is off
/// (the generic-solver reference of Theorem 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckerOptions {
    /// Prefix-construction options.
    pub unfold: UnfoldOptions,
    /// Search-engine options.
    pub solver: SolverOptions,
}

/// The pairs `(C′, C″)` a conflict search ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairSpace {
    /// Every pair with `M⁰ <lex M¹` (symmetry breaking only).
    Lex,
    /// The §7 subset chain `C′ ⊆ C″` (Proposition 1).
    Chain,
    /// The minimal pairs of the subset chain: `C′ = ↓D ∖ D` with
    /// `D = C″ ∖ C′`. They keep every code difference and marking
    /// difference of the chain, so USC is decided on them alone.
    MinimalChain,
}

/// Verdict of a USC/CSC check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The property holds: the search space was exhausted without a
    /// conflict.
    Satisfied,
    /// A conflict was found; the witness carries execution paths.
    Conflict(Box<ConflictWitness>),
}

impl CheckOutcome {
    /// Whether the property holds.
    pub fn is_satisfied(&self) -> bool {
        matches!(self, CheckOutcome::Satisfied)
    }
}

/// Normalcy verdict for one signal (§6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalcyOutcome {
    /// The signal checked.
    pub signal: Signal,
    /// Whether p-normalcy holds.
    pub p_normal: bool,
    /// Whether n-normalcy holds.
    pub n_normal: bool,
    /// Witness of the p-normalcy violation, if any.
    pub p_witness: Option<Box<NormalcyWitness>>,
    /// Witness of the n-normalcy violation, if any.
    pub n_witness: Option<Box<NormalcyWitness>>,
}

impl NormalcyOutcome {
    /// A signal is normal iff it is p-normal or n-normal.
    pub fn is_normal(&self) -> bool {
        self.p_normal || self.n_normal
    }
}

/// Normalcy verdicts for all circuit-driven signals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalcyReport {
    /// Per-signal outcomes, in signal order.
    pub outcomes: Vec<NormalcyOutcome>,
}

impl NormalcyReport {
    /// Whether the STG is normal (every signal p- or n-normal).
    pub fn is_normal(&self) -> bool {
        self.outcomes.iter().all(NormalcyOutcome::is_normal)
    }
}

/// The unfolding-based coding-conflict checker. Builds the prefix
/// once; each query assembles and solves an integer program over it.
///
/// The prefix and its event relations live behind [`Arc`]s, so a
/// checker can also be constructed from a shared
/// [`crate::artifact::Artifacts`] stage ([`Checker::from_artifact`])
/// without re-unfolding — `check_usc` followed by `check_csc`, or the
/// same STG checked by several threads, pay for one prefix.
///
/// See the crate-level example.
#[derive(Debug)]
pub struct Checker<'a> {
    stg: &'a Stg,
    options: CheckerOptions,
    prefix: Arc<Prefix>,
    relations: Arc<EventRelations>,
    /// Stop guard installed into every solver this checker spawns.
    guard: StopGuard,
    /// Cumulative solver propagations across all queries, for
    /// resource reporting.
    solver_steps: Cell<u64>,
}

impl<'a> Checker<'a> {
    /// Builds a checker with default options.
    ///
    /// # Errors
    ///
    /// Fails if the STG's net system is not safe or prefix
    /// construction exceeds its event limit.
    pub fn new(stg: &'a Stg) -> Result<Self, CheckError> {
        Self::with_options(stg, CheckerOptions::default())
    }

    /// Builds a checker with explicit options.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Checker::new`].
    pub fn with_options(stg: &'a Stg, options: CheckerOptions) -> Result<Self, CheckError> {
        Self::with_options_guarded(stg, options, StopGuard::unlimited())
    }

    /// Builds a checker whose prefix construction and every
    /// subsequent solver run poll `guard`, so a cancellation flag or
    /// wall-clock deadline interrupts the work cooperatively.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Checker::new`], plus
    /// [`unfolding::UnfoldError::Interrupted`] (wrapped in
    /// [`CheckError::Unfold`]) when the guard fires during prefix
    /// construction.
    pub fn with_options_guarded(
        stg: &'a Stg,
        options: CheckerOptions,
        guard: StopGuard,
    ) -> Result<Self, CheckError> {
        let prefix = Prefix::of_stg_shared(stg, options.unfold, &guard)?;
        let relations = Arc::new(EventRelations::of(&prefix));
        Ok(Self::from_artifact(stg, prefix, relations, options, guard))
    }

    /// Builds a checker over an *already built* shared prefix and its
    /// event relations — the warm path of the artifact pipeline: no
    /// unfolding happens here. The caller is responsible for the
    /// artifact actually belonging to `stg` (the
    /// [`crate::artifact::Artifacts`] container maintains that
    /// invariant).
    pub fn from_artifact(
        stg: &'a Stg,
        prefix: Arc<Prefix>,
        relations: Arc<EventRelations>,
        options: CheckerOptions,
        guard: StopGuard,
    ) -> Self {
        Checker {
            stg,
            options,
            prefix,
            relations,
            guard,
            solver_steps: Cell::new(0),
        }
    }

    /// Cumulative solver propagation steps across all queries issued
    /// through this checker (including aborted ones).
    pub fn solver_steps(&self) -> u64 {
        self.solver_steps.get()
    }

    /// The STG under analysis.
    pub fn stg(&self) -> &'a Stg {
        self.stg
    }

    /// The finite complete prefix.
    pub fn prefix(&self) -> &Prefix {
        &self.prefix
    }

    /// The precomputed event relations.
    pub fn relations(&self) -> &EventRelations {
        &self.relations
    }

    /// The options in effect.
    pub fn options(&self) -> &CheckerOptions {
        &self.options
    }

    /// A fresh pair problem with cut-off constraints (and, with
    /// closure propagation off, compatibility constraints).
    pub(crate) fn base_problem(&self, sides: usize) -> Problem<'_> {
        let mut problem = Problem::new(&self.relations, sides);
        let prefix = &self.prefix;
        problem.fix_cutoffs(|e| prefix.is_cutoff(e));
        if !self.options.solver.use_closure {
            problem.add_compatibility_constraints(prefix);
        }
        problem
    }

    /// Adds the §3 conflict constraints `Code(x⁰) = Code(x¹)`.
    fn add_code_equality(&self, problem: &mut Problem<'_>) {
        for z in self.stg.signals() {
            let expr = code_diff_expr(problem, &self.prefix, self.stg, z);
            problem.add_linear(expr, CmpOp::Eq);
        }
    }

    /// A pair problem for the §3 conflict constraints
    /// `Code(x⁰) = Code(x¹)` and `M⁰ ≠ M¹`, searched over `space` when
    /// the prefix admits it. Returns the problem and the space actually
    /// applied: the §7 spaces need a dynamically conflict-free prefix,
    /// and fall back to [`PairSpace::Lex`] otherwise.
    fn conflict_problem(&self, space: PairSpace) -> (Problem<'_>, PairSpace) {
        let mut problem = self.base_problem(2);
        self.add_code_equality(&mut problem);
        let space = self.add_separation(&mut problem, space);
        (problem, space)
    }

    /// Adds the separating constraint `M⁰ ≠ M¹` — as `M⁰ <lex M¹` in
    /// general (symmetry breaking), or as plain disequality plus the
    /// subset restriction when the §7 optimisation applies — and
    /// returns the space applied.
    fn add_separation(&self, problem: &mut Problem<'_>, space: PairSpace) -> PairSpace {
        let np = self.stg.net().num_places();
        let lhs = marking_exprs(problem, &self.prefix, np, 0);
        let rhs = marking_exprs(problem, &self.prefix, np, 1);
        if space == PairSpace::Lex || !self.prefix.is_dynamically_conflict_free() {
            problem.add_lex_less(lhs, rhs);
            return PairSpace::Lex;
        }
        problem.set_subset_chain();
        problem.add_not_equal(lhs, rhs);
        if space == PairSpace::MinimalChain {
            self.add_minimal_pair_rows(problem);
        }
        space
    }

    /// Adds `x⁰(e) ≤ Σ_{f ∈ e••, f not a cut-off} x¹(f)` for every
    /// non-cut-off event `e`: every event of `C′` has an immediate
    /// successor in `C″`. Under the subset chain this pins `C′` to
    /// `↓D ∖ D` with `D = C″ ∖ C′` (docs/THEORY.md §7, minimal pairs).
    fn add_minimal_pair_rows(&self, problem: &mut Problem<'_>) {
        let prefix = &self.prefix;
        for e in prefix.events().filter(|&e| !prefix.is_cutoff(e)) {
            let mut expr = LinExpr::new();
            expr.push(problem.var(0, e), 1);
            for &b in prefix.event_postset(e) {
                for &f in prefix.cond_consumers(b) {
                    if !prefix.is_cutoff(f) {
                        expr.push(problem.var(1, f), -1);
                    }
                }
            }
            problem.add_linear(expr, CmpOp::Le);
        }
    }

    fn make_witness(
        &self,
        kind: ConflictKind,
        sides: &[BitSet],
    ) -> Result<Box<ConflictWitness>, CheckError> {
        let prefix = &self.prefix;
        let config1 = sides[0].clone();
        let config2 = sides[1].clone();
        let marking1 = prefix.marking_of(&config1);
        let marking2 = prefix.marking_of(&config2);
        let code = self
            .stg
            .initial_code()
            .apply(&prefix.change_vector(self.stg, &config1))
            .ok_or(CheckError::InconsistentCodes)?;
        let out1 = self.stg.enabled_local_signals(&marking1);
        let out2 = self.stg.enabled_local_signals(&marking2);
        Ok(Box::new(ConflictWitness {
            kind,
            sequence1: prefix.firing_sequence(&config1),
            sequence2: prefix.firing_sequence(&config2),
            config1,
            config2,
            marking1,
            marking2,
            code,
            out1,
            out2,
        }))
    }

    pub(crate) fn run_pair_search(
        &self,
        problem: &Problem<'_>,
        accept: impl FnMut(&[BitSet]) -> bool,
    ) -> Result<Option<Vec<BitSet>>, CheckError> {
        self.search_after(problem, 0, accept)
    }

    /// [`Checker::run_pair_search`] for a query that has already spent
    /// `spent` solver steps: the step budget bounds the query as a
    /// whole, and an abort reports the query's totals.
    fn search_after(
        &self,
        problem: &Problem<'_>,
        spent: u64,
        mut accept: impl FnMut(&[BitSet]) -> bool,
    ) -> Result<Option<Vec<BitSet>>, CheckError> {
        let max_steps = self.options.solver.max_steps;
        let options = SolverOptions {
            max_steps: max_steps.saturating_sub(spent),
            ..self.options.solver
        };
        let mut solver = Solver::new(problem, options);
        solver.set_guard(self.guard.clone());
        let solution = solver.solve_checked(&mut accept);
        self.solver_steps
            .set(self.solver_steps.get() + solver.stats().propagations);
        solution.map_err(|mut e| {
            if let AbortCause::StepLimit(_) = e.cause {
                e.cause = AbortCause::StepLimit(max_steps);
            }
            e.stats.propagations += spent;
            CheckError::from(e)
        })
    }

    /// Checks the Unique State Coding property (§3). On conflict the
    /// witness carries two execution paths to distinct markings with
    /// equal codes.
    ///
    /// # Errors
    ///
    /// [`CheckError::Solve`] if the solver was aborted (step budget,
    /// cancellation or deadline) before reaching a verdict.
    pub fn check_usc(&self) -> Result<CheckOutcome, CheckError> {
        let (problem, _) = self.conflict_problem(PairSpace::MinimalChain);
        match self.run_pair_search(&problem, |_| true)? {
            Some(sides) => Ok(CheckOutcome::Conflict(
                self.make_witness(ConflictKind::Usc, &sides)?,
            )),
            None => Ok(CheckOutcome::Satisfied),
        }
    }

    /// Checks the Complete State Coding property (§3). As the paper
    /// prescribes, the solver searches for USC conflicts and decides
    /// the non-linear `Out(M') ≠ Out(M'')` side condition at each
    /// total assignment "directly from the STG", continuing the
    /// search through USC conflicts that are not CSC conflicts.
    ///
    /// On a conflict-free prefix the search runs in two phases, both
    /// within one step budget. The first searches the minimal pairs
    /// only (`C′ = ↓D ∖ D`, `D = C″ ∖ C′`): an accepted pair is a CSC
    /// conflict, and no USC conflict at all proves CSC. `Out` depends
    /// on `C′` itself, not only on `C″ ∖ C′`, so when the first phase
    /// met USC conflicts but accepted none, the second phase searches
    /// the whole subset chain.
    ///
    /// # Errors
    ///
    /// [`CheckError::Solve`] if the solver was aborted (step budget,
    /// cancellation or deadline) before reaching a verdict.
    pub fn check_csc(&self) -> Result<CheckOutcome, CheckError> {
        let prefix = &self.prefix;
        let stg = self.stg;
        let accept = |sides: &[BitSet]| {
            let out1 = stg.enabled_local_signals(&prefix.marking_of(&sides[0]));
            let out2 = stg.enabled_local_signals(&prefix.marking_of(&sides[1]));
            out1 != out2
        };
        let before = self.solver_steps();
        let (problem, space) = self.conflict_problem(PairSpace::MinimalChain);
        let mut usc_conflicts = 0u64;
        let mut found = self.run_pair_search(&problem, |sides| {
            usc_conflicts += 1;
            accept(sides)
        })?;
        if found.is_none() && space == PairSpace::MinimalChain && usc_conflicts > 0 {
            let (problem, _) = self.conflict_problem(PairSpace::Chain);
            found = self.search_after(&problem, self.solver_steps() - before, accept)?;
        }
        match found {
            Some(sides) => Ok(CheckOutcome::Conflict(
                self.make_witness(ConflictKind::Csc, &sides)?,
            )),
            None => Ok(CheckOutcome::Satisfied),
        }
    }

    /// Enumerates *all* coding conflicts of the given kind, up to
    /// `limit` distinct marking pairs (Petrify-style exhaustive
    /// characterisation, but produced by the IP engine). Distinct
    /// configuration pairs reaching the same marking pair are
    /// deduplicated.
    ///
    /// # Errors
    ///
    /// [`CheckError::Solve`] if the solver was aborted (step budget,
    /// cancellation or deadline) before reaching a verdict.
    pub fn enumerate_conflicts(
        &self,
        kind: ConflictKind,
        limit: usize,
    ) -> Result<Vec<ConflictWitness>, CheckError> {
        // Full enumeration must not use the §7 subset restriction:
        // Proposition 1 preserves *existence* of conflicts under the
        // restriction, not the complete set of conflicting pairs.
        let (problem, _) = self.conflict_problem(PairSpace::Lex);
        let prefix = &self.prefix;
        let stg = self.stg;
        let mut seen: std::collections::HashSet<(petri::Marking, petri::Marking)> =
            std::collections::HashSet::new();
        let mut witnesses = Vec::new();
        // The accept closure must return a bool, so a witness-building
        // failure (inconsistent codes) is latched here and re-raised
        // after the search.
        let mut inconsistent = false;
        let accept = |sides: &[BitSet]| {
            let m1 = prefix.marking_of(&sides[0]);
            let m2 = prefix.marking_of(&sides[1]);
            if kind == ConflictKind::Csc {
                let out1 = stg.enabled_local_signals(&m1);
                let out2 = stg.enabled_local_signals(&m2);
                if out1 == out2 {
                    return false;
                }
            }
            let key = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
            if seen.insert(key) {
                match self.make_witness(kind, sides) {
                    Ok(w) => witnesses.push(w),
                    Err(_) => {
                        inconsistent = true;
                        return true; // stop the search
                    }
                }
            }
            witnesses.len() >= limit // accept (stop) only at the cap
        };
        self.run_pair_search(&problem, accept)?;
        if inconsistent {
            return Err(CheckError::InconsistentCodes);
        }
        Ok(witnesses.into_iter().map(|b| *b).collect())
    }

    /// Searches for a violation pair of p-normalcy (`positive =
    /// true`) or n-normalcy (`positive = false`) of signal `z`:
    /// `Code(M⁰) ≤ Code(M¹)` with discordant `Nxt_z` (§6).
    fn find_normalcy_violation(
        &self,
        z: Signal,
        positive: bool,
    ) -> Result<Option<Box<NormalcyWitness>>, CheckError> {
        let mut problem = self.base_problem(2);
        // Code(x⁰) ≤ Code(x¹) componentwise: diff_z' ≤ 0 per signal.
        for zz in self.stg.signals() {
            let expr = code_diff_expr(&problem, &self.prefix, self.stg, zz);
            problem.add_linear(expr, CmpOp::Le);
        }
        let prefix = &self.prefix;
        let stg = self.stg;
        // `None` from the code application means the STG is
        // inconsistent; the accept closure latches that as an error.
        let evaluate = |sides: &[BitSet]| {
            let m1 = prefix.marking_of(&sides[0]);
            let m2 = prefix.marking_of(&sides[1]);
            let c1 = stg
                .initial_code()
                .apply(&prefix.change_vector(stg, &sides[0]))?;
            let c2 = stg
                .initial_code()
                .apply(&prefix.change_vector(stg, &sides[1]))?;
            let n1 = stg.next_state(&m1, &c1, z);
            let n2 = stg.next_state(&m2, &c2, z);
            Some((m1, m2, c1, c2, n1, n2))
        };
        let mut inconsistent = false;
        let accept = |sides: &[BitSet]| {
            let Some((_, _, _, _, n1, n2)) = evaluate(sides) else {
                inconsistent = true;
                return true; // stop the search
            };
            if positive {
                n1 && !n2 // Nxt(M') > Nxt(M'') refutes p-normalcy
            } else {
                !n1 && n2 // Nxt(M') < Nxt(M'') refutes n-normalcy
            }
        };
        let found = self.run_pair_search(&problem, accept)?;
        if inconsistent {
            return Err(CheckError::InconsistentCodes);
        }
        match found {
            None => Ok(None),
            Some(sides) => {
                let (m1, m2, c1, c2, n1, n2) =
                    evaluate(&sides).ok_or(CheckError::InconsistentCodes)?;
                Ok(Some(Box::new(NormalcyWitness {
                    signal: z,
                    sequence1: prefix.firing_sequence(&sides[0]),
                    sequence2: prefix.firing_sequence(&sides[1]),
                    marking1: m1,
                    marking2: m2,
                    code1: c1,
                    code2: c2,
                    nxt1: n1,
                    nxt2: n2,
                })))
            }
        }
    }

    /// Checks p/n-normalcy of one signal.
    ///
    /// # Errors
    ///
    /// [`CheckError::Solve`] if the solver was aborted (step budget,
    /// cancellation or deadline) before reaching a verdict.
    pub fn check_normalcy_of(&self, z: Signal) -> Result<NormalcyOutcome, CheckError> {
        let p_witness = self.find_normalcy_violation(z, true)?;
        let n_witness = self.find_normalcy_violation(z, false)?;
        Ok(NormalcyOutcome {
            signal: z,
            p_normal: p_witness.is_none(),
            n_normal: n_witness.is_none(),
            p_witness,
            n_witness,
        })
    }

    /// Checks normalcy of every circuit-driven signal (§6).
    ///
    /// # Errors
    ///
    /// [`CheckError::Solve`] if the solver was aborted (step budget,
    /// cancellation or deadline) before reaching a verdict.
    pub fn check_normalcy(&self) -> Result<NormalcyReport, CheckError> {
        let outcomes = self
            .stg
            .local_signals()
            .map(|z| self.check_normalcy_of(z))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(NormalcyReport { outcomes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness::ConflictKind;
    use stg::gen::arbiter::mutex_arbiter;
    use stg::gen::counterflow::counterflow_sym;
    use stg::gen::duplex::{dup_4ph, dup_mod};
    use stg::gen::ring::{eager_ring, lazy_ring};
    use stg::gen::vme::{vme_read, vme_read_csc_resolved};
    use stg::StateGraph;
    use unfolding::EventId;

    #[test]
    fn vme_csc_conflict_matches_fig1() {
        let stg = vme_read();
        let checker = Checker::new(&stg).unwrap();
        let outcome = checker.check_csc().unwrap();
        let CheckOutcome::Conflict(w) = outcome else {
            panic!("vme_read must have a CSC conflict");
        };
        assert_eq!(w.kind, ConflictKind::Csc);
        assert!(w.replay(&stg));
        assert_eq!(w.code.to_string(), "10110");
        assert_ne!(w.out1, w.out2);
    }

    #[test]
    fn vme_usc_also_fails() {
        let stg = vme_read();
        let checker = Checker::new(&stg).unwrap();
        let CheckOutcome::Conflict(w) = checker.check_usc().unwrap() else {
            panic!("expected conflict");
        };
        assert!(w.replay(&stg));
    }

    #[test]
    fn resolved_vme_satisfies_csc_but_not_normalcy() {
        let stg = vme_read_csc_resolved();
        let checker = Checker::new(&stg).unwrap();
        assert!(checker.check_csc().unwrap().is_satisfied());
        let csc = stg.signal_by_name("csc").unwrap();
        let outcome = checker.check_normalcy_of(csc).unwrap();
        assert!(!outcome.p_normal);
        assert!(!outcome.n_normal);
        assert!(outcome.p_witness.unwrap().replay(&stg));
        assert!(outcome.n_witness.unwrap().replay(&stg));
        assert!(!checker.check_normalcy().unwrap().is_normal());
    }

    #[test]
    fn counterflow_is_conflict_free() {
        let stg = counterflow_sym(2, 2);
        let checker = Checker::new(&stg).unwrap();
        assert!(checker.check_usc().unwrap().is_satisfied());
        assert!(checker.check_csc().unwrap().is_satisfied());
    }

    #[test]
    fn agreement_with_explicit_oracle() {
        let cases: Vec<stg::Stg> = vec![
            vme_read(),
            vme_read_csc_resolved(),
            lazy_ring(2),
            lazy_ring(3),
            dup_4ph(1, false),
            dup_4ph(1, true),
            dup_4ph(2, false),
            dup_mod(2),
            counterflow_sym(2, 2),
            counterflow_sym(3, 1),
        ];
        for (i, stg) in cases.iter().enumerate() {
            let sg = StateGraph::build(stg, Default::default()).unwrap();
            let checker = Checker::new(stg).unwrap();
            assert_eq!(
                checker.check_usc().unwrap().is_satisfied(),
                sg.satisfies_usc(),
                "usc disagreement on case {i}"
            );
            assert_eq!(
                checker.check_csc().unwrap().is_satisfied(),
                sg.satisfies_csc(stg),
                "csc disagreement on case {i}"
            );
        }
    }

    #[test]
    fn normalcy_agrees_with_explicit_oracle() {
        let cases: Vec<stg::Stg> = vec![
            vme_read_csc_resolved(),
            counterflow_sym(2, 2),
            dup_4ph(1, true),
            lazy_ring(2),
        ];
        for (i, stg) in cases.iter().enumerate() {
            let sg = StateGraph::build(stg, Default::default()).unwrap();
            let checker = Checker::new(stg).unwrap();
            for z in stg.local_signals() {
                let ours = checker.check_normalcy_of(z).unwrap();
                let oracle = sg.normalcy_of(stg, z);
                assert_eq!(ours.p_normal, oracle.p_normal, "case {i}, signal {z:?}");
                assert_eq!(ours.n_normal, oracle.n_normal, "case {i}, signal {z:?}");
            }
        }
    }

    #[test]
    fn ablation_modes_agree() {
        let stg = vme_read();
        // Generic-IP mode: no closure, explicit compatibility.
        let mut options = CheckerOptions::default();
        options.solver.use_closure = false;
        let generic = Checker::with_options(&stg, options).unwrap();
        let CheckOutcome::Conflict(w) = generic.check_csc().unwrap() else {
            panic!("generic mode must also find the conflict");
        };
        assert!(w.replay(&stg));
    }

    #[test]
    fn closure_off_alone_brings_the_compatibility_constraints() {
        let mut options = CheckerOptions::default();
        options.solver.use_closure = false;
        for stg in [counterflow_sym(2, 2), dup_4ph(1, true)] {
            let checker = Checker::with_options(&stg, options).unwrap();
            assert!(checker.check_usc().unwrap().is_satisfied());
            assert!(checker.check_csc().unwrap().is_satisfied());
        }
        let stg = vme_read();
        let checker = Checker::with_options(&stg, options).unwrap();
        for outcome in [checker.check_usc().unwrap(), checker.check_csc().unwrap()] {
            let CheckOutcome::Conflict(w) = outcome else {
                panic!("VME is conflicted");
            };
            assert!(w.replay(&stg));
        }
    }

    #[test]
    fn enumeration_matches_explicit_pair_counts() {
        for stg in [vme_read(), lazy_ring(2), dup_4ph(1, false), dup_mod(2)] {
            let sg = StateGraph::build(&stg, Default::default()).unwrap();
            let checker = Checker::new(&stg).unwrap();
            let usc = checker
                .enumerate_conflicts(ConflictKind::Usc, 10_000)
                .unwrap();
            let csc = checker
                .enumerate_conflicts(ConflictKind::Csc, 10_000)
                .unwrap();
            assert_eq!(usc.len(), sg.usc_conflict_pairs().len());
            assert_eq!(csc.len(), sg.csc_conflict_pairs(&stg).len());
            for w in usc.iter().chain(&csc) {
                assert!(w.replay(&stg));
            }
        }
    }

    #[test]
    fn enumeration_respects_limit_and_empty_case() {
        let stg = vme_read();
        let checker = Checker::new(&stg).unwrap();
        let some = checker.enumerate_conflicts(ConflictKind::Usc, 1).unwrap();
        assert_eq!(some.len(), 1);
        let clean = counterflow_sym(2, 2);
        let checker = Checker::new(&clean).unwrap();
        assert!(checker
            .enumerate_conflicts(ConflictKind::Csc, 100)
            .unwrap()
            .is_empty());
    }

    /// Whether `(c1, c2)` is a minimal pair: `c1 = ↓D ∖ D`, `D = c2 ∖ c1`.
    fn is_minimal_pair(prefix: &Prefix, c1: &BitSet, c2: &BitSet) -> bool {
        let mut d = c2.clone();
        d.difference_with(c1);
        let mut past = prefix.empty_config();
        for e in d.iter() {
            past.union_with(prefix.local_config(EventId::from_index(e)));
        }
        past.difference_with(&d);
        c1.is_subset(c2) && past == *c1
    }

    #[test]
    fn minimal_pair_rows_need_a_conflict_free_prefix() {
        let chained = counterflow_sym(2, 2);
        let checker = Checker::new(&chained).unwrap();
        assert!(checker.prefix().is_dynamically_conflict_free());
        let (problem, space) = checker.conflict_problem(PairSpace::MinimalChain);
        assert_eq!(space, PairSpace::MinimalChain);
        assert!(problem.subset_chain());
        assert_eq!(
            checker.conflict_problem(PairSpace::Chain).1,
            PairSpace::Chain
        );
        // A prefix with a choice gets neither the chain nor the rows.
        let arbiter = mutex_arbiter(2);
        let checker = Checker::new(&arbiter).unwrap();
        assert!(!checker.prefix().is_dynamically_conflict_free());
        let (problem, space) = checker.conflict_problem(PairSpace::MinimalChain);
        assert_eq!(space, PairSpace::Lex);
        assert!(!problem.subset_chain());
    }

    #[test]
    fn conflicted_table1_witnesses_are_minimal_pairs() {
        let rows = [
            lazy_ring(4),
            eager_ring(4),
            dup_4ph(1, false),
            dup_4ph(2, false),
            dup_4ph(3, false),
            dup_4ph(4, false),
            dup_mod(2),
            dup_mod(4),
            dup_mod(6),
        ];
        for (i, stg) in rows.iter().enumerate() {
            let checker = Checker::new(stg).unwrap();
            let prefix = checker.prefix();
            assert!(prefix.is_dynamically_conflict_free(), "row {i}");
            for outcome in [checker.check_usc().unwrap(), checker.check_csc().unwrap()] {
                let CheckOutcome::Conflict(w) = outcome else {
                    panic!("row {i} is conflicted");
                };
                assert!(w.replay(stg), "row {i}");
                assert!(
                    is_minimal_pair(prefix, &w.config1, &w.config2),
                    "row {i}: C′ = ↓D ∖ D"
                );
            }
        }
    }

    #[test]
    fn both_csc_phases_share_one_step_budget() {
        use stg::gen::random::{random_stg, RandomStgConfig};
        // A net with USC conflicts but no CSC conflict: the first
        // phase accepts none of its minimal pairs, and the second
        // phase exhausts the whole chain.
        let config = RandomStgConfig {
            signals: 4,
            sync_cycles: 2,
            max_cycle_len: 3,
            splits: 0,
            ..RandomStgConfig::default()
        };
        let stg = (0..150)
            .map(|seed| random_stg(&config, seed))
            .find(|stg| {
                let checker = Checker::new(stg).unwrap();
                !checker.check_usc().unwrap().is_satisfied()
                    && checker.check_csc().unwrap().is_satisfied()
            })
            .expect("a net whose CSC proof needs the second phase");
        let full = Checker::new(&stg).unwrap();
        assert!(full.check_csc().unwrap().is_satisfied());
        let total = full.solver_steps();
        let mut options = CheckerOptions::default();
        options.solver.max_steps = total;
        let exact = Checker::with_options(&stg, options).unwrap();
        assert!(exact.check_csc().unwrap().is_satisfied());
        options.solver.max_steps = total - 1;
        let short = Checker::with_options(&stg, options).unwrap();
        match short.check_csc() {
            Err(CheckError::Solve(e)) => {
                assert_eq!(e.cause, AbortCause::StepLimit(total - 1));
                assert_eq!(e.stats.propagations, total);
            }
            other => panic!("expected a step-limit abort, got {other:?}"),
        }
        assert_eq!(short.solver_steps(), total);
    }

    #[test]
    fn aborted_search_is_reported() {
        let stg = lazy_ring(3);
        let mut options = CheckerOptions::default();
        options.solver.max_steps = 2;
        let checker = Checker::with_options(&stg, options).unwrap();
        match checker.check_usc() {
            Err(CheckError::Solve(e)) => {
                assert_eq!(e.cause, ilp::AbortCause::StepLimit(2));
                assert!(e.stats.aborted);
            }
            other => panic!("expected Solve error, got {other:?}"),
        }
        assert!(checker.solver_steps() > 0);
    }

    #[test]
    fn cancelled_guard_stops_queries() {
        use petri::StopReason;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let stg = lazy_ring(3);
        let flag = Arc::new(AtomicBool::new(false));
        let guard = StopGuard::new(Some(flag.clone()), None);
        let checker =
            Checker::with_options_guarded(&stg, CheckerOptions::default(), guard).unwrap();
        // Un-cancelled: queries work.
        assert!(checker.check_usc().is_ok());
        // Cancelled: the next query aborts with the stop reason.
        flag.store(true, Ordering::Relaxed);
        match checker.check_usc() {
            Err(CheckError::Solve(e)) => {
                assert_eq!(e.cause, ilp::AbortCause::Stopped(StopReason::Cancelled));
            }
            other => panic!("expected Solve error, got {other:?}"),
        }
    }
}
