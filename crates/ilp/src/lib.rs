//! 0-1 integer programming over Petri-net unfoldings.
//!
//! This crate implements the verification engine of the paper (§3–§5):
//! a branch-and-bound search over *Unf-compatible* 0-1 vectors — the
//! vectors that are Parikh vectors of configurations of a finite
//! complete prefix. By Theorems 1 and 2 of the paper, compatibility
//! is exactly closure under
//!
//! * `x(e) = 1 ⟹ x(f) = 1` for every causal predecessor `f < e`,
//! * `x(e) = 1 ⟹ x(g) = 0` for every `g # e`,
//! * `x(e) = 0 ⟹ x(f) = 0` for every causal successor `f > e`,
//!
//! which the solver maintains as unit propagation (the *minimal
//! compatible closure* MCC). On top of it sit linear (pseudo-boolean)
//! constraints with interval bound propagation, the lexicographic
//! marking order (the paper's USC separating constraint), and
//! vector disequality.
//!
//! Bound propagation is incremental: the solver flattens every linear
//! expression of a problem (each `Linear` constraint, each digit of a
//! `LexLess`/`NotEqual` pair) into a slot table of running `(lo, hi)`
//! bounds, moved by each assignment and moved back on backtracking,
//! so a constraint wake reads its bounds instead of recomputing them.
//! The search tree does not depend on this: the decisions,
//! propagations, conflicts, leaves and witnesses are those of a
//! propagation that recomputes every bound from scratch, so
//! [`SolverOptions::max_steps`] and [`SearchStats::propagations`]
//! keep their meaning. Debug builds check the running bounds against
//! [`LinExpr::bounds`] after every propagation.
//!
//! Branching is fail-first. The slot table also counts each slot's
//! unassigned terms, and each decision branches inside the first
//! `Linear` constraint with the fewest unassigned terms (at least
//! one), on its unassigned variable that comes first in the static
//! order: descending event id, so causally deep events, whose
//! closure pulls whole histories in, are decided first. Once every
//! `Linear` constraint is fully assigned, the static order decides
//! alone. Every decision tries `x(e) = 1` before `x(e) = 0`. A row with few free terms
//! is the one closest to forcing or failing, so deciding inside it
//! ends a doomed branch early: on the conflict-free MULLER family the
//! absence proof grows polynomially instead of exponentially.
//!
//! Problems range over one or more configuration
//! vectors (`x'`, `x''`, …), and searches can run in *exhaustive
//! enumeration* mode where a leaf callback accepts or rejects each
//! total assignment — this is how the non-linear CSC and normalcy
//! separating predicates are decided "directly from the STG", as the
//! paper prescribes.
//!
//! # Examples
//!
//! Find any non-empty configuration of a prefix:
//!
//! ```
//! use ilp::{CmpOp, LinExpr, Problem, Solver, SolverOptions};
//! use stg::gen::vme::vme_read;
//! use unfolding::{EventRelations, Prefix, UnfoldOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stg = vme_read();
//! let prefix = Prefix::of_stg(&stg, UnfoldOptions::default())?;
//! let rel = EventRelations::of(&prefix);
//! let mut problem = Problem::new(&rel, 1);
//! // Σ x(e) ≥ 1
//! let mut expr = LinExpr::new();
//! for e in prefix.events() {
//!     expr.push(problem.var(0, e), 1);
//! }
//! expr.add_constant(-1);
//! problem.add_linear(expr, CmpOp::Ge);
//! let mut solver = Solver::new(&problem, SolverOptions::default());
//! let solution = solver.solve(|_| true).expect("some event can fire");
//! assert!(prefix.is_configuration(&solution[0]));
//! assert!(!solution[0].is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bb;
mod constraint;
mod expr;
pub mod lp;
mod problem;
mod slots;
mod solver;

pub use bb::{solve_integer, BbAbort, BbOptions, BbOutcome, BbStats, Candidate, CutRow};
pub use constraint::{CmpOp, Constraint};
pub use expr::{LinExpr, Var};
pub use lp::{LpFeasibility, LpOptions, LpProblem};
pub use problem::Problem;
pub use solver::{AbortCause, SearchStats, SolveError, Solver, SolverOptions};
