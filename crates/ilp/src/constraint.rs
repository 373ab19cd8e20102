//! Constraints over configuration vectors.

use crate::expr::LinExpr;

/// Comparison operator of a [`Constraint::Linear`] against zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `expr = 0`.
    Eq,
    /// `expr ≤ 0`.
    Le,
    /// `expr ≥ 0`.
    Ge,
}

/// A constraint of the verification problems in §3–§6 of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// `expr ⋈ 0` — used for the code-equality conflict constraints
    /// and the compatibility (marking-equation) constraints of the
    /// generic-solver ablation.
    Linear {
        /// The left-hand side.
        expr: LinExpr,
        /// The comparison against zero.
        op: CmpOp,
    },
    /// `lhs <lex rhs` over two vectors of linear expressions — the
    /// paper's USC separating constraint `M' <lex M''`, rendered over
    /// event variables via the §5 marking translation (numerically
    /// robust, unlike `k^i` weights).
    LexLess {
        /// Digit expressions of the left marking, most significant
        /// first.
        lhs: Vec<LinExpr>,
        /// Digit expressions of the right marking.
        rhs: Vec<LinExpr>,
    },
    /// `lhs ≠ rhs` componentwise-somewhere — used instead of
    /// `LexLess` when the §7 subset optimisation already breaks the
    /// symmetry between the two configurations.
    NotEqual {
        /// Digit expressions of the left vector.
        lhs: Vec<LinExpr>,
        /// Digit expressions of the right vector.
        rhs: Vec<LinExpr>,
    },
}
