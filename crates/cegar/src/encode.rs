//! Encoding of USC/CSC conflict detection over the marking equation,
//! with structural pre-reductions.
//!
//! Variables: `x′ = 0..n`, `x″ = n..2n` — two firing-count vectors,
//! one per state of the candidate conflict pair, in the `LpProblem`
//! convention `Σ coeffs + constant OP 0`. The *base system* holds
//! rows valid for every pair of reachable markings:
//!
//! * `M0(p) + (I·x)(p) ≥ 0` for both copies (the marking equation);
//! * equal per-signal balances (`bal_z(x′) = bal_z(x″)`), which forces
//!   equal binary codes whichever firing sequences realise the two
//!   vectors;
//! * code bounds `0 ≤ v0(z) + bal_z(x) ≤ 1` — only for signals whose
//!   consistency the lint relaxation *proved* (unsound otherwise);
//! * the structural cuts of [`lint::cut_basis`]: `x(t) = 0` for
//!   consumers of the maximal initially-unmarked siphon, and
//!   `Σ_{p∈Q} M(p) ≥ 1` over an initially marked trap `Q`.
//!
//! Pre-reductions drop redundant rows and conflict targets without
//! touching the variables, so candidate solutions decode and replay
//! on the *full* net — the reduction-equation witness mapping is the
//! identity on firing counts:
//!
//! * a *constant* place (all-zero incidence row) has the same token
//!   count in every reachable marking: its marking row is trivial and
//!   it can never witness a marking difference;
//! * a *duplicate* place (same incidence row and initial marking as an
//!   earlier one) always carries the same count as its representative,
//!   so one row and one target cover the whole class;
//! * a transition whose preset contains a constant, initially
//!   unmarked place can never fire: `x(t) = 0`.

use ilp::{CmpOp, LpProblem};
use lint::{balance_terms, cut_basis, Proofs};
use petri::{IncidenceMatrix, PlaceId, TransitionId};
use stg::{Label, Stg};

/// The shared base system plus the per-property target lists.
pub(crate) struct System {
    /// Transition count; the problem ranges over `2n` variables.
    pub(crate) n: usize,
    /// Rows valid for every pair of reachable markings.
    pub(crate) base: LpProblem,
    /// Incidence matrix of the full (unreduced) net.
    pub(crate) inc: IncidenceMatrix,
    /// USC targets: representative places that could witness
    /// `M′(p) − M″(p) ≥ 1`.
    pub(crate) usc_targets: Vec<PlaceId>,
    /// CSC targets: `(t, p)` with `t` a non-dead local-signal
    /// transition and `p ∈ •t` a representative place — "t enabled at
    /// `M′`, `M″(p) = 0`".
    pub(crate) csc_targets: Vec<(TransitionId, PlaceId)>,
    /// Places whose rows/targets the pre-reductions dropped.
    pub(crate) reduced_places: u64,
    /// Structural cut rows added to the base system.
    pub(crate) valid_cuts: u64,
}

/// Builds the base system and target lists for `stg`. `proofs` gates
/// the code-bound rows on proven per-signal consistency.
pub(crate) fn build(stg: &Stg, proofs: &Proofs) -> System {
    let net = stg.net();
    let m0 = stg.initial_marking();
    let v0 = stg.initial_code();
    let inc = IncidenceMatrix::of(net);
    let n = net.num_transitions();
    let np = net.num_places();

    // Dense incidence rows, reused for reduction detection and cut
    // assembly.
    let rows: Vec<Vec<i64>> = net
        .places()
        .map(|p| {
            net.transitions()
                .map(|t| i64::from(inc.entry(p, t)))
                .collect()
        })
        .collect();
    let constant: Vec<bool> = rows.iter().map(|r| r.iter().all(|&c| c == 0)).collect();
    let mut dup_of: Vec<usize> = (0..np).collect();
    {
        let mut seen: std::collections::HashMap<(&[i64], u32), usize> =
            std::collections::HashMap::new();
        for (i, r) in rows.iter().enumerate() {
            let key = (r.as_slice(), m0.tokens(PlaceId::new(i)));
            dup_of[i] = *seen.entry(key).or_insert(i);
        }
    }
    let reduced = |i: usize| constant[i] || dup_of[i] != i;

    let mut base = LpProblem::new(2 * n);
    let mut reduced_places = 0u64;
    for p in net.places() {
        let i = p.index();
        if reduced(i) {
            reduced_places += 1;
            continue;
        }
        for var_base in [0, n] {
            let terms: Vec<(usize, i64)> = rows[i]
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c != 0)
                .map(|(j, &c)| (var_base + j, c))
                .collect();
            base.add(&terms, CmpOp::Ge, i64::from(m0.tokens(p)));
        }
    }

    for z in stg.signals() {
        let bal1 = balance_terms(stg, z, 0);
        if bal1.is_empty() {
            continue;
        }
        let bal2 = balance_terms(stg, z, n);
        // Equal codes: bal_z(x′) − bal_z(x″) = 0.
        let mut eq: Vec<(usize, i64)> = bal1.clone();
        eq.extend(bal2.iter().map(|&(v, c)| (v, -c)));
        base.add(&eq, CmpOp::Eq, 0);
        let name = stg.signal_name(z);
        if proofs.consistent_signals.iter().any(|s| s == name) {
            let v0z = i64::from(v0.bit(z));
            for bal in [&bal1, &bal2] {
                base.add(bal, CmpOp::Ge, v0z); // v0 + bal ≥ 0
                base.add(bal, CmpOp::Le, v0z - 1); // v0 + bal ≤ 1
            }
        }
    }

    // Structural cuts: dead transitions and the marked-trap row.
    let basis = cut_basis(net, m0);
    let mut dead = vec![false; n];
    for &t in &basis.dead_consumers {
        dead[t.index()] = true;
    }
    for t in net.transitions() {
        if net
            .preset(t)
            .iter()
            .any(|&p| constant[p.index()] && m0.tokens(p) == 0)
        {
            dead[t.index()] = true;
        }
    }
    let mut valid_cuts = 0u64;
    for t in net.transitions() {
        if dead[t.index()] {
            for var_base in [0, n] {
                base.add(&[(var_base + t.index(), 1)], CmpOp::Le, 0);
            }
            valid_cuts += 2;
        }
    }
    if !basis.marked_trap.is_empty() {
        let mut coeff = vec![0i64; n];
        let mut tokens = 0i64;
        for &p in &basis.marked_trap {
            tokens += i64::from(m0.tokens(p));
            for (j, c) in coeff.iter_mut().enumerate() {
                *c += rows[p.index()][j];
            }
        }
        for var_base in [0, n] {
            let terms: Vec<(usize, i64)> = coeff
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c != 0)
                .map(|(j, &c)| (var_base + j, c))
                .collect();
            base.add(&terms, CmpOp::Ge, tokens - 1);
            valid_cuts += 1;
        }
    }

    let usc_targets: Vec<PlaceId> = net.places().filter(|p| !reduced(p.index())).collect();

    let mut csc_targets = Vec::new();
    for t in net.transitions() {
        let Label::SignalEdge(z, _) = stg.label(t) else {
            continue;
        };
        if !stg.signal_kind(z).is_local() || dead[t.index()] {
            continue;
        }
        let mut used: Vec<usize> = Vec::new();
        for &p in net.preset(t) {
            let i = p.index();
            // A constant marked place can never be empty at M″; a
            // constant unmarked one makes t dead (handled above).
            if constant[i] {
                continue;
            }
            let class = dup_of[i];
            if used.contains(&class) {
                continue;
            }
            used.push(class);
            csc_targets.push((t, p));
        }
    }

    System {
        n,
        base,
        inc,
        usc_targets,
        csc_targets,
        reduced_places,
        valid_cuts,
    }
}

impl System {
    /// The USC target for place `p`: base + `M′(p) − M″(p) ≥ 1`
    /// (symmetry in `x′`/`x″` covers the opposite sign).
    pub(crate) fn usc_problem(&self, stg: &Stg, p: PlaceId) -> LpProblem {
        let net = stg.net();
        let mut problem = self.base.clone();
        let mut diff = Vec::new();
        for t in net.transitions() {
            let c = i64::from(self.inc.entry(p, t));
            if c != 0 {
                diff.push((t.index(), c));
                diff.push((self.n + t.index(), -c));
            }
        }
        problem.add(&diff, CmpOp::Ge, -1);
        problem
    }

    /// The CSC target for `(t, p)`: base + "`t` enabled at `M′`" +
    /// "`M″(p) = 0`".
    pub(crate) fn csc_problem(&self, stg: &Stg, t: TransitionId, p: PlaceId) -> LpProblem {
        let net = stg.net();
        let m0 = stg.initial_marking();
        let mut problem = self.base.clone();
        // Every preset place of t carries a token at M′ (ordinary
        // arcs, weight 1).
        for &q in net.preset(t) {
            let mut terms = Vec::new();
            for u in net.transitions() {
                let c = i64::from(self.inc.entry(q, u));
                if c != 0 {
                    terms.push((u.index(), c));
                }
            }
            problem.add(&terms, CmpOp::Ge, i64::from(m0.tokens(q)) - 1);
        }
        // M″(p) = 0.
        let mut terms = Vec::new();
        for u in net.transitions() {
            let c = i64::from(self.inc.entry(p, u));
            if c != 0 {
                terms.push((self.n + u.index(), c));
            }
        }
        problem.add(&terms, CmpOp::Eq, i64::from(m0.tokens(p)));
        problem
    }
}
