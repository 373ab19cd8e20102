//! Proof-producing analyses: P-semiflow safeness and LP relaxations
//! of the paper's verification systems over the marking equation.
//!
//! # Soundness
//!
//! Every reachable marking `M` of a net satisfies the marking
//! equation `M = M0 + I·x ≥ 0` for the (non-negative, integer)
//! Parikh vector `x` of the firing sequence reaching it. The systems
//! below collect *necessary* linear conditions for a property
//! violation in terms of `x` and relax integrality: if even the
//! rational relaxation is infeasible, no violating firing sequence
//! can exist, so the property is **proved** — the CEGAR-style use of
//! the state equation from Wimmel & Wolf. A feasible relaxation
//! proves nothing (the witness may be spurious), and the solver may
//! abstain; both simply mean "no free verdict today".
//!
//! * **Consistency of signal `z`** — a violation first occurs when
//!   some `z`-rise fires while `v0(z) + bal_z(x) ≥ 1`, or some
//!   `z`-fall fires while `v0(z) + bal_z(x) ≤ 0`, where `bal_z(x)`
//!   counts rises minus falls of `z` in `x`. Enabledness of the
//!   offending transition is itself linear (`M0 + I·x ≥ pre(t)`).
//!   One LP per edge transition of `z`; all infeasible ⇒ `z` is
//!   consistent in every run.
//! * **USC** — a conflict needs two firing sequences `x′`, `x″` with
//!   equal per-signal balances (equal codes) reaching different
//!   markings. Different integer markings differ on some place by
//!   ≥ 1, and the system is symmetric in `x′`/`x″`, so one LP per
//!   place `p` with `(I·x′)(p) − (I·x″)(p) ≥ 1` suffices; all
//!   infeasible ⇒ USC holds. Every CSC conflict is a USC conflict
//!   (same code, different markings — CSC additionally requires the
//!   enabled output sets to differ), so a USC proof is a CSC proof.
//! * When consistency of `z` is proved first, the code bound
//!   `0 ≤ v0(z) + bal_z(x) ≤ 1` is a *valid* inequality for every
//!   real firing sequence and is added to sharpen the USC system;
//!   without that proof it would be an unsound strengthening and is
//!   left out.

use ilp::{CmpOp, LpOptions, LpProblem};
use petri::invariants::{p_semiflows_guarded, FarkasLimits};
use petri::{IncidenceMatrix, StopGuard};
use stg::{Edge, Label, Signal, Stg};

/// Positive facts the lint pass managed to prove. All fields are
/// conservative: `false`/`0` means "not proved", never "disproved".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Proofs {
    /// Signals whose consistency the LP relaxation proved.
    pub consistent_signals: Vec<String>,
    /// Every signal with transitions was proved consistent.
    pub all_consistent: bool,
    /// Places proved 1-safe by a minimal P-semiflow `w`: `p` counts
    /// when `w(p) ≥ 1` and `⌊(w·M0)/w(p)⌋ ≤ 1`, since
    /// `w(p)·M(p) ≤ w·M0` in every reachable marking `M`. A place
    /// covered by a flow with `w·M0 = 0` is never marked and counts as
    /// safe.
    pub safe_places: usize,
    /// Total places in the net.
    pub total_places: usize,
    /// Every place was proved 1-safe (the net is proved safe).
    pub net_safe: bool,
    /// The USC LP relaxation was infeasible for every place: USC —
    /// and therefore CSC — holds, with no state-space exploration.
    pub usc_proved: bool,
    /// At least one LP abstained (overflow, pivot budget or the
    /// guard), or the guard cut the semiflow pass short, so a missing
    /// proof may be a solver limit rather than a real near-violation.
    pub lp_abstained: bool,
    /// LP feasibility solves the consistency and USC relaxations ran.
    pub lp_solves: u64,
}

/// Computes all proofs. `lp` disables the LP relaxations (semiflow
/// safeness still runs); useful when linting enormous nets. The
/// semiflow pass polls `lp_options.guard` too: once it fires, the pass
/// ends with no safeness proof.
pub fn prove(stg: &Stg, lp: bool, lp_options: &LpOptions) -> Proofs {
    let mut proofs = Proofs {
        total_places: stg.net().num_places(),
        ..Proofs::default()
    };
    semiflow_safeness(stg, &lp_options.guard, &mut proofs);
    if lp {
        consistency_lp(stg, lp_options, &mut proofs);
        usc_lp(stg, lp_options, &mut proofs);
    }
    proofs
}

/// Applies [`safe_places`] to the minimal-support P-semiflows. That
/// loses no proof: every semiflow is a non-negative combination of
/// them, so if each minimal `a` with `a(p) > 0` had `a·M0 ≥ 2·a(p)`,
/// every `w` with `w(p) ≥ 1` would have `w·M0 ≥ 2`.
fn semiflow_safeness(stg: &Stg, guard: &StopGuard, proofs: &mut Proofs) {
    let net = stg.net();
    let Some(flows) = p_semiflows_guarded(net, FarkasLimits::default(), guard) else {
        proofs.lp_abstained |= guard.poll_now().is_err();
        return;
    };
    let safe = safe_places(stg, &flows);
    proofs.safe_places = safe.iter().filter(|&&s| s).count();
    proofs.net_safe = proofs.safe_places == proofs.total_places && proofs.total_places > 0;
}

/// Per place, whether one of the P-semiflows `flows` proves it 1-safe
/// from the initial marking, by the rule of [`Proofs::safe_places`].
pub fn safe_places(stg: &Stg, flows: &[Vec<i64>]) -> Vec<bool> {
    let net = stg.net();
    let m0 = stg.initial_marking();
    let mut safe = vec![false; net.num_places()];
    for w in flows {
        // Weights are i64 and token counts u32, so the weighted token
        // count cannot overflow i128.
        let value: i128 = net
            .places()
            .map(|p| i128::from(w[p.index()]) * i128::from(m0.tokens(p)))
            .sum();
        for p in net.places() {
            let weight = i128::from(w[p.index()]);
            if weight >= 1 && value / weight <= 1 {
                safe[p.index()] = true;
            }
        }
    }
    safe
}

/// Per-signal balance terms: `+1` per rise, `−1` per fall, offset by
/// `var_base` so the same signal can appear for `x′` and `x″`.
pub fn balance_terms(stg: &Stg, z: Signal, var_base: usize) -> Vec<(usize, i64)> {
    let mut terms = Vec::new();
    for t in stg.transitions_of(z) {
        if let Label::SignalEdge(_, edge) = stg.label(t) {
            let sign = match edge {
                Edge::Rise => 1,
                Edge::Fall => -1,
            };
            terms.push((var_base + t.index(), sign));
        }
    }
    terms
}

/// Adds `M0(p) + (I·x)(p) ≥ 0` for every place, with `x` starting at
/// `var_base`.
fn marking_nonneg(problem: &mut LpProblem, stg: &Stg, inc: &IncidenceMatrix, var_base: usize) {
    let net = stg.net();
    let m0 = stg.initial_marking();
    for p in net.places() {
        let mut terms = Vec::new();
        for t in net.transitions() {
            let c = inc.entry(p, t);
            if c != 0 {
                terms.push((var_base + t.index(), i64::from(c)));
            }
        }
        problem.add(&terms, CmpOp::Ge, i64::from(m0.tokens(p)));
    }
}

/// LP proof of per-signal consistency (see module docs).
fn consistency_lp(stg: &Stg, options: &LpOptions, proofs: &mut Proofs) {
    let net = stg.net();
    let inc = IncidenceMatrix::of(net);
    let n = net.num_transitions();
    let m0 = stg.initial_marking();
    let v0 = stg.initial_code();
    let mut signals_with_transitions = 0usize;
    for z in stg.signals() {
        if stg.transitions_of(z).next().is_none() {
            continue;
        }
        if options.stopped() {
            // Out of wall-clock or cancelled: the remaining signals
            // count as unproved, and the abstention is recorded so
            // callers can tell a budget cut from a genuine
            // near-violation.
            proofs.lp_abstained = true;
            signals_with_transitions += 1;
            continue;
        }
        signals_with_transitions += 1;
        let bal = balance_terms(stg, z, 0);
        let mut proved = true;
        for t in stg.transitions_of(z) {
            let Label::SignalEdge(_, edge) = stg.label(t) else {
                continue;
            };
            let mut problem = LpProblem::new(n);
            marking_nonneg(&mut problem, stg, &inc, 0);
            // Enabledness of t: M0(p) + (I·x)(p) − pre(p, t) ≥ 0 for
            // each preset place (arcs are ordinary, weight 1).
            for &p in net.preset(t) {
                let mut terms = Vec::new();
                for u in net.transitions() {
                    let c = inc.entry(p, u);
                    if c != 0 {
                        terms.push((u.index(), i64::from(c)));
                    }
                }
                problem.add(&terms, CmpOp::Ge, i64::from(m0.tokens(p)) - 1);
            }
            // The code bit is already at the value the edge drives to.
            let v0z = i64::from(v0.bit(z));
            match edge {
                // rise while v0 + bal ≥ 1  ⇔  bal + (v0 − 1) ≥ 0
                Edge::Rise => problem.add(&bal, CmpOp::Ge, v0z - 1),
                // fall while v0 + bal ≤ 0
                Edge::Fall => problem.add(&bal, CmpOp::Le, v0z),
            }
            proofs.lp_solves += 1;
            match problem.feasibility(options) {
                ilp::LpFeasibility::Infeasible => {}
                ilp::LpFeasibility::Feasible => {
                    proved = false;
                }
                ilp::LpFeasibility::Abstain => {
                    proved = false;
                    proofs.lp_abstained = true;
                }
            }
            if !proved {
                break;
            }
        }
        if proved {
            proofs
                .consistent_signals
                .push(stg.signal_name(z).to_owned());
        }
    }
    proofs.all_consistent =
        signals_with_transitions > 0 && proofs.consistent_signals.len() == signals_with_transitions;
}

/// LP proof of USC (and hence CSC) — see module docs.
fn usc_lp(stg: &Stg, options: &LpOptions, proofs: &mut Proofs) {
    let net = stg.net();
    if net.num_places() == 0 {
        return;
    }
    let inc = IncidenceMatrix::of(net);
    let n = net.num_transitions();
    let v0 = stg.initial_code();
    let consistent: Vec<Signal> = stg
        .signals()
        .filter(|&z| {
            proofs
                .consistent_signals
                .iter()
                .any(|name| name == stg.signal_name(z))
        })
        .collect();
    let mut all_infeasible = true;
    for p_star in net.places() {
        if options.stopped() {
            proofs.lp_abstained = true;
            all_infeasible = false;
            break;
        }
        // Variables: x′ = 0..n, x″ = n..2n.
        let mut problem = LpProblem::new(2 * n);
        marking_nonneg(&mut problem, stg, &inc, 0);
        marking_nonneg(&mut problem, stg, &inc, n);
        for z in stg.signals() {
            let bal1 = balance_terms(stg, z, 0);
            if bal1.is_empty() {
                continue;
            }
            let bal2 = balance_terms(stg, z, n);
            // Equal codes: bal_z(x′) − bal_z(x″) = 0.
            let mut eq: Vec<(usize, i64)> = bal1.clone();
            eq.extend(bal2.iter().map(|&(v, c)| (v, -c)));
            problem.add(&eq, CmpOp::Eq, 0);
            // Valid code bounds, only when consistency is proved.
            if consistent.contains(&z) {
                let v0z = i64::from(v0.bit(z));
                for bal in [&bal1, &bal2] {
                    problem.add(bal, CmpOp::Ge, v0z); // v0 + bal ≥ 0
                    problem.add(bal, CmpOp::Le, v0z - 1); // v0 + bal ≤ 1
                }
            }
        }
        // Distinct markings: M′(p*) − M″(p*) ≥ 1 (symmetry in x′/x″
        // covers the opposite sign).
        let mut diff = Vec::new();
        for t in net.transitions() {
            let c = inc.entry(p_star, t);
            if c != 0 {
                diff.push((t.index(), i64::from(c)));
                diff.push((n + t.index(), i64::from(-c)));
            }
        }
        if diff.is_empty() {
            // No transition touches p*: its marking is constant, so
            // the two markings cannot differ here.
            continue;
        }
        problem.add(&diff, CmpOp::Ge, -1);
        proofs.lp_solves += 1;
        match problem.feasibility(options) {
            ilp::LpFeasibility::Infeasible => {}
            ilp::LpFeasibility::Feasible => {
                all_infeasible = false;
                break;
            }
            ilp::LpFeasibility::Abstain => {
                proofs.lp_abstained = true;
                all_infeasible = false;
                break;
            }
        }
    }
    proofs.usc_proved = all_infeasible;
}

#[cfg(test)]
mod tests {
    use super::*;

    const HANDSHAKE: &str = "\
.model hs
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.end
";

    fn prove_default(src: &str) -> Proofs {
        let stg = stg::parse(src).unwrap();
        prove(&stg, true, &LpOptions::default())
    }

    #[test]
    fn handshake_is_fully_proved() {
        let p = prove_default(HANDSHAKE);
        assert!(p.net_safe, "{p:?}");
        assert!(p.all_consistent, "{p:?}");
        assert!(p.usc_proved, "{p:?}");
        assert!(!p.lp_abstained);
    }

    #[test]
    fn vme_usc_conflict_is_not_proved_away() {
        // vme_read has a real CSC (hence USC) conflict: the LP must
        // stay feasible for at least one place — usc_proved = false.
        let stg = stg::gen::vme::vme_read();
        let p = prove(&stg, true, &LpOptions::default());
        assert!(!p.usc_proved, "{p:?}");
        // Its signals are consistent and the net is safe, though.
        assert!(p.all_consistent, "{p:?}");
        assert!(p.net_safe, "{p:?}");
    }

    #[test]
    fn inconsistent_stg_is_not_proved_consistent() {
        // Two rises of `a` fire back-to-back with no fall between.
        let src = "\
.model bad
.outputs a
.graph
a+ a+/2
a+/2 a-
a- a+
.marking { <a-,a+> }
.initial_state 0
.end
";
        let p = prove_default(src);
        assert!(!p.all_consistent, "{p:?}");
    }

    #[test]
    fn lp_disabled_still_proves_safeness() {
        let p = {
            let stg = stg::parse(HANDSHAKE).unwrap();
            prove(&stg, false, &LpOptions::default())
        };
        assert!(p.net_safe);
        assert!(!p.usc_proved);
        assert!(p.consistent_signals.is_empty());
    }

    #[test]
    fn a_deadline_that_cuts_the_semiflow_pass_is_reported() {
        let stg = stg::gen::pipeline::muller_pipeline(100);
        let expired = LpOptions {
            guard: StopGuard::new(None, Some(std::time::Instant::now())),
            ..LpOptions::default()
        };
        let p = prove(&stg, false, &expired);
        assert_eq!(p.safe_places, 0, "{p:?}");
        assert!(p.lp_abstained, "{p:?}");
    }
}
