//! CEGAR over the Petri-net state equation: a USC/CSC engine with no
//! unfolding prefix and no BDDs.
//!
//! The engine decides Unique/Complete State Coding by counterexample-
//! guided abstraction refinement over the *marking equation*
//! `M = M0 + I·x` (Wimmel & Wolf, "Applying CEGAR to the Petri Net
//! State Equation"), layered on the exact rational simplex and the
//! branch-and-bound integer search of the `ilp` crate:
//!
//! 1. **Abstraction.** A conflict pair is over-approximated by two
//!    firing-count vectors `(x′, x″)` solving the state equation with
//!    equal per-signal balances (hence equal codes) and a per-target
//!    separation row — see the `encode` module. If every target's
//!    rational
//!    relaxation is infeasible, the property is *proved* (this
//!    subsumes the lint relaxation proof of PR 5, which runs first as
//!    a fast path).
//! 2. **Candidate check.** Integer solutions found by branch-and-bound
//!    are *candidates*; a memoised token-game replay (the `replay`
//!    module)
//!    decides whether each vector is realisable. Realisable pairs
//!    decode to concrete discordant markings — a refutation witness.
//! 3. **Refinement.** Spurious candidates are excluded by the solver's
//!    *jump constraints* (a box split around the rejected point) and,
//!    when the candidate's final marking empties an initially marked
//!    trap, by a globally valid *trap strengthening* row
//!    `Σ_{p∈Q}(M0 + I·x)(p) ≥ 1` ([`lint::blocking_trap`]) — the
//!    promoted form of lint's warn-only siphon/trap analysis.
//!
//! Soundness: [`CegarOutcome::Proved`] is only returned when every
//! target is closed by an exact infeasibility proof or an exhausted
//! search whose rejections were all *certain* (replay said
//! unrealisable, or the point merely failed the decode check and the
//! jump split excludes exactly that point). Any budget, cancellation,
//! overflow or replay cap yields [`CegarOutcome::Unknown`] — never a
//! guessed verdict.

mod encode;
mod replay;

use ilp::{solve_integer, BbAbort, BbOptions, BbOutcome, BbStats, Candidate, CmpOp, CutRow};
use ilp::{LpOptions, LpProblem};
use lint::{blocking_trap, relaxation_proofs};
use petri::{IncidenceMatrix, Marking, Net, ParikhVector, StopGuard, StopReason};
use stg::Stg;

use crate::replay::Replay;

/// Which state-coding property to decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CegarProperty {
    /// Unique State Coding: no two distinct reachable states share a
    /// binary code.
    Usc,
    /// Complete State Coding: no two reachable states share a code
    /// while enabling different sets of local (output/internal)
    /// signals.
    Csc,
}

/// Memo-entry cap for each token-game replay.
const MAX_REPLAY_ENTRIES: usize = 100_000;

/// Cap on the total firing count of a candidate vector; larger
/// candidates are treated as undecided rather than replayed.
const MAX_REPLAY_TOTAL: i64 = 4_096;

/// Tunables for [`check`]. The defaults are sized for the benchmark
/// families; callers under a budget thread their [`StopGuard`] in.
/// Each LP solve runs under [`LpOptions::default`]'s pivot cap.
#[derive(Debug, Clone)]
pub struct CegarOptions {
    /// Stop condition polled between targets, at branch-node heads and
    /// inside replays. Covers secondary (race-loser) flags.
    pub guard: StopGuard,
    /// Branch-and-bound node cap per conflict target; reaching it
    /// makes the final verdict `Unknown` (but other targets are still
    /// searched for a refutation).
    pub max_nodes_per_target: u64,
}

impl Default for CegarOptions {
    fn default() -> Self {
        CegarOptions {
            guard: StopGuard::unlimited(),
            max_nodes_per_target: 4_000,
        }
    }
}

/// Why [`check`] could not reach a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CegarAbort {
    /// The cancellation flag was raised mid-loop.
    Cancelled,
    /// The wall-clock deadline passed mid-loop.
    DeadlineExpired,
    /// A node, pivot, replay or arithmetic budget was exhausted before
    /// every target could be closed.
    Exhausted,
}

impl From<StopReason> for CegarAbort {
    fn from(r: StopReason) -> Self {
        match r {
            StopReason::Cancelled => CegarAbort::Cancelled,
            StopReason::DeadlineExpired => CegarAbort::DeadlineExpired,
        }
    }
}

/// Result of a CEGAR run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CegarOutcome {
    /// The property holds: every conflict target was closed by an
    /// exact infeasibility proof or a certainly-exhausted search.
    Proved,
    /// The property is violated; the two markings are a concrete
    /// reachable discordant pair (equal codes; for CSC additionally
    /// with different enabled local-signal sets).
    Refuted(Box<(Marking, Marking)>),
    /// No verdict — budget, cancellation or solver limits.
    Unknown(CegarAbort),
}

/// Counters reported alongside the outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CegarStats {
    /// CEGAR iterations: integer candidates examined by the
    /// realisability check.
    pub iterations: u64,
    /// Constraint rows beyond the marking equation: structural cuts in
    /// the base system plus trap-strengthening cuts added during
    /// refinement.
    pub cuts: u64,
    /// Branch-and-bound nodes expanded across all targets.
    pub branch_nodes: u64,
    /// Exact LP solves performed: the relaxation proofs' and those of
    /// branch and bound.
    pub lp_solves: u64,
    /// Conflict targets encoded for the chosen property.
    pub targets: u64,
    /// Targets closed by proof (infeasible or certainly exhausted).
    pub targets_closed: u64,
    /// Places dropped by the structural pre-reductions.
    pub reduced_places: u64,
}

enum Judgement {
    Real(Box<(Marking, Marking)>),
    Spurious(Vec<CutRow>),
    Uncertain,
}

/// Decides `property` for `stg` by CEGAR over the state equation.
///
/// Never builds an unfolding prefix and never allocates a BDD node;
/// the only exploration is the memoised replay of individual candidate
/// vectors. See the module docs for the soundness contract.
pub fn check(
    stg: &Stg,
    property: CegarProperty,
    options: &CegarOptions,
) -> (CegarOutcome, CegarStats) {
    let mut stats = CegarStats::default();
    // The LP polls the whole guard, so a race supervisor's loser flag
    // stops a relaxation solve mid-pivot, not only at the next node.
    let lp = LpOptions {
        guard: options.guard.clone(),
        ..LpOptions::default()
    };

    // Fast path: the PR 5 relaxation proof. USC proved ⇒ CSC proved.
    let proofs = relaxation_proofs(stg, true, &lp);
    stats.lp_solves = proofs.lp_solves;
    if proofs.usc_proved {
        return (CegarOutcome::Proved, stats);
    }
    if let Err(r) = options.guard.poll_now() {
        return (CegarOutcome::Unknown(r.into()), stats);
    }

    let sys = encode::build(stg, &proofs);
    stats.reduced_places = sys.reduced_places;
    stats.cuts = sys.valid_cuts;

    let targets: Vec<LpProblem> = match property {
        CegarProperty::Usc => sys
            .usc_targets
            .iter()
            .map(|&p| sys.usc_problem(stg, p))
            .collect(),
        CegarProperty::Csc => sys
            .csc_targets
            .iter()
            .map(|&(t, p)| sys.csc_problem(stg, t, p))
            .collect(),
    };
    stats.targets = targets.len() as u64;

    let mut uncertain = false;
    for problem in &targets {
        if let Err(r) = options.guard.poll_now() {
            return (CegarOutcome::Unknown(r.into()), stats);
        }
        let bb_opts = BbOptions {
            lp: lp.clone(),
            max_nodes: options.max_nodes_per_target,
        };
        let mut bb_stats = BbStats::default();
        let mut witness: Option<Box<(Marking, Marking)>> = None;
        let mut target_uncertain = false;
        let mut new_cuts = 0u64;
        let outcome = solve_integer(problem, &bb_opts, &mut bb_stats, |point| {
            stats.iterations += 1;
            match judge(stg, &sys, property, point, options) {
                Judgement::Real(pair) => {
                    witness = Some(pair);
                    Candidate::Accept
                }
                Judgement::Spurious(cuts) => {
                    new_cuts += cuts.len() as u64;
                    Candidate::Reject(cuts)
                }
                Judgement::Uncertain => {
                    target_uncertain = true;
                    Candidate::Reject(Vec::new())
                }
            }
        });
        stats.branch_nodes += bb_stats.nodes;
        stats.lp_solves += bb_stats.lp_solves;
        stats.cuts += new_cuts;
        match outcome {
            BbOutcome::Infeasible | BbOutcome::Exhausted => {
                if target_uncertain {
                    uncertain = true;
                } else {
                    stats.targets_closed += 1;
                }
            }
            BbOutcome::Accepted(_) => {
                if let Some(pair) = witness {
                    return (CegarOutcome::Refuted(pair), stats);
                }
                // Unreachable (Accept always sets the witness), but
                // degrade soundly rather than panic.
                uncertain = true;
            }
            BbOutcome::Abstain(BbAbort::Stopped) => {
                let abort = match options.guard.poll_now() {
                    Err(r) => r.into(),
                    Ok(()) => CegarAbort::Cancelled,
                };
                return (CegarOutcome::Unknown(abort), stats);
            }
            BbOutcome::Abstain(BbAbort::NodeLimit | BbAbort::Arithmetic) => {
                // Keep scanning the remaining targets: a refutation
                // found elsewhere is still sound.
                uncertain = true;
            }
        }
    }
    if uncertain {
        (CegarOutcome::Unknown(CegarAbort::Exhausted), stats)
    } else {
        (CegarOutcome::Proved, stats)
    }
}

/// Classifies one integral candidate `(x′, x″)`.
fn judge(
    stg: &Stg,
    sys: &encode::System,
    property: CegarProperty,
    point: &[i64],
    options: &CegarOptions,
) -> Judgement {
    let n = sys.n;
    let net = stg.net();
    let m0 = stg.initial_marking();
    let total: i64 = point.iter().sum();
    if total > MAX_REPLAY_TOTAL {
        return Judgement::Uncertain;
    }
    let mut counts = [vec![0u32; n], vec![0u32; n]];
    for (half, c) in counts.iter_mut().enumerate() {
        for (j, slot) in c.iter_mut().enumerate() {
            match u32::try_from(point[half * n + j]) {
                Ok(v) => *slot = v,
                Err(_) => return Judgement::Uncertain,
            }
        }
    }
    let finals = [
        apply_counts(&sys.inc, m0, &counts[0]),
        apply_counts(&sys.inc, m0, &counts[1]),
    ];
    let (Some(m1), Some(m2)) = (finals[0].clone(), finals[1].clone()) else {
        return Judgement::Uncertain;
    };
    let mut cuts = Vec::new();
    let mut spurious = false;
    for (c, m) in counts.iter().zip([&m1, &m2]) {
        match replay::realisable(net, m0, c, &options.guard, MAX_REPLAY_ENTRIES) {
            Replay::Realisable => {}
            Replay::Unrealisable => {
                spurious = true;
                // Trap strengthening: if the final marking empties an
                // initially marked trap it is unreachable, and the
                // trap row is valid for every reachable marking — add
                // it for both vector copies.
                if let Some(trap) = blocking_trap(net, m0, m) {
                    cuts.extend(trap_cuts(net, &sys.inc, m0, &trap, n));
                }
            }
            Replay::Unknown => return Judgement::Uncertain,
        }
    }
    if spurious {
        return Judgement::Spurious(cuts);
    }
    let conflict = match property {
        CegarProperty::Usc => m1 != m2,
        CegarProperty::Csc => stg.enabled_local_signals(&m1) != stg.enabled_local_signals(&m2),
    };
    if conflict {
        Judgement::Real(Box::new((m1, m2)))
    } else {
        // Both markings are genuinely reachable but the decode check
        // failed (e.g. another transition of the signal is enabled at
        // M″): the jump split excludes exactly this point.
        Judgement::Spurious(Vec::new())
    }
}

/// `M0 + I·x` for a counts vector; `None` on arithmetic trouble.
fn apply_counts(inc: &IncidenceMatrix, m0: &Marking, counts: &[u32]) -> Option<Marking> {
    let mut x = ParikhVector::zero(counts.len());
    for (j, &c) in counts.iter().enumerate() {
        for _ in 0..c {
            x.increment(petri::TransitionId::new(j));
        }
    }
    inc.apply(m0, &x)
}

/// The rows `Σ_{p∈Q}(M0 + I·x)(p) ≥ 1` for both vector copies.
fn trap_cuts(
    net: &Net,
    inc: &IncidenceMatrix,
    m0: &Marking,
    trap: &[petri::PlaceId],
    n: usize,
) -> Vec<CutRow> {
    let mut coeff = vec![0i64; n];
    let mut tokens = 0i64;
    for &p in trap {
        tokens += i64::from(m0.tokens(p));
        for t in net.transitions() {
            coeff[t.index()] += i64::from(inc.entry(p, t));
        }
    }
    [0, n]
        .into_iter()
        .map(|var_base| CutRow {
            coeffs: coeff
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c != 0)
                .map(|(j, &c)| (var_base + j, c))
                .collect(),
            op: CmpOp::Ge,
            constant: tokens - 1,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

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

    #[test]
    fn handshake_is_proved_for_both_properties() {
        let stg = stg::parse(HANDSHAKE).unwrap();
        for property in [CegarProperty::Usc, CegarProperty::Csc] {
            let (out, stats) = check(&stg, property, &CegarOptions::default());
            assert_eq!(out, CegarOutcome::Proved, "{property:?}");
            // The relaxation fast path closes it without branching.
            assert_eq!(stats.branch_nodes, 0);
        }
    }

    #[test]
    fn relaxation_proofs_count_their_lp_solves() {
        // CF-SYM-A-CSC of Table 1: the relaxation proves USC, so the
        // proof ends before branch and bound, yet its LPs are counted.
        let stg = stg::gen::counterflow::counterflow_sym(2, 3);
        let (out, stats) = check(&stg, CegarProperty::Csc, &CegarOptions::default());
        assert_eq!(out, CegarOutcome::Proved);
        assert_eq!(stats.branch_nodes, 0);
        assert!(stats.lp_solves >= 1, "{stats:?}");
    }

    #[test]
    fn vme_read_usc_conflict_is_refuted_with_a_concrete_pair() {
        let stg = stg::gen::vme::vme_read();
        let (out, stats) = check(&stg, CegarProperty::Usc, &CegarOptions::default());
        let CegarOutcome::Refuted(pair) = out else {
            panic!("expected a refutation, got {out:?} ({stats:?})");
        };
        let (m1, m2) = *pair;
        assert_ne!(m1, m2, "USC witness markings must differ");
        assert!(stats.iterations >= 1);
        assert!(stats.lp_solves >= 1);
    }

    #[test]
    fn vme_read_csc_conflict_is_refuted_with_discordant_signals() {
        let stg = stg::gen::vme::vme_read();
        let (out, stats) = check(&stg, CegarProperty::Csc, &CegarOptions::default());
        let CegarOutcome::Refuted(pair) = out else {
            panic!("expected a refutation, got {out:?} ({stats:?})");
        };
        let (m1, m2) = *pair;
        assert_ne!(
            stg.enabled_local_signals(&m1),
            stg.enabled_local_signals(&m2),
            "CSC witness must enable different local signals"
        );
    }

    #[test]
    fn pre_cancelled_guard_aborts_without_a_verdict() {
        let stg = stg::gen::vme::vme_read();
        let flag = Arc::new(AtomicBool::new(true));
        let options = CegarOptions {
            guard: StopGuard::new(Some(flag), None),
            ..CegarOptions::default()
        };
        let (out, _) = check(&stg, CegarProperty::Csc, &options);
        assert_eq!(out, CegarOutcome::Unknown(CegarAbort::Cancelled));
    }

    #[test]
    fn pre_cancelled_guard_stops_the_semiflow_pass() {
        // MULLER-100's Farkas elimination (401 places, 202 columns)
        // takes seconds in a debug build; a cancel must not wait for it.
        let stg = stg::gen::pipeline::muller_pipeline(100);
        let flag = Arc::new(AtomicBool::new(true));
        let options = CegarOptions {
            guard: StopGuard::new(Some(flag), None),
            ..CegarOptions::default()
        };
        let start = Instant::now();
        let (out, _) = check(&stg, CegarProperty::Csc, &options);
        let elapsed = start.elapsed();
        assert_eq!(out, CegarOutcome::Unknown(CegarAbort::Cancelled));
        assert!(
            elapsed < Duration::from_millis(1000),
            "cancel honoured after {elapsed:?}"
        );
    }

    #[test]
    fn expired_deadline_aborts_without_a_verdict() {
        let stg = stg::gen::vme::vme_read();
        let options = CegarOptions {
            guard: StopGuard::new(None, Some(Instant::now() - Duration::from_secs(1))),
            ..CegarOptions::default()
        };
        let (out, _) = check(&stg, CegarProperty::Usc, &options);
        assert_eq!(out, CegarOutcome::Unknown(CegarAbort::DeadlineExpired));
    }
}
