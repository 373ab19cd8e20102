//! The explicit state graph `SG_Γ` and ground-truth checkers.
//!
//! This module evaluates the paper's definitions literally on the
//! enumerated reachable state space: USC/CSC conflicts (§2.1),
//! consistency, and p/n-normalcy (§6). It serves two roles:
//!
//! * the *oracle* every other engine is tested against, and
//! * the explicit-state baseline in the benchmark harness.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use petri::{
    ExploreLimits, Marking, ReachError, ReachabilityGraph, StateId, StopGuard, TransitionId,
};

use crate::code::CodeVec;
use crate::signal::{Label, Signal};
use crate::stg::Stg;

/// An error while building a state graph.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SgError {
    /// Exploration failed (unbounded net or state limit).
    Reach(ReachError),
    /// Firing `transition` at `state` drives some signal outside
    /// `{0,1}` — the STG is not consistent.
    NotBinary {
        /// The source state.
        state: StateId,
        /// The offending transition.
        transition: TransitionId,
    },
    /// Two paths assign different codes to `state` — the STG is not
    /// consistent.
    NonDeterministicCode {
        /// The state with ambiguous code.
        state: StateId,
    },
}

impl fmt::Display for SgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SgError::Reach(e) => write!(f, "state-graph exploration failed: {e}"),
            SgError::NotBinary { state, transition } => write!(
                f,
                "inconsistent stg: firing {transition} at {state} leaves binary codes"
            ),
            SgError::NonDeterministicCode { state } => {
                write!(f, "inconsistent stg: state {state} has two different codes")
            }
        }
    }
}

impl Error for SgError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SgError::Reach(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ReachError> for SgError {
    fn from(e: ReachError) -> Self {
        SgError::Reach(e)
    }
}

/// Verdict of a normalcy check for one signal (§6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalcyVerdict {
    /// The signal checked.
    pub signal: Signal,
    /// Whether the signal is p-normal
    /// (`Code(M') ≤ Code(M'') ⇒ Nxt_z(M') ≤ Nxt_z(M'')`).
    pub p_normal: bool,
    /// Whether the signal is n-normal
    /// (`Code(M') ≤ Code(M'') ⇒ Nxt_z(M') ≥ Nxt_z(M'')`).
    pub n_normal: bool,
    /// A pair witnessing the violation of p-normalcy, if any.
    pub p_violation: Option<(StateId, StateId)>,
    /// A pair witnessing the violation of n-normalcy, if any.
    pub n_violation: Option<(StateId, StateId)>,
}

impl NormalcyVerdict {
    /// A signal is *normal* iff it is p-normal or n-normal.
    pub fn is_normal(&self) -> bool {
        self.p_normal || self.n_normal
    }
}

/// The state graph of a consistent STG: the reachability graph plus the
/// state assignment function `Code`.
///
/// # Examples
///
/// ```
/// use stg::gen::vme::vme_read;
/// use stg::StateGraph;
///
/// # fn main() -> Result<(), stg::SgError> {
/// let stg = vme_read();
/// let sg = StateGraph::build(&stg, Default::default())?;
/// // The classic VME read controller has a CSC conflict...
/// assert!(sg.first_csc_conflict(&stg).is_some());
/// // ...with both states coded 10110 (Fig. 1 of the paper).
/// let (a, b) = sg.first_csc_conflict(&stg).unwrap();
/// assert_eq!(sg.code(a).to_string(), "10110");
/// assert_eq!(sg.code(b).to_string(), "10110");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StateGraph {
    reach: ReachabilityGraph,
    codes: Vec<CodeVec>,
}

impl StateGraph {
    /// Explores the reachable states and assigns codes, verifying
    /// consistency on the way.
    ///
    /// # Errors
    ///
    /// Returns [`SgError`] if exploration hits `limits` or the STG is
    /// inconsistent.
    pub fn build(stg: &Stg, limits: ExploreLimits) -> Result<Self, SgError> {
        StateGraph::build_guarded(stg, limits, &StopGuard::unlimited())
    }

    /// Like [`StateGraph::build`], additionally polling `guard` at
    /// each BFS expansion so a cancellation flag or deadline stops
    /// the exploration.
    ///
    /// # Errors
    ///
    /// [`SgError::Reach`] wrapping [`ReachError::Stopped`] when the
    /// guard fires, plus everything [`StateGraph::build`] can return.
    pub fn build_guarded(
        stg: &Stg,
        limits: ExploreLimits,
        guard: &StopGuard,
    ) -> Result<Self, SgError> {
        let reach =
            ReachabilityGraph::explore_guarded(stg.net(), stg.initial_marking(), limits, guard)?;
        let n = reach.num_states();
        let mut codes: Vec<Option<CodeVec>> = vec![None; n];
        codes[0] = Some(stg.initial_code().clone());
        for s in reach.states() {
            let code = codes[s.index()].clone().expect("BFS fills codes in order");
            for &(t, succ) in reach.successors(s) {
                let next = match stg.label(t) {
                    Label::SignalEdge(z, e) => {
                        let mut delta = crate::code::ChangeVec::zero(stg.num_signals());
                        delta.bump(z, e.delta());
                        code.apply(&delta).ok_or(SgError::NotBinary {
                            state: s,
                            transition: t,
                        })?
                    }
                    Label::Dummy => code.clone(),
                };
                match &codes[succ.index()] {
                    None => codes[succ.index()] = Some(next),
                    Some(existing) if *existing != next => {
                        return Err(SgError::NonDeterministicCode { state: succ });
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(StateGraph {
            reach,
            codes: codes
                .into_iter()
                .map(|c| c.expect("all reachable"))
                .collect(),
        })
    }

    /// Number of states `|[M0⟩|`.
    pub fn num_states(&self) -> usize {
        self.reach.num_states()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.reach.num_edges()
    }

    /// Iterates over all states in BFS order.
    pub fn states(&self) -> impl ExactSizeIterator<Item = StateId> + '_ {
        self.reach.states()
    }

    /// The marking of a state.
    pub fn marking(&self, s: StateId) -> &Marking {
        self.reach.marking(s)
    }

    /// The code of a state.
    pub fn code(&self, s: StateId) -> &CodeVec {
        &self.codes[s.index()]
    }

    /// A shortest firing sequence from the initial state to `s`.
    pub fn path_to(&self, s: StateId) -> Vec<TransitionId> {
        self.reach.path_to(s)
    }

    /// The underlying reachability graph.
    pub fn reachability(&self) -> &ReachabilityGraph {
        &self.reach
    }

    /// Groups state ids by code.
    fn code_classes(&self) -> HashMap<&CodeVec, Vec<StateId>> {
        let mut classes: HashMap<&CodeVec, Vec<StateId>> = HashMap::new();
        for s in self.states() {
            classes.entry(&self.codes[s.index()]).or_default().push(s);
        }
        classes
    }

    /// All USC conflict pairs `(s, s')` with `s < s'`.
    pub fn usc_conflict_pairs(&self) -> Vec<(StateId, StateId)> {
        let mut pairs = Vec::new();
        for group in self.code_classes().values() {
            for (i, &a) in group.iter().enumerate() {
                for &b in &group[i + 1..] {
                    pairs.push((a.min(b), a.max(b)));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// The smallest pair `(a, b)`, `a < b`, of states with equal codes
    /// and different keys, or with `any` the first such pair met.
    ///
    /// In state order, each code class's first state `a` is paired with
    /// the first later state of the class whose key differs from `a`'s.
    /// When any two states of a class differ, one of them differs from
    /// `a`, so that is the class's smallest pair, and the smallest over
    /// the classes is the graph's: the first pair of the sorted lists
    /// [`StateGraph::usc_conflict_pairs`] and
    /// [`StateGraph::csc_conflict_pairs`] build. Keys are computed only
    /// for states that share a code, and at most once for each `a`.
    fn first_pair<K: PartialEq>(
        &self,
        key: impl Fn(StateId) -> K,
        any: bool,
    ) -> Option<(StateId, StateId)> {
        let mut first: HashMap<&CodeVec, (StateId, Option<K>)> = HashMap::new();
        let mut best: Option<(StateId, StateId)> = None;
        for s in self.states() {
            let (a, a_key) = match first.entry(&self.codes[s.index()]) {
                Entry::Vacant(e) => {
                    e.insert((s, None));
                    continue;
                }
                Entry::Occupied(e) => e.into_mut(),
            };
            // The class already holds the best pair, or cannot beat it.
            if best.is_some_and(|(b, _)| b <= *a) {
                continue;
            }
            if *a_key.get_or_insert_with(|| key(*a)) != key(s) {
                best = Some((*a, s));
                if any {
                    break;
                }
            }
        }
        best
    }

    /// The first USC conflict in state order, if any.
    pub fn first_usc_conflict(&self) -> Option<(StateId, StateId)> {
        // Distinct states always differ: every same-code pair counts.
        self.first_pair(|s| s, false)
    }

    /// Whether the STG satisfies the USC property.
    pub fn satisfies_usc(&self) -> bool {
        self.first_pair(|s| s, true).is_none()
    }

    /// All CSC conflict pairs: same code, different `Out`.
    pub fn csc_conflict_pairs(&self, stg: &Stg) -> Vec<(StateId, StateId)> {
        let outs: Vec<Vec<Signal>> = self
            .states()
            .map(|s| stg.enabled_local_signals(self.marking(s)))
            .collect();
        let mut pairs = Vec::new();
        for group in self.code_classes().values() {
            for (i, &a) in group.iter().enumerate() {
                for &b in &group[i + 1..] {
                    if outs[a.index()] != outs[b.index()] {
                        pairs.push((a.min(b), a.max(b)));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// The first CSC conflict in state order, if any.
    pub fn first_csc_conflict(&self, stg: &Stg) -> Option<(StateId, StateId)> {
        self.first_pair(|s| stg.enabled_local_signals(self.marking(s)), false)
    }

    /// Whether the STG satisfies the CSC property.
    pub fn satisfies_csc(&self, stg: &Stg) -> bool {
        self.first_pair(|s| stg.enabled_local_signals(self.marking(s)), true)
            .is_none()
    }

    /// Checks p/n-normalcy of signal `z` by enumerating all ordered
    /// code pairs (§6). Quadratic in the number of states — this is
    /// the brute-force oracle.
    pub fn normalcy_of(&self, stg: &Stg, z: Signal) -> NormalcyVerdict {
        let nxt: Vec<bool> = self
            .states()
            .map(|s| stg.next_state(self.marking(s), self.code(s), z))
            .collect();
        let mut verdict = NormalcyVerdict {
            signal: z,
            p_normal: true,
            n_normal: true,
            p_violation: None,
            n_violation: None,
        };
        let states: Vec<StateId> = self.states().collect();
        for &a in &states {
            for &b in &states {
                if !self.code(a).componentwise_le(self.code(b)) {
                    continue;
                }
                // Code(a) ≤ Code(b): p-normalcy wants Nxt(a) ≤ Nxt(b),
                // n-normalcy wants Nxt(a) ≥ Nxt(b).
                if nxt[a.index()] && !nxt[b.index()] && verdict.p_normal {
                    verdict.p_normal = false;
                    verdict.p_violation = Some((a, b));
                }
                if !nxt[a.index()] && nxt[b.index()] && verdict.n_normal {
                    verdict.n_normal = false;
                    verdict.n_violation = Some((a, b));
                }
                if !verdict.p_normal && !verdict.n_normal {
                    return verdict;
                }
            }
        }
        verdict
    }

    /// Checks *output persistency* (a speed-independence condition
    /// also required for implementability): once a circuit-driven
    /// signal edge is enabled, no other transition's firing may
    /// disable it — only its own firing consumes the excitation.
    /// Returns the first violation as `(state, disabled edge, the
    /// transition that disabled it)`.
    pub fn first_persistency_violation(
        &self,
        stg: &Stg,
    ) -> Option<(StateId, TransitionId, TransitionId)> {
        for s in self.states() {
            let m = self.marking(s);
            for t in stg.net().transitions() {
                // Only local (circuit-driven) signal edges must persist.
                let Some(z) = stg.label(t).signal() else {
                    continue;
                };
                if !stg.signal_kind(z).is_local() || !stg.net().is_enabled(m, t) {
                    continue;
                }
                for &(other, succ) in self.reach.successors(s) {
                    if other == t {
                        continue;
                    }
                    // Firing a different transition must keep some
                    // edge of the same direction of z enabled.
                    let edge = stg.label(t).edge().expect("signal edge");
                    if !stg.is_edge_enabled(self.marking(succ), z, edge) {
                        return Some((s, t, other));
                    }
                }
            }
        }
        None
    }

    /// Whether every circuit-driven signal edge is persistent.
    pub fn is_output_persistent(&self, stg: &Stg) -> bool {
        self.first_persistency_violation(stg).is_none()
    }

    /// Normalcy verdicts for every circuit-driven signal.
    pub fn normalcy_report(&self, stg: &Stg) -> Vec<NormalcyVerdict> {
        stg.local_signals()
            .map(|z| self.normalcy_of(stg, z))
            .collect()
    }

    /// Whether every circuit-driven signal is normal.
    pub fn is_normal(&self, stg: &Stg) -> bool {
        self.normalcy_report(stg)
            .iter()
            .all(NormalcyVerdict::is_normal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::CodeVec;
    use crate::signal::{Edge, SignalKind};
    use crate::stg::StgBuilder;

    fn handshake() -> Stg {
        let mut b = StgBuilder::new();
        let req = b.add_signal("req", SignalKind::Input);
        let ack = b.add_signal("ack", SignalKind::Output);
        let rp = b.edge(req, Edge::Rise);
        let ap = b.edge(ack, Edge::Rise);
        let rm = b.edge(req, Edge::Fall);
        let am = b.edge(ack, Edge::Fall);
        b.chain_cycle(&[rp, ap, rm, am]).unwrap();
        b.set_initial_code(CodeVec::zeros(2));
        b.build().unwrap()
    }

    #[test]
    fn handshake_is_usc_and_csc() {
        let stg = handshake();
        let sg = StateGraph::build(&stg, Default::default()).unwrap();
        assert_eq!(sg.num_states(), 4);
        assert!(sg.satisfies_usc());
        assert!(sg.satisfies_csc(&stg));
        assert!(sg.usc_conflict_pairs().is_empty());
    }

    #[test]
    fn codes_follow_paths() {
        let stg = handshake();
        let sg = StateGraph::build(&stg, Default::default()).unwrap();
        for s in sg.states() {
            let path = sg.path_to(s);
            assert_eq!(&stg.code_after(&path).unwrap(), sg.code(s));
        }
    }

    #[test]
    fn usc_conflict_detected() {
        // Two sequential handshake "hops" on distinct signal pairs:
        // after hop 1 completes all signals are back at 0 but the
        // marking differs from the initial one => USC conflict.
        let mut b = StgBuilder::new();
        let a = b.add_signal("a", SignalKind::Output);
        let c = b.add_signal("c", SignalKind::Output);
        let ap = b.edge(a, Edge::Rise);
        let am = b.edge(a, Edge::Fall);
        let cp = b.edge(c, Edge::Rise);
        let cm = b.edge(c, Edge::Fall);
        b.chain_cycle(&[ap, am, cp, cm]).unwrap();
        b.set_initial_code(CodeVec::zeros(2));
        let stg = b.build().unwrap();
        let sg = StateGraph::build(&stg, Default::default()).unwrap();
        assert_eq!(sg.num_states(), 4);
        assert!(!sg.satisfies_usc());
        // Initial state and the state after a+a- both have code 00 but
        // different enabled outputs (a vs c) => also a CSC conflict.
        assert!(!sg.satisfies_csc(&stg));
        let (s1, s2) = sg.first_csc_conflict(&stg).unwrap();
        assert_eq!(sg.code(s1), sg.code(s2));
        assert_ne!(sg.marking(s1), sg.marking(s2));
    }

    #[test]
    fn first_conflicts_are_the_smallest_listed_pairs() {
        use crate::gen::random::{random_stg, RandomStgConfig};
        let config = RandomStgConfig {
            signals: 5,
            ..RandomStgConfig::default()
        };
        let mut conflicted = [0, 0];
        for seed in 0..150 {
            let stg = random_stg(&config, seed);
            let sg = StateGraph::build(&stg, Default::default()).unwrap();
            let usc = sg.usc_conflict_pairs();
            let csc = sg.csc_conflict_pairs(&stg);
            assert_eq!(sg.first_usc_conflict(), usc.first().copied(), "{seed}");
            assert_eq!(sg.satisfies_usc(), usc.is_empty(), "{seed}");
            assert_eq!(sg.first_csc_conflict(&stg), csc.first().copied(), "{seed}");
            assert_eq!(sg.satisfies_csc(&stg), csc.is_empty(), "{seed}");
            conflicted[0] += usize::from(!usc.is_empty());
            conflicted[1] += usize::from(!csc.is_empty());
        }
        // Both searches meet conflicted and conflict-free nets.
        assert!(
            conflicted.iter().all(|&n| n > 10 && n < 140),
            "{conflicted:?}"
        );
    }

    #[test]
    fn cancelled_guard_stops_build() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let stg = handshake();
        let flag = Arc::new(AtomicBool::new(true));
        let guard = StopGuard::new(Some(flag), None);
        let err = StateGraph::build_guarded(&stg, Default::default(), &guard)
            .expect_err("pre-cancelled guard must stop the build");
        assert!(matches!(err, SgError::Reach(ReachError::Stopped { .. })));
    }

    #[test]
    fn inconsistent_stg_rejected() {
        // a+ twice in a row.
        let mut b = StgBuilder::new();
        let a = b.add_signal("a", SignalKind::Output);
        let t1 = b.edge(a, Edge::Rise);
        let t2 = b.edge(a, Edge::Rise);
        b.chain_cycle(&[t1, t2]).unwrap();
        b.set_initial_code(CodeVec::zeros(1));
        let stg = b.build().unwrap();
        assert!(matches!(
            StateGraph::build(&stg, Default::default()),
            Err(SgError::NotBinary { .. })
        ));
    }

    #[test]
    fn handshake_outputs_are_normal() {
        let stg = handshake();
        let sg = StateGraph::build(&stg, Default::default()).unwrap();
        let report = sg.normalcy_report(&stg);
        assert_eq!(report.len(), 1); // only ack is circuit-driven
        assert!(report[0].is_normal());
        assert!(sg.is_normal(&stg));
    }

    #[test]
    fn handshake_outputs_are_persistent() {
        let stg = handshake();
        let sg = StateGraph::build(&stg, Default::default()).unwrap();
        assert!(sg.is_output_persistent(&stg));
    }

    #[test]
    fn arbitration_violates_output_persistency() {
        // Two outputs competing for one token: firing either disables
        // the other — the canonical persistency violation.
        let mut b = StgBuilder::new();
        let g1 = b.add_signal("g1", SignalKind::Output);
        let g2 = b.add_signal("g2", SignalKind::Output);
        let up1 = b.edge(g1, Edge::Rise);
        let up2 = b.edge(g2, Edge::Rise);
        let down1 = b.edge(g1, Edge::Fall);
        let down2 = b.edge(g2, Edge::Fall);
        let mutex = b.add_place("mutex");
        b.mark(mutex, 1);
        b.arc_pt(mutex, up1).unwrap();
        b.arc_pt(mutex, up2).unwrap();
        b.connect(up1, down1).unwrap();
        b.connect(up2, down2).unwrap();
        b.arc_tp(down1, mutex).unwrap();
        b.arc_tp(down2, mutex).unwrap();
        b.set_initial_code(CodeVec::zeros(2));
        let stg = b.build().unwrap();
        let sg = StateGraph::build(&stg, Default::default()).unwrap();
        let (s, t, other) = sg
            .first_persistency_violation(&stg)
            .expect("mutex choice between outputs is non-persistent");
        assert_eq!(s, petri::StateId(0));
        assert_ne!(t, other);
    }

    #[test]
    fn input_choice_does_not_violate_persistency() {
        // The same structure with *input* signals is fine: inputs are
        // the environment's business.
        let mut b = StgBuilder::new();
        let r1 = b.add_signal("r1", SignalKind::Input);
        let r2 = b.add_signal("r2", SignalKind::Input);
        let up1 = b.edge(r1, Edge::Rise);
        let up2 = b.edge(r2, Edge::Rise);
        let down1 = b.edge(r1, Edge::Fall);
        let down2 = b.edge(r2, Edge::Fall);
        let choice = b.add_place("choice");
        b.mark(choice, 1);
        b.arc_pt(choice, up1).unwrap();
        b.arc_pt(choice, up2).unwrap();
        b.connect(up1, down1).unwrap();
        b.connect(up2, down2).unwrap();
        b.arc_tp(down1, choice).unwrap();
        b.arc_tp(down2, choice).unwrap();
        b.set_initial_code(CodeVec::zeros(2));
        let stg = b.build().unwrap();
        let sg = StateGraph::build(&stg, Default::default()).unwrap();
        assert!(sg.is_output_persistent(&stg));
    }

    #[test]
    fn dummies_keep_code_unchanged() {
        let mut b = StgBuilder::new();
        let a = b.add_signal("a", SignalKind::Output);
        let t1 = b.edge(a, Edge::Rise);
        let d = b.dummy("tau");
        let t2 = b.edge(a, Edge::Fall);
        b.chain_cycle(&[t1, d, t2]).unwrap();
        b.set_initial_code(CodeVec::zeros(1));
        let stg = b.build().unwrap();
        let sg = StateGraph::build(&stg, Default::default()).unwrap();
        assert_eq!(sg.num_states(), 3);
        // The dummy introduces a second state with code 1 (after a+ and
        // after tau) => USC conflict by the letter of the definition.
        assert!(!sg.satisfies_usc());
    }
}
