//! Explicit reachability exploration.
//!
//! This is the state-space substrate for the ground-truth checkers
//! (state graphs are built on top of it in the `stg` crate) and for the
//! test oracles that validate the unfolding engine.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::BuildHasher;

use crate::{Marking, Net, StopGuard, StopReason, TransitionId};

/// Identifier of a state (reachable marking) in a
/// [`ReachabilityGraph`]; dense in discovery (BFS) order, so state 0 is
/// the initial marking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StateId(pub u32);

impl StateId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Limits for explicit exploration, guarding against state explosion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreLimits {
    /// Maximum number of distinct markings to discover.
    pub max_states: usize,
    /// Bound `k`: exploration fails if some place exceeds `k` tokens.
    pub token_bound: u32,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_states: 1_000_000,
            token_bound: 1,
        }
    }
}

/// An error during explicit exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReachError {
    /// More reachable markings than [`ExploreLimits::max_states`].
    StateLimitExceeded(usize),
    /// A reachable marking puts more than
    /// [`ExploreLimits::token_bound`] tokens on the given place — the
    /// net is not `k`-bounded.
    BoundExceeded(crate::PlaceId),
    /// Exploration was stopped by the caller's [`StopGuard`]
    /// (cancellation or deadline); the payload carries the reason and
    /// how many states had been discovered.
    Stopped {
        /// Why the guard fired.
        reason: StopReason,
        /// States discovered before stopping.
        states: usize,
    },
}

impl fmt::Display for ReachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReachError::StateLimitExceeded(n) => {
                write!(f, "state limit of {n} reachable markings exceeded")
            }
            ReachError::BoundExceeded(p) => {
                write!(f, "token bound exceeded on place {p}")
            }
            ReachError::Stopped { reason, states } => {
                write!(f, "exploration stopped ({reason}) after {states} states")
            }
        }
    }
}

impl Error for ReachError {}

/// The explicit reachability graph `[M0⟩` of a net system, with BFS
/// parent pointers for shortest-witness extraction. Each state owns
/// one heap block, its marking: the index keys states by the marking's
/// hash, and all edges share one vector.
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    markings: Vec<Marking>,
    /// The last state whose marking has the given hash.
    index: HashMap<u64, StateId>,
    /// `same_hash[s]`: the state found before `s` with `s`'s hash.
    same_hash: Vec<Option<StateId>>,
    /// (t, s') pairs with `M_s [t⟩ M_{s'}`; BFS expands states in id
    /// order, so `s`'s edges are `edges[offsets[s]..offsets[s + 1]]`.
    edges: Vec<(TransitionId, StateId)>,
    offsets: Vec<usize>,
    /// BFS tree: the (transition, predecessor) that first discovered a
    /// state; `None` for the initial state.
    parent: Vec<Option<(TransitionId, StateId)>>,
}

impl ReachabilityGraph {
    /// Explores all markings reachable from `m0`, breadth-first.
    ///
    /// # Errors
    ///
    /// Fails with [`ReachError`] if the limits are hit; partial graphs
    /// are never returned.
    pub fn explore(net: &Net, m0: &Marking, limits: ExploreLimits) -> Result<Self, ReachError> {
        Self::explore_guarded(net, m0, limits, &StopGuard::unlimited())
    }

    /// Like [`ReachabilityGraph::explore`], additionally polling
    /// `guard` before each state expansion so a cancellation flag or
    /// wall-clock deadline interrupts the BFS between states.
    ///
    /// # Errors
    ///
    /// [`ReachError::Stopped`] when the guard fires, plus everything
    /// [`ReachabilityGraph::explore`] can return.
    pub fn explore_guarded(
        net: &Net,
        m0: &Marking,
        limits: ExploreLimits,
        guard: &StopGuard,
    ) -> Result<Self, ReachError> {
        if let Some(p) = m0
            .marked_places()
            .find(|&p| m0.tokens(p) > limits.token_bound)
        {
            return Err(ReachError::BoundExceeded(p));
        }
        let mut g = ReachabilityGraph {
            markings: vec![m0.clone()],
            index: HashMap::new(),
            same_hash: vec![None],
            edges: Vec::new(),
            offsets: vec![0],
            parent: vec![None],
        };
        g.index.insert(g.index.hasher().hash_one(m0), StateId(0));
        // Successors are built in one scratch marking; only a new
        // state's marking is copied out of it.
        let mut next = m0.clone();
        let mut frontier = 0usize;
        while frontier < g.markings.len() {
            if let Err(reason) = guard.poll_now() {
                return Err(ReachError::Stopped {
                    reason,
                    states: g.markings.len(),
                });
            }
            let sid = StateId(frontier as u32);
            for t in net.transitions() {
                let current = &g.markings[frontier];
                if !net.is_enabled(current, t) {
                    continue;
                }
                next.clone_from(current);
                for &p in net.preset(t) {
                    next.remove_token(p);
                }
                for &p in net.postset(t) {
                    next.add_token(p);
                }
                // Only the postset, sorted by place id, gained tokens.
                if let Some(&p) = net
                    .postset(t)
                    .iter()
                    .find(|&&p| next.tokens(p) > limits.token_bound)
                {
                    return Err(ReachError::BoundExceeded(p));
                }
                let hash = g.index.hasher().hash_one(&next);
                let next_id = match g.find(&next, hash) {
                    Some(id) => id,
                    None => {
                        if g.markings.len() >= limits.max_states {
                            return Err(ReachError::StateLimitExceeded(limits.max_states));
                        }
                        let id = StateId(g.markings.len() as u32);
                        g.same_hash.push(g.index.insert(hash, id));
                        g.markings.push(next.clone());
                        g.parent.push(Some((t, sid)));
                        id
                    }
                };
                g.edges.push((t, next_id));
            }
            g.offsets.push(g.edges.len());
            frontier += 1;
        }
        Ok(g)
    }

    /// The state with marking `m`, whose hash is `hash`, if discovered.
    fn find(&self, m: &Marking, hash: u64) -> Option<StateId> {
        let mut candidate = self.index.get(&hash).copied();
        while let Some(s) = candidate {
            if self.markings[s.index()] == *m {
                return Some(s);
            }
            candidate = self.same_hash[s.index()];
        }
        None
    }

    /// Number of reachable markings.
    pub fn num_states(&self) -> usize {
        self.markings.len()
    }

    /// The marking of state `s`.
    pub fn marking(&self, s: StateId) -> &Marking {
        &self.markings[s.index()]
    }

    /// Looks up the state id of a marking, if reachable.
    pub fn state_of(&self, m: &Marking) -> Option<StateId> {
        self.find(m, self.index.hasher().hash_one(m))
    }

    /// Outgoing edges of `s` as (transition, successor) pairs.
    pub fn successors(&self, s: StateId) -> &[(TransitionId, StateId)] {
        &self.edges[self.offsets[s.index()]..self.offsets[s.index() + 1]]
    }

    /// Iterates over all state ids in BFS order.
    pub fn states(&self) -> impl ExactSizeIterator<Item = StateId> + '_ {
        (0..self.markings.len()).map(|i| StateId(i as u32))
    }

    /// A shortest firing sequence from the initial marking to `s`,
    /// reconstructed from the BFS tree.
    pub fn path_to(&self, s: StateId) -> Vec<TransitionId> {
        let mut path = Vec::new();
        let mut cur = s;
        while let Some((t, pred)) = self.parent[cur.index()] {
            path.push(t);
            cur = pred;
        }
        path.reverse();
        path
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The states with no outgoing edges (reachable deadlocks).
    pub fn deadlocks(&self) -> Vec<StateId> {
        self.states()
            .filter(|&s| self.successors(s).is_empty())
            .collect()
    }
}

/// Convenience: returns whether the net system `(net, m0)` is safe
/// (1-bounded), exploring at most `max_states` markings.
///
/// # Errors
///
/// Propagates [`ReachError::StateLimitExceeded`] when the verdict could
/// not be established within the limit.
pub fn is_safe(net: &Net, m0: &Marking, max_states: usize) -> Result<bool, ReachError> {
    match ReachabilityGraph::explore(
        net,
        m0,
        ExploreLimits {
            max_states,
            token_bound: 1,
        },
    ) {
        Ok(_) => Ok(true),
        Err(ReachError::BoundExceeded(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetBuilder;

    fn parallel_net() -> (Net, Marking, Vec<TransitionId>) {
        // Two independent 2-phase cycles => 4 states.
        let mut b = NetBuilder::new();
        let mut ts = Vec::new();
        let mut init = Vec::new();
        for i in 0..2 {
            let p0 = b.add_place(format!("p{i}0"));
            let p1 = b.add_place(format!("p{i}1"));
            let up = b.add_transition(format!("u{i}"));
            let down = b.add_transition(format!("d{i}"));
            b.arc_pt(p0, up).unwrap();
            b.arc_tp(up, p1).unwrap();
            b.arc_pt(p1, down).unwrap();
            b.arc_tp(down, p0).unwrap();
            ts.push(up);
            ts.push(down);
            init.push((p0, 1));
        }
        let net = b.build().unwrap();
        let m0 = Marking::with_tokens(net.num_places(), &init);
        (net, m0, ts)
    }

    #[test]
    fn explores_product_state_space() {
        let (net, m0, _) = parallel_net();
        let g = ReachabilityGraph::explore(&net, &m0, ExploreLimits::default()).unwrap();
        assert_eq!(g.num_states(), 4);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.state_of(&m0), Some(StateId(0)));
    }

    #[test]
    fn bfs_paths_replay() {
        let (net, m0, _) = parallel_net();
        let g = ReachabilityGraph::explore(&net, &m0, ExploreLimits::default()).unwrap();
        for s in g.states() {
            let path = g.path_to(s);
            let reached = net.fire_sequence(&m0, &path).expect("path must replay");
            assert_eq!(&reached, g.marking(s));
        }
    }

    #[test]
    fn state_limit_respected() {
        let (net, m0, _) = parallel_net();
        let limits = ExploreLimits {
            max_states: 2,
            token_bound: 1,
        };
        assert!(matches!(
            ReachabilityGraph::explore(&net, &m0, limits),
            Err(ReachError::StateLimitExceeded(2))
        ));
    }

    #[test]
    fn unsafe_net_detected() {
        // t moves a token from p to q twice? Make q accumulate: two
        // producers into q from a 2-token source.
        let mut b = NetBuilder::new();
        let p = b.add_place("p");
        let q = b.add_place("q");
        let t = b.add_transition("t");
        b.arc_pt(p, t).unwrap();
        b.arc_tp(t, q).unwrap();
        let net = b.build().unwrap();
        let m0 = Marking::with_tokens(2, &[(p, 2)]);
        assert_eq!(is_safe(&net, &m0, 100), Ok(false));
        let m0_safe = Marking::with_tokens(2, &[(p, 1)]);
        assert_eq!(is_safe(&net, &m0_safe, 100), Ok(true));
    }

    #[test]
    fn deadlocks_are_detected() {
        let (net, m0, _) = parallel_net();
        let g = ReachabilityGraph::explore(&net, &m0, ExploreLimits::default()).unwrap();
        assert!(g.deadlocks().is_empty(), "free-running cycles never stall");
        // A one-shot net deadlocks at its final state.
        let mut b = NetBuilder::new();
        let p = b.add_place("p");
        let q = b.add_place("q");
        let t = b.add_transition("t");
        b.arc_pt(p, t).unwrap();
        b.arc_tp(t, q).unwrap();
        let net = b.build().unwrap();
        let m0 = Marking::with_tokens(2, &[(p, 1)]);
        let g = ReachabilityGraph::explore(&net, &m0, ExploreLimits::default()).unwrap();
        let dead = g.deadlocks();
        assert_eq!(dead.len(), 1);
        assert!(net.is_deadlock(g.marking(dead[0])));
    }

    #[test]
    fn guarded_exploration_stops_on_cancel() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let (net, m0, _) = parallel_net();
        let flag = Arc::new(AtomicBool::new(true));
        let guard = StopGuard::new(Some(flag.clone()), None);
        let err = ReachabilityGraph::explore_guarded(&net, &m0, ExploreLimits::default(), &guard)
            .unwrap_err();
        assert!(matches!(
            err,
            ReachError::Stopped {
                reason: StopReason::Cancelled,
                ..
            }
        ));
        flag.store(false, Ordering::Relaxed);
        let g = ReachabilityGraph::explore_guarded(&net, &m0, ExploreLimits::default(), &guard)
            .unwrap();
        assert_eq!(g.num_states(), 4);
    }

    #[test]
    fn initial_overbound_rejected() {
        let (net, _m0, _) = parallel_net();
        let m_bad = {
            let mut m = Marking::empty(net.num_places());
            m.add_token(crate::PlaceId::new(0));
            m.add_token(crate::PlaceId::new(0));
            m
        };
        assert!(matches!(
            ReachabilityGraph::explore(&net, &m_bad, ExploreLimits::default()),
            Err(ReachError::BoundExceeded(_))
        ));
    }
}
