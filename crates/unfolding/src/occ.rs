//! Occurrence-net types: conditions, events, prefixes, configurations.

use std::fmt;

use petri::{BitSet, Marking, ParikhVector, PlaceId, TransitionId};
use stg::{ChangeVec, Label, Stg};

use crate::builder::UnfoldStats;
use crate::order::OrderKey;

/// Identifier of a condition (occurrence-net place) in a [`Prefix`].
///
/// The numbering is private to the unfolder; obtain ids from a
/// [`Prefix`]'s iterators and accessors, or reconstitute one from a
/// previously obtained [`CondId::index`] with [`CondId::from_index`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CondId(u32);

impl CondId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The condition with the given raw index (the inverse of
    /// [`CondId::index`]; e.g. a bit position from a condition set).
    pub fn from_index(index: usize) -> Self {
        CondId(index as u32)
    }
}

impl fmt::Debug for CondId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl fmt::Display for CondId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Identifier of an event (occurrence-net transition) in a [`Prefix`].
/// Events are numbered in insertion order, which coincides with the
/// adequate order used during construction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventId(u32);

impl EventId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The event with the given raw index (the inverse of
    /// [`EventId::index`]; e.g. a bit position from a configuration
    /// bit set).
    pub fn from_index(index: usize) -> Self {
        EventId(index as u32)
    }
}

impl fmt::Debug for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// What a cut-off event's configuration corresponds to: either the
/// empty configuration (its marking is `M0`) or the local
/// configuration of another event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutoffMate {
    /// `Mark([e]) = M0`.
    Initial,
    /// `Mark([e]) = Mark([f])` for the given `f` with `[f] < [e]`.
    Event(EventId),
}

#[derive(Debug, Clone)]
pub(crate) struct CondData {
    pub place: PlaceId,
    pub producer: Option<EventId>,
    pub consumers: Vec<EventId>,
    /// Conditions in the postset of a cut-off event are part of the
    /// prefix but are never extended.
    pub from_cutoff: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct EventData {
    pub transition: TransitionId,
    pub preset: Vec<CondId>,
    pub postset: Vec<CondId>,
    pub cutoff: Option<CutoffMate>,
    /// The adequate-order key of `[e]` the event was queued with.
    pub key: OrderKey,
    /// The local configuration `[e]` as an event bit set (includes
    /// `e` itself). Capacity equals the final number of events.
    pub local: BitSet,
    /// `|[e]|`.
    pub size: u32,
    /// Foata depth: `1 +` max depth of causal predecessors.
    pub depth: u32,
}

/// A finite (complete) prefix of the unfolding of a safe net system —
/// the branching process `Pref_Σ = (B, E, G, h)` of §2.3, with its
/// set of cut-off events.
///
/// Construct with [`Prefix::unfold`] (plain net systems) or
/// [`Prefix::of_stg`].
#[derive(Debug, Clone)]
pub struct Prefix {
    pub(crate) conds: Vec<CondData>,
    pub(crate) events: Vec<EventData>,
    pub(crate) min_conds: Vec<CondId>,
    pub(crate) num_cutoffs: usize,
    pub(crate) num_places: usize,
    pub(crate) num_transitions: usize,
    pub(crate) stats: UnfoldStats,
}

impl Prefix {
    /// Number of conditions `|B|`.
    pub fn num_conditions(&self) -> usize {
        self.conds.len()
    }

    /// Number of events `|E|`.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Number of cut-off events `|E_cut|`.
    pub fn num_cutoffs(&self) -> usize {
        self.num_cutoffs
    }

    /// Iterates over all event ids in adequate (insertion) order.
    pub fn events(&self) -> impl ExactSizeIterator<Item = EventId> + '_ {
        (0..self.events.len()).map(|i| EventId(i as u32))
    }

    /// Iterates over all condition ids.
    pub fn conditions(&self) -> impl ExactSizeIterator<Item = CondId> + '_ {
        (0..self.conds.len()).map(|i| CondId(i as u32))
    }

    /// The minimal conditions `Min(ON)` (the initial cut, one per
    /// token of `M0`).
    pub fn min_conditions(&self) -> &[CondId] {
        &self.min_conds
    }

    /// The original place `h(b)`.
    pub fn cond_place(&self, b: CondId) -> PlaceId {
        self.conds[b.index()].place
    }

    /// The event producing `b` (`None` for minimal conditions).
    pub fn cond_producer(&self, b: CondId) -> Option<EventId> {
        self.conds[b.index()].producer
    }

    /// The events consuming `b` (`b•`).
    pub fn cond_consumers(&self, b: CondId) -> &[EventId] {
        &self.conds[b.index()].consumers
    }

    /// Whether `b` was produced by a cut-off event (and is therefore
    /// never extended).
    pub fn cond_from_cutoff(&self, b: CondId) -> bool {
        self.conds[b.index()].from_cutoff
    }

    /// The original transition `h(e)`.
    pub fn event_transition(&self, e: EventId) -> TransitionId {
        self.events[e.index()].transition
    }

    /// The preset `•e`.
    pub fn event_preset(&self, e: EventId) -> &[CondId] {
        &self.events[e.index()].preset
    }

    /// The postset `e•`.
    pub fn event_postset(&self, e: EventId) -> &[CondId] {
        &self.events[e.index()].postset
    }

    /// Whether `e` is a cut-off event.
    pub fn is_cutoff(&self, e: EventId) -> bool {
        self.events[e.index()].cutoff.is_some()
    }

    /// The cut-off mate of `e`, if `e` is a cut-off event.
    pub fn cutoff_mate(&self, e: EventId) -> Option<CutoffMate> {
        self.events[e.index()].cutoff
    }

    /// The local configuration `[e]` (as an event bit set including
    /// `e`).
    pub fn local_config(&self, e: EventId) -> &BitSet {
        &self.events[e.index()].local
    }

    /// `|[e]|`.
    pub fn local_size(&self, e: EventId) -> u32 {
        self.events[e.index()].size
    }

    /// Foata depth of `e` (1 for minimal events).
    pub fn depth(&self, e: EventId) -> u32 {
        self.events[e.index()].depth
    }

    /// The adequate-order key of `[e]` the event was queued and
    /// committed with (size, Parikh vector, Foata normal form).
    pub fn order_key(&self, e: EventId) -> &OrderKey {
        &self.events[e.index()].key
    }

    /// Counters recorded while this prefix was built: possible
    /// extensions discovered (`pe_discovered`) and committed
    /// (`pe_commits`).
    pub fn unfold_stats(&self) -> UnfoldStats {
        self.stats
    }

    /// Whether event set `c` is a configuration: causally closed and
    /// conflict-free.
    pub fn is_configuration(&self, c: &BitSet) -> bool {
        // Causal closure: the preset producers of every event are in.
        for e in c.iter() {
            for &b in &self.events[e].preset {
                if let Some(p) = self.conds[b.index()].producer {
                    if !c.contains(p.index()) {
                        return false;
                    }
                }
            }
        }
        // Conflict-freeness: no condition consumed by two members.
        for b in self.conditions() {
            let consumers = self
                .cond_consumers(b)
                .iter()
                .filter(|e| c.contains(e.index()))
                .count();
            if consumers > 1 {
                return false;
            }
        }
        true
    }

    /// The cut `Cut(C)` of a finite configuration: the conditions
    /// produced (or minimal) and not consumed.
    pub fn cut_of(&self, c: &BitSet) -> Vec<CondId> {
        let mut cut = Vec::new();
        for b in self.conditions() {
            let produced = match self.conds[b.index()].producer {
                None => true,
                Some(p) => c.contains(p.index()),
            };
            if !produced {
                continue;
            }
            let consumed = self.cond_consumers(b).iter().any(|e| c.contains(e.index()));
            if !consumed {
                cut.push(b);
            }
        }
        cut
    }

    /// `Mark(C)`: the reachable marking of the original net
    /// represented by configuration `c`.
    pub fn marking_of(&self, c: &BitSet) -> Marking {
        let mut m = Marking::empty(self.num_places);
        for b in self.cut_of(c) {
            m.add_token(self.cond_place(b));
        }
        m
    }

    /// The Parikh vector of `c` over the original transitions.
    pub fn parikh_of(&self, c: &BitSet) -> ParikhVector {
        let mut x = ParikhVector::zero(self.num_transitions);
        for e in c.iter() {
            x.increment(self.events[e].transition);
        }
        x
    }

    /// A linearisation of `c`: its events in a causality-respecting
    /// order (by Foata depth, then id), mapped to original
    /// transitions they are ready to fire as.
    pub fn linearize(&self, c: &BitSet) -> Vec<EventId> {
        let mut events: Vec<EventId> = c.iter().map(|i| EventId(i as u32)).collect();
        events.sort_by_key(|&e| (self.depth(e), e));
        events
    }

    /// The firing sequence of original transitions corresponding to
    /// [`Prefix::linearize`].
    pub fn firing_sequence(&self, c: &BitSet) -> Vec<TransitionId> {
        self.linearize(c)
            .into_iter()
            .map(|e| self.event_transition(e))
            .collect()
    }

    /// The signal-change vector `v_C` of a configuration of an STG
    /// prefix.
    pub fn change_vector(&self, stg: &Stg, c: &BitSet) -> ChangeVec {
        let mut v = ChangeVec::zero(stg.num_signals());
        for e in c.iter() {
            if let Label::SignalEdge(z, edge) = stg.label(self.events[e].transition) {
                v.bump(z, edge.delta());
            }
        }
        v
    }

    /// An empty event set sized for this prefix (convenience for
    /// building configurations).
    pub fn empty_config(&self) -> BitSet {
        BitSet::new(self.num_events())
    }

    /// Whether the net is *dynamically conflict-free* as observed on
    /// the prefix (§7): no condition has two consumers. For such nets
    /// the union of any two configurations is a configuration
    /// (Proposition 1 applies).
    pub fn is_dynamically_conflict_free(&self) -> bool {
        self.conds.iter().all(|c| c.consumers.len() <= 1)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "prefix: |B|={} |E|={} |E_cut|={}",
            self.num_conditions(),
            self.num_events(),
            self.num_cutoffs()
        )
    }
}
