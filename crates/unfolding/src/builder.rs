//! The ERV unfolding algorithm: construction of a finite complete
//! prefix of a safe net system (see `docs/UNFOLDING.md`).
//!
//! One [`Builder`] owns the occurrence net under construction and the
//! adequate-order queue of possible extensions. It pops the smallest
//! extension, inserts it as an event, decides whether it is a cut-off
//! and, if not, integrates its postset conditions and discovers the
//! extensions each of them completes. The prefix is canonical: the
//! queue breaks key ties by insertion order, so the same net system
//! always yields the same events in the same order.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::error::Error;
use std::fmt;

use petri::{BitSet, Marking, Net, PlaceId, StopGuard, StopReason, TransitionId};
use stg::Stg;

use crate::occ::{CondData, CondId, CutoffMate, EventData, EventId, Prefix};
use crate::order::{OrderKey, OrderStrategy};

/// Options controlling prefix construction.
///
/// Construct with [`UnfoldOptions::new`] (or `Default`) and chain the
/// setters; the struct is `#[non_exhaustive]`, so adding a knob is not
/// a breaking change and struct-literal construction is reserved to
/// this crate. The fields stay readable everywhere.
///
/// ```
/// use unfolding::{OrderStrategy, UnfoldOptions};
///
/// let options = UnfoldOptions::new()
///     .order(OrderStrategy::McMillan)
///     .max_events(10_000);
/// assert_eq!(options.max_events, 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct UnfoldOptions {
    /// Abort with [`UnfoldError::TooManyEvents`] beyond this many
    /// events (a guard against unbounded or explosive nets).
    pub max_events: usize,
    /// The adequate order used for queueing and cut-offs.
    pub order: OrderStrategy,
}

impl UnfoldOptions {
    /// The default options: ERV total order, 200 000-event cap.
    pub fn new() -> Self {
        UnfoldOptions {
            max_events: 200_000,
            order: OrderStrategy::ErvTotal,
        }
    }

    /// Sets the event cap.
    #[must_use]
    pub fn max_events(mut self, max_events: usize) -> Self {
        self.max_events = max_events;
        self
    }

    /// Sets the adequate order.
    #[must_use]
    pub fn order(mut self, order: OrderStrategy) -> Self {
        self.order = order;
        self
    }
}

impl Default for UnfoldOptions {
    fn default() -> Self {
        UnfoldOptions::new()
    }
}

/// Counters from one prefix construction, kept on the finished
/// [`Prefix`] (see [`Prefix::unfold_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct UnfoldStats {
    /// Possible extensions discovered (pushes onto the order queue).
    pub pe_discovered: u64,
    /// Events committed to the prefix (cut-offs included).
    pub pe_commits: u64,
}

/// An error during prefix construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UnfoldError {
    /// The event limit was reached before the prefix was complete.
    TooManyEvents(usize),
    /// Two concurrent conditions carry the same place — the net
    /// system is not safe, which this unfolder requires.
    UnsafeNet {
        /// The place observed with two concurrent tokens.
        place: PlaceId,
    },
    /// Construction was stopped by the caller's [`StopGuard`]
    /// (cancellation or deadline) before the prefix was complete.
    Interrupted {
        /// Why the guard fired.
        reason: StopReason,
        /// Events built before stopping.
        events: usize,
    },
}

impl fmt::Display for UnfoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnfoldError::TooManyEvents(n) => {
                write!(f, "prefix exceeded the limit of {n} events")
            }
            UnfoldError::UnsafeNet { place } => {
                write!(
                    f,
                    "net system is not safe: place {place} can hold two tokens"
                )
            }
            UnfoldError::Interrupted { reason, events } => {
                write!(f, "unfolding stopped ({reason}) after {events} events")
            }
        }
    }
}

impl Error for UnfoldError {}

/// A possible extension: a transition plus a co-set of conditions
/// matching its preset. `seq` is its position in discovery order,
/// assigned when it is queued.
struct Pe {
    key: OrderKey,
    transition: TransitionId,
    preset: Vec<CondId>,
    depth: u32,
    seq: u64,
}

impl PartialEq for Pe {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Pe {}

impl Ord for Pe {
    fn cmp(&self, other: &Self) -> Ordering {
        // Full ERV comparison (harmless refinement under McMillan,
        // whose keys carry empty Parikh/Foata parts), with the
        // insertion sequence as a final deterministic tie-break.
        // Reversed so that BinaryHeap pops the minimum.
        other
            .key
            .size
            .cmp(&self.key.size)
            .then_with(|| other.key.parikh.cmp(&self.key.parikh))
            .then_with(|| other.key.foata.cmp(&self.key.foata))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Pe {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The prefix under construction together with the queue of possible
/// extensions and the cut-off table.
struct Builder<'a> {
    net: &'a Net,
    options: UnfoldOptions,
    conds: Vec<CondData>,
    events: Vec<EventData>,
    min_conds: Vec<CondId>,
    /// Concurrency relation over conditions (extendable ones only).
    co: Vec<BitSet>,
    co_capacity: usize,
    /// Extendable conditions per original place.
    place_conds: Vec<Vec<CondId>>,
    queue: BinaryHeap<Pe>,
    /// `Mark([e]) → (key, mate)` entries for the cut-off test.
    mark_table: HashMap<Marking, Vec<(OrderKey, CutoffMate)>>,
    num_cutoffs: usize,
    seq: u64,
    stats: UnfoldStats,
}

impl<'a> Builder<'a> {
    fn new(net: &'a Net, options: UnfoldOptions) -> Self {
        Builder {
            net,
            options,
            conds: Vec::new(),
            events: Vec::new(),
            min_conds: Vec::new(),
            co: Vec::new(),
            co_capacity: 256,
            place_conds: vec![Vec::new(); net.num_places()],
            queue: BinaryHeap::new(),
            mark_table: HashMap::new(),
            num_cutoffs: 0,
            seq: 0,
            stats: UnfoldStats::default(),
        }
    }

    fn ensure_co_capacity(&mut self) {
        if self.conds.len() >= self.co_capacity {
            self.co_capacity *= 2;
            for set in &mut self.co {
                set.grow(self.co_capacity);
            }
        }
    }

    fn new_condition(
        &mut self,
        place: PlaceId,
        producer: Option<EventId>,
        from_cutoff: bool,
    ) -> CondId {
        let id = CondId::from_index(self.conds.len());
        self.conds.push(CondData {
            place,
            producer,
            consumers: Vec::new(),
            from_cutoff,
        });
        self.ensure_co_capacity();
        self.co.push(BitSet::new(self.co_capacity));
        id
    }

    /// The key of the local configuration a new event `(t, preset)`
    /// would have, together with its depth and history bit set
    /// (excluding the event itself).
    fn extension_key(&self, t: TransitionId, preset: &[CondId]) -> (OrderKey, u32, BitSet) {
        let mut history = BitSet::new(self.events.len().max(1));
        let mut depth = 0u32;
        for &b in preset {
            if let Some(p) = self.conds[b.index()].producer {
                let local = &self.events[p.index()].local;
                if local.capacity() > history.capacity() {
                    history.grow(local.capacity());
                    history.union_with(local);
                } else {
                    let mut grown = local.clone();
                    grown.grow(history.capacity());
                    history.union_with(&grown);
                }
                depth = depth.max(self.events[p.index()].depth);
            }
        }
        let depth = depth + 1;
        let size = history.len() as u32 + 1;
        let (parikh, foata) = match self.options.order {
            OrderStrategy::McMillan => (Vec::new(), Vec::new()),
            OrderStrategy::ErvTotal => {
                let nt = self.net.num_transitions();
                let mut parikh = vec![0u16; nt];
                let mut levels: Vec<Vec<u16>> = vec![vec![0u16; nt]; depth as usize];
                for e in history.iter() {
                    let data = &self.events[e];
                    parikh[data.transition.index()] += 1;
                    levels[(data.depth - 1) as usize][data.transition.index()] += 1;
                }
                parikh[t.index()] += 1;
                levels[(depth - 1) as usize][t.index()] += 1;
                (parikh, levels)
            }
        };
        (
            OrderKey {
                size,
                parikh,
                foata,
            },
            depth,
            history,
        )
    }

    /// The marking `Mark([e])` for a new event `(t, preset)` whose
    /// history (local configuration minus the event) is given.
    fn extension_marking(&self, t: TransitionId, preset: &[CondId], history: &BitSet) -> Marking {
        let mut m = Marking::empty(self.net.num_places());
        // Cut of the history...
        for (i, cond) in self.conds.iter().enumerate() {
            let produced = match cond.producer {
                None => true,
                Some(p) => history.contains(p.index()),
            };
            if !produced {
                continue;
            }
            let consumed = cond.consumers.iter().any(|e| history.contains(e.index()));
            if !consumed && !preset.contains(&CondId::from_index(i)) {
                m.add_token(cond.place);
            }
        }
        // ...plus the postset of t.
        for &p in self.net.postset(t) {
            m.add_token(p);
        }
        m
    }

    /// Queues the possible extensions in which `b` participates as
    /// the maximal (most recently added) condition, numbering them in
    /// discovery order: transitions in `place_postset` order, co-sets
    /// in DFS order over size-sorted candidate slots.
    fn discover(&mut self, b: CondId) {
        let mut found = Vec::new();
        let place = self.conds[b.index()].place;
        for &t in self.net.place_postset(place) {
            let preset_places = self.net.preset(t);
            // Candidate conditions per preset place other than `place`.
            let mut slots: Vec<(PlaceId, Vec<CondId>)> = Vec::new();
            let mut feasible = true;
            for &q in preset_places {
                if q == place {
                    continue;
                }
                let cands: Vec<CondId> = self.place_conds[q.index()]
                    .iter()
                    .copied()
                    .filter(|&c| c < b && self.co[b.index()].contains(c.index()))
                    .collect();
                if cands.is_empty() {
                    feasible = false;
                    break;
                }
                slots.push((q, cands));
            }
            if !feasible {
                continue;
            }
            slots.sort_by_key(|(_, cands)| cands.len());
            let mut chosen: Vec<CondId> = Vec::with_capacity(slots.len());
            self.search_cosets(t, b, &slots, &mut chosen, &mut found);
        }
        for mut pe in found {
            self.seq += 1;
            self.stats.pe_discovered += 1;
            pe.seq = self.seq;
            self.queue.push(pe);
        }
    }

    fn search_cosets(
        &self,
        t: TransitionId,
        b: CondId,
        slots: &[(PlaceId, Vec<CondId>)],
        chosen: &mut Vec<CondId>,
        out: &mut Vec<Pe>,
    ) {
        if chosen.len() == slots.len() {
            let mut preset: Vec<CondId> = chosen.clone();
            preset.push(b);
            preset.sort_unstable();
            let (key, depth, _history) = self.extension_key(t, &preset);
            out.push(Pe {
                key,
                transition: t,
                preset,
                depth,
                seq: 0,
            });
            return;
        }
        let (_, cands) = &slots[chosen.len()];
        for &c in cands {
            if chosen
                .iter()
                .all(|&d| self.co[c.index()].contains(d.index()))
            {
                chosen.push(c);
                self.search_cosets(t, b, slots, chosen, out);
                chosen.pop();
            }
        }
    }

    /// Integrates a freshly created extendable condition: computes
    /// its concurrency set, checks safety, and registers it for
    /// discovery. Discovery runs once every sibling is integrated —
    /// candidates are filtered by `c < b`, so sibling registration
    /// order cannot change any condition's extension set.
    ///
    /// `siblings` are the other postset conditions of the same event.
    fn integrate_condition(
        &mut self,
        b: CondId,
        producer: Option<EventId>,
        siblings: &[CondId],
    ) -> Result<(), UnfoldError> {
        let mut co_set = match producer {
            None => {
                // Minimal condition: concurrent with the other minimal
                // conditions added so far.
                let mut s = BitSet::new(self.co_capacity);
                for &m in &self.min_conds {
                    if m != b {
                        s.insert(m.index());
                    }
                }
                s
            }
            Some(e) => {
                // co(b) = ⋂ co(•e) \ •e, plus the siblings.
                let preset = self.events[e.index()].preset.clone();
                let mut s: Option<BitSet> = None;
                for &c in &preset {
                    let mut cs = self.co[c.index()].clone();
                    cs.grow(self.co_capacity);
                    match &mut s {
                        None => s = Some(cs),
                        Some(acc) => acc.intersect_with(&cs),
                    }
                }
                let mut s = s.unwrap_or_else(|| BitSet::new(self.co_capacity));
                for &c in &preset {
                    s.remove(c.index());
                }
                s
            }
        };
        for &sib in siblings {
            if sib != b {
                co_set.insert(sib.index());
            }
        }
        // Safety check: a concurrent condition with the same place
        // means two simultaneous tokens on that place.
        let place = self.conds[b.index()].place;
        for c in co_set.iter() {
            if self.conds[c].place == place {
                return Err(UnfoldError::UnsafeNet { place });
            }
        }
        // Symmetrise.
        for c in co_set.iter() {
            self.co[c].insert(b.index());
        }
        self.co[b.index()] = co_set;
        self.place_conds[place.index()].push(b);
        Ok(())
    }

    fn run(&mut self, m0: &Marking, guard: &StopGuard) -> Result<(), UnfoldError> {
        // Seed the cut-off table with the empty configuration.
        let empty_key = match self.options.order {
            OrderStrategy::McMillan => OrderKey {
                size: 0,
                parikh: Vec::new(),
                foata: Vec::new(),
            },
            OrderStrategy::ErvTotal => OrderKey {
                size: 0,
                parikh: vec![0u16; self.net.num_transitions()],
                foata: Vec::new(),
            },
        };
        self.mark_table
            .insert(m0.clone(), vec![(empty_key, CutoffMate::Initial)]);

        // Minimal conditions, one per token.
        for p in m0.marked_places() {
            if m0.tokens(p) > 1 {
                return Err(UnfoldError::UnsafeNet { place: p });
            }
            let b = self.new_condition(p, None, false);
            self.min_conds.push(b);
        }
        let mins = self.min_conds.clone();
        for &b in &mins {
            self.integrate_condition(b, None, &[])?;
        }
        for &b in &mins {
            self.discover(b);
        }

        while let Some(pe) = self.queue.pop() {
            if let Err(reason) = guard.poll_now() {
                return Err(UnfoldError::Interrupted {
                    reason,
                    events: self.events.len(),
                });
            }
            if self.events.len() >= self.options.max_events {
                return Err(UnfoldError::TooManyEvents(self.options.max_events));
            }
            let Pe {
                key,
                transition,
                preset,
                depth,
                ..
            } = pe;
            let (_, _, history) = self.extension_key(transition, &preset);
            let marking = self.extension_marking(transition, &preset, &history);

            let mate = self.mark_table.get(&marking).and_then(|entries| {
                entries
                    .iter()
                    .find(|(k, _)| k.is_strictly_less(&key, self.options.order))
                    .map(|&(_, mate)| mate)
            });

            let id = EventId::from_index(self.events.len());
            let mut local = history;
            local.grow(id.index() + 1);
            local.insert(id.index());
            let size = local.len() as u32;
            for &b in &preset {
                self.conds[b.index()].consumers.push(id);
            }
            let is_cutoff = mate.is_some();
            let net = self.net;
            let postset: Vec<CondId> = net
                .postset(transition)
                .iter()
                .map(|&p| self.new_condition(p, Some(id), is_cutoff))
                .collect();
            self.events.push(EventData {
                transition,
                preset,
                postset: postset.clone(),
                cutoff: mate,
                key: key.clone(),
                local,
                size,
                depth,
            });
            self.stats.pe_commits += 1;

            if is_cutoff {
                self.num_cutoffs += 1;
                continue;
            }
            for &b in &postset {
                self.integrate_condition(b, Some(id), &postset)?;
            }
            self.mark_table
                .entry(marking)
                .or_default()
                .push((key, CutoffMate::Event(id)));
            for &b in &postset {
                self.discover(b);
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Prefix {
        // Normalise local-configuration capacities for callers.
        let n = self.events.len();
        for e in &mut self.events {
            e.local.grow(n);
        }
        Prefix {
            conds: self.conds,
            events: self.events,
            min_conds: self.min_conds,
            num_cutoffs: self.num_cutoffs,
            num_places: self.net.num_places(),
            num_transitions: self.net.num_transitions(),
            stats: self.stats,
        }
    }
}

fn unfold_with(
    net: &Net,
    m0: &Marking,
    options: UnfoldOptions,
    guard: &StopGuard,
) -> Result<Prefix, UnfoldError> {
    let mut builder = Builder::new(net, options);
    builder.run(m0, guard)?;
    Ok(builder.finish())
}

impl Prefix {
    /// Unfolds a safe net system into a finite complete prefix.
    ///
    /// # Errors
    ///
    /// Fails if the net system is not safe or the event limit is hit.
    ///
    /// # Examples
    ///
    /// ```
    /// use petri::{Marking, NetBuilder};
    /// use unfolding::{Prefix, UnfoldOptions};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = NetBuilder::new();
    /// let p = b.add_place("p");
    /// let q = b.add_place("q");
    /// let t = b.add_transition("t");
    /// let u = b.add_transition("u");
    /// b.arc_pt(p, t)?;
    /// b.arc_tp(t, q)?;
    /// b.arc_pt(q, u)?;
    /// b.arc_tp(u, p)?;
    /// let net = b.build()?;
    /// let m0 = Marking::with_tokens(2, &[(p, 1)]);
    /// let prefix = Prefix::unfold(&net, &m0, UnfoldOptions::default())?;
    /// // t fires, then u closes the loop back to M0 and is a cut-off.
    /// assert_eq!(prefix.num_events(), 2);
    /// assert_eq!(prefix.num_cutoffs(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn unfold(net: &Net, m0: &Marking, options: UnfoldOptions) -> Result<Prefix, UnfoldError> {
        unfold_with(net, m0, options, &StopGuard::unlimited())
    }

    /// Like [`Prefix::unfold`], additionally polling `guard` before
    /// each possible extension is processed, so a cancellation flag
    /// or wall-clock deadline interrupts construction between
    /// events.
    ///
    /// # Errors
    ///
    /// [`UnfoldError::Interrupted`] when the guard fires, plus
    /// everything [`Prefix::unfold`] can return.
    pub fn unfold_guarded(
        net: &Net,
        m0: &Marking,
        options: UnfoldOptions,
        guard: &StopGuard,
    ) -> Result<Prefix, UnfoldError> {
        unfold_with(net, m0, options, guard)
    }

    /// Unfolds the net system underlying an STG.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Prefix::unfold`].
    pub fn of_stg(stg: &Stg, options: UnfoldOptions) -> Result<Prefix, UnfoldError> {
        Prefix::unfold(stg.net(), stg.initial_marking(), options)
    }

    /// Guarded variant of [`Prefix::of_stg`]; see
    /// [`Prefix::unfold_guarded`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Prefix::unfold_guarded`].
    pub fn of_stg_guarded(
        stg: &Stg,
        options: UnfoldOptions,
        guard: &StopGuard,
    ) -> Result<Prefix, UnfoldError> {
        Prefix::unfold_guarded(stg.net(), stg.initial_marking(), options, guard)
    }

    /// Like [`Prefix::of_stg_guarded`], but hands the finished prefix
    /// out behind an [`Arc`](std::sync::Arc) — the form consumed by artifact
    /// pipelines that share one prefix across engines, properties and
    /// threads instead of re-unfolding per call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Prefix::of_stg_guarded`].
    pub fn of_stg_shared(
        stg: &Stg,
        options: UnfoldOptions,
        guard: &StopGuard,
    ) -> Result<std::sync::Arc<Prefix>, UnfoldError> {
        Prefix::of_stg_guarded(stg, options, guard).map(std::sync::Arc::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petri::NetBuilder;

    /// Two independent 2-phase cycles.
    fn parallel() -> (Net, Marking) {
        let mut b = NetBuilder::new();
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
            init.push((p0, 1));
        }
        let net = b.build().unwrap();
        let m0 = Marking::with_tokens(net.num_places(), &init);
        (net, m0)
    }

    #[test]
    fn parallel_cycles_unfold_concurrently() {
        let (net, m0) = parallel();
        let prefix = Prefix::unfold(&net, &m0, UnfoldOptions::default()).unwrap();
        // Each branch: u_i then d_i (cut-off, back to M0).
        assert_eq!(prefix.num_events(), 4);
        assert_eq!(prefix.num_cutoffs(), 2);
        assert!(prefix.is_dynamically_conflict_free());
    }

    #[test]
    fn choice_creates_conflicting_events() {
        // One place, two competing consumers, both restoring it.
        let mut b = NetBuilder::new();
        let p = b.add_place("p");
        let q1 = b.add_place("q1");
        let q2 = b.add_place("q2");
        let t1 = b.add_transition("t1");
        let t2 = b.add_transition("t2");
        b.arc_pt(p, t1).unwrap();
        b.arc_tp(t1, q1).unwrap();
        b.arc_pt(p, t2).unwrap();
        b.arc_tp(t2, q2).unwrap();
        let net = b.build().unwrap();
        let m0 = Marking::with_tokens(3, &[(p, 1)]);
        let prefix = Prefix::unfold(&net, &m0, UnfoldOptions::default()).unwrap();
        assert_eq!(prefix.num_events(), 2);
        assert_eq!(prefix.num_cutoffs(), 0);
        assert!(!prefix.is_dynamically_conflict_free());
        // The two events consume the same minimal condition.
        let b0 = prefix.min_conditions()[0];
        assert_eq!(prefix.cond_consumers(b0).len(), 2);
    }

    #[test]
    fn unsafe_net_rejected() {
        let mut b = NetBuilder::new();
        let p = b.add_place("p");
        let q = b.add_place("q");
        let t = b.add_transition("t");
        b.arc_pt(p, t).unwrap();
        b.arc_tp(t, q).unwrap();
        let net = b.build().unwrap();
        let m0 = Marking::with_tokens(2, &[(p, 2)]);
        assert!(matches!(
            Prefix::unfold(&net, &m0, UnfoldOptions::default()),
            Err(UnfoldError::UnsafeNet { .. })
        ));
    }

    #[test]
    fn event_limit_enforced() {
        let (net, m0) = parallel();
        let options = UnfoldOptions::new().max_events(1);
        assert!(matches!(
            Prefix::unfold(&net, &m0, options),
            Err(UnfoldError::TooManyEvents(1))
        ));
    }

    #[test]
    fn local_configs_are_configurations() {
        let (net, m0) = parallel();
        let prefix = Prefix::unfold(&net, &m0, UnfoldOptions::default()).unwrap();
        for e in prefix.events() {
            assert!(prefix.is_configuration(prefix.local_config(e)));
            assert_eq!(prefix.local_size(e) as usize, prefix.local_config(e).len());
        }
    }

    #[test]
    fn cutoff_markings_match_their_mates() {
        let (net, m0) = parallel();
        let prefix = Prefix::unfold(&net, &m0, UnfoldOptions::default()).unwrap();
        for e in prefix.events() {
            match prefix.cutoff_mate(e) {
                Some(CutoffMate::Initial) => {
                    assert_eq!(prefix.marking_of(prefix.local_config(e)), m0);
                }
                Some(CutoffMate::Event(f)) => {
                    assert_eq!(
                        prefix.marking_of(prefix.local_config(e)),
                        prefix.marking_of(prefix.local_config(f))
                    );
                }
                None => {}
            }
        }
    }

    #[test]
    fn cancelled_guard_interrupts_unfolding() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let (net, m0) = parallel();
        let flag = Arc::new(AtomicBool::new(true));
        let guard = StopGuard::new(Some(flag.clone()), None);
        let err = Prefix::unfold_guarded(&net, &m0, UnfoldOptions::default(), &guard)
            .expect_err("pre-cancelled guard must interrupt");
        match err {
            UnfoldError::Interrupted { reason, .. } => {
                assert_eq!(reason, StopReason::Cancelled);
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }

        flag.store(false, Ordering::Relaxed);
        let prefix = Prefix::unfold_guarded(&net, &m0, UnfoldOptions::default(), &guard)
            .expect("cleared guard must not interrupt");
        assert!(prefix.num_events() > 0);
    }

    #[test]
    fn mcmillan_prefix_is_no_smaller() {
        let (net, m0) = parallel();
        let erv = Prefix::unfold(&net, &m0, UnfoldOptions::default()).unwrap();
        let mcm = Prefix::unfold(
            &net,
            &m0,
            UnfoldOptions::new().order(OrderStrategy::McMillan),
        )
        .unwrap();
        assert!(mcm.num_events() >= erv.num_events());
    }

    #[test]
    fn concurrent_tokens_on_one_place_rejected() {
        let mut b = NetBuilder::new();
        let p = b.add_place("p");
        let q = b.add_place("q");
        let r = b.add_place("r");
        let t = b.add_transition("t");
        let u = b.add_transition("u");
        b.arc_pt(p, t).unwrap();
        b.arc_tp(t, r).unwrap();
        b.arc_pt(q, u).unwrap();
        b.arc_tp(u, r).unwrap();
        let net = b.build().unwrap();
        let m0 = Marking::with_tokens(3, &[(p, 1), (q, 1)]);
        assert!(matches!(
            Prefix::unfold(&net, &m0, UnfoldOptions::default()),
            Err(UnfoldError::UnsafeNet { .. })
        ));
    }

    #[test]
    fn stats_count_discovery_and_commits() {
        let (net, m0) = parallel();
        let prefix = Prefix::unfold(&net, &m0, UnfoldOptions::default()).unwrap();
        let stats = prefix.unfold_stats();
        assert_eq!(stats.pe_commits, prefix.num_events() as u64);
        assert!(stats.pe_discovered >= stats.pe_commits);
    }
}
