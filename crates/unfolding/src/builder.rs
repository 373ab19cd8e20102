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

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::error::Error;
use std::fmt;
use std::ops::Range;

use petri::{BitSet, Marking, Net, PlaceId, StopGuard, StopReason, TransitionId};
use stg::Stg;

use crate::occ::{CondData, CondId, CutoffMate, EventData, EventId, Prefix};
use crate::order::OrderKey;

/// Options controlling prefix construction.
///
/// Construct with [`UnfoldOptions::new`] (or `Default`) and chain the
/// setters; the struct is `#[non_exhaustive]`, so adding a knob is not
/// a breaking change and struct-literal construction is reserved to
/// this crate. The fields stay readable everywhere.
///
/// ```
/// use unfolding::UnfoldOptions;
///
/// let options = UnfoldOptions::new().max_events(10_000);
/// assert_eq!(options.max_events, 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct UnfoldOptions {
    /// Abort with [`UnfoldError::TooManyEvents`] beyond this many
    /// events (a guard against unbounded or explosive nets).
    pub max_events: usize,
}

impl UnfoldOptions {
    /// The default options: a 200 000-event cap.
    pub fn new() -> Self {
        UnfoldOptions {
            max_events: 200_000,
        }
    }

    /// Sets the event cap.
    #[must_use]
    pub fn max_events(mut self, max_events: usize) -> Self {
        self.max_events = max_events;
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
/// matching its preset, with the key, history and depth computed at
/// discovery and carried to the commit. `seq` is its position in
/// discovery order, assigned when it is queued.
struct Pe {
    key: OrderKey,
    transition: TransitionId,
    preset: Vec<CondId>,
    /// `[e] \ {e}` as an event bit set.
    history: BitSet,
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
        // The ERV order, with the insertion sequence as a final
        // deterministic tie-break. Reversed so that BinaryHeap pops
        // the minimum.
        other
            .key
            .compare(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Pe {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Buffers reused across events, so discovery and the marking
/// equation allocate only what they hand on.
#[derive(Default)]
struct Scratch {
    /// Token counts of the marking equation, per place.
    tokens: Vec<i32>,
    /// Extensions found by one [`Builder::discover`] call.
    found: Vec<Pe>,
    /// Candidate conditions of every slot, back to back.
    cands: Vec<CondId>,
    /// One slot per preset place: its range of `cands`.
    slots: Vec<Range<usize>>,
    /// The co-set under construction in [`Builder::search_cosets`].
    chosen: Vec<CondId>,
}

/// The prefix under construction together with the queue of possible
/// extensions and the cut-off table.
struct Builder<'a> {
    net: &'a Net,
    m0: &'a Marking,
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
    /// `Mark([e]) → mates` for the cut-off test, in entry order. A
    /// mate's key is the empty key or its event's key.
    mark_table: HashMap<Marking, Vec<CutoffMate>>,
    /// The key of the empty configuration, the mate [`CutoffMate::Initial`].
    empty_key: OrderKey,
    num_cutoffs: usize,
    seq: u64,
    stats: UnfoldStats,
    scratch: Scratch,
}

impl<'a> Builder<'a> {
    fn new(net: &'a Net, m0: &'a Marking, options: UnfoldOptions) -> Self {
        let empty_key = OrderKey {
            size: 0,
            parikh: vec![0u16; net.num_transitions()],
            foata: Vec::new(),
        };
        Builder {
            net,
            m0,
            options,
            conds: Vec::new(),
            events: Vec::new(),
            min_conds: Vec::new(),
            co: Vec::new(),
            co_capacity: 256,
            place_conds: vec![Vec::new(); net.num_places()],
            queue: BinaryHeap::new(),
            mark_table: HashMap::new(),
            empty_key,
            num_cutoffs: 0,
            seq: 0,
            stats: UnfoldStats::default(),
            scratch: Scratch::default(),
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
        // Replaced when the condition is integrated; the postset of a
        // cut-off never is, and no co-set is read before.
        self.co.push(BitSet::new(0));
        id
    }

    /// The key of the local configuration a new event `(t, preset)`
    /// would have, together with its depth and history bit set
    /// (excluding the event itself). The history is the union of the
    /// preset producers' local configurations: the key starts from the
    /// key of the largest of them and counts only the events the
    /// others add.
    fn extension_key(&self, t: TransitionId, preset: &[CondId]) -> (OrderKey, u32, BitSet) {
        let capacity = self.events.len().max(1);
        let producers = preset.iter().filter_map(|b| self.conds[b.index()].producer);
        let depth = 1 + producers
            .clone()
            .map(|p| self.events[p.index()].depth)
            .max()
            .unwrap_or(0);
        let base = producers
            .clone()
            .max_by_key(|p| (self.events[p.index()].size, Reverse(*p)))
            .map(|p| &self.events[p.index()]);
        let nt = self.net.num_transitions();
        let (mut history, mut parikh, mut foata) = match base {
            Some(data) => {
                let mut history = data.local.clone();
                history.grow(capacity);
                (history, data.key.parikh.clone(), data.key.foata.clone())
            }
            None => (
                BitSet::new(capacity),
                self.empty_key.parikh.clone(),
                Vec::new(),
            ),
        };
        foata.resize(depth as usize, vec![0u16; nt]);
        for p in producers {
            if history.contains(p.index()) {
                continue;
            }
            let mut local = self.events[p.index()].local.clone();
            local.grow(capacity);
            for f in local.iter_difference(&history) {
                let data = &self.events[f];
                parikh[data.transition.index()] += 1;
                foata[(data.depth - 1) as usize][data.transition.index()] += 1;
            }
            history.union_with(&local);
        }
        parikh[t.index()] += 1;
        foata[(depth - 1) as usize][t.index()] += 1;
        (
            OrderKey {
                size: history.len() as u32 + 1,
                parikh,
                foata,
            },
            depth,
            history,
        )
    }

    /// `Mark([e])` for a possible extension `e`, by the marking
    /// equation `M0 + N·#[e]`: exact for the configurations of a safe
    /// net's unfolding. The key carries the Parikh vector `#[e]`.
    fn extension_marking(&mut self, pe: &Pe) -> Marking {
        let net = self.net;
        let tokens = &mut self.scratch.tokens;
        tokens.clear();
        tokens.extend(self.m0.as_slice().iter().map(|&k| k as i32));
        for (u, &k) in pe.key.parikh.iter().enumerate() {
            if k > 0 {
                let u = TransitionId::new(u);
                for &p in net.preset(u) {
                    tokens[p.index()] -= i32::from(k);
                }
                for &p in net.postset(u) {
                    tokens[p.index()] += i32::from(k);
                }
            }
        }
        let mut marking = Marking::empty(net.num_places());
        for (p, &k) in tokens.iter().enumerate() {
            for _ in 0..k {
                marking.add_token(PlaceId::new(p));
            }
        }
        marking
    }

    /// Queues the possible extensions in which `b` participates as
    /// the maximal (most recently added) condition, numbering them in
    /// discovery order: transitions in `place_postset` order, co-sets
    /// in DFS order over size-sorted candidate slots.
    fn discover(&mut self, b: CondId) {
        let Scratch {
            mut found,
            mut cands,
            mut slots,
            mut chosen,
            tokens,
        } = std::mem::take(&mut self.scratch);
        let place = self.conds[b.index()].place;
        let co_b = &self.co[b.index()];
        for &t in self.net.place_postset(place) {
            // Candidate conditions per preset place other than `place`.
            cands.clear();
            slots.clear();
            let feasible = self
                .net
                .preset(t)
                .iter()
                .filter(|&&q| q != place)
                .all(|&q| {
                    let start = cands.len();
                    cands.extend(
                        self.place_conds[q.index()]
                            .iter()
                            .copied()
                            .filter(|&c| c < b && co_b.contains(c.index())),
                    );
                    slots.push(start..cands.len());
                    cands.len() > start
                });
            if !feasible {
                continue;
            }
            slots.sort_by_key(|slot| slot.len());
            self.search_cosets(t, b, &cands, &slots, &mut chosen, &mut found);
        }
        for mut pe in found.drain(..) {
            self.seq += 1;
            self.stats.pe_discovered += 1;
            pe.seq = self.seq;
            self.queue.push(pe);
        }
        self.scratch = Scratch {
            tokens,
            found,
            cands,
            slots,
            chosen,
        };
    }

    fn search_cosets(
        &self,
        t: TransitionId,
        b: CondId,
        cands: &[CondId],
        slots: &[Range<usize>],
        chosen: &mut Vec<CondId>,
        out: &mut Vec<Pe>,
    ) {
        let Some(slot) = slots.get(chosen.len()) else {
            let mut preset: Vec<CondId> = Vec::with_capacity(chosen.len() + 1);
            preset.extend_from_slice(chosen);
            preset.push(b);
            preset.sort_unstable();
            let (key, depth, history) = self.extension_key(t, &preset);
            out.push(Pe {
                key,
                transition: t,
                preset,
                history,
                depth,
                seq: 0,
            });
            return;
        };
        for &c in &cands[slot.clone()] {
            if chosen
                .iter()
                .all(|&d| self.co[c.index()].contains(d.index()))
            {
                chosen.push(c);
                self.search_cosets(t, b, cands, slots, chosen, out);
                chosen.pop();
            }
        }
    }

    /// `⋂ co(•e) \ •e` for an event with the given preset: the
    /// conditions concurrent with every condition `e` produces. The
    /// co-set of every integrated condition has `co_capacity` bits, so
    /// the intersection runs in place on one copy.
    fn preset_co(&self, preset: &[CondId]) -> BitSet {
        let mut s = match preset.split_first() {
            Some((first, rest)) => {
                let mut s = self.co[first.index()].clone();
                for c in rest {
                    s.intersect_with(&self.co[c.index()]);
                }
                s
            }
            None => BitSet::new(self.co_capacity),
        };
        for c in preset {
            s.remove(c.index());
        }
        s
    }

    /// Integrates freshly created extendable conditions, concurrent
    /// with each other and with every condition of `base`: computes
    /// their concurrency sets, checks safety, and registers them for
    /// discovery. Discovery runs once every sibling is integrated —
    /// candidates are filtered by `c < b`, so sibling registration
    /// order cannot change any condition's extension set.
    fn integrate_conditions(&mut self, new: &[CondId], base: &BitSet) -> Result<(), UnfoldError> {
        for &b in new {
            let mut co_set = base.clone();
            for &sib in new {
                if sib != b {
                    co_set.insert(sib.index());
                }
            }
            // Safety check: a concurrent condition with the same place
            // means two simultaneous tokens on that place. A co-set
            // holds only integrated conditions and siblings, so those
            // of the place are the only ones to look at.
            let place = self.conds[b.index()].place;
            let clash = self.place_conds[place.index()]
                .iter()
                .any(|c| co_set.contains(c.index()))
                || new
                    .iter()
                    .any(|&sib| sib != b && self.conds[sib.index()].place == place);
            if clash {
                return Err(UnfoldError::UnsafeNet { place });
            }
            // Symmetrise; each sibling's own co-set already holds `b`.
            for c in base.iter() {
                self.co[c].insert(b.index());
            }
            self.co[b.index()] = co_set;
            self.place_conds[place.index()].push(b);
        }
        Ok(())
    }

    fn run(&mut self, guard: &StopGuard) -> Result<(), UnfoldError> {
        // Seed the cut-off table with the empty configuration.
        self.mark_table
            .insert(self.m0.clone(), vec![CutoffMate::Initial]);

        // Minimal conditions, one per token.
        let m0 = self.m0;
        for p in m0.marked_places() {
            if m0.tokens(p) > 1 {
                return Err(UnfoldError::UnsafeNet { place: p });
            }
            let b = self.new_condition(p, None, false);
            self.min_conds.push(b);
        }
        let mins = self.min_conds.clone();
        self.integrate_conditions(&mins, &BitSet::new(self.co_capacity))?;
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
            let marking = self.extension_marking(&pe);
            let Pe {
                key,
                transition,
                preset,
                history,
                depth,
                ..
            } = pe;
            let id = EventId::from_index(self.events.len());
            // The cut-off test; a non-cut-off event enters the table.
            let mates = self.mark_table.entry(marking).or_default();
            let mate = mates.iter().copied().find(|&mate| {
                let mate_key = match mate {
                    CutoffMate::Initial => &self.empty_key,
                    CutoffMate::Event(f) => &self.events[f.index()].key,
                };
                mate_key.is_strictly_less(&key)
            });
            if mate.is_none() {
                mates.push(CutoffMate::Event(id));
            }
            let mut local = history;
            local.grow(id.index() + 1);
            local.insert(id.index());
            for &b in &preset {
                self.conds[b.index()].consumers.push(id);
            }
            let is_cutoff = mate.is_some();
            let net = self.net;
            let first = self.conds.len();
            let postset: Vec<CondId> = net
                .postset(transition)
                .iter()
                .map(|&p| self.new_condition(p, Some(id), is_cutoff))
                .collect();
            if !is_cutoff {
                let base = self.preset_co(&preset);
                self.integrate_conditions(&postset, &base)?;
            }
            self.events.push(EventData {
                transition,
                preset,
                postset,
                cutoff: mate,
                size: key.size,
                key,
                local,
                depth,
            });
            self.stats.pe_commits += 1;

            if is_cutoff {
                self.num_cutoffs += 1;
                continue;
            }
            for b in first..self.conds.len() {
                self.discover(CondId::from_index(b));
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
    let mut builder = Builder::new(net, m0, options);
    builder.run(guard)?;
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
