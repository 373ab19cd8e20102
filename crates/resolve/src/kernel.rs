//! The scoring kernel: a candidate insertion's CSC conflict count,
//! explored on bit-packed safe markings without building the candidate
//! as an [`Stg`].
//!
//! A round's parent net becomes per-transition bit masks once
//! ([`Parent`]). Each candidate is those masks patched with the split
//! rule of [`split_edges`] ([`Scorer::score`]). The breadth-first
//! search then fires transitions a word at a time: a marking is a
//! bitset of places (the resolver requires safe nets), a code a bitset
//! of signals, and both live in flat vectors that the scorer reuses
//! across a round's candidates, with an open-addressing index that
//! allocates nothing per state.
//!
//! The search stops at the first firing that is unsafe, leaves binary
//! codes or gives a state a second code, and at the state cap. Each of
//! these makes `StateGraph::build` fail on the built candidate, so each
//! scores [`Score::Broken`]. A consistent candidate's conflict pairs
//! are counted per code class as `C(n, 2) − Σ C(k, 2)`, where `k` runs
//! over the sizes of the class's `(code, Out)` sub-classes: the number
//! of pairs `StateGraph::csc_conflict_pairs` would list.

use petri::{Net, PlaceId, StopGuard, StopReason};
use stg::{Edge, Label, Stg};

use crate::insert::split_edges;

/// The score of one candidate insertion. Budget aborts are not a
/// score: they surface as the guard's [`StopReason`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Score {
    /// CSC conflict pairs remaining in the candidate.
    Conflicts(usize),
    /// The candidate is unsafe or inconsistent, or has more states
    /// than the cap; skip it.
    Broken,
}

/// What firing a transition does to the code: it flips bit `mask` of
/// code word `word`, which must read 0 before a rising edge and 1
/// before a falling one. A dummy has `mask == 0`. `out` is `mask` for
/// an edge of a local signal and 0 otherwise: the transition's share
/// of `Out`.
#[derive(Debug, Clone, Copy)]
struct Step {
    word: usize,
    mask: u64,
    rise: bool,
    out: u64,
}

impl Step {
    fn edge(signal: usize, edge: Edge, local: bool) -> Self {
        let mask = 1 << (signal % 64);
        Step {
            word: signal / 64,
            mask,
            rise: edge == Edge::Rise,
            out: if local { mask } else { 0 },
        }
    }
}

/// Sets bit `i` of a bitset.
fn set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Clears bit `i` of a bitset.
fn clear(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// A round's parent net as bit masks, shared by all its candidates.
pub(crate) struct Parent<'a> {
    net: &'a Net,
    /// Words per parent marking.
    words: usize,
    /// The parent's signal count, which is the inserted signal's index.
    signals: usize,
    /// Preset and postset of each transition, `words` words apiece.
    pre: Vec<u64>,
    post: Vec<u64>,
    steps: Vec<Step>,
    /// The initial marking; `None` when a place starts with more than
    /// one token, which makes every candidate unsafe.
    m0: Option<Vec<u64>>,
    /// The initial code, the inserted signal's bit 0.
    code0: Vec<u64>,
}

impl<'a> Parent<'a> {
    /// The masks of `stg`, the net every candidate of a round patches.
    pub(crate) fn new(stg: &'a Stg) -> Self {
        let net = stg.net();
        let words = net.num_places().div_ceil(64);
        let mut pre = vec![0; net.num_transitions() * words];
        let mut post = vec![0; net.num_transitions() * words];
        for t in net.transitions() {
            let row = t.index() * words..(t.index() + 1) * words;
            for &p in net.preset(t) {
                set(&mut pre[row.clone()], p.index());
            }
            for &p in net.postset(t) {
                set(&mut post[row.clone()], p.index());
            }
        }
        let steps = net
            .transitions()
            .map(|t| match stg.label(t) {
                Label::SignalEdge(z, e) => Step::edge(z.index(), e, stg.signal_kind(z).is_local()),
                Label::Dummy => Step {
                    word: 0,
                    mask: 0,
                    rise: false,
                    out: 0,
                },
            })
            .collect();
        let m = stg.initial_marking();
        let m0 = m.is_safe().then(|| {
            let mut m0 = vec![0; words];
            for p in m.marked_places() {
                set(&mut m0, p.index());
            }
            m0
        });
        let mut code0 = vec![0; (stg.num_signals() + 1).div_ceil(64)];
        for (z, bit) in stg.initial_code().bits().enumerate() {
            if bit {
                set(&mut code0, z);
            }
        }
        Parent {
            net,
            words,
            signals: stg.num_signals(),
            pre,
            post,
            steps,
            m0,
            code0,
        }
    }
}

/// Marks a free slot of the state index.
const EMPTY: u32 = u32::MAX;
/// Slots of the state index when a search starts.
const INITIAL_SLOTS: usize = 256;

/// A hash of a marking's words (Fx-style multiply-rotate).
fn hash(words: &[u64]) -> u64 {
    words.iter().fold(0, |h: u64, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// Looks marking `m` up in the index `table` over `markings` (`m.len()`
/// words per state): its state, or the free slot where it belongs.
fn probe(table: &[u32], markings: &[u64], m: &[u64]) -> Result<u32, usize> {
    let w = m.len();
    let mask = table.len() - 1;
    let mut slot = (hash(m) >> 32) as usize & mask;
    loop {
        let id = table[slot];
        if id == EMPTY {
            return Err(slot);
        }
        if markings[id as usize * w..][..w] == *m {
            return Ok(id);
        }
        slot = (slot + 1) & mask;
    }
}

/// Scratch space for scoring candidates, reused across them: the
/// patched masks and the search's states.
#[derive(Default)]
pub(crate) struct Scorer {
    /// Words per candidate marking.
    words: usize,
    /// Words per code (and per `Out` set).
    code_words: usize,
    pre: Vec<u64>,
    post: Vec<u64>,
    steps: Vec<Step>,
    /// State `s`'s marking, code and `Out` set, at `s × words` (or
    /// `s × code_words`).
    markings: Vec<u64>,
    codes: Vec<u64>,
    outs: Vec<u64>,
    /// Open-addressing index of `markings`: a state id or [`EMPTY`].
    table: Vec<u32>,
    /// The successor being built, its code and the expanded state's
    /// `Out`.
    next: Vec<u64>,
    code: Vec<u64>,
    out: Vec<u64>,
    /// States sorted by code and `Out`, for the count.
    order: Vec<u32>,
}

impl Scorer {
    /// Scores the candidate that inserts one toggle pair per `hosts`
    /// entry into `parent`, exploring at most `max_states` states and
    /// polling `guard` at every state expansion.
    ///
    /// # Errors
    ///
    /// The guard's reason when it fires mid-search.
    pub(crate) fn score(
        &mut self,
        parent: &Parent<'_>,
        hosts: &[(PlaceId, PlaceId)],
        max_states: usize,
        guard: &StopGuard,
    ) -> Result<Score, StopReason> {
        let Some(m0) = &parent.m0 else {
            return Ok(Score::Broken);
        };
        self.patch(parent, hosts);
        self.markings.clear();
        self.markings.extend_from_slice(m0);
        self.markings.resize(self.words, 0);
        self.codes.clear();
        self.codes.extend_from_slice(&parent.code0);
        self.outs.clear();
        self.table.clear();
        self.table.resize(INITIAL_SLOTS, EMPTY);
        if let Err(slot) = probe(&self.table, &self.markings, &self.markings) {
            self.table[slot] = 0;
        }
        if !self.explore(max_states, guard)? {
            return Ok(Score::Broken);
        }
        Ok(Score::Conflicts(self.count()))
    }

    /// Copies the parent's masks and applies the split rule: each edge
    /// `k` of [`split_edges`] gets the tail place `|P| + k`, which its
    /// host's consumers now read from, and a transition from the host
    /// to the tail.
    fn patch(&mut self, parent: &Parent<'_>, hosts: &[(PlaceId, PlaceId)]) {
        let places = parent.net.num_places();
        let (pw, w) = (parent.words, (places + 2 * hosts.len()).div_ceil(64));
        self.words = w;
        self.code_words = parent.code0.len();
        self.pre.clear();
        self.post.clear();
        for (pre, post) in parent.pre.chunks(pw).zip(parent.post.chunks(pw)) {
            self.pre.extend_from_slice(pre);
            self.pre.resize(self.pre.len() + w - pw, 0);
            self.post.extend_from_slice(post);
            self.post.resize(self.post.len() + w - pw, 0);
        }
        self.steps.clone_from(&parent.steps);
        for (k, (host, edge)) in split_edges(hosts).enumerate() {
            let tail = places + k;
            for &t in parent.net.place_postset(host) {
                let row = &mut self.pre[t.index() * w..][..w];
                clear(row, host.index());
                set(row, tail);
            }
            let row = self.pre.len();
            self.pre.resize(row + w, 0);
            set(&mut self.pre[row..], host.index());
            self.post.resize(row + w, 0);
            set(&mut self.post[row..], tail);
            self.steps.push(Step::edge(parent.signals, edge, true));
        }
    }

    /// The breadth-first search from state 0. Returns `false` at the
    /// first unsafe firing, non-binary code, code clash, or state past
    /// `max_states`.
    fn explore(&mut self, max_states: usize, guard: &StopGuard) -> Result<bool, StopReason> {
        let (w, cw) = (self.words, self.code_words);
        self.next.resize(w, 0);
        self.code.resize(cw, 0);
        self.out.resize(cw, 0);
        let mut s = 0;
        while s * w < self.markings.len() {
            guard.poll_now()?;
            self.out.fill(0);
            for t in 0..self.steps.len() {
                let step = self.steps[t];
                let m = &self.markings[s * w..][..w];
                let pre = &self.pre[t * w..][..w];
                if m.iter().zip(pre).any(|(&m, &p)| m & p != p) {
                    continue;
                }
                let post = &self.post[t * w..][..w];
                let mut unsafe_places = 0;
                for i in 0..w {
                    let kept = m[i] & !pre[i];
                    unsafe_places |= kept & post[i];
                    self.next[i] = kept | post[i];
                }
                if unsafe_places != 0 {
                    return Ok(false);
                }
                self.code.copy_from_slice(&self.codes[s * cw..][..cw]);
                if step.mask != 0 {
                    if (self.code[step.word] & step.mask != 0) == step.rise {
                        return Ok(false);
                    }
                    self.code[step.word] ^= step.mask;
                    self.out[step.word] |= step.out;
                }
                match probe(&self.table, &self.markings, &self.next) {
                    Ok(id) => {
                        if self.codes[id as usize * cw..][..cw] != self.code[..] {
                            return Ok(false);
                        }
                    }
                    Err(slot) => {
                        let n = self.markings.len() / w;
                        if n >= max_states {
                            return Ok(false);
                        }
                        self.table[slot] = n as u32;
                        self.markings.extend_from_slice(&self.next);
                        self.codes.extend_from_slice(&self.code);
                        if 2 * (n + 1) > self.table.len() {
                            self.grow();
                        }
                    }
                }
            }
            self.outs.extend_from_slice(&self.out);
            s += 1;
        }
        Ok(true)
    }

    /// Doubles the index and re-inserts every state.
    fn grow(&mut self) {
        let w = self.words;
        let slots = self.table.len() * 2;
        self.table.clear();
        self.table.resize(slots, EMPTY);
        for (id, m) in self.markings.chunks(w).enumerate() {
            if let Err(slot) = probe(&self.table, &self.markings, m) {
                self.table[slot] = id as u32;
            }
        }
    }

    /// CSC conflict pairs of the explored states: per code class,
    /// `C(n, 2)` pairs minus those within its `(code, Out)` sub-classes.
    fn count(&mut self) -> usize {
        let cw = self.code_words;
        let (codes, outs) = (&self.codes, &self.outs);
        let code = |s: u32| &codes[s as usize * cw..][..cw];
        let out = |s: u32| &outs[s as usize * cw..][..cw];
        self.order.clear();
        self.order.extend(0..(codes.len() / cw) as u32);
        self.order
            .sort_unstable_by(|&a, &b| code(a).cmp(code(b)).then_with(|| out(a).cmp(out(b))));
        let pairs = |k: usize| k * (k - 1) / 2;
        self.order
            .chunk_by(|&a, &b| code(a) == code(b))
            .map(|class| {
                let same_out: usize = class
                    .chunk_by(|&a, &b| out(a) == out(b))
                    .map(|sub| pairs(sub.len()))
                    .sum();
                pairs(class.len()) - same_out
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    //! Differential tests of the kernel against the state-graph
    //! oracle: the candidate built by `insert_state_signal_multi`,
    //! explored by `StateGraph::build` and counted by
    //! `csc_conflict_pairs`.

    use super::*;
    use crate::insert::insert_state_signal_multi;
    use crate::resolver::{composed_doubles, sweep_order};
    use petri::{ExploreLimits, ReachError};
    use stg::gen::duplex::{dup_4ph, dup_mod};
    use stg::gen::pipeline::muller_pipeline;
    use stg::gen::random::{random_stg, RandomStgConfig};
    use stg::gen::ring::lazy_ring;
    use stg::gen::vme::vme_read;
    use stg::{CodeVec, SgError, SignalKind, StateGraph, StgBuilder};

    /// How the oracle scored the candidates of a sweep.
    #[derive(Debug, Default)]
    struct Tally {
        counted: usize,
        unsafe_: usize,
        not_binary: usize,
        clash: usize,
        capped: usize,
    }

    /// The oracle's score of inserting `hosts` into `stg`, tallied by
    /// outcome.
    fn oracle(
        stg: &Stg,
        hosts: &[(PlaceId, PlaceId)],
        max_states: usize,
        tally: &mut Tally,
    ) -> Score {
        let candidate = insert_state_signal_multi(stg, "oracle", hosts).unwrap();
        let limits = ExploreLimits {
            max_states,
            ..ExploreLimits::default()
        };
        let counter = match StateGraph::build(&candidate, limits) {
            Ok(sg) => {
                tally.counted += 1;
                return Score::Conflicts(sg.csc_conflict_pairs(&candidate).len());
            }
            Err(SgError::Reach(ReachError::BoundExceeded(_))) => &mut tally.unsafe_,
            Err(SgError::NotBinary { .. }) => &mut tally.not_binary,
            Err(SgError::NonDeterministicCode { .. }) => &mut tally.clash,
            Err(SgError::Reach(ReachError::StateLimitExceeded(_))) => &mut tally.capped,
            Err(e) => panic!("unexpected oracle error {e}"),
        };
        *counter += 1;
        Score::Broken
    }

    /// Scores the single candidates of a round on `stg` whose sweep
    /// positions `(i, j)` satisfy `pick`, then every double the round
    /// composes from them, with the kernel and the oracle, and asserts
    /// they agree on each.
    fn sweep_with(
        stg: &Stg,
        max_states: usize,
        pick: impl Fn(usize, usize) -> bool,
        tally: &mut Tally,
    ) {
        let parent = Parent::new(stg);
        let mut scorer = Scorer::default();
        let guard = StopGuard::unlimited();
        let mut check = |hosts: &[(PlaceId, PlaceId)], tally: &mut Tally| {
            let score = scorer.score(&parent, hosts, max_states, &guard).unwrap();
            assert_eq!(score, oracle(stg, hosts, max_states, tally), "{hosts:?}");
            score
        };
        let places = sweep_order(stg);
        let mut pool = Vec::new();
        for (i, &p) in places.iter().enumerate() {
            for (j, &q) in places.iter().enumerate() {
                if p != q && pick(i, j) {
                    if let Score::Conflicts(n) = check(&[(p, q)], tally) {
                        pool.push((n, (p, q)));
                    }
                }
            }
        }
        for hosts in composed_doubles(&mut pool) {
            check(&hosts, tally);
        }
    }

    /// [`sweep_with`] over every single candidate.
    fn sweep(stg: &Stg, max_states: usize, tally: &mut Tally) {
        sweep_with(stg, max_states, |_, _| true, tally);
    }

    #[test]
    fn kernel_matches_the_oracle_on_the_synthesis_roster() {
        let mut tally = Tally::default();
        for stg in [
            vme_read(),
            dup_4ph(1, false),
            lazy_ring(4),
            dup_4ph(2, false),
            dup_mod(2),
            dup_mod(6),
        ] {
            sweep(&stg, ExploreLimits::default().max_states, &mut tally);
        }
        assert!(tally.counted > 0, "{tally:?}");
        assert!(tally.not_binary > 0, "{tally:?}");
    }

    #[test]
    fn kernel_matches_the_oracle_on_random_stgs() {
        let mut tally = Tally::default();
        for seed in 0..30 {
            sweep(
                &random_stg(&RandomStgConfig::default(), seed),
                ExploreLimits::default().max_states,
                &mut tally,
            );
        }
        // Free choice lets the inserted edges fire on one branch only,
        // so merging branches can meet with two codes.
        assert!(tally.counted > 0, "{tally:?}");
        assert!(tally.not_binary > 0, "{tally:?}");
        assert!(tally.clash > 0, "{tally:?}");
    }

    #[test]
    fn kernel_matches_the_oracle_under_a_small_state_cap() {
        // Caps of 12 to 32 states break some of these candidates and
        // leave others whole, some of them exactly at the cap.
        let mut tally = Tally::default();
        for cap in 12..=32 {
            sweep(&vme_read(), cap, &mut tally);
            sweep(&dup_mod(2), cap, &mut tally);
        }
        assert!(tally.capped > 0, "{tally:?}");
        assert!(tally.counted > 0, "{tally:?}");
    }

    #[test]
    fn kernel_matches_the_oracle_on_a_net_with_dummies() {
        // Hiding VME's `lds` turns its edges into dummies.
        let vme = vme_read();
        let hidden = vme.with_signal_hidden(vme.signal_by_name("lds").unwrap());
        assert!(hidden.has_dummies());
        let mut tally = Tally::default();
        sweep(&hidden, ExploreLimits::default().max_states, &mut tally);
        assert!(tally.counted > 0, "{tally:?}");
    }

    #[test]
    fn kernel_matches_the_oracle_on_unsafe_nets() {
        // `a+` refills `q` each cycle while `b+` may lag behind, so `q`
        // can hold two tokens; a second net starts with two.
        let mut b = StgBuilder::new();
        let a = b.add_signal("a", SignalKind::Output);
        let z = b.add_signal("b", SignalKind::Output);
        let (ap, am) = (b.edge(a, Edge::Rise), b.edge(a, Edge::Fall));
        let (bp, bm) = (b.edge(z, Edge::Rise), b.edge(z, Edge::Fall));
        b.chain_cycle(&[ap, am]).unwrap();
        b.chain_cycle(&[bp, bm]).unwrap();
        let q = b.add_place("q");
        b.arc_tp(ap, q).unwrap();
        b.arc_pt(q, bp).unwrap();
        b.set_initial_code(CodeVec::zeros(2));
        let mut doubled = b.clone();
        doubled.mark(q, 2);
        let mut tally = Tally::default();
        for stg in [b.build().unwrap(), doubled.build().unwrap()] {
            sweep(&stg, ExploreLimits::default().max_states, &mut tally);
        }
        assert!(tally.unsafe_ > 0, "{tally:?}");
    }

    #[test]
    fn kernel_matches_the_oracle_past_one_word() {
        // LAZYRING-33 has 132 places and 66 signals, so markings, codes
        // and `Out` sets take two or three words; MULLER-40 (164
        // places) under a cap of 64 states. A sample of each sweep.
        let mut tally = Tally::default();
        sweep_with(
            &lazy_ring(33),
            ExploreLimits::default().max_states,
            |i, j| (i + 3 * j) % 37 == 0,
            &mut tally,
        );
        assert!(tally.counted > 0, "{tally:?}");
        sweep_with(
            &muller_pipeline(40),
            64,
            |i, j| (i + j) % 23 == 0,
            &mut tally,
        );
        assert!(tally.capped > 0, "{tally:?}");
    }
}
