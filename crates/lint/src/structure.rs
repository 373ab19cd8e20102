//! The structural pass: every static analysis of the net underlying
//! an STG, with no unfolding prefix, no reachability graph and no
//! BDDs:
//!
//! * **Well-formedness** ([`well_formedness`]) — unused signals,
//!   mixed input/output choice, disconnected places, structurally
//!   dead transitions and unmarked siphons, as `L0xx`/`W0xx`
//!   diagnostics. Admission gates on these.
//! * **Net-class detection** — marked graph, state machine,
//!   free-choice, extended free-choice and Wimmel's reduced
//!   asymmetric choice, each refutation reported as a stable `I0xx`
//!   informational diagnostic naming the witnessing place or
//!   transition.
//! * **Structural concurrency** — the Kovalyov–Esparza fixed-point
//!   over places and transitions: exact for live free-choice nets, a
//!   sound over-approximation for every safe net (a pair the relation
//!   misses is provably never concurrent; a pair it contains may or
//!   may not be).
//! * **Signal lock relation** — two signals are *locked* when no
//!   transition of one is structurally concurrent with a transition
//!   of the other, i.e. their edges provably serialise. Because the
//!   concurrency relation over-approximates, every locked claim is
//!   sound.
//! * **The state-machine decision** ([`decide_state_machine`]) —
//!   exact USC/CSC on single-token state machines, gated by the class
//!   flags above.
//!
//! The pass is total and cheap (polynomial in the net size), so its
//! [`analyse`] result is cached unconditionally by `csc-core`'s
//! artifact store and consumed by the check's structure stage. The
//! synthesis resolver does not read it: it scores every candidate
//! insertion on the candidate's state graph.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use petri::{Marking, Net, PlaceId, TransitionId};
use stg::{CodeVec, Edge, Label, Signal, SignalKind, Stg};

use crate::cuts::cut_basis;
use crate::diag::{self, Code, Diagnostic};

/// Runs every well-formedness check and returns the findings, errors
/// first.
pub fn well_formedness(stg: &Stg) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    unused_signals(stg, &mut out);
    mixed_choice(stg, &mut out);
    disconnected_places(stg, &mut out);
    dead_transitions(stg, &mut out);
    unmarked_siphons(stg, &mut out);
    out.sort_by_key(|d| std::cmp::Reverse(d.severity()));
    out
}

/// `W001`: a declared signal with no transitions can never change, so
/// either the declaration or the graph is incomplete.
fn unused_signals(stg: &Stg, out: &mut Vec<Diagnostic>) {
    for z in stg.signals() {
        if stg.transitions_of(z).next().is_none() {
            let name = stg.signal_name(z);
            out.push(
                Diagnostic::new(
                    Code::UnusedSignal,
                    format!("signal `{name}` is declared but has no transitions"),
                )
                .with_object(name),
            );
        }
    }
}

/// `W002`: a choice place whose alternatives mix input-signal
/// transitions with output/internal ones — the circuit would be
/// racing its environment for the token, which speed-independent
/// synthesis cannot implement.
fn mixed_choice(stg: &Stg, out: &mut Vec<Diagnostic>) {
    let net = stg.net();
    for p in net.places() {
        let post = net.place_postset(p);
        if post.len() < 2 {
            continue;
        }
        let mut inputs = 0usize;
        let mut locals = 0usize;
        for &t in post {
            match stg.label(t) {
                Label::SignalEdge(z, _) => {
                    if stg.signal_kind(z) == SignalKind::Input {
                        inputs += 1;
                    } else {
                        locals += 1;
                    }
                }
                Label::Dummy => {}
            }
        }
        if inputs > 0 && locals > 0 {
            let name = net.place_name(p);
            out.push(
                Diagnostic::new(
                    Code::MixedChoice,
                    format!(
                        "choice place `{name}` mixes input and non-input transitions \
                         ({inputs} input, {locals} local)"
                    ),
                )
                .with_object(name),
            );
        }
    }
}

/// `L022`: a place with no arcs at all cannot influence behaviour;
/// its presence means the `.g` source names a node that never got
/// connected (usually a typo).
fn disconnected_places(stg: &Stg, out: &mut Vec<Diagnostic>) {
    let net = stg.net();
    for p in net.places() {
        if net.place_preset(p).is_empty() && net.place_postset(p).is_empty() {
            let name = net.place_name(p);
            out.push(
                Diagnostic::new(
                    Code::DisconnectedPlace,
                    format!("place `{name}` has no arcs"),
                )
                .with_object(name),
            );
        }
    }
}

/// `L021`: transitions that cannot fire in *any* token flow.
///
/// The over-approximating fixpoint: a place is potentially marked if
/// it starts marked or some potentially-fireable transition feeds it;
/// a transition is potentially fireable if its whole preset is
/// potentially marked. Anything not fireable at the fixpoint is dead
/// in every reachable marking (the approximation ignores token
/// counts, so it never flags a live transition).
fn dead_transitions(stg: &Stg, out: &mut Vec<Diagnostic>) {
    let net = stg.net();
    let m0 = stg.initial_marking();
    let mut marked: Vec<bool> = net.places().map(|p| m0.tokens(p) > 0).collect();
    let mut fireable: Vec<bool> = vec![false; net.num_transitions()];
    let mut changed = true;
    while changed {
        changed = false;
        for t in net.transitions() {
            if fireable[t.index()] {
                continue;
            }
            if net.preset(t).iter().all(|&p| marked[p.index()]) {
                fireable[t.index()] = true;
                changed = true;
                for &p in net.postset(t) {
                    if !marked[p.index()] {
                        marked[p.index()] = true;
                    }
                }
            }
        }
    }
    for t in net.transitions() {
        if !fireable[t.index()] {
            let name = net.transition_name(t);
            out.push(
                Diagnostic::new(
                    Code::DeadTransition,
                    format!("transition `{name}` can never fire (structurally unreachable)"),
                )
                .with_object(name),
            );
        }
    }
}

/// `W003`: the maximal siphon inside the initially-unmarked places.
/// A siphon that starts empty stays empty forever, so every
/// transition it feeds is dead and the net risks deadlock. The same
/// analysis doubles as a constraint generator for the CEGAR engine
/// (see [`crate::cuts`]); here it only warns. The diagnostic carries
/// the first member place as its object so the renderer can attach a
/// source span.
fn unmarked_siphons(stg: &Stg, out: &mut Vec<Diagnostic>) {
    let net = stg.net();
    let siphon = cut_basis(net, stg.initial_marking()).unmarked_siphon;
    if siphon.is_empty() {
        return;
    }
    let mut names: Vec<&str> = siphon.iter().map(|&p| net.place_name(p)).collect();
    names.sort_unstable();
    let shown = names.iter().take(4).cloned().collect::<Vec<_>>().join(", ");
    let suffix = if names.len() > 4 { ", …" } else { "" };
    out.push(
        Diagnostic::new(
            Code::UnmarkedSiphon,
            format!(
                "{} initially token-free place(s) form a siphon ({shown}{suffix}); \
                 they can never be marked and their output transitions are dead",
                siphon.len()
            ),
        )
        .with_object(names[0]),
    );
}

/// Membership of the net in the classical structural classes. The
/// classes form a hierarchy — every marked graph is free-choice,
/// every free-choice net is extended free-choice, every extended
/// free-choice net is reduced asymmetric choice — so the flags are
/// monotone along it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Classes {
    /// Every place has at most one producer and one consumer.
    pub marked_graph: bool,
    /// Every transition has exactly one input and one output place.
    pub state_machine: bool,
    /// Every shared place feeds only singleton-preset transitions:
    /// for each arc (p, t), either p• = {t} or •t = {p}.
    pub free_choice: bool,
    /// Places that share a consumer share all of them:
    /// p• ∩ q• ≠ ∅ implies p• = q•.
    pub extended_free_choice: bool,
    /// Wimmel's reduced asymmetric choice: overlapping postsets are
    /// either equal or one of them is a singleton.
    pub reduced_asymmetric_choice: bool,
}

impl Classes {
    /// The most specific class the net belongs to, as a stable
    /// lower-case name (`"marked-graph"`, `"state-machine"`,
    /// `"free-choice"`, `"extended-free-choice"`,
    /// `"reduced-asymmetric-choice"` or `"general"`).
    pub fn name(&self) -> &'static str {
        if self.marked_graph {
            "marked-graph"
        } else if self.state_machine {
            "state-machine"
        } else if self.free_choice {
            "free-choice"
        } else if self.extended_free_choice {
            "extended-free-choice"
        } else if self.reduced_asymmetric_choice {
            "reduced-asymmetric-choice"
        } else {
            "general"
        }
    }
}

/// How tight the structural concurrency relation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approximation {
    /// The net is free-choice, where the Kovalyov–Esparza fixed-point
    /// is exact provided the net is live.
    ExactForLiveFreeChoice,
    /// General net: the relation soundly over-approximates true
    /// concurrency (it never misses a concurrent pair).
    OverApproximation,
}

impl Approximation {
    /// Stable lower-case rendering for reports and the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            Approximation::ExactForLiveFreeChoice => "exact-for-live-free-choice",
            Approximation::OverApproximation => "over-approximation",
        }
    }
}

/// The symmetric structural concurrency relation over the net's
/// places and transitions, stored as one bitset row per node.
#[derive(Debug, Clone)]
pub struct Concurrency {
    places: usize,
    transitions: usize,
    words: usize,
    bits: Vec<u64>,
    level: Approximation,
}

impl Concurrency {
    fn node_place(p: PlaceId) -> usize {
        p.index()
    }

    fn node_transition(&self, t: TransitionId) -> usize {
        self.places + t.index()
    }

    fn get(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.words + j / 64] >> (j % 64) & 1 == 1
    }

    fn set(&mut self, i: usize, j: usize) {
        self.bits[i * self.words + j / 64] |= 1 << (j % 64);
        self.bits[j * self.words + i / 64] |= 1 << (i % 64);
    }

    /// Whether two places may carry tokens simultaneously (subject to
    /// the recorded [`Approximation`] level).
    pub fn places_concurrent(&self, p: PlaceId, q: PlaceId) -> bool {
        self.get(Self::node_place(p), Self::node_place(q))
    }

    /// Whether two transitions may be enabled concurrently.
    pub fn transitions_concurrent(&self, t: TransitionId, u: TransitionId) -> bool {
        self.get(self.node_transition(t), self.node_transition(u))
    }

    /// The recorded approximation level.
    pub fn level(&self) -> Approximation {
        self.level
    }

    /// Number of unordered concurrent place pairs.
    pub fn concurrent_place_pairs(&self) -> usize {
        let mut n = 0;
        for i in 0..self.places {
            for j in i + 1..self.places {
                n += usize::from(self.get(i, j));
            }
        }
        n
    }

    /// Number of unordered concurrent transition pairs.
    pub fn concurrent_transition_pairs(&self) -> usize {
        let mut n = 0;
        for i in 0..self.transitions {
            for j in i + 1..self.transitions {
                n += usize::from(self.get(self.places + i, self.places + j));
            }
        }
        n
    }
}

/// The signal lock relation derived from the concurrency relation:
/// `locked(a, b)` holds when no transition of `a` is structurally
/// concurrent with any transition of `b` — the two signals' edges
/// provably serialise. Sound under over-approximated concurrency.
#[derive(Debug, Clone)]
pub struct LockGraph {
    signals: usize,
    locked: Vec<bool>,
}

impl LockGraph {
    /// Whether the two signals are locked (trivially true for a
    /// signal with itself).
    pub fn locked(&self, a: Signal, b: Signal) -> bool {
        self.locked[a.index() * self.signals + b.index()]
    }

    /// Number of unordered locked signal pairs (distinct signals).
    pub fn locked_pairs(&self) -> usize {
        let mut n = 0;
        for a in 0..self.signals {
            for b in a + 1..self.signals {
                n += usize::from(self.locked[a * self.signals + b]);
            }
        }
        n
    }

    /// Total number of unordered distinct signal pairs.
    pub fn total_pairs(&self) -> usize {
        self.signals * self.signals.saturating_sub(1) / 2
    }
}

/// Everything the structure pass produces.
#[derive(Debug, Clone)]
pub struct StructureReport {
    /// Net-class membership flags.
    pub classes: Classes,
    /// One `I0xx` diagnostic per refuted class, naming the witnessing
    /// place or transition. Spans are attached by
    /// [`crate::structure_bytes`] when the source is available.
    pub diagnostics: Vec<Diagnostic>,
    /// The structural concurrency relation.
    pub concurrency: Concurrency,
    /// The signal lock relation.
    pub lock: LockGraph,
    /// Wall-clock of the pass.
    pub elapsed: Duration,
}

/// The compact projection of a [`StructureReport`] that a check's
/// resource report carries (and `stgd` puts on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StructureSummary {
    /// The net's structural classes; `classes.name()` is the most
    /// specific one.
    pub classes: Classes,
    /// The structural concurrency relation is exact provided the net
    /// is live (true exactly when the net is free-choice).
    pub exact: bool,
    /// Unordered structurally concurrent place pairs.
    pub concurrent_place_pairs: u64,
    /// Unordered locked signal pairs (out of `signal_pairs`).
    pub locked_signal_pairs: u64,
    /// Total unordered distinct signal pairs.
    pub signal_pairs: u64,
    /// The check's verdict was decided by [`decide_state_machine`]
    /// alone: no engine ran and no prefix event was built.
    pub proved: bool,
}

impl StructureReport {
    /// Projects the report onto its [`StructureSummary`]; `proved`
    /// says whether [`decide_state_machine`] decided the check.
    pub fn summary(&self, proved: bool) -> StructureSummary {
        StructureSummary {
            classes: self.classes,
            exact: self.concurrency.level() == Approximation::ExactForLiveFreeChoice,
            concurrent_place_pairs: self.concurrency.concurrent_place_pairs() as u64,
            locked_signal_pairs: self.lock.locked_pairs() as u64,
            signal_pairs: self.lock.total_pairs() as u64,
            proved,
        }
    }

    /// Human-readable rendering in the lint style: one line per
    /// refutation diagnostic, then class / concurrency / lock
    /// summaries. `path` prefixes each line for editor jumping.
    pub fn render_human(&self, path: &str) -> String {
        let mut out = diag::render_human(path, &self.diagnostics);
        out.push_str(&format!("{path}: class: {}\n", self.classes.name()));
        out.push_str(&format!(
            "{path}: concurrency: {} place pair(s), {} transition pair(s) [{}]\n",
            self.concurrency.concurrent_place_pairs(),
            self.concurrency.concurrent_transition_pairs(),
            self.concurrency.level().as_str(),
        ));
        out.push_str(&format!(
            "{path}: locks: {}/{} signal pair(s) locked\n",
            self.lock.locked_pairs(),
            self.lock.total_pairs(),
        ));
        out
    }

    /// Machine-readable rendering (a single JSON object), hand-rolled
    /// like the lint report: stable field names, no dependencies.
    pub fn to_json(&self) -> String {
        let c = &self.classes;
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"class\": \"{}\",\n", c.name()));
        out.push_str("  \"classes\": {");
        out.push_str(&format!("\"marked_graph\": {}", c.marked_graph));
        out.push_str(&format!(", \"state_machine\": {}", c.state_machine));
        out.push_str(&format!(", \"free_choice\": {}", c.free_choice));
        out.push_str(&format!(
            ", \"extended_free_choice\": {}",
            c.extended_free_choice
        ));
        out.push_str(&format!(
            ", \"reduced_asymmetric_choice\": {}",
            c.reduced_asymmetric_choice
        ));
        out.push_str(&format!(
            "}},\n  \"diagnostics\": {},\n",
            diag::render_json(&self.diagnostics)
        ));
        out.push_str("  \"concurrency\": {");
        out.push_str(&format!(
            "\"level\": \"{}\"",
            self.concurrency.level().as_str()
        ));
        out.push_str(&format!(
            ", \"place_pairs\": {}",
            self.concurrency.concurrent_place_pairs()
        ));
        out.push_str(&format!(
            ", \"transition_pairs\": {}",
            self.concurrency.concurrent_transition_pairs()
        ));
        out.push_str("},\n  \"locks\": {");
        out.push_str(&format!("\"locked_pairs\": {}", self.lock.locked_pairs()));
        out.push_str(&format!(", \"total_pairs\": {}", self.lock.total_pairs()));
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"elapsed_ms\": {:.3}\n",
            self.elapsed.as_secs_f64() * 1e3
        ));
        out.push_str("}\n");
        out
    }
}

/// Runs the full structure pass: class detection, the concurrency
/// fixed-point, and the lock relation.
pub fn analyse(stg: &Stg) -> StructureReport {
    let start = Instant::now();
    let net = stg.net();
    let mut diagnostics = Vec::new();
    let classes = detect_classes(net, &mut diagnostics);
    let level = if classes.free_choice {
        Approximation::ExactForLiveFreeChoice
    } else {
        Approximation::OverApproximation
    };
    let concurrency = concurrency_fixpoint(net, stg.initial_marking(), level);
    let lock = lock_graph(stg, &concurrency);
    StructureReport {
        classes,
        diagnostics,
        concurrency,
        lock,
        elapsed: start.elapsed(),
    }
}

/// Detects class membership, pushing one refutation diagnostic per
/// failed class (the first witness in place/transition order).
fn detect_classes(net: &Net, out: &mut Vec<Diagnostic>) -> Classes {
    let mut classes = Classes {
        marked_graph: true,
        state_machine: true,
        free_choice: true,
        extended_free_choice: true,
        reduced_asymmetric_choice: true,
    };

    for p in net.places() {
        let producers = net.place_preset(p).len();
        let consumers = net.place_postset(p).len();
        if producers > 1 || consumers > 1 {
            classes.marked_graph = false;
            let (what, n) = if consumers > 1 {
                ("consumer", consumers)
            } else {
                ("producer", producers)
            };
            out.push(
                Diagnostic::new(
                    Code::NotMarkedGraph,
                    format!(
                        "not a marked graph: place `{}` has {} {}s",
                        net.place_name(p),
                        n,
                        what
                    ),
                )
                .with_object(net.place_name(p).to_owned()),
            );
            break;
        }
    }

    for t in net.transitions() {
        let ins = net.preset(t).len();
        let outs = net.postset(t).len();
        if ins != 1 || outs != 1 {
            classes.state_machine = false;
            let (what, n) = if ins != 1 {
                ("input", ins)
            } else {
                ("output", outs)
            };
            out.push(
                Diagnostic::new(
                    Code::NotStateMachine,
                    format!(
                        "not a state machine: transition `{}` has {} {} place(s)",
                        net.transition_name(t),
                        n,
                        what
                    ),
                )
                .with_object(net.transition_name(t).to_owned()),
            );
            break;
        }
    }

    'fc: for p in net.places() {
        if net.place_postset(p).len() <= 1 {
            continue;
        }
        for &t in net.place_postset(p) {
            if net.preset(t).len() > 1 {
                classes.free_choice = false;
                out.push(
                    Diagnostic::new(
                        Code::NotFreeChoice,
                        format!(
                            "not free-choice: place `{}` shares consumer `{}` \
                             which also waits on other places",
                            net.place_name(p),
                            net.transition_name(t)
                        ),
                    )
                    .with_object(net.place_name(p).to_owned()),
                );
                break 'fc;
            }
        }
    }

    // The O(|P|²) postset comparisons for EFC / RAC. Postsets are
    // sorted slices, so overlap and equality are direct comparisons.
    let places: Vec<PlaceId> = net.places().collect();
    'efc: for (i, &p) in places.iter().enumerate() {
        let pp = net.place_postset(p);
        if pp.is_empty() {
            continue;
        }
        for &q in &places[i + 1..] {
            let qp = net.place_postset(q);
            if qp.is_empty() || pp == qp {
                continue;
            }
            let overlap = pp.iter().any(|t| qp.contains(t));
            if !overlap {
                continue;
            }
            if classes.extended_free_choice {
                classes.extended_free_choice = false;
                out.push(
                    Diagnostic::new(
                        Code::NotExtendedFreeChoice,
                        format!(
                            "not extended free-choice: places `{}` and `{}` \
                             share a consumer but not all of them",
                            net.place_name(p),
                            net.place_name(q)
                        ),
                    )
                    .with_object(net.place_name(p).to_owned()),
                );
            }
            if pp.len() > 1 && qp.len() > 1 {
                classes.reduced_asymmetric_choice = false;
                out.push(
                    Diagnostic::new(
                        Code::NotReducedAsymmetricChoice,
                        format!(
                            "not reduced asymmetric choice: places `{}` and `{}` \
                             overlap on consumers with unequal non-singleton postsets",
                            net.place_name(p),
                            net.place_name(q)
                        ),
                    )
                    .with_object(net.place_name(p).to_owned()),
                );
                break 'efc;
            }
        }
    }

    classes
}

/// What [`decide_state_machine`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateMachineCoding {
    /// The property holds in every reachable marking.
    Holds,
    /// Two reachable single-token markings that conflict.
    Conflict(Box<(Marking, Marking)>),
}

/// Exact USC (or, with `csc`, CSC) decision for single-token state
/// machines; `None` when the net is not one or the walk bails.
///
/// In a state machine every transition moves the unique token from
/// one place to another, so the reachable markings are exactly the
/// places reachable from the initially marked place in the place
/// graph, and the code of a reachable marking is a function of its
/// place. The walk labels each reachable place with its code,
/// *bailing* (`None`) on any irregularity — more than one initial
/// token, a rise/fall firing from the wrong value, or two paths
/// assigning different codes to one place (an inconsistent STG): the
/// decision only covers nets whose semantics it models exactly, so a
/// check that consults it never changes a verdict. USC holds iff all
/// reachable codes are distinct; CSC additionally tolerates equal
/// codes when the two markings enable the same local signals.
pub fn decide_state_machine(stg: &Stg, classes: &Classes, csc: bool) -> Option<StateMachineCoding> {
    if !classes.state_machine || stg.initial_marking().total() != 1 {
        return None;
    }
    let net = stg.net();
    let start = stg.initial_marking().marked_places().next()?;
    let mut codes: Vec<Option<CodeVec>> = vec![None; net.num_places()];
    codes[start.index()] = Some(stg.initial_code().clone());
    let mut reached = vec![start];
    let mut queue = VecDeque::from([start]);
    while let Some(p) = queue.pop_front() {
        let code = codes[p.index()].clone()?;
        for &t in net.place_postset(p) {
            let q = *net.postset(t).first()?;
            let mut next = code.clone();
            if let Label::SignalEdge(z, e) = stg.label(t) {
                let want = matches!(e, Edge::Rise);
                if next.bit(z) == want {
                    // A rise from 1 or fall from 0: the STG is
                    // inconsistent; let the engines report it.
                    return None;
                }
                next.set_bit(z, want);
            }
            match &codes[q.index()] {
                Some(existing) if *existing != next => return None,
                Some(_) => {}
                None => {
                    codes[q.index()] = Some(next);
                    reached.push(q);
                    queue.push_back(q);
                }
            }
        }
    }
    let marking_of = |p: PlaceId| Marking::with_tokens(net.num_places(), &[(p, 1)]);
    for (i, &p) in reached.iter().enumerate() {
        for &q in &reached[i + 1..] {
            if codes[p.index()] != codes[q.index()] {
                continue;
            }
            let conflict = !csc
                || stg.enabled_local_signals(&marking_of(p))
                    != stg.enabled_local_signals(&marking_of(q));
            if conflict {
                return Some(StateMachineCoding::Conflict(Box::new((
                    marking_of(p),
                    marking_of(q),
                ))));
            }
        }
    }
    Some(StateMachineCoding::Holds)
}

/// The Kovalyov–Esparza structural concurrency fixed-point.
///
/// Seed: every pair of distinct initially marked places, and every
/// pair of distinct places inside one transition's postset (a safe
/// net marks all of `t•` simultaneously when `t` fires). Propagate:
/// whenever every place of `•t` is concurrent with a node `x ∉ •t ∪
/// {t}`, then `t` and all of `t•` are concurrent with `x`. For safe
/// nets this over-approximates true concurrency; for live free-choice
/// nets it is exact.
fn concurrency_fixpoint(net: &Net, initial: &Marking, level: Approximation) -> Concurrency {
    let places = net.num_places();
    let transitions = net.num_transitions();
    let n = places + transitions;
    let words = n.div_ceil(64);
    let mut rel = Concurrency {
        places,
        transitions,
        words,
        bits: vec![0u64; n * words],
        level,
    };

    let marked: Vec<usize> = initial.marked_places().map(|p| p.index()).collect();
    for (i, &a) in marked.iter().enumerate() {
        for &b in &marked[i + 1..] {
            rel.set(a, b);
        }
    }
    for t in net.transitions() {
        let post = net.postset(t);
        for (i, &a) in post.iter().enumerate() {
            for &b in &post[i + 1..] {
                rel.set(a.index(), b.index());
            }
        }
    }

    // Fixed-point: per transition, AND the rows of its preset, mask
    // out •t ∪ {t}, and spread any new bits to t and t•.
    let mut scratch = vec![0u64; words];
    loop {
        let mut changed = false;
        for t in net.transitions() {
            let pre = net.preset(t);
            let t_node = places + t.index();
            scratch.iter_mut().for_each(|w| *w = u64::MAX);
            for &p in pre {
                let row = &rel.bits[p.index() * words..(p.index() + 1) * words];
                for (s, &r) in scratch.iter_mut().zip(row) {
                    *s &= r;
                }
            }
            // Trim the tail beyond n and forbid •t ∪ {t} as partners.
            if !n.is_multiple_of(64) {
                scratch[words - 1] &= (1u64 << (n % 64)) - 1;
            }
            for &p in pre {
                scratch[p.index() / 64] &= !(1u64 << (p.index() % 64));
            }
            scratch[t_node / 64] &= !(1u64 << (t_node % 64));

            for x in 0..n {
                if scratch[x / 64] >> (x % 64) & 1 == 0 || rel.get(t_node, x) {
                    continue;
                }
                changed = true;
                rel.set(t_node, x);
                for &s in net.postset(t) {
                    if s.index() != x {
                        rel.set(s.index(), x);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    rel
}

/// Derives the signal lock relation: signals `a` and `b` are locked
/// when no transition of `a` is structurally concurrent with any
/// transition of `b`.
fn lock_graph(stg: &Stg, rel: &Concurrency) -> LockGraph {
    let signals = stg.num_signals();
    let mut locked = vec![true; signals * signals];
    let by_signal: Vec<Vec<TransitionId>> = stg
        .signals()
        .map(|z| stg.transitions_of(z).collect())
        .collect();
    for a in 0..signals {
        for b in a + 1..signals {
            let clash = by_signal[a].iter().any(|&t| {
                by_signal[b]
                    .iter()
                    .any(|&u| rel.transitions_concurrent(t, u))
            });
            if clash {
                locked[a * signals + b] = false;
                locked[b * signals + a] = false;
            }
        }
    }
    LockGraph { signals, locked }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg::StgBuilder;

    fn diags(src: &str) -> Vec<Diagnostic> {
        well_formedness(&stg::parse(src).unwrap())
    }

    #[test]
    fn clean_net_has_no_findings() {
        let src = "\
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
        assert!(diags(src).is_empty(), "{:?}", diags(src));
    }

    #[test]
    fn unused_signal_warns() {
        let src = "\
.model m
.inputs ghost
.outputs a
.graph
a+ a-
a- a+
.marking { <a-,a+> }
.end
";
        let out = diags(src);
        assert!(out.iter().any(|d| d.code == Code::UnusedSignal));
    }

    #[test]
    fn dead_transitions_flagged_by_fixpoint() {
        // b's transitions hang off a place that is never marked and
        // never fed: structurally dead.
        let src = "\
.model m
.outputs a b
.graph
a+ a-
a- a+
limbo b+
b+ limbo2
limbo2 b-
b- limbo
.marking { <a-,a+> }
.initial_state 00
.end
";
        let out = diags(src);
        let dead: Vec<_> = out
            .iter()
            .filter(|d| d.code == Code::DeadTransition)
            .collect();
        assert_eq!(dead.len(), 2, "{out:?}");
        assert!(dead.iter().any(|d| d.object.as_deref() == Some("b+")));
        // The same structure is an unmarked siphon.
        assert!(out.iter().any(|d| d.code == Code::UnmarkedSiphon));
    }

    #[test]
    fn mixed_choice_place_warns() {
        // Free place feeding both an input and an output transition.
        let src = "\
.model m
.inputs i
.outputs o
.graph
p i+
p o+
i+ q
o+ q
q o-
o- p
.marking { p }
.initial_state 00
.end
";
        let out = diags(src);
        assert!(out.iter().any(|d| d.code == Code::MixedChoice), "{out:?}");
    }

    /// Plain handshake cycle: marked graph AND state machine, no
    /// concurrency at all, both signals locked.
    fn handshake() -> Stg {
        let mut b = StgBuilder::new();
        let req = b.add_signal("req", SignalKind::Input);
        let ack = b.add_signal("ack", SignalKind::Output);
        let rp = b.edge(req, Edge::Rise);
        let ap = b.edge(ack, Edge::Rise);
        let rm = b.edge(req, Edge::Fall);
        let am = b.edge(ack, Edge::Fall);
        b.chain_cycle(&[rp, ap, rm, am]).unwrap();
        b.build_with_inferred_code(Default::default()).unwrap()
    }

    #[test]
    fn handshake_is_marked_graph_and_state_machine() {
        let report = analyse(&handshake());
        assert!(report.classes.marked_graph);
        assert!(report.classes.state_machine);
        assert!(report.classes.free_choice);
        assert_eq!(report.classes.name(), "marked-graph");
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.concurrency.concurrent_place_pairs(), 0);
        assert_eq!(report.concurrency.concurrent_transition_pairs(), 0);
        assert_eq!(report.lock.locked_pairs(), 1);
        assert_eq!(report.lock.total_pairs(), 1);
        assert_eq!(
            report.concurrency.level(),
            Approximation::ExactForLiveFreeChoice
        );
    }

    /// Fork into two parallel branches that later join: a marked
    /// graph with genuine concurrency between the branches.
    fn fork_join() -> Stg {
        let mut b = StgBuilder::new();
        let a = b.add_signal("a", SignalKind::Output);
        let x = b.add_signal("x", SignalKind::Output);
        let y = b.add_signal("y", SignalKind::Output);
        let ap = b.edge(a, Edge::Rise);
        let xp = b.edge(x, Edge::Rise);
        let yp = b.edge(y, Edge::Rise);
        let am = b.edge(a, Edge::Fall);
        let xm = b.edge(x, Edge::Fall);
        let ym = b.edge(y, Edge::Fall);
        // a+ forks to (x+ x-) || (y+ y-), both join into a-.
        b.connect(ap, xp).unwrap();
        b.connect(ap, yp).unwrap();
        b.connect(xp, xm).unwrap();
        b.connect(yp, ym).unwrap();
        b.connect(xm, am).unwrap();
        b.connect(ym, am).unwrap();
        let back = b.connect(am, ap).unwrap();
        b.mark(back, 1);
        b.build_with_inferred_code(Default::default()).unwrap()
    }

    #[test]
    fn fork_join_branches_are_concurrent_and_unlocked() {
        let stg = fork_join();
        let report = analyse(&stg);
        assert!(report.classes.marked_graph);
        assert!(!report.classes.state_machine, "join transitions");
        let x = stg.signal_by_name("x").unwrap();
        let y = stg.signal_by_name("y").unwrap();
        let a = stg.signal_by_name("a").unwrap();
        assert!(!report.lock.locked(x, y), "parallel branches interleave");
        assert!(report.lock.locked(a, x), "a serialises with each branch");
        assert!(report.lock.locked(a, y));
        assert!(report.concurrency.concurrent_place_pairs() > 0);
        let xp = stg.transitions_of(x).next().unwrap();
        let yp = stg.transitions_of(y).next().unwrap();
        assert!(report.concurrency.transitions_concurrent(xp, yp));
    }

    /// Free-choice split: one place with two consumers, each with a
    /// singleton preset. Refutes MG, keeps FC.
    fn choice() -> Stg {
        let mut b = StgBuilder::new();
        let a = b.add_signal("a", SignalKind::Output);
        let c = b.add_signal("c", SignalKind::Output);
        let ap = b.edge(a, Edge::Rise);
        let am = b.edge(a, Edge::Fall);
        let cp = b.edge(c, Edge::Rise);
        let cm = b.edge(c, Edge::Fall);
        let split = b.add_place("split");
        b.mark(split, 1);
        b.arc_pt(split, ap).unwrap();
        b.arc_pt(split, cp).unwrap();
        b.connect(ap, am).unwrap();
        b.connect(cp, cm).unwrap();
        b.arc_tp(am, split).unwrap();
        b.arc_tp(cm, split).unwrap();
        b.build_with_inferred_code(Default::default()).unwrap()
    }

    #[test]
    fn choice_place_refutes_marked_graph_but_not_free_choice() {
        let report = analyse(&choice());
        assert!(!report.classes.marked_graph);
        assert!(report.classes.free_choice);
        assert!(report.classes.extended_free_choice);
        assert_eq!(report.classes.name(), "state-machine");
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::NotMarkedGraph)
            .expect("I001 emitted");
        assert_eq!(d.object.as_deref(), Some("split"));
        assert_eq!(d.severity(), crate::Severity::Info);
    }

    /// Non-free-choice confusion: a shared place feeding a
    /// synchronising transition.
    #[test]
    fn shared_place_with_synchronising_consumer_refutes_free_choice() {
        let mut b = StgBuilder::new();
        let a = b.add_signal("a", SignalKind::Output);
        let c = b.add_signal("c", SignalKind::Output);
        let d = b.add_signal("d", SignalKind::Output);
        let ap = b.edge(a, Edge::Rise);
        let cp = b.edge(c, Edge::Rise);
        let dp = b.edge(d, Edge::Rise);
        let shared = b.add_place("shared");
        let other = b.add_place("other");
        b.mark(shared, 1);
        b.mark(other, 1);
        // `shared` feeds both a+ (free) and c+ (which also waits on
        // `other`) — the classic asymmetric confusion.
        b.arc_pt(shared, ap).unwrap();
        b.arc_pt(shared, cp).unwrap();
        b.arc_pt(other, cp).unwrap();
        let q = b.add_place("q");
        b.arc_pt(q, dp).unwrap();
        b.arc_tp(ap, q).unwrap();
        b.arc_tp(cp, q).unwrap();
        let stg = b.build_with_inferred_code(Default::default()).unwrap();
        let report = analyse(&stg);
        assert!(!report.classes.free_choice);
        assert!(!report.classes.extended_free_choice);
        // `shared`'s postset is {a+, c+}; `other`'s is {c+}: a
        // singleton overlap, so still reduced asymmetric choice.
        assert!(report.classes.reduced_asymmetric_choice);
        let d3 = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::NotFreeChoice)
            .expect("I003 emitted");
        assert_eq!(d3.object.as_deref(), Some("shared"));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::NotExtendedFreeChoice));
    }

    #[test]
    fn json_rendering_is_balanced_and_stable() {
        let report = analyse(&fork_join());
        let json = report.to_json();
        assert!(json.contains("\"class\": \"marked-graph\""));
        assert!(json.contains("\"code\": \"I002\""));
        assert!(json.contains("\"level\": \"exact-for-live-free-choice\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
