//! The generate-and-test resolution loop, rebuilt on the budgeted
//! [`CheckRequest`] / [`Artifacts`] core.
//!
//! Every candidate insertion is scored through an [`Artifacts`] set
//! keyed by `Stg::canonical_hash()`, so stages built while scoring a
//! candidate (its unfolding prefix, its state graph) are *reused* by
//! the final verification of that same candidate and by the
//! pipeline's re-check — the incremental re-verification that stops
//! the O(candidates × full-check) search from rebuilding the world
//! per candidate. Reuse never crosses hashes: an insertion changes
//! the canonical hash, so a modified net can never see stale stages.
//!
//! The whole search runs under one [`Budget`]: the wall-clock
//! deadline and [`CancelToken`](csc_core::CancelToken) are polled
//! between candidates and *inside* every prefix/state-graph build, so
//! a hung-job watchdog can abort a resolution mid-candidate. A
//! budget abort is a typed error ([`ResolveError::Exhausted`]),
//! cleanly distinguished from a structurally broken candidate (which
//! is skipped and counted in
//! [`ResolveReport::candidates_broken`]).

use std::cmp::Reverse;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use csc_core::{
    Artifacts, Budget, CheckError, CheckRequest, Engine, ExhaustionReason, Property, Verdict,
};
use petri::{ExploreLimits, PlaceId, StopGuard};
use stg::{Signal, Stg};

use crate::insert::insert_state_signal_multi;

/// Options of [`resolve_csc`].
#[derive(Debug, Clone)]
pub struct ResolverOptions {
    /// Maximum number of state signals to insert.
    pub max_signals: usize,
    /// Resource budget for the whole resolution (deadline and
    /// cancellation are honoured between candidates and inside every
    /// build; `max_states` caps each candidate's state graph).
    pub budget: Budget,
}

impl Default for ResolverOptions {
    fn default() -> Self {
        ResolverOptions {
            max_signals: 3,
            budget: Budget::unlimited(),
        }
    }
}

/// Result of a resolution attempt.
#[derive(Debug, Clone)]
pub enum ResolveOutcome {
    /// The input already satisfies CSC.
    AlreadySatisfied,
    /// The resolver succeeded; `inserted` names the new signals.
    Resolved {
        /// The conflict-free STG.
        stg: Stg,
        /// Names of the inserted internal signals.
        inserted: Vec<String>,
    },
    /// The signal budget ran out; `best` is the lowest-conflict model
    /// found.
    Failed {
        /// Best model reached.
        best: Stg,
        /// CSC conflict pairs remaining in `best`.
        remaining: usize,
    },
}

/// An error during resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResolveError {
    /// The input STG is inconsistent or too large to score.
    Input(String),
    /// The final verification with the unfolding checker failed.
    Verification(CheckError),
    /// The resolution was aborted by its [`Budget`]: the deadline
    /// passed or the [`CancelToken`](csc_core::CancelToken) fired.
    /// Distinct from a broken *candidate* (which is merely skipped):
    /// this aborts the whole search, so a watchdog cancellation can
    /// never be mistaken for "no candidate improves".
    Exhausted(ExhaustionReason),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::Input(m) => write!(f, "unresolvable input: {m}"),
            ResolveError::Verification(e) => write!(f, "verification failed: {e}"),
            ResolveError::Exhausted(r) => write!(f, "resolution aborted: {r}"),
        }
    }
}

impl Error for ResolveError {}

/// Accounting for one round of the greedy search (one inserted
/// signal attempt).
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Name of the signal this round tried to insert.
    pub signal: String,
    /// Candidate insertions scored this round.
    pub candidates_tried: usize,
    /// CSC conflict pairs remaining after this round (unchanged when
    /// no candidate improved).
    pub remaining: usize,
    /// Whether the round's best candidate was adopted.
    pub inserted: bool,
    /// Wall-clock time of the round.
    pub elapsed: Duration,
}

/// Counters and per-stage timing of a resolution run.
#[derive(Debug, Clone, Default)]
pub struct ResolveReport {
    /// CSC conflict pairs in the input.
    pub initial_conflicts: usize,
    /// Candidate insertions scored across all rounds.
    pub candidates_tried: usize,
    /// Candidates rejected as structurally broken (inconsistent,
    /// unsafe, or over the per-candidate exploration caps) — skipped,
    /// never silently mis-scored.
    pub candidates_broken: usize,
    /// Candidates emitted by the conflict-core-guided generator
    /// (scored *before* the exhaustive place-pair sweep).
    pub candidates_generated: usize,
    /// Guided host pairs discarded by the structural concurrency
    /// relation before any scoring: structurally concurrent hosts
    /// would let the inserted signal's rise and fall race, so the
    /// candidate is near-certainly inconsistent. The exhaustive sweep
    /// still covers them, so pruning never loses a resolution.
    pub candidates_pruned: usize,
    /// Checks that reused an already-built artifact stage instead of
    /// rebuilding it (seeded initial score, warm final verification).
    pub warm_reuses: usize,
    /// One entry per greedy round, in order.
    pub rounds: Vec<RoundReport>,
    /// Total time spent scoring candidates.
    pub score_elapsed: Duration,
    /// Time spent in the final unfolding verification.
    pub verify_elapsed: Duration,
    /// Prefix events the final verification built. Candidates are
    /// scored on the state graph, so this is the winner's prefix, built
    /// once here and reused by any later check on the returned set.
    pub verify_prefix_events_built: Option<usize>,
    /// Total wall-clock time of the resolution.
    pub elapsed: Duration,
}

/// A completed resolution: outcome, accounting, and the outcome
/// net's artifact set for warm re-verification downstream.
#[derive(Debug)]
pub struct ResolveRun {
    /// The resolution outcome.
    pub outcome: ResolveOutcome,
    /// Counters and per-stage timing.
    pub report: ResolveReport,
    /// Artifact set of the outcome net (the resolved net for
    /// [`ResolveOutcome::Resolved`], the input for
    /// [`ResolveOutcome::AlreadySatisfied`], the best net for
    /// [`ResolveOutcome::Failed`]). Attaching it to a later
    /// [`CheckRequest`] on the same net makes that check warm — it
    /// already holds the stages the resolver built, keyed by the
    /// net's canonical hash.
    pub artifacts: Option<Arc<Artifacts>>,
}

/// Typed score of one candidate: either a conflict-pair count or a
/// structurally broken candidate. Budget aborts are *not* a score —
/// they propagate as [`ResolveError::Exhausted`].
enum Score {
    /// CSC conflict pairs remaining in the candidate.
    Conflicts(usize),
    /// The candidate is inconsistent, unsafe, or exceeded the
    /// per-candidate exploration caps; skip it.
    Broken,
}

/// One scored candidate with its artifact set kept for reuse.
#[derive(Clone)]
struct Scored {
    conflicts: usize,
    /// Toggle pairs of the insertion that produced this net (0 for
    /// the input). Ties in conflict count break toward *more*
    /// toggles: each extra toggle pair refines the state code more
    /// finely, so later rounds have strictly more separating power.
    toggles: usize,
    stg: Arc<Stg>,
    artifacts: Arc<Artifacts>,
}

/// Conflict pairs sampled for core extraction per round.
const CORE_PAIR_CAP: usize = 256;
/// Core places kept after ranking by cover count.
const CORE_PLACE_CAP: usize = 24;
/// Guided single-toggle candidates scored per round before the
/// exhaustive sweep.
const GUIDED_CAP: usize = 160;
/// Best-scoring single-toggle candidates kept per round as the pool
/// double-toggle candidates are composed from.
const POOL_CAP: usize = 32;
/// Double-toggle candidates are only composed below this conflict
/// count: they target the endgame, where few same-code state
/// classes remain and the binding constraint is cut *count*, not
/// which coarse region a single split picks.
const DOUBLE_CONFLICT_CAP: usize = 1024;
/// The endgame backtracking search only runs below this initial
/// conflict count — tie branching multiplies sweep cost, so it is
/// reserved for small instances where greedy stalls near zero.
const ENDGAME_CONFLICT_CAP: usize = 64;
/// Tied-best candidates the endgame search branches over per round
/// (first entry = first round; the last entry covers deeper rounds).
const ENDGAME_TIE_CAPS: [usize; 2] = [12, 6];
/// Total candidate insertions the endgame search may score — a hard
/// effort bound independent of the wall-clock budget.
const ENDGAME_CANDIDATE_CAP: usize = 60_000;

/// Signals of the transitions adjacent to `p` (its structural
/// neighbourhood in the STG), sorted and deduplicated.
fn place_signals(stg: &Stg, p: PlaceId) -> Vec<Signal> {
    let net = stg.net();
    let mut out: Vec<Signal> = net
        .place_preset(p)
        .iter()
        .chain(net.place_postset(p))
        .filter_map(|&t| stg.label(t).signal())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Whether every signal adjacent to `p` is lock-related to every
/// signal adjacent to `q` — a strong hint that splitting at `(p, q)`
/// inserts the new signal into one sequential thread of control.
fn hosts_locked(stg: &Stg, structure: &lint::StructureReport, p: PlaceId, q: PlaceId) -> bool {
    let zp = place_signals(stg, p);
    let zq = place_signals(stg, q);
    !zp.is_empty()
        && !zq.is_empty()
        && zp
            .iter()
            .all(|&a| zq.iter().all(|&b| a == b || structure.lock.locked(a, b)))
}

/// Conflict-core-guided candidate generation: host pairs drawn from
/// the places that distinguish conflicting markings, ranked so the
/// most promising insertions are scored first.
///
/// The *conflict core* of a CSC conflict pair `(M, M')` is the
/// symmetric difference of the two markings — exactly the places
/// whose tokens tell the states apart, i.e. where an inserted state
/// signal can observe the difference. Each place is weighted by how
/// many sampled conflict pairs it covers; candidates pair the
/// top-covering places, prune structurally concurrent hosts (the
/// inserted signal's edges would race — counted in
/// [`ResolveReport::candidates_pruned`]), and rank by total cover
/// with a lock-relation tiebreak. Reads the current net's state
/// graph, which [`score`] just built to count its conflicts; returns
/// no candidates when that graph is unavailable, falling back to the
/// exhaustive sweep alone.
fn guided_singles(
    current: &Scored,
    options: &ResolverOptions,
    guard: &StopGuard,
    report: &mut ResolveReport,
) -> Vec<(PlaceId, PlaceId)> {
    let Ok(sg) = current
        .artifacts
        .state_graph(explore_limits(&options.budget), guard)
    else {
        return Vec::new();
    };
    let stg = current.stg.as_ref();
    let net = stg.net();
    let pairs = sg.csc_conflict_pairs(stg);
    if pairs.is_empty() {
        return Vec::new();
    }
    let mut cover = vec![0usize; net.num_places()];
    for &(a, b) in pairs.iter().take(CORE_PAIR_CAP) {
        let (ma, mb) = (sg.marking(a), sg.marking(b));
        for p in net.places() {
            if ma.tokens(p) != mb.tokens(p) {
                cover[p.index()] += 1;
            }
        }
    }
    let mut core: Vec<PlaceId> = net.places().filter(|p| cover[p.index()] > 0).collect();
    core.sort_by_key(|p| (Reverse(cover[p.index()]), p.index()));
    core.truncate(CORE_PLACE_CAP);

    let structure = current.artifacts.structure();
    let mut ranked: Vec<(usize, usize, PlaceId, PlaceId)> = Vec::new();
    for &p in &core {
        for &q in &core {
            if p == q {
                continue;
            }
            if structure.concurrency.places_concurrent(p, q) {
                report.candidates_pruned += 1;
                continue;
            }
            let locked = usize::from(hosts_locked(stg, &structure, p, q));
            ranked.push((cover[p.index()] + cover[q.index()], locked, p, q));
        }
    }
    ranked.sort_by_key(|&(cov, lock, p, q)| (Reverse(cov), Reverse(lock), p.index(), q.index()));
    ranked.truncate(GUIDED_CAP);
    report.candidates_generated += ranked.len();
    ranked.into_iter().map(|(_, _, p, q)| (p, q)).collect()
}

/// Composes double-toggle candidates from the round's best-scoring
/// consistent singles: two host pairs with four distinct places.
///
/// On sequential nets `k` single-toggle signals cut a cycle into at
/// most `2k` constant-code arcs, so `n` same-code states need more
/// toggles per signal once `2k < n` — a hard ceiling no search order
/// can beat. The pairs that *compose* well are not the round's
/// winners (whose long arcs interleave, making the rise/fall order
/// inconsistent) but mid-ranked singles cutting short disjoint arcs,
/// which is why the whole top-[`POOL_CAP`] pool is paired rather
/// than the best few. Inconsistent combinations die cheaply in
/// scoring as broken candidates.
fn composed_doubles(pool: &mut Vec<(usize, (PlaceId, PlaceId))>) -> Vec<[(PlaceId, PlaceId); 2]> {
    pool.sort_by_key(|&(s, (p, q))| (s, p.index(), q.index()));
    pool.truncate(POOL_CAP);
    let mut doubles = Vec::new();
    for (i, &(_, (p1, q1))) in pool.iter().enumerate() {
        for &(_, (p2, q2)) in &pool[i + 1..] {
            let places = [p1, q1, p2, q2];
            if (1..4).any(|k| places[..k].contains(&places[k])) {
                continue;
            }
            doubles.push([(p1, q1), (p2, q2)]);
        }
    }
    doubles
}

/// Inserts and scores one candidate insertion (one toggle pair per
/// `hosts` entry), tracking the round's best. Ties in conflict count
/// break toward more toggle pairs — the finer code refinement gives
/// later rounds strictly more separating power at the same cost.
/// Returns the candidate's conflict count, or `None` when it was
/// unbuildable or broken; a returned `Some(0)` means the round is
/// solved and scoring can stop.
fn try_candidate(
    current_stg: &Arc<Stg>,
    name: &str,
    hosts: &[(PlaceId, PlaceId)],
    options: &ResolverOptions,
    guard: &StopGuard,
    report: &mut ResolveReport,
    best: &mut Option<Scored>,
) -> Result<Option<usize>, ResolveError> {
    let Some(candidate) = score_hosts(current_stg, name, hosts, options, guard, report)? else {
        return Ok(None);
    };
    let s = candidate.conflicts;
    if best
        .as_ref()
        .is_none_or(|b| s < b.conflicts || (s == b.conflicts && candidate.toggles > b.toggles))
    {
        *best = Some(candidate);
    }
    Ok(Some(s))
}

/// Inserts and scores one candidate, returning it as a [`Scored`]
/// (`None` for unbuildable or broken candidates).
fn score_hosts(
    current_stg: &Arc<Stg>,
    name: &str,
    hosts: &[(PlaceId, PlaceId)],
    options: &ResolverOptions,
    guard: &StopGuard,
    report: &mut ResolveReport,
) -> Result<Option<Scored>, ResolveError> {
    let Ok(candidate) = insert_state_signal_multi(current_stg, name, hosts) else {
        return Ok(None);
    };
    let candidate = Arc::new(candidate);
    let artifacts = Arc::new(Artifacts::new(Arc::clone(&candidate)));
    let score_start = Instant::now();
    let scored = score(&artifacts, options, guard, report);
    report.score_elapsed += score_start.elapsed();
    match scored? {
        Score::Conflicts(s) => Ok(Some(Scored {
            conflicts: s,
            toggles: hosts.len(),
            stg: candidate,
            artifacts,
        })),
        Score::Broken => {
            report.candidates_broken += 1;
            Ok(None)
        }
    }
}

/// Bounded backtracking over tied-best candidates — the endgame
/// search run when the greedy pass fails on a small instance.
///
/// Greedy adoption is blind to *which* of several equally-scoring
/// insertions it keeps, yet on tightly-coupled nets only some tie
/// choices admit a conflict-free completion (on a burst cycle, every
/// balanced first cut scores alike, but only cuts that interleave
/// with the later ones reach zero). This search redoes the rounds
/// depth-first, branching over the tied-best candidates of each
/// round — double-toggle candidates explored first, since the
/// endgame's binding constraint is cut count — under
/// [`ENDGAME_TIE_CAPS`] and a total effort bound of
/// [`ENDGAME_CANDIDATE_CAP`] scored insertions. Returns the first
/// conflict-free net found with its inserted signal names.
fn endgame(
    current: &Scored,
    round: usize,
    effort: &mut usize,
    options: &ResolverOptions,
    guard: &StopGuard,
    report: &mut ResolveReport,
) -> Result<Option<(Scored, Vec<String>)>, ResolveError> {
    if round >= options.max_signals || *effort == 0 {
        return Ok(None);
    }
    let name = format!("csc{round}");
    let tie_cap = ENDGAME_TIE_CAPS[round.min(ENDGAME_TIE_CAPS.len() - 1)];
    let mut pool: Vec<(usize, (PlaceId, PlaceId))> = Vec::new();
    // Tied-best candidates, singles and doubles kept apart so the
    // branching below can explore the finer refinements first.
    let mut tie_singles: Vec<Scored> = Vec::new();
    let mut tie_doubles: Vec<Scored> = Vec::new();
    let mut min = usize::MAX;

    let places: Vec<_> = current.stg.net().places().collect();
    for &p in &places {
        for &q in &places {
            if p == q || *effort == 0 {
                continue;
            }
            *effort -= 1;
            guard
                .poll()
                .map_err(|r| ResolveError::Exhausted(r.into()))?;
            let Some(cand) = score_hosts(&current.stg, &name, &[(p, q)], options, guard, report)?
            else {
                continue;
            };
            if cand.conflicts == 0 {
                return Ok(Some((cand, vec![name])));
            }
            pool.push((cand.conflicts, (p, q)));
            if cand.conflicts < min {
                min = cand.conflicts;
                tie_singles.clear();
                tie_doubles.clear();
                tie_singles.push(cand);
            } else if cand.conflicts == min && tie_singles.len() < tie_cap {
                tie_singles.push(cand);
            }
        }
    }

    let doubles = composed_doubles(&mut pool);
    report.candidates_generated += doubles.len();
    for hosts in &doubles {
        if *effort == 0 {
            break;
        }
        *effort -= 1;
        guard
            .poll()
            .map_err(|r| ResolveError::Exhausted(r.into()))?;
        let Some(cand) = score_hosts(&current.stg, &name, hosts, options, guard, report)? else {
            continue;
        };
        if cand.conflicts == 0 {
            return Ok(Some((cand, vec![name])));
        }
        if cand.conflicts < min {
            min = cand.conflicts;
            tie_singles.clear();
            tie_doubles.clear();
            tie_doubles.push(cand);
        } else if cand.conflicts == min && tie_doubles.len() < tie_cap {
            tie_doubles.push(cand);
        }
    }

    for tie in tie_doubles.iter().chain(&tie_singles) {
        if let Some((solved, mut names)) = endgame(tie, round + 1, effort, options, guard, report)?
        {
            names.insert(0, name.clone());
            return Ok(Some((solved, names)));
        }
    }
    Ok(None)
}

/// The state-graph limits of one score: the budget's `max_states`
/// when set, the exploration defaults otherwise.
fn explore_limits(budget: &Budget) -> ExploreLimits {
    let defaults = ExploreLimits::default();
    ExploreLimits {
        max_states: budget.max_states.unwrap_or(defaults.max_states),
        ..defaults
    }
}

/// Scores `artifacts.stg()` by remaining CSC conflict pairs, counted
/// on its explicit state graph.
fn score(
    artifacts: &Artifacts,
    options: &ResolverOptions,
    guard: &StopGuard,
    report: &mut ResolveReport,
) -> Result<Score, ResolveError> {
    report.candidates_tried += 1;
    match artifacts.state_graph(explore_limits(&options.budget), guard) {
        Ok(sg) => Ok(Score::Conflicts(
            sg.csc_conflict_pairs(artifacts.stg()).len(),
        )),
        // The caller's deadline/cancellation fired mid-build: abort
        // the resolution, do not mis-score.
        Err(stg::SgError::Reach(petri::ReachError::Stopped { reason, .. })) => {
            Err(ResolveError::Exhausted(reason.into()))
        }
        // Inconsistent, unbounded, or over the per-candidate caps: the
        // candidate is broken, skip it.
        Err(_) => Ok(Score::Broken),
    }
}

/// Attempts to make `stg` satisfy CSC by inserting up to
/// [`ResolverOptions::max_signals`] internal state signals, returning
/// the full [`ResolveRun`] (outcome + report + reusable artifacts).
///
/// `seed` optionally provides an existing artifact set of the *input*
/// net (e.g. a server cache entry): when its canonical hash matches,
/// the initial conflict count reuses whatever stages it already
/// holds instead of re-exploring. A mismatched seed is ignored, never
/// trusted.
///
/// The search is greedy (best single insertion per round). Each
/// round scores *guided* candidates first — host pairs drawn from
/// the conflict cores (the places distinguishing conflicting
/// markings), filtered through the structural concurrency relation
/// and ranked by cover — then falls back to the exhaustive
/// place-pair sweep, so guidance reorders the search without ever
/// losing a resolution. A round whose best candidate merely *ties*
/// the current conflict count is adopted anyway (a plateau step):
/// the extra split refines the state code, letting a later round
/// separate states no single insertion could. The search can still
/// fail on models whose conflicts resist [`max_signals`] insertions
/// — notably τ-heavy STGs where dummy transitions separate
/// same-code states. Such runs end in [`ResolveOutcome::Failed`]
/// with the lowest-conflict model seen (plateau detours are never
/// reported as "best").
///
/// [`max_signals`]: ResolverOptions::max_signals
///
/// # Errors
///
/// * [`ResolveError::Input`] if the input itself cannot be scored;
/// * [`ResolveError::Exhausted`] if the budget's deadline or
///   cancellation token fired mid-search;
/// * [`ResolveError::Verification`] if the final unfolding check
///   errors out.
pub fn resolve_csc_with_report(
    stg: &Stg,
    options: &ResolverOptions,
    seed: Option<Arc<Artifacts>>,
) -> Result<ResolveRun, ResolveError> {
    let started = Instant::now();
    let guard = options.budget.guard();
    let mut report = ResolveReport::default();

    // Score the input, reusing the caller's artifact set when it
    // matches by canonical hash (a stale or foreign seed is ignored).
    let input_artifacts = match seed {
        Some(arts) if arts.hash() == stg.canonical_hash() => {
            if arts.has_state_graph() || arts.has_prefix() {
                report.warm_reuses += 1;
            }
            arts
        }
        _ => Arc::new(Artifacts::new(Arc::new(stg.clone()))),
    };
    let score_start = Instant::now();
    let initial = match score(&input_artifacts, options, &guard, &mut report)? {
        Score::Conflicts(n) => n,
        Score::Broken => {
            return Err(ResolveError::Input(
                "the input STG cannot be scored (inconsistent, unsafe, or over the \
                 exploration caps)"
                    .to_owned(),
            ))
        }
    };
    report.score_elapsed += score_start.elapsed();
    report.initial_conflicts = initial;
    if initial == 0 {
        report.elapsed = started.elapsed();
        return Ok(ResolveRun {
            outcome: ResolveOutcome::AlreadySatisfied,
            report,
            artifacts: Some(input_artifacts),
        });
    }

    let mut current = Scored {
        conflicts: initial,
        toggles: 0,
        stg: input_artifacts.shared_stg(),
        artifacts: input_artifacts,
    };
    // The lowest-conflict net seen so far: plateau rounds may adopt
    // equal-conflict candidates to escape a local optimum, so a
    // failed search reports this instead of the (possibly larger)
    // final net.
    let mut best_seen = current.clone();
    // The untouched input, kept as the endgame search's root.
    let origin = current.clone();
    let mut inserted = Vec::new();
    for round in 0..options.max_signals {
        let round_start = Instant::now();
        let round_tried = report.candidates_tried;
        let name = format!("csc{round}");
        let mut best: Option<Scored> = None;
        let mut solved = false;

        let mut pool: Vec<(usize, (PlaceId, PlaceId))> = Vec::new();

        // Phase 1: guided — conflict-core host pairs first, so ties
        // in the exhaustive sweep resolve toward structurally
        // informed insertions.
        let guided = guided_singles(&current, options, &guard, &mut report);
        let mut tried: HashSet<(PlaceId, PlaceId)> = HashSet::with_capacity(guided.len());
        for &(p_plus, p_minus) in &guided {
            guard
                .poll()
                .map_err(|r| ResolveError::Exhausted(r.into()))?;
            tried.insert((p_plus, p_minus));
            let hosts = [(p_plus, p_minus)];
            let scored = try_candidate(
                &current.stg,
                &name,
                &hosts,
                options,
                &guard,
                &mut report,
                &mut best,
            )?;
            if let Some(s) = scored {
                pool.push((s, (p_plus, p_minus)));
                if s == 0 {
                    solved = true;
                    break;
                }
            }
        }

        // Phase 2: exhaustive sweep over the remaining place pairs —
        // guided generation reorders the search but never loses a
        // resolution the plain sweep would have found.
        if !solved {
            let places: Vec<_> = current.stg.net().places().collect();
            'candidates: for &p_plus in &places {
                for &p_minus in &places {
                    if p_plus == p_minus || tried.contains(&(p_plus, p_minus)) {
                        continue;
                    }
                    // A watchdog cancellation or an expired deadline
                    // aborts between candidates even when every
                    // individual score is cheap.
                    guard
                        .poll()
                        .map_err(|r| ResolveError::Exhausted(r.into()))?;
                    let hosts = [(p_plus, p_minus)];
                    let scored = try_candidate(
                        &current.stg,
                        &name,
                        &hosts,
                        options,
                        &guard,
                        &mut report,
                        &mut best,
                    )?;
                    if let Some(s) = scored {
                        pool.push((s, (p_plus, p_minus)));
                        if s == 0 {
                            solved = true;
                            break 'candidates;
                        }
                    }
                }
            }
        }

        // Phase 3: double-toggle insertions — one signal toggling
        // twice, composed from the round's best consistent singles.
        // Scored after the single sweeps so a net a single toggle
        // already solves never grows extra transitions; at equal
        // conflict counts the tie-break in [`try_candidate`] adopts
        // the double for its finer code refinement.
        if !solved && current.conflicts <= DOUBLE_CONFLICT_CAP {
            let doubles = composed_doubles(&mut pool);
            report.candidates_generated += doubles.len();
            for hosts in &doubles {
                guard
                    .poll()
                    .map_err(|r| ResolveError::Exhausted(r.into()))?;
                let scored = try_candidate(
                    &current.stg,
                    &name,
                    hosts,
                    options,
                    &guard,
                    &mut report,
                    &mut best,
                )?;
                if scored == Some(0) {
                    break;
                }
            }
        }

        let adopted = match best {
            // Strict improvement — or a plateau step: adopting an
            // equal-conflict candidate spends a signal slot without
            // visible progress, but moves the search off local optima
            // that no *single* insertion improves (the split still
            // refines the code, so a later insertion can separate
            // states this round could not).
            Some(b) if b.conflicts <= current.conflicts => {
                let remaining = b.conflicts;
                current = b;
                inserted.push(name.clone());
                if current.conflicts < best_seen.conflicts {
                    best_seen = current.clone();
                }
                Some(remaining)
            }
            _ => None,
        };
        report.rounds.push(RoundReport {
            signal: name,
            candidates_tried: report.candidates_tried - round_tried,
            remaining: adopted.unwrap_or(current.conflicts),
            inserted: adopted.is_some(),
            elapsed: round_start.elapsed(),
        });
        match adopted {
            Some(0) | None => break,
            Some(_) => {}
        }
    }

    // The greedy pass is myopic about *which* of several tied-best
    // insertions it adopts; on small instances a bounded
    // backtracking pass over those ties often completes where greedy
    // stalled one conflict short.
    if current.conflicts > 0 && initial <= ENDGAME_CONFLICT_CAP {
        let mut effort = ENDGAME_CANDIDATE_CAP;
        if let Some((solved, names)) =
            endgame(&origin, 0, &mut effort, options, &guard, &mut report)?
        {
            current = solved;
            inserted = names;
        }
    }

    if current.conflicts == 0 {
        // Final verification with the paper's checker — the resolver
        // only ever *claims* success the unfolding engine confirms.
        // The check runs on the winner's own artifact set, which is
        // returned so the pipeline's re-check is warm next.
        let verify_start = Instant::now();
        let run = CheckRequest::new(&current.stg, Property::Csc)
            .engine(Engine::UnfoldingIlp)
            .budget(options.budget.clone())
            .artifacts(&current.artifacts)
            .run()
            .map_err(ResolveError::Verification)?;
        report.verify_elapsed = verify_start.elapsed();
        report.verify_prefix_events_built = run.report.prefix_events_built;
        if report.verify_prefix_events_built == Some(0) {
            report.warm_reuses += 1;
        }
        match run.verdict {
            Verdict::Holds => {}
            Verdict::Violated(_) => {
                return Err(ResolveError::Input(
                    "scoring and verification disagree".to_owned(),
                ))
            }
            Verdict::Unknown(reason) => return Err(ResolveError::Exhausted(reason)),
        }
        report.elapsed = started.elapsed();
        Ok(ResolveRun {
            outcome: ResolveOutcome::Resolved {
                stg: (*current.stg).clone(),
                inserted,
            },
            report,
            artifacts: Some(current.artifacts),
        })
    } else {
        // Plateau rounds may have left `current` no better than an
        // earlier net; report the true lowest-conflict model seen.
        let best = if best_seen.conflicts < current.conflicts {
            best_seen
        } else {
            current
        };
        report.elapsed = started.elapsed();
        Ok(ResolveRun {
            outcome: ResolveOutcome::Failed {
                best: (*best.stg).clone(),
                remaining: best.conflicts,
            },
            report,
            artifacts: Some(best.artifacts),
        })
    }
}

/// Attempts to make `stg` satisfy CSC by inserting internal state
/// signals. Convenience wrapper around [`resolve_csc_with_report`]
/// that returns the outcome alone.
///
/// # Errors
///
/// See [`resolve_csc_with_report`].
pub fn resolve_csc(stg: &Stg, options: ResolverOptions) -> Result<ResolveOutcome, ResolveError> {
    resolve_csc_with_report(stg, &options, None).map(|run| run.outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_core::CancelToken;
    use stg::gen::counterflow::counterflow_sym;
    use stg::gen::duplex::{dup_4ph, dup_mod};
    use stg::gen::ring::lazy_ring;
    use stg::gen::vme::vme_read;
    use stg::StateGraph;

    fn assert_resolved(stg: &Stg, label: &str) -> Stg {
        match resolve_csc(stg, ResolverOptions::default()).unwrap() {
            ResolveOutcome::Resolved {
                stg: fixed,
                inserted,
            } => {
                assert!(!inserted.is_empty(), "{label}");
                let sg = StateGraph::build(&fixed, Default::default()).unwrap();
                assert!(sg.satisfies_csc(&fixed), "{label}");
                fixed
            }
            other => panic!("{label}: expected Resolved, got {other:?}"),
        }
    }

    #[test]
    fn vme_resolves_with_one_signal() {
        let fixed = assert_resolved(&vme_read(), "vme");
        assert_eq!(fixed.num_signals(), 6);
    }

    #[test]
    fn dup_4ph_resolves() {
        assert_resolved(&dup_4ph(1, false), "dup_4ph(1)");
    }

    #[test]
    fn dup_mod_resolves() {
        assert_resolved(&dup_mod(1), "dup_mod(1)");
    }

    #[test]
    fn lazy_ring_resolves() {
        assert_resolved(&lazy_ring(2), "lazy_ring(2)");
    }

    #[test]
    fn satisfied_input_is_left_alone() {
        let stg = counterflow_sym(2, 2);
        assert!(matches!(
            resolve_csc(&stg, ResolverOptions::default()).unwrap(),
            ResolveOutcome::AlreadySatisfied
        ));
    }

    #[test]
    fn zero_budget_reports_failure() {
        let stg = vme_read();
        let options = ResolverOptions {
            max_signals: 0,
            ..Default::default()
        };
        match resolve_csc(&stg, options).unwrap() {
            ResolveOutcome::Failed { remaining, .. } => assert!(remaining > 0),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn resolved_models_keep_original_behaviour_shape() {
        // The environment-visible signals and their counts are
        // untouched; only internal csc* signals appear.
        let stg = vme_read();
        let fixed = assert_resolved(&stg, "vme");
        for z in stg.signals() {
            let name = stg.signal_name(z);
            let fz = fixed.signal_by_name(name).unwrap();
            assert_eq!(fixed.signal_kind(fz), stg.signal_kind(z), "{name}");
            assert_eq!(
                fixed.transitions_of(fz).count(),
                stg.transitions_of(z).count(),
                "{name}"
            );
        }
    }

    // ------------------------------------------------------------------
    // Regression: a budget/cancel abort must be a typed error, never a
    // silent mis-score. The old `score -> Option<usize>` collapsed a
    // mid-search deadline to `None` — indistinguishable from a broken
    // candidate — so the loop kept "resolving" with wrong rankings.
    // ------------------------------------------------------------------

    #[test]
    fn cancelled_token_aborts_instead_of_mis_scoring() {
        let stg = vme_read();
        let token = CancelToken::new();
        token.cancel();
        let options = ResolverOptions {
            budget: Budget::unlimited().with_cancel(token),
            ..Default::default()
        };
        match resolve_csc(&stg, options) {
            Err(ResolveError::Exhausted(ExhaustionReason::Cancelled)) => {}
            other => panic!("expected Exhausted(Cancelled), got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_aborts_instead_of_mis_scoring() {
        let stg = vme_read();
        let options = ResolverOptions {
            budget: Budget::unlimited().with_deadline(Duration::ZERO),
            ..Default::default()
        };
        match resolve_csc(&stg, options) {
            Err(ResolveError::Exhausted(ExhaustionReason::DeadlineExpired)) => {}
            other => panic!("expected Exhausted(DeadlineExpired), got {other:?}"),
        }
    }

    #[test]
    fn broken_candidates_are_skipped_not_fatal() {
        // The default run encounters candidates that break consistency
        // (the inserted signal misfires); they must be counted as
        // broken and skipped while the search still succeeds.
        let stg = vme_read();
        let run = resolve_csc_with_report(&stg, &ResolverOptions::default(), None).unwrap();
        assert!(matches!(run.outcome, ResolveOutcome::Resolved { .. }));
        assert!(run.report.candidates_tried > 0);
        assert!(run.report.initial_conflicts > 0);
        assert_eq!(run.report.rounds.len(), 1);
        assert!(run.report.rounds[0].inserted);
        assert_eq!(run.report.rounds[0].remaining, 0);
    }

    // ------------------------------------------------------------------
    // Incremental re-verification: the winner's artifact set makes any
    // downstream re-check warm.
    // ------------------------------------------------------------------

    #[test]
    fn returned_artifacts_make_recheck_warm() {
        // Warm re-check through the returned artifact set must build
        // strictly fewer prefix events than a cold check of the same
        // resolved net.
        let stg = vme_read();
        let run = resolve_csc_with_report(&stg, &ResolverOptions::default(), None).unwrap();
        let ResolveOutcome::Resolved { stg: fixed, .. } = &run.outcome else {
            panic!("vme resolves");
        };
        let warm_arts = run.artifacts.expect("resolved runs carry artifacts");
        let warm = CheckRequest::new(fixed, Property::Csc)
            .engine(Engine::UnfoldingIlp)
            .artifacts(&warm_arts)
            .run()
            .unwrap();
        let cold = CheckRequest::new(fixed, Property::Csc)
            .engine(Engine::UnfoldingIlp)
            .run()
            .unwrap();
        let warm_built = warm.report.prefix_events_built.unwrap();
        let cold_built = cold.report.prefix_events_built.unwrap();
        assert_eq!(warm_built, 0, "the resolver already verified on this set");
        assert!(
            warm_built < cold_built,
            "warm ({warm_built}) must rebuild fewer prefix events than cold ({cold_built})"
        );
    }

    #[test]
    fn matching_seed_is_reused_for_the_initial_score() {
        let stg = counterflow_sym(2, 2);
        let seed = Arc::new(Artifacts::of(&stg));
        // Pre-build the state graph the initial score needs.
        seed.state_graph(Default::default(), &StopGuard::unlimited())
            .unwrap();
        let run =
            resolve_csc_with_report(&stg, &ResolverOptions::default(), Some(Arc::clone(&seed)))
                .unwrap();
        assert!(matches!(run.outcome, ResolveOutcome::AlreadySatisfied));
        assert!(run.report.warm_reuses >= 1);
        // A foreign seed must be ignored, not trusted.
        let other = Arc::new(Artifacts::of(&vme_read()));
        let run = resolve_csc_with_report(&stg, &ResolverOptions::default(), Some(other)).unwrap();
        assert!(matches!(run.outcome, ResolveOutcome::AlreadySatisfied));
    }
}
