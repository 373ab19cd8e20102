//! The generate-and-test resolution loop.
//!
//! Each round scores every candidate insertion with the scoring
//! kernel ([`crate::kernel`]): the parent net's arcs as bit masks,
//! patched with the candidate's split and explored on safe bitset
//! markings. No candidate is built as an [`Stg`]. Only the candidate a
//! round adopts is built, once, with its own [`Artifacts`] set keyed
//! by `Stg::canonical_hash()`. The final verification runs the
//! paper's engine on the winner's set and returns the set, so the
//! pipeline's re-check reuses the prefix it built (incremental
//! re-verification). Reuse never crosses hashes: an insertion changes
//! the canonical hash, so a modified net can never see stale stages.
//!
//! The whole search runs under one [`Budget`]: the wall-clock
//! deadline and [`CancelToken`](csc_core::CancelToken) are polled
//! between candidates and *inside* every candidate's search and every
//! build, so a hung-job watchdog can abort a resolution mid-candidate.
//! A budget abort is a typed error ([`ResolveError::Exhausted`]),
//! cleanly distinguished from a structurally broken candidate (which
//! is skipped and counted in
//! [`ResolveReport::candidates_broken`]).

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use csc_core::{
    Artifacts, Budget, CheckError, CheckRequest, Engine, ExhaustionReason, Property, Verdict,
};
use petri::{ExploreLimits, PlaceId, ReachError, StopGuard, StopReason, TransitionId};
use stg::{SgError, Stg};

use crate::insert::insert_state_signal_multi;
use crate::kernel::{Parent, Score, Scorer};

/// Options of [`resolve_csc`].
#[derive(Debug, Clone)]
pub struct ResolverOptions {
    /// Maximum number of state signals to insert.
    pub max_signals: usize,
    /// Resource budget for the whole resolution (deadline and
    /// cancellation are honoured between candidates and inside every
    /// search and build; `max_states` caps the states explored for the
    /// input and for each candidate).
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

/// Counters and timing of a resolution run.
#[derive(Debug, Clone, Default)]
pub struct ResolveReport {
    /// CSC conflict pairs in the input.
    pub initial_conflicts: usize,
    /// Candidate insertions scored across all rounds.
    pub candidates_tried: usize,
    /// Candidates the scoring kernel found structurally broken
    /// (inconsistent, unsafe, or over the per-candidate state cap) —
    /// skipped, never silently mis-scored.
    pub candidates_broken: usize,
    /// Checks that reused an already-built artifact stage instead of
    /// rebuilding it (seeded initial score, warm final verification).
    pub warm_reuses: usize,
    /// One entry per greedy round, in order.
    pub rounds: Vec<RoundReport>,
    /// Prefix events the final verification built. Candidates are
    /// scored by the kernel's own search, with no prefix, so this is
    /// the winner's prefix, built once here and reused by any later
    /// check on the returned set.
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
    /// Counters and timing.
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

/// The search's current net with its conflict count and artifact
/// set.
#[derive(Clone)]
struct Scored {
    conflicts: usize,
    artifacts: Arc<Artifacts>,
}

/// The best candidate of a round so far: its score and host pairs.
/// Only the candidate a round adopts is built as an [`Stg`].
struct Best {
    conflicts: usize,
    /// One toggle pair per entry. Ties in conflict count break toward
    /// *more* toggles: each extra toggle pair refines the state code
    /// more finely, so later rounds have strictly more separating
    /// power.
    hosts: Vec<(PlaceId, PlaceId)>,
}

/// Best-scoring single-toggle candidates kept per round as the pool
/// double-toggle candidates are composed from.
const POOL_CAP: usize = 32;
/// Double-toggle candidates are only composed below this conflict
/// count: they target the last conflicts, where few same-code state
/// classes remain and the binding constraint is cut *count*, not
/// which coarse region a single split picks.
const DOUBLE_CONFLICT_CAP: usize = 1024;

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
///
/// The pool arrives in sweep order, and the stable sort keeps that
/// order among equal scores.
pub(crate) fn composed_doubles(
    pool: &mut Vec<(usize, (PlaceId, PlaceId))>,
) -> Vec<[(PlaceId, PlaceId); 2]> {
    pool.sort_by_key(|&(s, _)| s);
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

/// The places of `stg` in the order the sweep visits them: by the
/// names of their producing transitions, then of their consuming
/// transitions, then by place name. Ties between equal-scoring
/// candidates go to the one scored first, so the order decides the
/// outcome; keying it on names rather than place numbers gives the
/// same resolution for a net built by a generator and for the same
/// net parsed back from `.g`, which numbers places in arc order.
pub(crate) fn sweep_order(stg: &Stg) -> Vec<PlaceId> {
    let net = stg.net();
    let names = |ts: &[TransitionId]| {
        let mut names: Vec<&str> = ts.iter().map(|&t| stg.transition_name(t)).collect();
        names.sort_unstable();
        names
    };
    let mut places: Vec<PlaceId> = net.places().collect();
    places.sort_by_cached_key(|&p| {
        (
            names(net.place_preset(p)),
            names(net.place_postset(p)),
            net.place_name(p),
        )
    });
    places
}

/// The name of the signal a round inserts: the first `csc{k}` that no
/// signal of `stg` uses.
fn fresh_signal_name(stg: &Stg) -> String {
    let mut k = 0;
    loop {
        let name = format!("csc{k}");
        if stg.signal_by_name(&name).is_none() {
            return name;
        }
        k += 1;
    }
}

/// A budget abort as a resolution error.
fn exhausted(reason: StopReason) -> ResolveError {
    ResolveError::Exhausted(reason.into())
}

/// Scores one candidate insertion into `parent` (one toggle pair per
/// `hosts` entry) with the kernel, tracking the round's best. Ties in
/// conflict count break toward more toggle pairs — the finer code
/// refinement gives later rounds strictly more separating power at the
/// same cost. Returns the candidate's conflict count, or `None` when
/// it is broken; a returned `Some(0)` means the round is solved and
/// scoring can stop.
fn try_candidate(
    parent: &Parent<'_>,
    hosts: &[(PlaceId, PlaceId)],
    scorer: &mut Scorer,
    max_states: usize,
    guard: &StopGuard,
    report: &mut ResolveReport,
    best: &mut Option<Best>,
) -> Result<Option<usize>, ResolveError> {
    // A watchdog cancellation or an expired deadline aborts between
    // candidates even when every individual score is cheap.
    guard.poll().map_err(exhausted)?;
    report.candidates_tried += 1;
    let s = match scorer
        .score(parent, hosts, max_states, guard)
        .map_err(exhausted)?
    {
        Score::Conflicts(s) => s,
        Score::Broken => {
            report.candidates_broken += 1;
            return Ok(None);
        }
    };
    if best
        .as_ref()
        .is_none_or(|b| s < b.conflicts || (s == b.conflicts && hosts.len() > b.hosts.len()))
    {
        *best = Some(Best {
            conflicts: s,
            hosts: hosts.to_vec(),
        });
    }
    Ok(Some(s))
}

/// The state-graph limits of the input's score, whose `max_states`
/// also caps each candidate's search: the budget's `max_states` when
/// set, the exploration defaults otherwise.
fn explore_limits(budget: &Budget) -> ExploreLimits {
    let defaults = ExploreLimits::default();
    ExploreLimits {
        max_states: budget.max_states.unwrap_or(defaults.max_states),
        ..defaults
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
/// The search is greedy: each round scores every single insertion
/// (the exhaustive place-pair sweep), then, while few conflicts
/// remain, the double-toggle insertions composed from the round's
/// best singles, and adopts the best. A round whose best candidate
/// merely *ties* the current conflict count is adopted anyway (a
/// plateau step): the extra split refines the state code, letting a
/// later round separate states no single insertion could. The search
/// can still fail on models whose conflicts resist [`max_signals`]
/// insertions — notably τ-heavy STGs where dummy transitions separate
/// same-code states. Such runs end in [`ResolveOutcome::Failed`] with
/// the lowest-conflict model seen (plateau detours are never reported
/// as "best").
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
    report.candidates_tried += 1;
    let limits = explore_limits(&options.budget);
    let initial = match input_artifacts.state_graph(limits, &guard) {
        Ok(sg) => sg.csc_conflict_pairs(input_artifacts.stg()).len(),
        // The caller's deadline/cancellation fired mid-build: abort
        // the resolution, do not mis-score.
        Err(SgError::Reach(ReachError::Stopped { reason, .. })) => return Err(exhausted(reason)),
        Err(_) => {
            return Err(ResolveError::Input(
                "the input STG cannot be scored (inconsistent, unsafe, or over the \
                 exploration caps)"
                    .to_owned(),
            ))
        }
    };
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
        artifacts: input_artifacts,
    };
    // The lowest-conflict net seen so far: plateau rounds may adopt
    // equal-conflict candidates to escape a local optimum, so a
    // failed search reports this instead of the (possibly larger)
    // final net.
    let mut best_seen = current.clone();
    let mut inserted = Vec::new();
    let mut scorer = Scorer::default();
    for _ in 0..options.max_signals {
        let round_start = Instant::now();
        let round_tried = report.candidates_tried;
        let name = fresh_signal_name(current.artifacts.stg());
        let parent = Parent::new(current.artifacts.stg());
        let mut best: Option<Best> = None;
        let mut solved = false;
        let mut pool: Vec<(usize, (PlaceId, PlaceId))> = Vec::new();

        // Single insertions: one toggle pair at every ordered pair of
        // distinct places.
        let places = sweep_order(current.artifacts.stg());
        'candidates: for &p_plus in &places {
            for &p_minus in &places {
                if p_plus == p_minus {
                    continue;
                }
                let hosts = [(p_plus, p_minus)];
                let scored = try_candidate(
                    &parent,
                    &hosts,
                    &mut scorer,
                    limits.max_states,
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

        // Double-toggle insertions — one signal toggling twice,
        // composed from the round's best consistent singles. Scored
        // after the singles so a net a single toggle already solves
        // never grows extra transitions; at equal conflict counts the
        // tie-break in [`try_candidate`] adopts the double for its
        // finer code refinement.
        if !solved && current.conflicts <= DOUBLE_CONFLICT_CAP {
            for hosts in &composed_doubles(&mut pool) {
                let scored = try_candidate(
                    &parent,
                    hosts,
                    &mut scorer,
                    limits.max_states,
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
            // states this round could not). Only this candidate is
            // built as a net, with the artifact set its final
            // verification and the pipeline's re-check share.
            Some(b) if b.conflicts <= current.conflicts => {
                let remaining = b.conflicts;
                let stg = insert_state_signal_multi(current.artifacts.stg(), &name, &b.hosts)
                    .map_err(|e| ResolveError::Input(e.to_string()))?;
                current = Scored {
                    conflicts: remaining,
                    artifacts: Arc::new(Artifacts::new(Arc::new(stg))),
                };
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

    if current.conflicts == 0 {
        // Final verification with the paper's checker — the resolver
        // only ever *claims* success the unfolding engine confirms.
        // The check runs on the winner's own artifact set, which is
        // returned so the pipeline's re-check is warm next.
        let run = CheckRequest::new(current.artifacts.stg(), Property::Csc)
            .engine(Engine::UnfoldingIlp)
            .budget(options.budget.clone())
            .artifacts(&current.artifacts)
            .run()
            .map_err(ResolveError::Verification)?;
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
                stg: current.artifacts.stg().clone(),
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
                best: best.artifacts.stg().clone(),
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
    use stg::gen::random::{random_stg, RandomStgConfig};
    use stg::gen::ring::{eager_ring, lazy_ring};
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
    fn deadline_stops_a_long_resolution_promptly() {
        // RING's resolution runs for about a second in release; the
        // kernel polls the deadline at every state it expands.
        let options = ResolverOptions {
            budget: Budget::unlimited().with_deadline(Duration::from_millis(50)),
            ..Default::default()
        };
        let start = Instant::now();
        let result = resolve_csc(&eager_ring(4), options);
        let elapsed = start.elapsed();
        assert!(
            matches!(
                result,
                Err(ResolveError::Exhausted(ExhaustionReason::DeadlineExpired))
            ),
            "{result:?}"
        );
        assert!(elapsed < Duration::from_millis(150), "{elapsed:?}");
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

    #[test]
    fn every_scored_candidate_belongs_to_a_greedy_round() {
        // The default random net no insertion fixes: the search fails
        // with conflicts left, and every candidate it scored besides
        // the input is counted in one of its rounds.
        let stg = random_stg(&RandomStgConfig::default(), 19);
        let run = resolve_csc_with_report(&stg, &ResolverOptions::default(), None).unwrap();
        let ResolveOutcome::Failed { remaining, .. } = run.outcome else {
            panic!("expected Failed, got {:?}", run.outcome);
        };
        assert_eq!(remaining, 2);
        let per_round: usize = run.report.rounds.iter().map(|r| r.candidates_tried).sum();
        assert_eq!(run.report.candidates_tried, 1 + per_round);
    }

    #[test]
    fn resolution_does_not_depend_on_place_numbering() {
        // Parsing the generated net back from `.g` numbers its places
        // in arc order; the sweep order, and so the search, must not
        // change. On DUP-MOD-C a sweep in the generator's place-number
        // order ends one conflict pair short.
        let built = dup_mod(6);
        let parsed = stg::parse(&stg::to_g_format(&built, "dup-mod")).unwrap();
        let runs = [&built, &parsed]
            .map(|net| resolve_csc_with_report(net, &ResolverOptions::default(), None).unwrap());
        for run in &runs {
            let ResolveOutcome::Resolved { inserted, .. } = &run.outcome else {
                panic!("expected Resolved, got {:?}", run.outcome);
            };
            assert_eq!(inserted.len(), 3);
        }
        assert_eq!(
            runs[0].report.candidates_tried,
            runs[1].report.candidates_tried
        );
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
