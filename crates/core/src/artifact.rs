//! Shared, lazily-built verification artifacts of one STG.
//!
//! Every engine consumes some derived structure of the input STG: the
//! unfolding engine a finite complete prefix plus its event
//! relations, the explicit oracle a state graph, the symbolic engine
//! a BDD encoding with a cached reachable set. The monolithic
//! per-call API rebuilt these from scratch on every check; an
//! [`Artifacts`] set builds each stage *once*, on first demand, and
//! shares it across engines, properties, threads and — keyed by
//! [`Stg::canonical_hash`] — server requests (see `docs/ARTIFACTS.md`
//! and the `ArtifactCache` in the server crate).
//!
//! # Budgets and soundness of reuse
//!
//! Budget caps (`max_events`, `max_states`, `max_bdd_nodes`) bound
//! *work*, not answers: a stage that completed under any budget is
//! the canonical object (the complete prefix, the full state graph,
//! the exact reachable set), so reusing it under a *smaller* cap is
//! sound — the work is already done. Conversely a stage cut short by
//! a budget is never cached: only complete builds enter the set, so a
//! later, larger budget retries from scratch rather than trusting a
//! truncated artifact.
//!
//! # Concurrency
//!
//! Each stage sits behind its own lock, held for the whole build
//! (single-flight): when two racers demand the same stage, one builds
//! and the other blocks briefly, then shares the result. The three
//! engine stages use *separate* locks, so [`crate::Engine::Race`]'s
//! racers never contend with each other.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use petri::{ExploreLimits, StopGuard};
use stg::{CanonicalHash, SgError, StateGraph, Stg};
use symbolic::SymbolicChecker;
use unfolding::{EventRelations, Prefix, UnfoldError, UnfoldOptions};

/// The unfolding stage: a finite complete prefix plus the event
/// relations (causality/conflict/concurrency) the integer programs
/// are built over, both shareable.
#[derive(Debug, Clone)]
pub struct PrefixArtifact {
    /// The finite complete prefix.
    pub prefix: Arc<Prefix>,
    /// Precomputed event relations of `prefix`.
    pub relations: Arc<EventRelations>,
}

/// Lazily-built, shareable verification artifacts of one STG.
///
/// Cheap to create — construction derives nothing. Each stage is
/// built on first demand by whichever engine needs it and reused by
/// every later check on the same set, across properties, engines and
/// threads (`Artifacts` is `Sync`; wrap it in an [`Arc`] to share).
///
/// # Examples
///
/// ```
/// use csc_core::{Artifacts, CheckRequest, Engine, Property};
/// use stg::gen::vme::vme_read;
///
/// # fn main() -> Result<(), csc_core::CheckError> {
/// let stg = vme_read();
/// let artifacts = Artifacts::of(&stg);
/// let check = |property| {
///     CheckRequest::new(&stg, property)
///         .engine(Engine::UnfoldingIlp)
///         .artifacts(&artifacts)
///         .run()
/// };
/// let usc = check(Property::Usc)?;
/// let csc = check(Property::Csc)?;
/// // The second check reused the first check's prefix: no new events.
/// assert!(usc.report.prefix_events_built.is_some_and(|n| n > 0));
/// assert_eq!(csc.report.prefix_events_built, Some(0));
/// # Ok(())
/// # }
/// ```
pub struct Artifacts {
    stg: Arc<Stg>,
    hash: OnceLock<CanonicalHash>,
    prefix: Mutex<Option<PrefixArtifact>>,
    state_graph: Mutex<Option<Arc<StateGraph>>>,
    symbolic: Mutex<Option<SymbolicChecker>>,
    structure: Mutex<Option<Arc<lint::StructureReport>>>,
}

impl std::fmt::Debug for Artifacts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Artifacts")
            .field("hash", &self.hash.get())
            .finish_non_exhaustive()
    }
}

/// Recovers the guard of a poisoned stage lock. Stages only assign
/// their slot *after* a successful build, so a panic mid-build leaves
/// the slot in its previous, consistent state — except the symbolic
/// stage, whose checker mutates in place; its caller resets the slot.
fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Artifacts {
    /// Wraps an already-shared STG without deriving anything.
    pub fn new(stg: Arc<Stg>) -> Self {
        Artifacts {
            stg,
            hash: OnceLock::new(),
            prefix: Mutex::new(None),
            state_graph: Mutex::new(None),
            symbolic: Mutex::new(None),
            structure: Mutex::new(None),
        }
    }

    /// Clones `stg` into a fresh artifact set.
    pub fn of(stg: &Stg) -> Self {
        Self::new(Arc::new(stg.clone()))
    }

    /// The underlying STG.
    pub fn stg(&self) -> &Stg {
        &self.stg
    }

    /// The underlying STG, shared.
    pub fn shared_stg(&self) -> Arc<Stg> {
        Arc::clone(&self.stg)
    }

    /// The canonical content hash of the STG (computed once; see
    /// [`Stg::canonical_hash`]). This is the cache key under which a
    /// server stores the whole artifact set.
    pub fn hash(&self) -> CanonicalHash {
        *self.hash.get_or_init(|| self.stg.canonical_hash())
    }

    /// The unfolding stage, building it if absent. Returns the
    /// artifact plus the number of events constructed *by this call*:
    /// `0` on reuse, the full prefix size on a cold build — the
    /// number an engine reports as
    /// [`crate::ResourceReport::prefix_events_built`].
    ///
    /// # Errors
    ///
    /// [`UnfoldError`] when construction aborts (event cap, guard,
    /// unsafe net). Aborted builds are never cached.
    pub fn prefix(
        &self,
        options: UnfoldOptions,
        guard: &StopGuard,
    ) -> Result<(PrefixArtifact, usize), UnfoldError> {
        let mut slot = relock(&self.prefix);
        if let Some(artifact) = slot.as_ref() {
            return Ok((artifact.clone(), 0));
        }
        let artifact = build_prefix(&self.stg, options, guard)?;
        let built = artifact.prefix.num_events();
        *slot = Some(artifact.clone());
        Ok((artifact, built))
    }

    /// The state-graph stage, building it if absent. The cached graph
    /// is always complete, so reuse ignores `limits` (which only
    /// bound construction work).
    ///
    /// # Errors
    ///
    /// [`SgError`] when construction aborts (state cap, guard) or the
    /// STG is inconsistent. Aborted builds are never cached.
    pub fn state_graph(
        &self,
        limits: ExploreLimits,
        guard: &StopGuard,
    ) -> Result<Arc<StateGraph>, SgError> {
        let mut slot = relock(&self.state_graph);
        if let Some(sg) = slot.as_ref() {
            return Ok(Arc::clone(sg));
        }
        let sg = Arc::new(StateGraph::build_guarded(&self.stg, limits, guard)?);
        *slot = Some(Arc::clone(&sg));
        Ok(sg)
    }

    /// Runs `f` on the shared symbolic checker, creating it if
    /// absent. The checker keeps its BDD unique tables and (once
    /// complete) its reachable set warm across calls; the lock is
    /// held for the duration of `f` (the symbolic engine mutates the
    /// checker in place).
    ///
    /// If a previous caller panicked mid-mutation the checker's
    /// internal state is untrusted: the slot is reset and a fresh
    /// checker built.
    ///
    /// The truncated-builds-never-cached rule extends to the BDD
    /// manager itself: when `f` both triggered an automatic variable
    /// reorder *and* was cut short by its budget, the manager holds a
    /// permuted order chosen for a build that never completed —
    /// without the completed build that would justify it. Such a
    /// checker is dropped rather than cached, so the next caller
    /// starts from a clean manager.
    pub fn with_symbolic<R>(&self, f: impl FnOnce(&mut SymbolicChecker) -> R) -> R {
        let mut slot = self.symbolic.lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            *guard = None;
            guard
        });
        let checker = slot.get_or_insert_with(|| SymbolicChecker::from_shared(self.shared_stg()));
        let reorders_before = checker.bdd_stats().reorder_passes;
        let result = f(checker);
        if checker.interrupted() && checker.bdd_stats().reorder_passes > reorders_before {
            *slot = None;
        }
        result
    }

    /// The structure stage, running it if absent: the static
    /// net-class, concurrency and lock-relation analysis of
    /// [`lint::structure::analyse`]. The pass is total (it never
    /// abstains or truncates), so the result is cached
    /// unconditionally and shared like every other stage.
    pub fn structure(&self) -> Arc<lint::StructureReport> {
        {
            let slot = relock(&self.structure);
            if let Some(report) = slot.as_ref() {
                return Arc::clone(report);
            }
        }
        // Computed outside the lock: the pass is cheap, but there is
        // no reason to serialise callers.
        let report = Arc::new(lint::structure::analyse(&self.stg));
        let mut slot = relock(&self.structure);
        if let Some(cached) = slot.as_ref() {
            return Arc::clone(cached);
        }
        *slot = Some(Arc::clone(&report));
        report
    }

    /// Whether the structure stage has run (and is cached).
    pub fn has_structure(&self) -> bool {
        relock(&self.structure).is_some()
    }

    /// Whether the unfolding stage has been built (and cached).
    pub fn has_prefix(&self) -> bool {
        relock(&self.prefix).is_some()
    }

    /// Whether the state-graph stage has been built (and cached).
    pub fn has_state_graph(&self) -> bool {
        relock(&self.state_graph).is_some()
    }

    /// Whether the symbolic stage has been created.
    pub fn has_symbolic(&self) -> bool {
        relock(&self.symbolic).is_some()
    }
}

fn build_prefix(
    stg: &Stg,
    options: UnfoldOptions,
    guard: &StopGuard,
) -> Result<PrefixArtifact, UnfoldError> {
    let prefix = Prefix::of_stg_shared(stg, options, guard)?;
    let relations = Arc::new(EventRelations::of(&prefix));
    Ok(PrefixArtifact { prefix, relations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg::gen::counterflow::counterflow_sym;
    use stg::gen::vme::{vme_read, vme_read_csc_resolved};

    #[test]
    fn prefix_is_built_once_and_shared() {
        let artifacts = Artifacts::of(&vme_read());
        assert!(!artifacts.has_prefix());
        let guard = StopGuard::default();
        let (first, built) = artifacts.prefix(UnfoldOptions::default(), &guard).unwrap();
        assert!(built > 0);
        assert_eq!(built, first.prefix.num_events());
        let (second, rebuilt) = artifacts.prefix(UnfoldOptions::default(), &guard).unwrap();
        assert_eq!(rebuilt, 0, "warm call constructs nothing");
        assert!(Arc::ptr_eq(&first.prefix, &second.prefix));
        assert!(Arc::ptr_eq(&first.relations, &second.relations));
    }

    #[test]
    fn aborted_prefix_builds_are_not_cached() {
        let artifacts = Artifacts::of(&counterflow_sym(3, 3));
        let guard = StopGuard::default();
        let tiny = UnfoldOptions::new().max_events(2);
        let err = artifacts.prefix(tiny, &guard).unwrap_err();
        assert!(matches!(err, UnfoldError::TooManyEvents(_)));
        assert!(!artifacts.has_prefix(), "truncated artifact must not enter");
        // A later, uncapped call builds and caches the real prefix.
        let (artifact, built) = artifacts.prefix(UnfoldOptions::default(), &guard).unwrap();
        assert!(built > 2);
        assert!(artifacts.has_prefix());
        assert_eq!(artifact.prefix.num_events(), built);
    }

    #[test]
    fn state_graph_is_built_once_and_reused_under_smaller_caps() {
        let artifacts = Artifacts::of(&vme_read());
        let guard = StopGuard::default();
        let sg = artifacts
            .state_graph(ExploreLimits::default(), &guard)
            .unwrap();
        // A cap smaller than the graph would abort a cold build; the
        // cached complete graph is still valid (caps bound work).
        let capped = ExploreLimits {
            max_states: 1,
            ..Default::default()
        };
        let again = artifacts.state_graph(capped, &guard).unwrap();
        assert!(Arc::ptr_eq(&sg, &again));
    }

    #[test]
    fn symbolic_checker_is_shared_and_keeps_its_reachable_set() {
        let artifacts = Artifacts::of(&vme_read());
        let first = artifacts.with_symbolic(|c| c.analyse());
        let second = artifacts.with_symbolic(|c| c.analyse());
        assert_eq!(first, second);
        assert!(artifacts.has_symbolic());
    }

    #[test]
    fn truncated_build_that_reordered_is_not_cached() {
        use symbolic::SymbolicBudget;

        let artifacts = Artifacts::of(&counterflow_sym(2, 2));
        // A hair-trigger reorder threshold plus a node cap the build
        // cannot fit under: the manager reorders, then truncates.
        let (truncated, reordered) = artifacts.with_symbolic(|c| {
            c.set_auto_reorder_threshold(Some(4));
            let budget = SymbolicBudget {
                max_nodes: Some(64),
                ..Default::default()
            };
            let truncated = c.try_analyse(&budget).is_err();
            (truncated, c.bdd_stats().reorder_passes > 0)
        });
        assert!(truncated, "64 nodes cannot fit the analysis");
        assert!(reordered, "a threshold of 4 forces sifting");
        assert!(
            !artifacts.has_symbolic(),
            "a mid-reorder truncated manager must not be cached"
        );
        // The next caller starts clean and completes.
        let report = artifacts.with_symbolic(|c| c.analyse());
        assert!(report.num_states > 0.0);
        assert!(artifacts.has_symbolic());
    }

    #[test]
    fn truncated_build_without_reorder_keeps_the_warm_manager() {
        use symbolic::SymbolicBudget;

        let artifacts = Artifacts::of(&counterflow_sym(2, 2));
        // Cap far below the default auto-reorder threshold: the build
        // truncates before any sifting pass, so the manager's order is
        // untouched and the warm checker may stay cached.
        let truncated = artifacts.with_symbolic(|c| {
            let budget = SymbolicBudget {
                max_nodes: Some(8),
                ..Default::default()
            };
            c.try_analyse(&budget).is_err()
        });
        assert!(truncated);
        assert!(artifacts.has_symbolic(), "order unchanged: keep the cache");
    }

    #[test]
    fn hash_is_the_stgs_canonical_hash() {
        let stg = vme_read();
        let artifacts = Artifacts::of(&stg);
        assert_eq!(artifacts.hash(), stg.canonical_hash());
        assert_ne!(
            artifacts.hash(),
            vme_read_csc_resolved().canonical_hash(),
            "different nets, different keys"
        );
    }

    /// `Artifacts` crosses the race's thread boundary by shared
    /// reference and the server's by `Arc`.
    #[test]
    fn artifacts_are_sync_and_send() {
        fn check<T: Send + Sync>() {}
        check::<Artifacts>();
        check::<PrefixArtifact>();
    }
}
