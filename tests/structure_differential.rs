//! Differential validation of the structural concurrency relation
//! against the explicit state graph, plus the structure-gated check
//! pipeline on the conflict-free half of the Table 1 roster.
//!
//! Soundness is unconditional: the Kovalyov–Esparza fixed-point must
//! never miss a pair that is explicitly concurrent in some reachable
//! marking — a missed pair would let the resolver prune a host pair
//! it must not, or the lock relation claim a serialisation that does
//! not exist. Exactness holds on live free-choice nets, which the
//! test checks on every seed whose net is free-choice and provably
//! live (strongly connected reachability graph, every transition
//! enabled somewhere).

use std::collections::HashSet;

use petri::ExploreLimits;
use stg_coding_conflicts::csc_core::{CheckRequest, Engine, Property};
use stg_coding_conflicts::lint::structure::{analyse, Approximation};
use stg_coding_conflicts::stg::gen::random::{random_stg, RandomStgConfig};
use stg_coding_conflicts::stg::{StateGraph, Stg};

/// The explicitly-observed concurrency over the reachable markings:
/// place pairs marked simultaneously somewhere, and transition pairs
/// enabled as a step (both enabled, disjoint presets — the safe-net
/// step condition) somewhere.
struct ExplicitConcurrency {
    place_pairs: HashSet<(usize, usize)>,
    transition_pairs: HashSet<(usize, usize)>,
}

fn explicit_concurrency(stg: &Stg, sg: &StateGraph) -> ExplicitConcurrency {
    let net = stg.net();
    let mut place_pairs = HashSet::new();
    let mut transition_pairs = HashSet::new();
    for s in sg.states() {
        let m = sg.marking(s);
        let marked: Vec<usize> = m.marked_places().map(|p| p.index()).collect();
        for (i, &a) in marked.iter().enumerate() {
            for &b in &marked[i + 1..] {
                place_pairs.insert((a.min(b), a.max(b)));
            }
        }
        let enabled: Vec<_> = net.enabled(m);
        for (i, &t) in enabled.iter().enumerate() {
            for &u in &enabled[i + 1..] {
                let disjoint = net.preset(t).iter().all(|p| !net.preset(u).contains(p));
                if disjoint {
                    let (x, y) = (t.index().min(u.index()), t.index().max(u.index()));
                    transition_pairs.insert((x, y));
                }
            }
        }
    }
    ExplicitConcurrency {
        place_pairs,
        transition_pairs,
    }
}

/// A sufficient liveness check on the explicit graph: the
/// reachability graph is strongly connected and every transition is
/// enabled in at least one reachable marking. (Sufficient, not
/// necessary — seeds failing it merely skip the exactness half.)
fn provably_live(stg: &Stg, sg: &StateGraph) -> bool {
    let net = stg.net();
    let reach = sg.reachability();
    let n = sg.num_states();
    let ids: Vec<_> = sg.states().collect();
    // Forward closure from the initial state (index 0 by
    // construction of the exploration).
    let mut fwd = vec![false; n];
    let mut stack = vec![0usize];
    fwd[0] = true;
    while let Some(s) = stack.pop() {
        for &(_, next) in reach.successors(ids[s]) {
            if !fwd[next.index()] {
                fwd[next.index()] = true;
                stack.push(next.index());
            }
        }
    }
    if !fwd.iter().all(|&r| r) {
        return false;
    }
    // Backward closure: invert the edges once.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &s in &ids {
        for &(_, next) in reach.successors(s) {
            preds[next.index()].push(s.index());
        }
    }
    let mut bwd = vec![false; n];
    let mut stack = vec![0usize];
    bwd[0] = true;
    while let Some(s) = stack.pop() {
        for &p in &preds[s] {
            if !bwd[p] {
                bwd[p] = true;
                stack.push(p);
            }
        }
    }
    if !bwd.iter().all(|&r| r) {
        return false;
    }
    let mut fired = vec![false; net.num_transitions()];
    for &s in &ids {
        for &(t, _) in reach.successors(s) {
            fired[t.index()] = true;
        }
    }
    fired.iter().all(|&f| f)
}

/// Structural vs explicit concurrency over random consistent STGs:
/// the structural relation must contain every explicitly concurrent
/// pair on every seed, and coincide with it on provably live
/// free-choice seeds.
#[test]
fn random_stgs_structural_concurrency_is_sound() {
    let mut exact_checked = 0u32;
    for seed in 0..50u64 {
        let config = RandomStgConfig {
            signals: 4,
            sync_cycles: 3,
            max_cycle_len: 4,
            splits: seed as usize % 3,
            percent_high: 30,
        };
        let stg = random_stg(&config, seed);
        let report = analyse(&stg);
        let sg = StateGraph::build(
            &stg,
            ExploreLimits {
                max_states: 200_000,
                token_bound: 1,
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let explicit = explicit_concurrency(&stg, &sg);

        let net = stg.net();
        // Soundness: no explicitly concurrent pair may be missed.
        for &(a, b) in &explicit.place_pairs {
            assert!(
                report
                    .concurrency
                    .places_concurrent(petri::PlaceId::new(a), petri::PlaceId::new(b)),
                "seed {seed}: places `{}` and `{}` are simultaneously marked \
                 but structurally non-concurrent",
                net.place_name(petri::PlaceId::new(a)),
                net.place_name(petri::PlaceId::new(b)),
            );
        }
        for &(t, u) in &explicit.transition_pairs {
            assert!(
                report.concurrency.transitions_concurrent(
                    petri::TransitionId::new(t),
                    petri::TransitionId::new(u)
                ),
                "seed {seed}: transitions `{}` and `{}` fire as a step \
                 but are structurally non-concurrent",
                net.transition_name(petri::TransitionId::new(t)),
                net.transition_name(petri::TransitionId::new(u)),
            );
        }

        // Exactness on provably live free-choice seeds: the
        // structural relation may not contain a place pair the state
        // graph never marks together.
        if report.classes.free_choice && provably_live(&stg, &sg) {
            assert_eq!(
                report.concurrency.level(),
                Approximation::ExactForLiveFreeChoice,
                "seed {seed}"
            );
            exact_checked += 1;
            for a in 0..net.num_places() {
                for b in a + 1..net.num_places() {
                    if report
                        .concurrency
                        .places_concurrent(petri::PlaceId::new(a), petri::PlaceId::new(b))
                    {
                        assert!(
                            explicit.place_pairs.contains(&(a, b)),
                            "seed {seed}: live free-choice net, but places `{}` and `{}` \
                             are structurally concurrent and never marked together",
                            net.place_name(petri::PlaceId::new(a)),
                            net.place_name(petri::PlaceId::new(b)),
                        );
                    }
                }
            }
        }
    }
    // 9 of the 50 seeds are provably-live free-choice under this
    // config; the floor just keeps the exactness half from going
    // vacuous if the generator changes.
    assert!(
        exact_checked >= 5,
        "the exactness half must not be vacuous: only {exact_checked} live \
         free-choice seeds"
    );
}

/// The conflict-free Table 1 families keep their verdicts across all
/// five engines when the structure pass is enabled on the request —
/// class gating reroutes work, never answers.
#[test]
fn roster_conflict_free_verdicts_survive_structure_gating() {
    const ENGINES: [Engine; 5] = [
        Engine::UnfoldingIlp,
        Engine::ExplicitStateGraph,
        Engine::SymbolicBdd,
        Engine::Race,
        Engine::Cegar,
    ];
    for model in bench_harness::models().into_iter().filter(|m| m.expect_csc) {
        for engine in ENGINES {
            let run = CheckRequest::new(&model.stg, Property::Csc)
                .engine(engine)
                .structure(true)
                .run()
                .unwrap_or_else(|e| panic!("{} / {}: {e}", model.name, engine.name()));
            assert_eq!(
                run.verdict.holds(),
                Some(true),
                "{} / {}: conflict-free family must stay proved with the \
                 structure pass enabled",
                model.name,
                engine.name()
            );
            assert!(
                run.report.structure.is_some(),
                "{} / {}: the structure summary must ride along",
                model.name,
                engine.name()
            );
        }
    }
}
