//! Differential check of the minimal-support Farkas algorithm in
//! `petri::invariants` against the plain Farkas elimination it
//! replaced, kept below verbatim as the reference.
//!
//! Over the random-STG sweep, the Table 1 rows and the benchmark
//! roster nets (as generated and as re-parsed from their `.g` text),
//! every net must satisfy:
//!
//! 1. every returned flow is a non-negative P-invariant;
//! 2. the returned supports are distinct and pairwise non-nested;
//! 3. where the reference finishes, the returned flows are exactly the
//!    reference's flows of minimal support;
//! 4. the new algorithm finishes (returns `Some`);
//! 5. per place, the lint's safeness rule on the returned flows proves
//!    at least what the old rule (`w·M0 = 1`) proved from the
//!    reference's flows.

use bench_harness::models;
use stg_coding_conflicts::lint::{self, LpOptions};
use stg_coding_conflicts::petri::invariants::{is_p_invariant, p_semiflows, FarkasLimits};
use stg_coding_conflicts::petri::{IncidenceMatrix, Net, PlaceId, TransitionId};
use stg_coding_conflicts::stg::gen::arbiter::mutex_arbiter;
use stg_coding_conflicts::stg::gen::counterflow::{counterflow, counterflow_sym};
use stg_coding_conflicts::stg::gen::duplex::{dup_4ph, dup_mod};
use stg_coding_conflicts::stg::gen::pipeline::muller_pipeline;
use stg_coding_conflicts::stg::gen::random::{random_stg, RandomStgConfig};
use stg_coding_conflicts::stg::gen::ring::{eager_ring, lazy_ring};
use stg_coding_conflicts::stg::gen::vme::{vme_master, vme_read};
use stg_coding_conflicts::stg::{self, Stg};

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The reference: plain Farkas elimination, which keeps every
/// opposite-sign combination (a generating set that includes all
/// minimal-support semiflows, plus non-minimal ones).
fn farkas(
    mut rows: Vec<(Vec<i64>, Vec<i64>)>,
    num_cols: usize,
    limits: FarkasLimits,
) -> Option<Vec<Vec<i64>>> {
    // Each entry: (constraint row, identity/weight part).
    for col in 0..num_cols {
        let mut next: Vec<(Vec<i64>, Vec<i64>)> = Vec::new();
        // Keep rows already zero in this column.
        for r in &rows {
            if r.0[col] == 0 {
                next.push(r.clone());
            }
        }
        // Combine opposite-sign pairs.
        let pos: Vec<&(Vec<i64>, Vec<i64>)> = rows.iter().filter(|r| r.0[col] > 0).collect();
        let neg: Vec<&(Vec<i64>, Vec<i64>)> = rows.iter().filter(|r| r.0[col] < 0).collect();
        for p in &pos {
            for n in &neg {
                let a = p.0[col];
                let b = -n.0[col];
                let l = a / gcd(a, b) * b; // lcm
                let (fa, fb) = (l / a, l / b);
                let constraint: Vec<i64> =
                    p.0.iter().zip(&n.0).map(|(x, y)| fa * x + fb * y).collect();
                let weight: Vec<i64> = p.1.iter().zip(&n.1).map(|(x, y)| fa * x + fb * y).collect();
                next.push((constraint, weight));
                if next.len() > limits.max_rows {
                    return None;
                }
            }
        }
        rows = next;
    }
    let mut result: Vec<Vec<i64>> = rows
        .into_iter()
        .map(|(_, mut w)| {
            let g = w.iter().fold(0i64, |acc, &v| gcd(acc, v));
            if g > 1 {
                for v in &mut w {
                    *v /= g;
                }
            }
            w
        })
        .filter(|w| w.iter().any(|&v| v != 0))
        .collect();
    result.sort();
    result.dedup();
    Some(result)
}

/// The reference's P-semiflows, built as the old `p_semiflows` did.
fn reference_p_semiflows(net: &Net) -> Option<Vec<Vec<i64>>> {
    let (np, nt) = (net.num_places(), net.num_transitions());
    let inc = IncidenceMatrix::of(net);
    let rows: Vec<(Vec<i64>, Vec<i64>)> = (0..np)
        .map(|p| {
            let constraint: Vec<i64> = (0..nt)
                .map(|t| inc.entry(PlaceId::new(p), TransitionId::new(t)) as i64)
                .collect();
            let mut weight = vec![0i64; np];
            weight[p] = 1;
            (constraint, weight)
        })
        .collect();
    farkas(rows, nt, FarkasLimits::default())
}

/// The old safeness rule: a flow with `w·M0 = 1` proves every place
/// it covers 1-safe.
fn reference_safe_places(stg: &Stg, flows: &[Vec<i64>]) -> Vec<bool> {
    let net = stg.net();
    let m0 = stg.initial_marking();
    let mut safe = vec![false; net.num_places()];
    for w in flows {
        let value: i64 = net
            .places()
            .map(|p| w[p.index()] * i64::from(m0.tokens(p)))
            .sum();
        if value != 1 {
            continue;
        }
        for p in net.places() {
            if w[p.index()] >= 1 {
                safe[p.index()] = true;
            }
        }
    }
    safe
}

fn support(w: &[i64]) -> Vec<usize> {
    (0..w.len()).filter(|&i| w[i] != 0).collect()
}

fn is_subset(a: &[usize], b: &[usize]) -> bool {
    a.iter().all(|x| b.binary_search(x).is_ok())
}

/// Per-corpus tallies, printed at the end of each sweep.
#[derive(Debug, Default)]
struct Tally {
    nets: usize,
    reference_finished: usize,
    places_gained: usize,
}

/// Checks properties 1–5 (module docs) on one net.
fn check(label: &str, stg: &Stg, tally: &mut Tally) {
    let net = stg.net();
    tally.nets += 1;
    // 4. The new algorithm finishes.
    let flows = p_semiflows(net, FarkasLimits::default())
        .unwrap_or_else(|| panic!("{label}: minimal-support Farkas hit the cap"));
    // 1. Non-negative P-invariants.
    for w in &flows {
        assert!(w.iter().all(|&v| v >= 0), "{label}: negative weight {w:?}");
        assert!(w.iter().any(|&v| v > 0), "{label}: zero flow");
        assert!(is_p_invariant(net, w), "{label}: not a P-invariant {w:?}");
    }
    // 2. Distinct, pairwise non-nested supports.
    let supports: Vec<Vec<usize>> = flows.iter().map(|w| support(w)).collect();
    for (i, a) in supports.iter().enumerate() {
        for (j, b) in supports.iter().enumerate() {
            assert!(
                i == j || !is_subset(a, b),
                "{label}: support {a:?} inside {b:?}"
            );
        }
    }
    // 3. Exactly the reference's minimal-support flows.
    let reference = reference_p_semiflows(net);
    if let Some(reference) = &reference {
        tally.reference_finished += 1;
        let ref_supports: Vec<Vec<usize>> = reference.iter().map(|w| support(w)).collect();
        let mut minimal: Vec<Vec<i64>> = reference
            .iter()
            .zip(&ref_supports)
            .filter(|(_, s)| {
                !ref_supports
                    .iter()
                    .any(|t| t.len() < s.len() && is_subset(t, s))
            })
            .map(|(w, _)| w.clone())
            .collect();
        minimal.sort();
        minimal.dedup();
        assert_eq!(flows, minimal, "{label}: minimal flows differ");
    }
    // 5. The safeness rule loses no place the old rule proved.
    let safe = lint::semiflow_safe_places(stg, &flows);
    let old = reference.as_deref().map_or_else(
        || vec![false; net.num_places()],
        |r| reference_safe_places(stg, r),
    );
    for p in net.places() {
        assert!(
            safe[p.index()] || !old[p.index()],
            "{label}: place {} lost its safeness proof",
            net.place_name(p)
        );
        if safe[p.index()] && !old[p.index()] {
            tally.places_gained += 1;
        }
    }
    let proofs = lint::relaxation_proofs(stg, false, &LpOptions::default());
    assert_eq!(
        proofs.safe_places,
        safe.iter().filter(|&&s| s).count(),
        "{label}: lint count"
    );
}

/// `stg` as generated and as the server sees it after a `.g` round
/// trip (which may order places differently).
fn check_both_forms(name: &str, stg: &Stg, tally: &mut Tally) {
    check(name, stg, tally);
    let text = stg::to_g_format(stg, name);
    let parsed = stg::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    check(&format!("{name} (.g)"), &parsed, tally);
}

#[test]
fn random_sweep_matches_the_reference() {
    let mut tally = Tally::default();
    for signals in 2..=6 {
        for sync_cycles in 0..=4 {
            for splits in 0..=2 {
                let config = RandomStgConfig {
                    signals,
                    sync_cycles,
                    splits,
                    ..RandomStgConfig::default()
                };
                for seed in 0..40u64 {
                    let stg = random_stg(&config, seed);
                    let label = format!("random s{signals} c{sync_cycles} x{splits} #{seed}");
                    check(&label, &stg, &mut tally);
                }
            }
        }
    }
    eprintln!("random sweep: {tally:?}");
    assert_eq!(tally.nets, 3_000);
}

#[test]
fn table1_and_benchmark_rosters_match_the_reference() {
    let mut tally = Tally::default();
    for model in models() {
        check_both_forms(model.name, &model.stg, &mut tally);
    }
    let roster = [
        ("MULLER-10", muller_pipeline(10)),
        ("CF-SYM-8-2", counterflow_sym(8, 2)),
        ("VME", vme_read()),
        ("LAZYRING-3", lazy_ring(3)),
        ("LAZYRING-6", lazy_ring(6)),
        ("RING-2", eager_ring(2)),
        ("DUP-4PH-1", dup_4ph(1, false)),
        ("DUP-4PH-2", dup_4ph(2, false)),
        ("DUP-MOD-1", dup_mod(1)),
        ("DUP-MOD-3", dup_mod(3)),
        ("DUP-MOD-6", dup_mod(6)),
        ("VME-MASTER", vme_master()),
        ("DUP-4PH-CSC-1", dup_4ph(1, true)),
        ("MULLER-2", muller_pipeline(2)),
        ("MULLER-3", muller_pipeline(3)),
        ("ARBITER-2", mutex_arbiter(2)),
        ("ARBITER-3", mutex_arbiter(3)),
        ("CF-SYM-2-1", counterflow_sym(2, 1)),
        ("CF-1-2", counterflow(&[1, 2])),
    ];
    for (name, stg) in &roster {
        check_both_forms(name, stg, &mut tally);
    }
    eprintln!("rosters: {tally:?}");
}

/// Nets past the old elimination's cap: the new one finishes and
/// proves every place safe.
#[test]
fn large_nets_finish_and_are_proved_safe() {
    let nets = [
        ("MULLER-14", muller_pipeline(14)),
        ("MULLER-30", muller_pipeline(30)),
        ("MULLER-60", muller_pipeline(60)),
        ("MULLER-100", muller_pipeline(100)),
        ("CF-SYM-9-2", counterflow_sym(9, 2)),
    ];
    for (name, stg) in &nets {
        let flows = p_semiflows(stg.net(), FarkasLimits::default())
            .unwrap_or_else(|| panic!("{name}: hit the cap"));
        for w in &flows {
            assert!(is_p_invariant(stg.net(), w), "{name}");
        }
        let proofs = lint::relaxation_proofs(stg, false, &LpOptions::default());
        assert!(proofs.net_safe, "{name}: {proofs:?}");
    }
}
