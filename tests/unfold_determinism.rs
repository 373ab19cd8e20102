//! Determinism differential for parallel possible-extensions
//! discovery: `UnfoldOptions::threads` may only change wall-clock
//! time, never the prefix or any verdict built on it. The pool
//! computes extension candidates concurrently but the adequate-order
//! commit loop stays sequential, so for every thread count the
//! constructed prefix must be *bit-identical* to the serial one —
//! same events in the same order with the same keys, presets,
//! postsets, cut-off flags and mates — and every engine must return
//! the same verdict and witness.

use bench_harness::models;
use stg_coding_conflicts::csc_core::{CheckRequest, Engine, Property, Verdict};
use stg_coding_conflicts::stg::gen::counterflow::{counterflow_asym, counterflow_sym};
use stg_coding_conflicts::stg::gen::duplex::{dup_4ph, dup_mod};
use stg_coding_conflicts::stg::gen::ring::lazy_ring;
use stg_coding_conflicts::stg::Stg;
use stg_coding_conflicts::unfolding::{OrderStrategy, Prefix, UnfoldOptions};

/// Event-for-event, condition-for-condition structural equality.
fn assert_prefixes_identical(label: &str, threads: usize, serial: &Prefix, parallel: &Prefix) {
    let ctx = |what: &str| format!("{label} (threads {threads}): {what} diverged");
    assert_eq!(
        serial.num_events(),
        parallel.num_events(),
        "{}",
        ctx("event count")
    );
    assert_eq!(
        serial.num_conditions(),
        parallel.num_conditions(),
        "{}",
        ctx("condition count")
    );
    assert_eq!(
        serial.num_cutoffs(),
        parallel.num_cutoffs(),
        "{}",
        ctx("cut-off count")
    );
    for e in serial.events() {
        assert_eq!(
            serial.event_transition(e),
            parallel.event_transition(e),
            "{}",
            ctx("event transition")
        );
        assert_eq!(
            serial.event_preset(e),
            parallel.event_preset(e),
            "{}",
            ctx("event preset")
        );
        assert_eq!(
            serial.event_postset(e),
            parallel.event_postset(e),
            "{}",
            ctx("event postset")
        );
        assert_eq!(serial.depth(e), parallel.depth(e), "{}", ctx("depth"));
        assert_eq!(
            serial.order_key(e),
            parallel.order_key(e),
            "{}",
            ctx("adequate-order key")
        );
        assert_eq!(
            serial.is_cutoff(e),
            parallel.is_cutoff(e),
            "{}",
            ctx("cut-off flag")
        );
        assert_eq!(
            serial.cutoff_mate(e),
            parallel.cutoff_mate(e),
            "{}",
            ctx("cut-off mate")
        );
    }
    for b in serial.conditions() {
        assert_eq!(
            serial.cond_place(b),
            parallel.cond_place(b),
            "{}",
            ctx("condition place")
        );
        assert_eq!(
            serial.cond_producer(b),
            parallel.cond_producer(b),
            "{}",
            ctx("condition producer")
        );
        assert_eq!(
            serial.cond_consumers(b),
            parallel.cond_consumers(b),
            "{}",
            ctx("condition consumers")
        );
    }
}

#[test]
fn roster_prefixes_are_bit_identical_across_thread_counts() {
    for model in models() {
        let serial = Prefix::of_stg(&model.stg, UnfoldOptions::new()).unwrap();
        for threads in [2, 4] {
            let parallel =
                Prefix::of_stg(&model.stg, UnfoldOptions::new().threads(threads)).unwrap();
            assert_prefixes_identical(model.name, threads, &serial, &parallel);
        }
    }
}

#[test]
fn mcmillan_prefixes_are_bit_identical_across_thread_counts() {
    // The determinism argument must hold for every adequate order,
    // not just the ERV default; McMillan's size order has genuine key
    // ties, so the sequence-number tiebreak is doing real work here.
    for (label, stg) in [
        ("dup_4ph_2", dup_4ph(2, false)),
        ("cf_sym_2_3", counterflow_sym(2, 3)),
    ] {
        let base = UnfoldOptions::new().order(OrderStrategy::McMillan);
        let serial = Prefix::of_stg(&stg, base).unwrap();
        for threads in [2, 4] {
            let parallel = Prefix::of_stg(&stg, base.threads(threads)).unwrap();
            assert_prefixes_identical(label, threads, &serial, &parallel);
        }
    }
}

const ENGINES: [Engine; 5] = [
    Engine::UnfoldingIlp,
    Engine::ExplicitStateGraph,
    Engine::SymbolicBdd,
    Engine::Cegar,
    Engine::Race,
];

#[test]
fn engine_verdicts_are_unchanged_by_discovery_threads() {
    // One small representative per Table 1 family.
    let cases: Vec<(&str, Stg)> = vec![
        ("lazy_ring_2", lazy_ring(2)),
        ("dup_1", dup_4ph(1, false)),
        ("dup_mod_2", dup_mod(2)),
        ("cf_sym_2_2", counterflow_sym(2, 2)),
        ("cf_asym_2_2", counterflow_asym(2, 2)),
    ];
    for (label, stg) in &cases {
        for property in [Property::Usc, Property::Csc, Property::Normalcy] {
            for engine in ENGINES {
                let run = |threads: Option<usize>| {
                    let mut request = CheckRequest::new(stg, property).engine(engine);
                    if let Some(n) = threads {
                        request = request.unfold_threads(n);
                    }
                    request.run().expect("engine run succeeds").verdict
                };
                let baseline = run(None);
                for threads in [2, 4] {
                    let threaded = run(Some(threads));
                    if engine == Engine::Race {
                        // The race's winning engine (and hence the
                        // witness shape) is timing-dependent; only
                        // the three-valued answer is pinned.
                        assert_eq!(
                            baseline.holds(),
                            threaded.holds(),
                            "{label}/{property:?}/{engine:?} (threads {threads})"
                        );
                    } else {
                        // Deterministic engines must reproduce the
                        // verdict *and* the witness exactly.
                        assert_eq!(
                            baseline, threaded,
                            "{label}/{property:?}/{engine:?} (threads {threads})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn reports_record_the_worker_pool() {
    let stg = dup_4ph(1, false);
    let run = CheckRequest::new(&stg, Property::Csc)
        .engine(Engine::UnfoldingIlp)
        .unfold_threads(3)
        .run()
        .unwrap();
    assert!(matches!(run.verdict, Verdict::Violated(_)));
    let stats = run.report.unfold.expect("unfolding engine reports stats");
    assert_eq!(stats.workers, 3);
    assert!(stats.pe_discovered > 0);
    assert!(stats.pe_commits > 0);
    // Serial runs report a single worker and never enter the pool.
    let serial = CheckRequest::new(&stg, Property::Csc)
        .engine(Engine::UnfoldingIlp)
        .run()
        .unwrap();
    let stats = serial.report.unfold.expect("stats present when serial");
    assert_eq!(stats.workers, 1);
}
