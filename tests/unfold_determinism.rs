//! Pins the serial prefix builder.
//!
//! Every engine that reads the prefix (the 0-1 IP, the witness
//! replay, the artifact cache) relies on the construction being
//! deterministic: the same events in the same order, with the same
//! presets, postsets, depths, adequate-order keys and cut-off mates.
//! For the 15 Table 1 rows plus MULLER-10 and CF-SYM-8-2, this test
//! asserts the prefix's sizes, the builder's possible-extensions
//! counters and an FNV-1a fingerprint of the whole structure against
//! recorded values. A change to the builder that alters any of them
//! changes the prefix, not just the speed of building it.

use bench_harness::models;
use stg_coding_conflicts::stg::gen::counterflow::counterflow_sym;
use stg_coding_conflicts::stg::gen::pipeline::muller_pipeline;
use stg_coding_conflicts::stg::Stg;
use stg_coding_conflicts::unfolding::{CutoffMate, Prefix, UnfoldOptions};

/// One net: name, events, conditions, cut-offs, possible extensions
/// discovered, possible extensions committed, structural fingerprint.
type Expected = (&'static str, usize, usize, usize, u64, u64, u64);

const ERV: [Expected; 17] = [
    ("LAZYRING", 16, 17, 1, 16, 16, 5932216410920104763),
    ("RING", 43, 69, 1, 43, 43, 7402244237172354800),
    ("DUP-4PH-A", 10, 13, 1, 10, 10, 14290934453234436174),
    ("DUP-4PH-B", 18, 25, 1, 18, 18, 11360438205683046471),
    ("DUP-4PH-MTR-A", 24, 35, 1, 24, 24, 13951630843811144090),
    ("DUP-4PH-MTR-B", 30, 45, 1, 30, 30, 3389521974560137214),
    ("DUP-MOD-A", 12, 13, 1, 12, 12, 7746845003171043875),
    ("DUP-MOD-B", 20, 21, 1, 20, 20, 5450518532071088803),
    ("DUP-MOD-C", 28, 29, 1, 28, 28, 11017266295605676323),
    ("CF-SYM-A-CSC", 14, 18, 1, 14, 14, 12518088486900013128),
    ("CF-SYM-B-CSC", 20, 27, 1, 20, 20, 12657640524146246595),
    ("CF-SYM-C-CSC", 22, 26, 1, 22, 22, 11066971253690323152),
    ("CF-SYM-D-CSC", 18, 28, 1, 18, 18, 11077954194268368084),
    ("CF-ASYM-A-CSC", 20, 27, 1, 20, 20, 8971141137305090599),
    ("CF-ASYM-B-CSC", 30, 40, 1, 30, 30, 18043609402758014932),
    ("MULLER-10", 67, 132, 1, 67, 67, 16255385285699586704),
    ("CF-SYM-8-2", 34, 56, 1, 34, 34, 15892679037089348036),
];

/// 64-bit FNV-1a over little-endian words.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, values: impl ExactSizeIterator<Item = u64>) {
        self.word(values.len() as u64);
        for value in values {
            self.word(value);
        }
    }
}

/// Hashes, event by event, the transition, preset, postset, depth,
/// order key and cut-off mate; then, condition by condition, the
/// place, producer and consumers.
fn fingerprint(prefix: &Prefix) -> u64 {
    let mut h = Fnv64::new();
    for e in prefix.events() {
        h.word(prefix.event_transition(e).index() as u64);
        h.words(prefix.event_preset(e).iter().map(|b| b.index() as u64));
        h.words(prefix.event_postset(e).iter().map(|b| b.index() as u64));
        h.word(u64::from(prefix.depth(e)));
        let key = prefix.order_key(e);
        h.word(u64::from(key.size));
        h.words(key.parikh.iter().map(|&n| u64::from(n)));
        h.word(key.foata.len() as u64);
        for level in &key.foata {
            h.words(level.iter().map(|&n| u64::from(n)));
        }
        h.word(match prefix.cutoff_mate(e) {
            None => 0,
            Some(CutoffMate::Initial) => 1,
            Some(CutoffMate::Event(f)) => 2 + f.index() as u64,
        });
    }
    for b in prefix.conditions() {
        h.word(prefix.cond_place(b).index() as u64);
        h.word(prefix.cond_producer(b).map_or(0, |e| 1 + e.index() as u64));
        h.words(prefix.cond_consumers(b).iter().map(|e| e.index() as u64));
    }
    h.0
}

fn observed(name: &'static str, stg: &Stg) -> Expected {
    let prefix = Prefix::of_stg(stg, UnfoldOptions::new()).expect("net unfolds");
    let stats = prefix.unfold_stats();
    (
        name,
        prefix.num_events(),
        prefix.num_conditions(),
        prefix.num_cutoffs(),
        stats.pe_discovered,
        stats.pe_commits,
        fingerprint(&prefix),
    )
}

#[test]
fn roster_prefixes_match_recorded_fingerprints() {
    let mut nets: Vec<(&'static str, Stg)> =
        models().into_iter().map(|m| (m.name, m.stg)).collect();
    nets.push(("MULLER-10", muller_pipeline(10)));
    nets.push(("CF-SYM-8-2", counterflow_sym(8, 2)));
    assert_eq!(nets.len(), ERV.len());
    for ((name, stg), expected) in nets.iter().zip(ERV) {
        assert_eq!(observed(name, stg), expected);
    }
}
