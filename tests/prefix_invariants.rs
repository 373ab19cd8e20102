//! Invariants of every prefix event, checked from the finished prefix
//! alone, independently of how the builder computed them.
//!
//! For the 15 Table 1 rows, MULLER-10, CF-SYM-8-2 and 600 random STGs,
//! every event must satisfy:
//!
//! * its recorded order key equals the key rebuilt from its local
//!   configuration (size, Parikh vector, per-Foata-level Parikh
//!   vectors);
//! * a cut-off's final marking, read off the cut of its local
//!   configuration (`Prefix::marking_of`), equals its mate's (`M0` for
//!   the empty configuration). The builder takes `Mark([e])` from the
//!   marking equation instead, so the two paths check each other;
//! * a cut-off's mate is no cut-off and has a strictly smaller key.

use bench_harness::models;
use stg_coding_conflicts::stg::gen::counterflow::counterflow_sym;
use stg_coding_conflicts::stg::gen::pipeline::muller_pipeline;
use stg_coding_conflicts::stg::gen::random::{random_stg, RandomStgConfig};
use stg_coding_conflicts::stg::Stg;
use stg_coding_conflicts::unfolding::{CutoffMate, EventId, OrderKey, Prefix, UnfoldOptions};

/// The key of `[e]` rebuilt from its local configuration.
fn key_of(prefix: &Prefix, stg: &Stg, e: EventId) -> OrderKey {
    let local = prefix.local_config(e);
    let nt = stg.net().num_transitions();
    let mut parikh = vec![0u16; nt];
    let mut foata = vec![vec![0u16; nt]; prefix.depth(e) as usize];
    for f in local.iter() {
        let f = EventId::from_index(f);
        let t = prefix.event_transition(f).index();
        parikh[t] += 1;
        foata[prefix.depth(f) as usize - 1][t] += 1;
    }
    OrderKey {
        size: local.len() as u32,
        parikh,
        foata,
    }
}

fn check(label: &str, stg: &Stg) {
    // The largest of these prefixes has 67 events; the cap makes a
    // builder that misses its cut-offs fail fast instead of exploding.
    let options = UnfoldOptions::new().max_events(10_000);
    let prefix = Prefix::of_stg(stg, options).unwrap_or_else(|err| panic!("{label}: {err}"));
    for e in prefix.events() {
        let key = prefix.order_key(e);
        assert_eq!(*key, key_of(&prefix, stg, e), "{label}: key of {e}");
        assert_eq!(prefix.local_size(e), key.size, "{label}: |[{e}]|");
        let Some(mate) = prefix.cutoff_mate(e) else {
            continue;
        };
        let marking = prefix.marking_of(prefix.local_config(e));
        match mate {
            CutoffMate::Initial => {
                assert_eq!(
                    marking,
                    *stg.initial_marking(),
                    "{label}: cut-off {e} must reach M0"
                );
            }
            CutoffMate::Event(f) => {
                assert!(!prefix.is_cutoff(f), "{label}: mate {f} of {e}");
                assert_eq!(
                    marking,
                    prefix.marking_of(prefix.local_config(f)),
                    "{label}: cut-off {e} and its mate {f} must reach one marking"
                );
                assert!(
                    prefix.order_key(f).is_strictly_less(key),
                    "{label}: mate {f} of {e} must have a smaller key"
                );
            }
        }
    }
}

#[test]
fn roster_prefix_events_satisfy_the_invariants() {
    let mut nets: Vec<(&str, Stg)> = models().into_iter().map(|m| (m.name, m.stg)).collect();
    nets.push(("MULLER-10", muller_pipeline(10)));
    nets.push(("CF-SYM-8-2", counterflow_sym(8, 2)));
    assert_eq!(nets.len(), 17);
    for (name, stg) in &nets {
        check(name, stg);
    }
}

#[test]
fn random_prefix_events_satisfy_the_invariants() {
    for seed in 0..600u64 {
        let config = RandomStgConfig {
            signals: 3 + (seed % 5) as usize,
            sync_cycles: 2 + (seed % 4) as usize,
            max_cycle_len: 3 + (seed % 3) as usize,
            splits: (seed % 4) as usize,
            percent_high: 30,
        };
        let stg = random_stg(&config, seed);
        check(&format!("random seed {seed}"), &stg);
    }
}
