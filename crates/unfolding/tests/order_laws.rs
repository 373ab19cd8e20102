//! Laws of the adequate order, validated on real prefixes: the order
//! must refine set inclusion of local configurations, be total on
//! them, and cut-offs must always point at strictly
//! smaller mates.

use std::cmp::Ordering;

use stg::gen::arbiter::mutex_arbiter;
use stg::gen::duplex::dup_4ph;
use stg::gen::pipeline::muller_pipeline;
use stg::gen::vme::vme_read;
use stg::Stg;
use unfolding::order::OrderKey;
use unfolding::{CutoffMate, EventId, Prefix, UnfoldOptions};

fn models() -> Vec<Stg> {
    vec![
        vme_read(),
        muller_pipeline(3),
        dup_4ph(2, false),
        mutex_arbiter(2),
    ]
}

/// Rebuilds the ERV key of a local configuration from prefix data.
fn key_of(prefix: &Prefix, stg: &Stg, e: EventId) -> OrderKey {
    let nt = stg.net().num_transitions();
    let local = prefix.local_config(e);
    let mut parikh = vec![0u16; nt];
    let depth = prefix.depth(e) as usize;
    let mut foata = vec![vec![0u16; nt]; depth];
    for f in local.iter() {
        let f = EventId::from_index(f);
        parikh[prefix.event_transition(f).index()] += 1;
        foata[prefix.depth(f) as usize - 1][prefix.event_transition(f).index()] += 1;
    }
    OrderKey {
        size: prefix.local_size(e),
        parikh,
        foata,
    }
}

#[test]
fn order_refines_inclusion() {
    for stg in models() {
        let prefix = Prefix::of_stg(&stg, UnfoldOptions::default()).unwrap();
        for a in prefix.events() {
            for b in prefix.events() {
                if a == b {
                    continue;
                }
                let la = prefix.local_config(a);
                let lb = prefix.local_config(b);
                if la.is_subset(lb) {
                    let ka = key_of(&prefix, &stg, a);
                    let kb = key_of(&prefix, &stg, b);
                    assert!(
                        ka.is_strictly_less(&kb),
                        "[{a}] ⊂ [{b}] must imply [{a}] ≺ [{b}]"
                    );
                }
            }
        }
    }
}

#[test]
fn erv_order_is_total_on_local_configurations() {
    for stg in models() {
        let prefix = Prefix::of_stg(&stg, UnfoldOptions::default()).unwrap();
        for a in prefix.events() {
            for b in prefix.events() {
                if a == b {
                    continue;
                }
                let ka = key_of(&prefix, &stg, a);
                let kb = key_of(&prefix, &stg, b);
                if ka.compare(&kb) == Ordering::Equal {
                    // Equal keys would have to mean identical Foata
                    // structure; assert they at least share Parikh
                    // vectors (distinct configurations *can* tie in
                    // pathological nets, but not in these models).
                    panic!("unexpected ERV tie between {a} and {b}");
                }
            }
        }
    }
}

#[test]
fn cutoff_mates_are_strictly_smaller() {
    for stg in models() {
        let prefix = Prefix::of_stg(&stg, UnfoldOptions::default()).unwrap();
        for e in prefix.events() {
            match prefix.cutoff_mate(e) {
                None => {}
                Some(CutoffMate::Initial) => {
                    assert!(prefix.local_size(e) > 0);
                }
                Some(CutoffMate::Event(f)) => {
                    let ke = key_of(&prefix, &stg, e);
                    let kf = key_of(&prefix, &stg, f);
                    assert!(kf.is_strictly_less(&ke), "mate [{f}] must be ≺ [{e}]");
                    assert!(!prefix.is_cutoff(f), "mates are never cut-offs themselves");
                }
            }
        }
    }
}

#[test]
fn event_insertion_respects_the_order() {
    // Events are popped in nondecreasing key order, so ids are a
    // linearisation of ≺.
    for stg in models() {
        let prefix = Prefix::of_stg(&stg, UnfoldOptions::default()).unwrap();
        let keys: Vec<OrderKey> = prefix.events().map(|e| key_of(&prefix, &stg, e)).collect();
        for w in keys.windows(2) {
            assert_ne!(
                w[1].compare(&w[0]),
                Ordering::Less,
                "pop order must be nondecreasing"
            );
        }
    }
}

#[test]
fn depth_is_one_plus_max_predecessor_depth() {
    for stg in models() {
        let prefix = Prefix::of_stg(&stg, UnfoldOptions::default()).unwrap();
        for e in prefix.events() {
            let expected = prefix
                .event_preset(e)
                .iter()
                .filter_map(|&b| prefix.cond_producer(b))
                .map(|p| prefix.depth(p))
                .max()
                .unwrap_or(0)
                + 1;
            assert_eq!(prefix.depth(e), expected, "{e}");
        }
    }
}
