//! In-process integration test of the `stgd` service: a mixed batch
//! with a malformed `.g` and a budget-exhausting job, every job
//! answered per id, and a clean draining shutdown.

use std::collections::HashMap;

use stg_coding_conflicts::csc_core::{Engine, Property};
use stg_coding_conflicts::server::json::Value;
use stg_coding_conflicts::server::protocol::{BudgetSpec, CheckRequest};
use stg_coding_conflicts::server::{spawn, Client, ServerConfig};
use stg_coding_conflicts::stg;

fn check_request(id: &str, g: &str, budget: BudgetSpec) -> CheckRequest {
    CheckRequest {
        id: id.to_owned(),
        stg_g: g.to_owned(),
        property: Property::Csc,
        engine: None,
        budget,
    }
}

#[test]
fn mixed_batch_gets_per_job_verdicts_and_a_clean_shutdown() {
    let handle = spawn(ServerConfig {
        workers: 4,
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let vme = stg::to_g_format(&stg::gen::vme::vme_read(), "vme");
    let clean = stg::to_g_format(&stg::gen::counterflow::counterflow_sym(2, 2), "cf");
    // A violated model, a satisfied model, a malformed input, and a
    // job whose event budget cannot reach a verdict.
    client
        .submit(&check_request("violated", &vme, BudgetSpec::default()))
        .expect("submit");
    client
        .submit(&check_request("holds", &clean, BudgetSpec::default()))
        .expect("submit");
    client
        .submit(&check_request(
            "malformed",
            ".inputs a\nthis is not a .g file",
            BudgetSpec::default(),
        ))
        .expect("submit");
    // The starved job pins the unfolding engine: under the racing
    // default, an event cap starves only one racer and the others
    // would still decide this tiny model. It must ship a net no other
    // job uses — a repeated net would hit the artifact cache, and a
    // *completed* cached prefix is legitimately reused under any
    // smaller event cap (see docs/ARTIFACTS.md), yielding a real
    // verdict instead of the exhaustion this job exists to provoke.
    // The net must also not be a state machine: the server enables
    // the structure pass on every check, and its one-token fast path
    // would answer an SM net (such as a lazy ring) before the event
    // cap could bite.
    let starved_g = stg::to_g_format(&stg::gen::duplex::dup_4ph(1, false), "starved");
    client
        .submit(&CheckRequest {
            id: "starved".to_owned(),
            stg_g: starved_g,
            property: Property::Csc,
            engine: Some(Engine::UnfoldingIlp),
            budget: BudgetSpec {
                max_events: Some(1),
                ..Default::default()
            },
        })
        .expect("submit");

    let mut responses = HashMap::new();
    for _ in 0..4 {
        let response = client.read_response().expect("read verdict");
        let id = response.id.clone().expect("response carries its id");
        responses.insert(id, response);
    }

    let violated = &responses["violated"];
    assert_eq!(violated.verdict.as_deref(), Some("violated"));
    assert_eq!(violated.engine.as_deref(), Some("race"));
    assert!(violated.winner.is_some(), "race reports its winner");
    assert!(violated.elapsed_ms.is_some(), "resource report attached");
    assert!(
        violated.raw.get("witness").is_some_and(|w| !w.is_null()),
        "violated verdicts carry a witness"
    );

    assert_eq!(responses["holds"].verdict.as_deref(), Some("holds"));

    let malformed = &responses["malformed"];
    assert_eq!(malformed.status, "error");
    // Admission lint rejects the input on the reader thread with the
    // stable code and structured diagnostics (protocol revision 3).
    assert_eq!(malformed.code.as_deref(), Some("lint_rejected"));
    assert!(
        malformed.diagnostics().is_some(),
        "lint rejection carries diagnostics: {:?}",
        malformed.error
    );

    let starved = &responses["starved"];
    assert_eq!(starved.verdict.as_deref(), Some("unknown"));
    assert_eq!(starved.reason.as_deref(), Some("event-limit"));

    let stats = client.stats().expect("stats");
    let stat = |key: &str| {
        stats
            .get("stats")
            .and_then(|s| s.get(key))
            .and_then(Value::as_u64)
    };
    // The malformed job never reached the queue: admission lint
    // rejected it, so it counts as rejected rather than errored.
    assert_eq!(stat("jobs_received"), Some(3));
    assert_eq!(stat("jobs_completed"), Some(3));
    assert_eq!(stat("jobs_errored"), Some(0));
    assert_eq!(stat("jobs_rejected"), Some(1));

    let ack = client.shutdown().expect("shutdown ack");
    assert_eq!(
        ack.get("shutting_down").and_then(Value::as_bool),
        Some(true)
    );
    handle.join();
}

/// Responses are correlated by id, not order: a heavy job submitted
/// first must not block the verdict of a light job on a multi-worker
/// pool.
#[test]
fn completion_order_is_not_submission_order() {
    let handle = spawn(ServerConfig {
        workers: 2,
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // The heavy check (unfolding-ILP on a 12-client arbiter, about
    // 30 ms in release) outlasts the light job's arrival, admission
    // and 14-marking probe (3-6 ms end to end) by a wide margin even
    // on a loaded machine.
    let heavy = stg::to_g_format(&stg::gen::arbiter::mutex_arbiter(12), "heavy");
    let light = stg::to_g_format(&stg::gen::vme::vme_read(), "light");
    client
        .submit(&check_request("heavy", &heavy, BudgetSpec::default()))
        .expect("submit");
    client
        .submit(&check_request("light", &light, BudgetSpec::default()))
        .expect("submit");

    let first = client.read_response().expect("first verdict");
    let second = client.read_response().expect("second verdict");
    assert_eq!(
        first.id.as_deref(),
        Some("light"),
        "light job finishes first on a 2-worker pool"
    );
    assert_eq!(second.id.as_deref(), Some("heavy"));
    assert_eq!(second.verdict.as_deref(), Some("holds"));
    handle.shutdown();
}

/// Race statistics count only jobs whose race stage ran. A net the
/// structure fast path answers (LAZYRING is a single-token cycle) and
/// nets stage 2 answers (by its small-state probe or by capped
/// unfolding) never start a racer, so no racer is counted as won,
/// cancelled or inconclusive.
#[test]
fn jobs_answered_before_the_race_leave_race_stats_at_zero() {
    let handle = spawn(ServerConfig::default()).expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let ring = stg::to_g_format(&stg::gen::ring::lazy_ring(4), "lazyring");
    let response = client
        .check("ring", &ring, Property::Csc, None, BudgetSpec::default())
        .expect("check");
    assert_eq!(response.verdict.as_deref(), Some("violated"));
    assert_eq!(response.winner.as_deref(), Some("structure"));

    // 14 markings: the small-state probe answers.
    let vme = stg::to_g_format(&stg::gen::vme::vme_read(), "vme");
    let response = client
        .check("vme", &vme, Property::Csc, None, BudgetSpec::default())
        .expect("check");
    assert_eq!(response.verdict.as_deref(), Some("violated"));
    assert_eq!(response.winner.as_deref(), Some("explicit"));

    // 54 markings: the capped unfolding stage answers.
    let cf = stg::to_g_format(&stg::gen::counterflow::counterflow_sym(3, 2), "cf");
    let response = client
        .check("cf", &cf, Property::Csc, None, BudgetSpec::default())
        .expect("check");
    assert_eq!(response.verdict.as_deref(), Some("holds"));
    assert_eq!(response.winner.as_deref(), Some("unfolding-ilp"));

    let stats = client.stats().expect("stats");
    let race = stats
        .get("stats")
        .and_then(|s| s.get("race"))
        .expect("race stats");
    assert_eq!(race.get("inconclusive").and_then(Value::as_u64), Some(0));
    for block in ["wins", "cancelled"] {
        // Both racers at 0, and no `symbolic` or `cegar` entry.
        assert_eq!(
            race.get(block).map(Value::render).as_deref(),
            Some(r#"{"unfolding-ilp":0,"explicit":0}"#),
            "race.{block}"
        );
    }
    handle.shutdown();
}
