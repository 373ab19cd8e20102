//! Overload suite: drives `stgd`'s admission control and watchdog
//! with real concurrency (no fault injection) and asserts the
//! accounting stays exact — every rejection carries the stable code
//! and a `retry_after_ms` hint, counters add up across racing
//! submitters, a backoff client rides out the contention, and the
//! hung-job watchdog cancels runaways.

use std::time::Duration;

use csc_core::{Engine, Property};
use server::json::Value;
use server::protocol::{BudgetSpec, CheckRequest};
use server::{spawn, Client, RetryPolicy, ServerConfig};
use stg::gen::arbiter::mutex_arbiter;
use stg::gen::pipeline::muller_pipeline;
use stg::gen::vme::vme_read;

fn vme_g() -> String {
    stg::to_g_format(&vme_read(), "vme")
}

fn counter(stats: &Value, key: &str) -> u64 {
    stats
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing stats.{key}: {stats:?}"))
}

fn overload_counter(stats: &Value, key: &str) -> u64 {
    stats
        .get("stats")
        .and_then(|s| s.get("overload"))
        .and_then(|o| o.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing stats.overload.{key}: {stats:?}"))
}

/// Six clients pipeline five jobs each into a 1-slot queue with one
/// worker. Whatever the interleaving: every job gets exactly one
/// terminal response, every rejection is a coded `queue_full` with a
/// retry hint, and the counters reconcile exactly with what the
/// clients observed.
#[test]
fn concurrent_submitters_get_exact_queue_full_accounting() {
    let server = spawn(ServerConfig {
        workers: 1,
        max_queue: Some(1),
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr();
    let g = vme_g();
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let g = g.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for j in 0..5 {
                    client
                        .submit(&CheckRequest {
                            id: format!("t{t}-{j}"),
                            stg_g: g.clone(),
                            property: Property::Csc,
                            engine: Some(Engine::UnfoldingIlp),
                            budget: BudgetSpec::default(),
                        })
                        .expect("submit");
                }
                let (mut ok, mut shed) = (0u64, 0u64);
                for _ in 0..5 {
                    let response = client.read_response().expect("terminal response");
                    match response.code.as_deref() {
                        Some("queue_full") => {
                            assert!(
                                response.retry_after_ms.is_some_and(|ms| ms >= 10),
                                "rejections must hint a backoff: {:?}",
                                response.raw
                            );
                            shed += 1;
                        }
                        None => {
                            assert_eq!(
                                response.verdict.as_deref(),
                                Some("violated"),
                                "{:?}",
                                response.raw
                            );
                            ok += 1;
                        }
                        other => panic!("unexpected terminal code {other:?}"),
                    }
                }
                (ok, shed)
            })
        })
        .collect();
    let (mut ok, mut shed) = (0u64, 0u64);
    for t in threads {
        let (o, s) = t.join().expect("client thread");
        ok += o;
        shed += s;
    }
    assert_eq!(ok + shed, 30, "every job got exactly one response");
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(counter(&stats, "jobs_received"), ok);
    assert_eq!(counter(&stats, "jobs_completed"), ok);
    assert_eq!(counter(&stats, "jobs_rejected"), shed);
    assert_eq!(overload_counter(&stats, "queue_full"), shed);
    assert_eq!(overload_counter(&stats, "over_quota"), 0);
    server.shutdown();
}

/// A backoff-enabled client pointed at a saturated 1-slot queue
/// eventually gets its verdict: the shed responses' hints pace the
/// retries until the burst drains.
#[test]
fn backoff_retrying_client_eventually_succeeds_under_load() {
    let server = spawn(ServerConfig {
        workers: 1,
        max_queue: Some(1),
        ..Default::default()
    })
    .expect("bind");
    let g = vme_g();

    // Saturate: pipeline a burst that overflows the queue.
    let mut burst = Client::connect(server.addr()).expect("connect burst");
    for i in 0..8 {
        burst
            .submit(&CheckRequest {
                id: format!("b{i}"),
                stg_g: g.clone(),
                property: Property::Csc,
                engine: Some(Engine::UnfoldingIlp),
                budget: BudgetSpec::default(),
            })
            .expect("submit");
    }

    // The retry client contends with the burst and must still land.
    // It submits only once `stgd` has read the whole burst, so its
    // first attempt cannot take the queue slot ahead of the burst.
    let mut patient = Client::connect(server.addr()).expect("connect patient");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = patient.stats().expect("stats");
        if counter(&stats, "jobs_received") + overload_counter(&stats, "queue_full") >= 8 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the burst was never read: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let response = patient
        .check_with_retry(
            "patient",
            &g,
            Property::Csc,
            Some(Engine::UnfoldingIlp),
            BudgetSpec::default(),
            &RetryPolicy {
                max_attempts: 40,
                base_delay_ms: 10,
                max_delay_ms: 200,
            },
        )
        .expect("the retry loop must outlast the burst");
    assert_eq!(response.verdict.as_deref(), Some("violated"));

    // The burst itself: every job answered exactly once.
    let mut burst_ok = 0;
    for _ in 0..8 {
        let r = burst.read_response().expect("burst response");
        if r.status == "ok" {
            burst_ok += 1;
        } else {
            assert_eq!(r.code.as_deref(), Some("queue_full"), "{:?}", r.raw);
        }
    }
    assert!(burst_ok >= 1, "the worker made progress during the burst");
    server.shutdown();
}

/// The watchdog cancels a job that exceeds `hung_job_ms`: the job
/// still gets a terminal response (`unknown`/`cancelled`), the
/// counter ticks, and the worker is free for the next job.
#[test]
fn hung_job_watchdog_cancels_runaways() {
    let server = spawn(ServerConfig {
        workers: 1,
        hung_job_ms: Some(60),
        ..Default::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    // A deep pipeline runs far past the 60ms bound (the explicit
    // engine enumerates its whole state space); the engine polls the
    // cancel token, so the watchdog's cancellation surfaces as a
    // prompt `cancelled` verdict instead of an uninterruptible grind.
    let runaway = stg::to_g_format(&muller_pipeline(20), "deep");
    let response = client
        .check(
            "runaway",
            &runaway,
            Property::Csc,
            Some(Engine::ExplicitStateGraph),
            BudgetSpec::default(),
        )
        .expect("terminal response");
    assert_eq!(
        response.verdict.as_deref(),
        Some("unknown"),
        "{:?}",
        response.raw
    );
    assert_eq!(
        response.reason.as_deref(),
        Some("cancelled"),
        "{:?}",
        response.raw
    );
    // The worker is free again: a normal job completes promptly.
    let after = client
        .check(
            "after",
            &vme_g(),
            Property::Csc,
            Some(Engine::UnfoldingIlp),
            BudgetSpec::default(),
        )
        .expect("check after cancellation");
    assert_eq!(after.verdict.as_deref(), Some("violated"));
    let stats = client.stats().expect("stats");
    let sup = stats
        .get("stats")
        .and_then(|s| s.get("supervisor"))
        .expect("supervisor block");
    assert_eq!(
        sup.get("hung_jobs_cancelled").and_then(Value::as_u64),
        Some(1),
        "{stats:?}"
    );
    server.shutdown();
}

/// The watchdog also covers `synthesize` jobs: a resolution that
/// exceeds `hung_job_ms` is cancelled mid-candidate through the same
/// cancel token, answers the stable `resolve_failed` code (permanent —
/// the retry layer must not resubmit it), and frees the worker.
#[test]
fn hung_synthesize_watchdog_cancels_runaway_resolution() {
    let server = spawn(ServerConfig {
        workers: 1,
        hung_job_ms: Some(60),
        ..Default::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    // A large conflicted duplex net: scoring its insertion candidates
    // explores a state graph per candidate, far past the 60ms bound.
    // The resolver threads the job's cancel token through every
    // exploration, so the watchdog's flip aborts the search promptly.
    let runaway = stg::to_g_format(&stg::gen::duplex::dup_mod(6), "runaway");
    let response = client
        .synthesize("runaway-synth", &runaway, None, None, BudgetSpec::default())
        .expect("terminal response");
    assert_eq!(response.status, "error", "{:?}", response.raw);
    assert_eq!(
        response.code.as_deref(),
        Some("resolve_failed"),
        "{:?}",
        response.raw
    );
    assert!(
        !response.is_retryable(),
        "a watchdog-cancelled synthesis is a permanent failure"
    );
    // The worker is free again: a normal job completes promptly.
    let after = client
        .check(
            "after",
            &vme_g(),
            Property::Csc,
            Some(Engine::UnfoldingIlp),
            BudgetSpec::default(),
        )
        .expect("check after cancellation");
    assert_eq!(after.verdict.as_deref(), Some("violated"));
    let stats = client.stats().expect("stats");
    let sup = stats
        .get("stats")
        .and_then(|s| s.get("supervisor"))
        .expect("supervisor block");
    assert_eq!(
        sup.get("hung_jobs_cancelled").and_then(Value::as_u64),
        Some(1),
        "{stats:?}"
    );
    let synth = stats
        .get("stats")
        .and_then(|s| s.get("synthesize"))
        .expect("synthesize block");
    assert_eq!(synth.get("failed").and_then(Value::as_u64), Some(1));
    server.shutdown();
}

/// Per-client quotas shed the hog's surplus while another client's
/// jobs still get through, and the `over_quota` code/counters are
/// exact.
#[test]
fn quotas_contain_a_hog_without_starving_others() {
    let server = spawn(ServerConfig {
        workers: 1,
        client_quota: Some(1),
        ..Default::default()
    })
    .expect("bind");
    let g = vme_g();
    // The hog pipelines a burst far over its quota of 1 queued job.
    let mut hog = Client::connect(server.addr()).expect("connect hog");
    for i in 0..10 {
        hog.submit(&CheckRequest {
            id: format!("h{i}"),
            stg_g: g.clone(),
            property: Property::Csc,
            engine: Some(Engine::UnfoldingIlp),
            budget: BudgetSpec::default(),
        })
        .expect("submit");
    }
    let (mut hog_ok, mut hog_shed) = (0u64, 0u64);
    for _ in 0..10 {
        let r = hog.read_response().expect("hog response");
        if r.status == "ok" {
            hog_ok += 1;
        } else {
            assert_eq!(r.code.as_deref(), Some("over_quota"), "{:?}", r.raw);
            assert!(r.retry_after_ms.is_some());
            hog_shed += 1;
        }
    }
    assert_eq!(hog_ok + hog_shed, 10);
    assert!(hog_shed >= 1, "the burst must overflow a quota of 1");
    // A polite client (one job at a time) is never shed.
    let mut polite = Client::connect(server.addr()).expect("connect polite");
    for i in 0..3 {
        let r = polite
            .check(
                &format!("p{i}"),
                &g,
                Property::Csc,
                Some(Engine::UnfoldingIlp),
                BudgetSpec::default(),
            )
            .expect("polite check");
        assert_eq!(r.verdict.as_deref(), Some("violated"), "{:?}", r.raw);
    }
    let stats = polite.stats().expect("stats");
    assert_eq!(overload_counter(&stats, "over_quota"), hog_shed);
    assert_eq!(overload_counter(&stats, "queue_full"), 0);
    server.shutdown();
}

/// A client that dies mid-batch (dropped socket with jobs queued)
/// must not wedge the pool or corrupt counters: the jobs still run,
/// their responses are dropped, and the server keeps serving.
///
/// The order is made deterministic: the doomed client hangs up only
/// once `stgd` has admitted all four jobs (so no request line is lost
/// to a reset connection), and the first job, a 16-client arbiter
/// (0.7 s in release) under a 500 ms deadline, is still running then,
/// so every response is still pending when the socket closes.
#[test]
fn a_vanishing_client_leaves_no_debris() {
    let server = spawn(ServerConfig {
        workers: 1,
        ..Default::default()
    })
    .expect("bind");
    let g = vme_g();
    let slow = stg::to_g_format(&mutex_arbiter(16), "arbiter16");
    let mut doomed = Client::connect(server.addr()).expect("connect doomed");
    for i in 0..4 {
        let (stg_g, budget) = if i == 0 {
            let budget = BudgetSpec {
                timeout_ms: Some(500),
                ..Default::default()
            };
            (slow.clone(), budget)
        } else {
            (g.clone(), BudgetSpec::default())
        };
        doomed
            .submit(&CheckRequest {
                id: format!("d{i}"),
                stg_g,
                property: Property::Csc,
                engine: Some(Engine::UnfoldingIlp),
                budget,
            })
            .expect("submit");
    }
    let mut client = Client::connect(server.addr()).expect("connect");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while counter(&client.stats().expect("stats"), "jobs_received") < 4 {
        assert!(
            std::time::Instant::now() < deadline,
            "the doomed client's jobs were never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // The socket closes with all four jobs pending.
    drop(doomed);
    // Give the pool time to run the orphaned jobs.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().expect("stats");
        let settled = counter(&stats, "jobs_completed") + counter(&stats, "jobs_errored");
        if settled >= 4 {
            // Undeliverable responses are counted, not lost silently.
            assert!(
                overload_counter(&stats, "responses_dropped") >= 1,
                "{stats:?}"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "orphaned jobs never settled: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // And the pool still serves.
    let after = client
        .check(
            "after",
            &g,
            Property::Csc,
            Some(Engine::UnfoldingIlp),
            BudgetSpec::default(),
        )
        .expect("check after orphan batch");
    assert_eq!(after.verdict.as_deref(), Some("violated"));
    server.shutdown();
}
