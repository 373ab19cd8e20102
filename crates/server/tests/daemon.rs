//! End-to-end test of the `stgd` *binary*: spawn the daemon, push a
//! 50-job mixed batch through a 4-worker pool, require a verdict (or
//! an addressable error) with a resource report for every job, then
//! shut down cleanly over the wire and check the process exits 0.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use csc_core::Property;
use server::json::Value;
use server::protocol::{BudgetSpec, CheckRequest};
use server::Client;

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(workers: usize) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_stgd"))
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn stgd");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("stgd prints its listen address")
            .expect("read banner");
        let addr = banner
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_owned();
        Daemon { child, addr }
    }

    /// Waits for the daemon to exit, killing it if it overstays.
    fn wait(mut self, deadline: Duration) -> Option<i32> {
        let start = Instant::now();
        loop {
            match self.child.try_wait().expect("poll stgd") {
                Some(status) => return status.code(),
                None if start.elapsed() > deadline => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    panic!("stgd did not exit within {deadline:?} after shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

#[test]
fn fifty_job_mixed_batch_on_a_four_worker_pool() {
    let daemon = Daemon::spawn(4);
    let mut client = Client::connect(daemon.addr.as_str()).expect("connect to stgd");

    let vme = stg::to_g_format(&stg::gen::vme::vme_read(), "vme");
    let resolved = stg::to_g_format(&stg::gen::vme::vme_read_csc_resolved(), "vme-csc");
    let counterflow = stg::to_g_format(&stg::gen::counterflow::counterflow_sym(3, 2), "cf");
    // Big enough that no racer concludes within the starved job's
    // deadline (even the fastest engine needs a hundred milliseconds).
    let heavy = stg::to_g_format(&stg::gen::arbiter::mutex_arbiter(14), "arbiter14");

    // 50 jobs: rotating conclusive models, plus one malformed input
    // and one budget-starved job mixed in.
    let mut expected: HashMap<String, &str> = HashMap::new();
    for i in 0..50usize {
        let id = format!("job-{i}");
        let (g, verdict): (&str, &str) = match i {
            7 => ("graph? this is not one", "error"),
            23 => (&heavy, "unknown"),
            _ => match i % 3 {
                0 => (&vme, "violated"),
                1 => (&resolved, "holds"),
                _ => (&counterflow, "holds"),
            },
        };
        let budget = if i == 23 {
            BudgetSpec {
                timeout_ms: Some(1),
                ..Default::default()
            }
        } else {
            BudgetSpec::default()
        };
        client
            .submit(&CheckRequest {
                id: id.clone(),
                stg_g: g.to_owned(),
                property: Property::Csc,
                engine: None,
                budget,
            })
            .expect("submit job");
        expected.insert(id, verdict);
    }

    let mut seen = HashMap::new();
    for _ in 0..50 {
        let response = client.read_response().expect("read response");
        let id = response.id.clone().expect("every response is addressed");
        assert!(expected.contains_key(&id), "unexpected id {id}");
        assert!(seen.insert(id, response).is_none(), "duplicate response");
    }
    for (id, want) in &expected {
        let got = &seen[id];
        match *want {
            "error" => {
                assert_eq!(got.status, "error", "{id}");
                // Garbage is turned away at admission with the
                // stable lint code and structured diagnostics.
                assert_eq!(got.code.as_deref(), Some("lint_rejected"), "{id}");
                assert!(got.diagnostics().is_some(), "{id}");
            }
            verdict => {
                assert_eq!(got.status, "ok", "{id}");
                assert_eq!(got.verdict.as_deref(), Some(verdict), "{id}");
                assert!(
                    got.elapsed_ms.is_some(),
                    "{id}: every completed job carries its resource report"
                );
                assert_eq!(got.engine.as_deref(), Some("race"), "{id}");
            }
        }
    }

    let stats = client.stats().expect("stats");
    let stat = |key: &str| {
        stats
            .get("stats")
            .and_then(|s| s.get(key))
            .and_then(Value::as_u64)
    };
    // The malformed job never reaches the queue: admission lint
    // rejects it on the reader thread, so it is neither received nor
    // errored.
    assert_eq!(stat("jobs_received"), Some(49));
    assert_eq!(stat("jobs_completed"), Some(49));
    assert_eq!(stat("jobs_errored"), Some(0));
    assert_eq!(stat("jobs_rejected"), Some(1));
    assert_eq!(stat("queue_depth"), Some(0));
    // On these small nets stage 2 of the race schedule (the
    // small-state probe or the capped unfolding stage) answers every
    // conclusive job, so the race never runs.
    let answered = seen
        .values()
        .filter(|r| matches!(r.verdict.as_deref(), Some("holds" | "violated")))
        .filter(|r| {
            matches!(
                r.winner.as_deref(),
                Some("structure" | "explicit" | "unfolding-ilp")
            )
        })
        .count();
    assert_eq!(
        answered, 48,
        "every conclusive job is answered before the race"
    );
    assert_eq!(stat("lint_proved"), None, "revision 9 has no LP stage");
    let race = stats
        .get("stats")
        .and_then(|s| s.get("race"))
        .expect("race stats");
    for block in ["wins", "cancelled"] {
        // Both racers at 0, and no `symbolic` or `cegar` entry.
        assert_eq!(
            race.get(block).map(Value::render).as_deref(),
            Some(r#"{"unfolding-ilp":0,"explicit":0}"#),
            "race.{block}: no racer started"
        );
    }
    // The starved job 23 runs out of time before the race stage, so it
    // started no racer and is not counted as an inconclusive race.
    assert_eq!(race.get("inconclusive").and_then(Value::as_u64), Some(0));

    let ack = client.shutdown().expect("shutdown ack");
    assert_eq!(
        ack.get("shutting_down").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        daemon.wait(Duration::from_secs(30)),
        Some(0),
        "clean exit after draining"
    );
}
