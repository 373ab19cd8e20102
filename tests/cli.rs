//! End-to-end tests of the `stgcheck` command-line tool.

use std::process::{Command, Output};

fn stgcheck(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stgcheck"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn csc_on_vme_reports_conflict_with_exit_1() {
    let out = stgcheck(&["csc", "assets/vme_read.g"]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("CSC conflict"));
    assert!(text.contains("Out(M')"));
}

#[test]
fn info_and_unfold() {
    let out = stgcheck(&["info", "assets/vme_read.g"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("consistent: true"));

    let out = stgcheck(&["unfold", "assets/vme_read.g"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("|E| = 12"));
    assert!(stdout(&out).contains("|E_cut| = 1"));
}

#[test]
fn engines_give_same_verdict() {
    for engine in ["unfolding", "explicit", "symbolic"] {
        let out = stgcheck(&["usc", "assets/vme_read.g", "--engine", engine]);
        assert_eq!(out.status.code(), Some(1), "engine {engine}");
    }
}

#[test]
fn gen_pipes_back_into_check() {
    let generated = stgcheck(&["gen", "cf-sym", "2", "3"]);
    assert_eq!(generated.status.code(), Some(0));
    let text = stdout(&generated);
    assert!(text.contains(".model cf-sym"));
    // Round-trip through the parser.
    let model = stg_coding_conflicts::stg::parse(&text).expect("generated .g parses");
    assert_eq!(model.num_signals(), 7);
}

#[test]
fn dot_outputs() {
    let out = stgcheck(&["dot", "assets/vme_read.g"]);
    assert!(stdout(&out).starts_with("digraph"));
    let out = stgcheck(&["unfold", "assets/vme_read.g", "--dot"]);
    assert!(stdout(&out).starts_with("digraph"));
}

#[test]
fn normalcy_and_deadlock() {
    let out = stgcheck(&["deadlock", "assets/vme_read.g"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("deadlock-free"));

    let out = stgcheck(&["normalcy", "assets/vme_read.g"]);
    // The unresolved VME violates normalcy (normalcy implies CSC).
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("NOT normal"));
}

#[test]
fn errors_exit_2() {
    let out = stgcheck(&["csc", "no/such/file.g"]);
    assert_eq!(out.status.code(), Some(2));
    let out = stgcheck(&["frobnicate", "assets/vme_read.g"]);
    assert_eq!(out.status.code(), Some(2));
    let out = stgcheck(&[]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flags_exit_2() {
    for (flag, value) in [("--unfold-threads", "2"), ("--timout-ms", "10")] {
        let out = stgcheck(&["csc", "assets/vme_read.g", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
    }
    // The value after a known flag is not a flag, even when it looks
    // like one: `--engine` reports the bad engine name instead.
    let out = stgcheck(&["csc", "assets/vme_read.g", "--engine", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --engine --bogus"));
}

#[test]
fn mcmillan_prefix_not_smaller() {
    let erv = stdout(&stgcheck(&["unfold", "assets/vme_read.g"]));
    let mcm = stdout(&stgcheck(&["unfold", "assets/vme_read.g", "--mcmillan"]));
    let events = |s: &str| -> usize {
        s.split("|E| = ")
            .nth(1)
            .and_then(|t| t.split(',').next())
            .and_then(|t| t.trim().parse().ok())
            .expect("parse |E|")
    };
    assert!(events(&mcm) >= events(&erv));
}

#[test]
fn race_runs_the_served_schedule_in_process() {
    // `--engine race` runs the schedule `stgd` serves, structure pass
    // first: on a single-token state machine that pass answers before
    // the small-state probe could.
    let out = stgcheck(&[
        "csc",
        "tests/fixtures/handshake_state_machine.g",
        "--engine",
        "race",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("Csc: satisfied"), "{text}");
    assert!(text.contains("winner: structure"), "{text}");
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    // The reader takes one line and goes away, as `| head -1` does.
    // The generated net is larger than a pipe's buffer, so its write
    // is still pending when the pipe closes; the other two commands
    // print their later lines after computing them.
    for args in [
        &["gen", "pipeline", "3000"][..],
        &["synthesize", "assets/vme_read.g", "--engine", "race"],
        &["report", "assets/vme_read.g"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_stgcheck"))
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut first = String::new();
        BufReader::new(child.stdout.take().expect("stdout piped"))
            .read_line(&mut first)
            .expect("first line");
        assert!(!first.is_empty(), "{args:?}");
        let out = child.wait_with_output().expect("exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "{args:?} panicked: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}
