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
fn synthesize_names_the_state_signal_apart_from_the_net_signals() {
    use stg_coding_conflicts::csc_core::{CheckRequest, Engine, Property, Verdict};

    // The fixture's output `d` is named `csc0`, so the inserted state
    // signal must take the next free name; the resolved `.g` then
    // declares every signal once and parses back.
    let fixture = "tests/fixtures/vme_csc0.g";
    let out = stgcheck(&["synthesize", fixture]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(
        text.contains("resolved with 1 state signal(s): csc1"),
        "{text}"
    );
    let out = stgcheck(&["synthesize", fixture, "--to-g"]);
    assert_eq!(out.status.code(), Some(0));
    let resolved = stg_coding_conflicts::stg::parse(&stdout(&out)).expect("resolved .g parses");
    assert_eq!(resolved.num_signals(), 6);
    let run = CheckRequest::new(&resolved, Property::Csc)
        .engine(Engine::ExplicitStateGraph)
        .run()
        .expect("explicit check runs");
    assert!(matches!(run.verdict, Verdict::Holds), "{:?}", run.verdict);
}

#[test]
fn budgeted_csc_prints_the_same_witness() {
    let unbudgeted = stgcheck(&["csc", "assets/vme_read.g"]);
    let budgeted = stgcheck(&["csc", "assets/vme_read.g", "--timeout-ms", "5000"]);
    assert_eq!(budgeted.status.code(), Some(1));
    let witness = stdout(&unbudgeted);
    assert!(witness.contains("CSC conflict"), "{witness}");
    assert_eq!(stdout(&budgeted), witness);
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

/// Reads a recorded `stgcheck` output from `tests/fixtures/golden/`
/// (the structure JSON's `elapsed_ms` recorded as `X`).
fn golden(name: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/golden/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Replaces the value of the structure JSON's `"elapsed_ms"` member,
/// the one part of the output that varies from run to run.
fn mask_elapsed(text: &str) -> String {
    let key = "\"elapsed_ms\": ";
    match text.find(key) {
        None => text.to_owned(),
        Some(i) => {
            let start = i + key.len();
            let end = start + text[start..].find('\n').unwrap_or(text.len() - start);
            format!("{}X{}", &text[..start], &text[end..])
        }
    }
}

/// `stgcheck lint` and `stgcheck structure`, in both formats, on the
/// generated VME and DUP-4 nets print exactly the golden outputs.
#[test]
fn lint_and_structure_match_the_golden_outputs() {
    let dir = std::env::temp_dir().join(format!("stgcheck-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (net, gen) in [
        ("vme", &["gen", "vme"][..]),
        ("dup4", &["gen", "dup", "4"][..]),
    ] {
        let model = stgcheck(gen);
        assert_eq!(model.status.code(), Some(0), "{net}");
        let file = format!("{net}.g");
        std::fs::write(dir.join(&file), &model.stdout).unwrap();
        let mut cases = vec![(
            format!("{net}.lint-no-lp.human"),
            vec!["lint", &file, "--no-lp"],
        )];
        for command in ["lint", "structure"] {
            for format in ["human", "json"] {
                cases.push((
                    format!("{net}.{command}.{format}"),
                    vec![command, &file, "--format", format],
                ));
            }
        }
        for (name, args) in cases {
            let out = Command::new(env!("CARGO_BIN_EXE_stgcheck"))
                .args(&args)
                .current_dir(&dir)
                .output()
                .expect("binary runs");
            assert_eq!(out.status.code(), Some(0), "{name}");
            assert_eq!(mask_elapsed(&stdout(&out)), golden(&name), "{name}");
            assert!(out.stderr.is_empty(), "{name}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// On a malformed net each command exits 2 with the `L0xx` parse
/// diagnostic: `lint` reports it on stdout in the chosen format,
/// `structure` on stderr.
#[test]
fn lint_and_structure_reject_a_malformed_net_with_its_code() {
    let fixture = "tests/fixtures/malformed/undeclared_signal.g";
    for format in ["human", "json"] {
        let out = stgcheck(&["lint", fixture, "--format", format]);
        assert_eq!(out.status.code(), Some(2), "lint {format}");
        let text = stdout(&out);
        assert!(text.contains("L003"), "{text}");
        assert_eq!(text, golden(&format!("undeclared_signal.lint.{format}")));
        assert!(out.stderr.is_empty());

        let out = stgcheck(&["structure", fixture, "--format", format]);
        assert_eq!(out.status.code(), Some(2), "structure {format}");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("error[L003]"), "{text}");
        assert_eq!(text, golden("undeclared_signal.structure.stderr"));
        assert!(out.stdout.is_empty());
    }
}

/// `--timeout-ms` bounds `stgcheck lint`: on MULLER-100, whose
/// relaxation LPs run for minutes unbounded, the LPs abstain at the
/// deadline and the pass reports it.
#[test]
fn lint_honours_the_timeout() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir().join(format!("stgcheck-lint-timeout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = stgcheck(&["gen", "pipeline", "100"]);
    assert_eq!(model.status.code(), Some(0));
    std::fs::write(dir.join("m100.g"), &model.stdout).unwrap();
    let report = std::fs::File::create(dir.join("lint.json")).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_stgcheck"))
        .args(["lint", "m100.g", "--timeout-ms", "500", "--format", "json"])
        .current_dir(&dir)
        .stdout(report)
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if started.elapsed() > Duration::from_secs(20) {
            child.kill().expect("kill");
            child.wait().expect("reap");
            panic!("lint ran past 20 s under --timeout-ms 500");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0));
    let text = std::fs::read_to_string(dir.join("lint.json")).unwrap();
    assert!(text.contains("\"lp_abstained\": true"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}
