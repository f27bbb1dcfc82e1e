//! End-to-end checks of the `repro` binary's argument handling.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// Each bad invocation exits non-zero with one stderr line naming the
/// argument at fault, before any trace is generated.
#[test]
fn bad_arguments_fail_before_generating_a_trace() {
    for (args, named) in [
        (&["--epoch-bench"][..], "--epoch-bench"),
        (&["--smoke"][..], "--smoke"),
        (&["f99"][..], "f99"),
        (&["--scale", "abc"][..], "abc"),
        (&["--scale"][..], "--scale"),
        (&["--soak-seed", "0xZZ"][..], "0xZZ"),
        // Arguments the chosen mode would ignore.
        (
            &["--report-digest", "t4", "--soak-seed", "7"][..],
            "--soak-seed",
        ),
        (&["--report-digest", "t4"][..], "t4"),
        (&["--list", "--scale", "0.1"][..], "--scale"),
        (&["--list", "--md"][..], "--md"),
        (&["--soak-seed", "7"][..], "--soak-seed"),
        (&["--soak-full", "--scale", "1.0"][..], "--soak-full"),
        (&["--md", "--soak-full"][..], "--soak-full"),
        (&["--soak", "1", "--out", "dir"][..], "--out"),
        (&["--soak", "1", "f12"][..], "f12"),
        (&["--soak", "1", "--md"][..], "--md"),
        (&["--md", "--out", "dir"][..], "--out"),
        (&["--md", "f12"][..], "f12"),
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} exited 0");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(err.contains(named), "{args:?}: {err}");
        assert!(!err.contains("generating trace"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn list_names_every_experiment() {
    let out = repro(&["--list"]);
    assert!(out.status.success(), "--list failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    for id in ddos_report::EXPERIMENTS.iter().map(|e| e.id) {
        assert!(
            stdout
                .lines()
                .any(|l| l.split_whitespace().next() == Some(id)),
            "--list lacks {id}"
        );
    }
}

/// The weekly paper-scale soak's spelling parses, here on a small trace.
#[test]
fn the_weekly_soak_spelling_runs() {
    let out = repro(&["--soak", "1", "--soak-full", "--scale", "0.01"]);
    assert!(out.status.success(), "soak failed: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("soak green"), "{err}");
}
