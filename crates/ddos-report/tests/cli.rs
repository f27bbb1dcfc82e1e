//! End-to-end checks of the `ddoslab` binary's flag handling.

use std::path::PathBuf;
use std::process::{Command, Output};

use ddos_analytics::AnalysisReport;

fn ddoslab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ddoslab"))
        .args(args)
        .output()
        .expect("ddoslab runs")
}

/// Generates a small trace at a path unique to this process and `tag`,
/// so tests running at the same time never share a file.
fn small_trace(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("ddoslab-cli-{}-{tag}.ddtl", std::process::id()));
    let out = ddoslab(&[
        "generate",
        "--scale",
        "0.01",
        "--out",
        path.to_str().expect("temp path is UTF-8"),
    ]);
    assert!(out.status.success(), "generate failed: {out:?}");
    path
}

#[test]
fn analyze_and_serve_reject_an_unknown_flag() {
    let path = small_trace("unknown");
    let file = path.to_str().unwrap();
    for cmd in ["analyze", "serve"] {
        let out = ddoslab(&[cmd, file, "--jsn"]);
        assert!(!out.status.success(), "{cmd} accepted --jsn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag \"--jsn\""), "{cmd}: {err}");
        assert!(out.stdout.is_empty(), "{cmd} printed a report");
    }
    std::fs::remove_file(&path).expect("remove the trace");
}

#[test]
fn analyze_json_prints_the_report_as_json() {
    let path = small_trace("json");
    let out = ddoslab(&["analyze", path.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "analyze --json failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let report: AnalysisReport = serde_json::from_str(&stdout).expect("stdout is a JSON report");
    assert!(report.summary.measured.attacks > 0, "empty report");
    std::fs::remove_file(&path).expect("remove the trace");
}

#[test]
fn analyze_with_epochs_prints_the_batch_report() {
    let path = small_trace("epochs");
    let file = path.to_str().unwrap();
    let batch = ddoslab(&["analyze", file, "--json"]);
    assert!(batch.status.success(), "analyze --json failed: {batch:?}");
    let epochs = ddoslab(&["analyze", file, "--epochs", "4", "--json"]);
    assert!(
        epochs.status.success(),
        "analyze --epochs failed: {epochs:?}"
    );
    assert!(!batch.stdout.is_empty(), "analyze printed nothing");
    assert!(
        epochs.stdout == batch.stdout,
        "the epoch engine's report differs from the batch report"
    );
    std::fs::remove_file(&path).expect("remove the trace");
}

/// Traces have one binary format, so a format flag is an unknown flag:
/// the error names it and nothing is generated or written.
#[test]
fn generate_rejects_a_format_flag_before_generating() {
    let path = std::env::temp_dir().join(format!("ddoslab-cli-{}-format.ddtl", std::process::id()));
    let out = ddoslab(&[
        "generate",
        "--format",
        "v1",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "generate accepted --format");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag \"--format\""), "{err}");
    assert!(!err.contains("generating trace"), "{err}");
    assert!(out.stdout.is_empty(), "generate printed {out:?}");
    assert!(!path.exists(), "generate wrote {}", path.display());
}

/// A scale that is not a finite positive number fails with one stderr
/// line naming the flag, before anything is generated or written.
#[test]
fn generate_rejects_a_scale_that_is_not_a_positive_number() {
    let path = std::env::temp_dir().join(format!("ddoslab-cli-{}-scale.ddtl", std::process::id()));
    for scale in ["-1", "nan", "0", "inf"] {
        let out = ddoslab(&[
            "generate",
            "--scale",
            scale,
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(!out.status.success(), "generate accepted --scale {scale}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "--scale {scale}: {err}");
        assert!(err.contains("--scale"), "--scale {scale}: {err}");
        assert!(out.stdout.is_empty(), "generate printed {out:?}");
        assert!(!path.exists(), "generate wrote {}", path.display());
    }
}
