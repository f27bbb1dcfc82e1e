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
