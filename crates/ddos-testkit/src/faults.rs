//! Drive each named failpoint to an `Err` and prove clean recovery.
//!
//! [`inject_and_recover`] is the one-call form of the fault contract
//! every hot path must satisfy:
//!
//! 1. run the operation that consults the failpoint with a plan that
//!    fails its first hit — it must return `Err` (never panic), and
//!    the error must carry the failpoint name;
//! 2. run the identical operation again with no plan installed — it
//!    must succeed and reproduce the byte-identical clean result.
//!
//! The helper returns `Err(description)` instead of panicking so the
//! soak loop can fold a violation into its failure bundle; test suites
//! simply `unwrap()`. In release builds the seam is compiled out
//! (`ddos_failpoints::ACTIVE`), so the helper is a no-op.

use ddos_analytics::Analysis;
use ddos_failpoints::{names, FailPlan, ACTIVE};
use ddos_schema::{csv, framed, Dataset, Seconds};

use crate::conformance::report_digest;

const WEEK_S: i64 = 7 * 24 * 3600;

/// `Err` unless `got` is an error mentioning the injected failpoint.
fn expect_injected<T, E: std::fmt::Display>(
    got: Result<T, E>,
    name: &str,
    op: &str,
) -> Result<(), String> {
    match got {
        Ok(_) => Err(format!(
            "{op}: fault injected at `{name}` but the operation succeeded"
        )),
        Err(e) => {
            let msg = e.to_string();
            if msg.contains("injected fault at") && msg.contains(name) {
                Ok(())
            } else {
                Err(format!(
                    "{op}: expected an injected fault at `{name}`, got: {msg}"
                ))
            }
        }
    }
}

/// Injects a failure at the first hit of failpoint `name`, asserts the
/// covering operation errors (never panics) with the failpoint named
/// in the message, then retries without the fault and asserts the
/// clean result is byte-identical to a run that never saw the plan.
pub fn inject_and_recover(name: &str, ds: &Dataset) -> Result<(), String> {
    if !ACTIVE {
        return Ok(()); // release build: the seam is compiled out.
    }
    match name {
        names::INGEST_OPEN => {
            let path = crate::temp_trace_path("fault-open");
            std::fs::write(&path, framed::encode(ds)).map_err(|e| e.to_string())?;
            let clean = framed::encode(&Dataset::open(&path).map_err(|e| e.to_string())?);
            {
                let _scope = FailPlan::new().fail_nth(name, 0).install();
                expect_injected(Dataset::open(&path), name, "Dataset::open")?;
            }
            let retried = framed::encode(&Dataset::open(&path).map_err(|e| e.to_string())?);
            let _ = std::fs::remove_file(&path);
            if retried != clean {
                return Err("Dataset::open retry diverged from the clean decode".into());
            }
        }
        names::INGEST_FRAMED_HEADER | names::INGEST_FRAMED_FRAME => {
            let bytes = framed::encode_with(ds, 64);
            let clean = framed::encode(&framed::decode(&bytes).map_err(|e| e.to_string())?);
            for workers in [1, 4] {
                let _scope = FailPlan::new().fail_always(name).install();
                expect_injected(
                    framed::decode_with_workers(&bytes, workers),
                    name,
                    "framed::decode_with_workers",
                )?;
            }
            let retried = framed::encode(&framed::decode(&bytes).map_err(|e| e.to_string())?);
            if retried != clean {
                return Err("framed::decode retry diverged from the clean decode".into());
            }
        }
        names::INGEST_CSV_CHUNK => {
            let text = csv::attacks_to_csv(ds.attacks());
            let clean = csv::attacks_from_csv_with(&text, 1).map_err(|e| e.to_string())?;
            {
                let _scope = FailPlan::new().fail_always(name).install();
                expect_injected(csv::attacks_from_csv(&text), name, "attacks_from_csv")?;
                expect_injected(
                    csv::attacks_from_csv_with(&text, 4),
                    name,
                    "attacks_from_csv_with",
                )?;
            }
            let retried = csv::attacks_from_csv_with(&text, 4).map_err(|e| e.to_string())?;
            if retried != clean {
                return Err("chunked CSV retry diverged from the serial parse".into());
            }
        }
        names::EPOCH_MERGE => {
            let weekly = || Analysis::new(ds).parallel(false).epochs(Seconds(WEEK_S));
            let clean = report_digest(&weekly().run());
            {
                let _scope = FailPlan::new().fail_nth(name, 0).install();
                expect_injected(weekly().try_run(), name, "epoch engine try_run")?;
            }
            let retried = report_digest(&weekly().run());
            if retried != clean {
                return Err("epoch engine retry diverged from the clean report".into());
            }
        }
        names::SCHEDULER_PASS => {
            let batch = || Analysis::new(ds).parallel(false);
            let clean = report_digest(&batch().run());
            {
                let _scope = FailPlan::new().fail_nth(name, 0).install();
                expect_injected(batch().try_run(), name, "monolithic try_run")?;
            }
            let retried = report_digest(&batch().run());
            if retried != clean {
                return Err("pass scheduler retry diverged from the clean report".into());
            }
        }
        other => return Err(format!("unknown failpoint `{other}`")),
    }
    Ok(())
}
