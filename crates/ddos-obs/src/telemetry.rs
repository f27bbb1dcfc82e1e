//! The live recorder ([`Obs`]) and the finished artifact
//! ([`RunTelemetry`]).
//!
//! One [`Obs`] lives for exactly one pipeline run. Stages open spans
//! with [`Obs::span`] (RAII, records on drop) or record explicit
//! intervals with [`Obs::record_span`] from worker threads; counters,
//! gauges, and histograms come from the embedded
//! [`MetricsRegistry`]. [`Obs::finish`] freezes everything into a
//! [`RunTelemetry`], the JSON artifact `repro --telemetry-json` and
//! `ddoslab analyze --telemetry-json` emit.
//!
//! A disabled recorder ([`Obs::disabled`]) accepts the same calls and
//! records nothing, so instrumented code never branches on a telemetry
//! flag — and since no pipeline stage ever *reads* the recorder, report
//! bytes are identical either way (enforced by the conformance suite).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use crate::span::{sort_spans, SpanRecord};

/// Version of the telemetry JSON shape. Bump on any breaking change to
/// the serialized structure (the snapshot test pins the current shape).
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

/// The live telemetry recorder for one pipeline run.
#[derive(Debug)]
pub struct Obs {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    metrics: MetricsRegistry,
}

impl Obs {
    /// A recording observer anchored at "now".
    pub fn enabled() -> Obs {
        Obs {
            enabled: true,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::default(),
        }
    }

    /// A no-op observer: same API, records nothing, and
    /// [`Obs::finish`] returns an empty [`RunTelemetry`].
    pub fn disabled() -> Obs {
        Obs {
            enabled: false,
            ..Obs::enabled()
        }
    }

    /// Whether this observer records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since the run began.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Opens a span that records itself when dropped.
    pub fn span(&self, path: impl Into<String>) -> SpanGuard<'_> {
        SpanGuard {
            obs: self,
            path: self.enabled.then(|| path.into()),
            start_us: self.now_us(),
        }
    }

    /// Records a finished span with explicit offsets (the worker-thread
    /// path: measure locally, push once on completion).
    pub fn record_span(&self, path: impl Into<String>, start_us: u64, end_us: u64) {
        if !self.enabled {
            return;
        }
        self.spans
            .lock()
            .expect("span sink poisoned")
            .push(SpanRecord {
                path: path.into(),
                start_us,
                end_us,
            });
    }

    /// The shared counter named `name` (no-op-ish when disabled: the
    /// handle works but is never snapshotted).
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        self.metrics.counter(name)
    }

    /// The shared gauge named `name`.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        self.metrics.gauge(name)
    }

    /// The shared histogram named `name`.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        self.metrics.histogram(name)
    }

    /// Freezes the run into its telemetry artifact. `parallel` is
    /// stamped into the output so a reader knows which scheduler
    /// produced the spans.
    pub fn finish(&self, parallel: bool) -> RunTelemetry {
        if !self.enabled {
            return RunTelemetry::default();
        }
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"));
        sort_spans(&mut spans);
        RunTelemetry {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            parallel,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            total_us: spans.iter().map(|s| s.end_us).max().unwrap_or(0),
            spans,
            metrics: self.metrics.snapshot(),
        }
    }
}

/// RAII span: records `[open, drop]` against the observer it came from.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    path: Option<String>,
    start_us: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            let end = self.obs.now_us();
            self.obs.record_span(path, self.start_us, end);
        }
    }
}

/// A finished run's telemetry: every span and metric, machine-readable.
///
/// This is run *metadata* — machine-dependent wall-clock and scheduler
/// behavior — so the pipeline attaches it outside the serialized report
/// (`#[serde(skip)]` on the report field), keeping parallel and serial
/// report bytes identical while the telemetry captures how the run
/// actually executed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunTelemetry {
    /// Shape version of this JSON document
    /// ([`TELEMETRY_SCHEMA_VERSION`]); `0` means "telemetry disabled".
    pub schema_version: u32,
    /// Whether the run used the parallel scheduler.
    pub parallel: bool,
    /// Available hardware parallelism at run time.
    pub threads: usize,
    /// End offset of the last span, microseconds.
    pub total_us: u64,
    /// Every recorded span, ordered start-time-major with parents before
    /// the children they enclose.
    pub spans: Vec<SpanRecord>,
    /// Every recorded metric, each kind sorted by name.
    pub metrics: MetricsSnapshot,
}

impl RunTelemetry {
    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.metrics.is_empty()
    }

    /// The spans under `prefix` (`prefix/x`, not `prefix` itself).
    pub fn spans_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| {
            s.path.len() > prefix.len() + 1
                && s.path.starts_with(prefix)
                && s.path.as_bytes()[prefix.len()] == b'/'
        })
    }

    /// The first span with exactly this path.
    pub fn span(&self, path: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Renders the span breakdown as an aligned text table (the
    /// `ddoslab analyze --timings` view), indented by nesting depth.
    pub fn render(&self) -> String {
        let mode = if self.parallel { "parallel" } else { "serial" };
        let mut out = format!("pipeline telemetry ({mode}, {} threads)\n", self.threads);
        out.push_str(&format!(
            "{:<42} {:>12} {:>12}\n",
            "span", "start_us", "dur_us"
        ));
        for s in &self.spans {
            let label = format!("{}{}", "  ".repeat(s.depth()), s.name());
            out.push_str(&format!(
                "{:<42} {:>12} {:>12}\n",
                label,
                s.start_us,
                s.duration_us()
            ));
        }
        out.push_str(&format!(
            "{:<42} {:>12} {:>12}\n",
            "total", 0, self.total_us
        ));
        if !self.metrics.counters.is_empty() || !self.metrics.gauges.is_empty() {
            out.push_str("metrics\n");
            for e in &self.metrics.counters {
                out.push_str(&format!("  {:<40} {:>12}\n", e.name, e.value));
            }
            for e in &self.metrics.gauges {
                out.push_str(&format!("  {:<40} {:>12}\n", e.name, e.value));
            }
            for e in &self.metrics.histograms {
                out.push_str(&format!(
                    "  {:<40} {:>12} (count; mean {:.1})\n",
                    e.name,
                    e.histogram.count,
                    e.histogram.mean().unwrap_or(0.0)
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_records_nested_spans() {
        let obs = Obs::enabled();
        {
            let _run = obs.span("run");
            {
                let _ctx = obs.span("run/context");
                let _inner = obs.span("run/context/bot_table");
            }
            let _passes = obs.span("run/passes");
        }
        let t = obs.finish(false);
        assert_eq!(t.schema_version, TELEMETRY_SCHEMA_VERSION);
        assert_eq!(t.spans.len(), 4);
        // Parents strictly contain their children in time.
        let run = t.span("run").unwrap();
        let ctx = t.span("run/context").unwrap();
        let inner = t.span("run/context/bot_table").unwrap();
        assert!(run.start_us <= ctx.start_us && ctx.end_us <= run.end_us);
        assert!(ctx.start_us <= inner.start_us && inner.end_us <= ctx.end_us);
        assert!(run.contains_path(ctx) && ctx.contains_path(inner));
        assert_eq!(t.spans_under("run").count(), 3);
        assert_eq!(t.spans_under("run/context").count(), 1);
        assert_eq!(t.total_us, run.end_us);
        assert!(!t.is_empty());
    }

    #[test]
    fn disabled_observer_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        {
            let _g = obs.span("run");
        }
        obs.record_span("x", 0, 5);
        obs.counter("c").add(3);
        obs.histogram("h").record(1);
        let t = obs.finish(true);
        assert_eq!(t, RunTelemetry::default());
        assert!(t.is_empty());
        assert_eq!(t.schema_version, 0, "disabled runs are marked versionless");
    }

    #[test]
    fn explicit_spans_from_threads_all_land() {
        let obs = Obs::enabled();
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let obs = &obs;
                s.spawn(move || {
                    let start = obs.now_us();
                    obs.counter("work").inc();
                    obs.record_span(format!("passes/p{i}"), start, obs.now_us());
                });
            }
        });
        let t = obs.finish(true);
        assert_eq!(t.spans_under("passes").count(), 8);
        assert_eq!(t.metrics.counter("work"), Some(8));
        assert!(t.parallel);
        assert!(t.threads >= 1);
    }

    #[test]
    fn render_mentions_spans_and_metrics() {
        let obs = Obs::enabled();
        {
            let _g = obs.span("context");
        }
        obs.counter("context/attacks").add(3);
        obs.gauge("context/workers").set(2);
        obs.histogram("scheduler/wait_us").record(5);
        let t = obs.finish(false);
        let s = t.render();
        assert!(s.contains("serial"));
        assert!(s.contains("context"));
        assert!(s.contains("context/attacks"));
        assert!(s.contains("scheduler/wait_us"));
        assert!(s.contains("total"));
    }
}
