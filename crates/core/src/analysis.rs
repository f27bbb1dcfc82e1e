//! The unified entry point: one builder for every way to run the
//! pipeline.
//!
//! A builder names a source (a [`Dataset`], or a prebuilt
//! [`AnalysisContext`] via [`Analysis::over`]), optionally selects an
//! engine (monolithic by default; [`Analysis::epochs`] for
//! one-epoch-at-a-time appends through an [`IncrementalPipeline`]),
//! tunes [`PipelineOptions`] through the same setter names, and runs:
//!
//! ```no_run
//! # use ddos_analytics::prelude::*;
//! # use ddos_sim::{generate, SimConfig};
//! # fn main() -> Result<(), PipelineError> {
//! # let ds = generate(&SimConfig::small()).dataset;
//! let report = Analysis::new(&ds)
//!     .parallel(true)
//!     .epochs(Seconds(7 * 24 * 3600))
//!     .telemetry(true)
//!     .kernels(KernelPolicy::Auto)
//!     .try_run()?;
//! # let _ = report;
//! # Ok(())
//! # }
//! ```
//!
//! Every spelling serializes byte-identically — the golden-report suite
//! runs the testkit's variant lattice of engines, schedulers, job
//! lengths and ingest paths, and the testkit's dataset-scan oracle
//! (`ddos_testkit::baseline_report`), against one committed digest.
//! [`AnalysisReport::run`] stays as the shorthand for the default run.

use ddos_obs::Obs;
use ddos_schema::{Dataset, Seconds};
use ddos_stats::ArimaSpec;

use crate::context::AnalysisContext;
use crate::fault::{self, PipelineError};
use crate::kernels::KernelPolicy;
use crate::pipeline::{self, AnalysisReport, IncrementalPipeline, PipelineOptions};

/// What the builder runs the pipeline over.
enum Source<'d> {
    /// A dataset — the builder picks and drives an engine.
    Dataset(&'d Dataset),
    /// A prebuilt context — only the pass scheduler runs.
    Context(&'d AnalysisContext<'d>),
}

/// The one-stop pipeline builder — see the [module docs](self).
pub struct Analysis<'d> {
    source: Source<'d>,
    /// The epoch length of the epoch engine, or `None` for the one-shot
    /// monolithic context build (the default).
    epochs: Option<Seconds>,
    opts: PipelineOptions,
    obs: Option<&'d Obs>,
}

impl<'d> Analysis<'d> {
    /// Starts a builder over a dataset with the default options
    /// (monolithic engine, parallel, telemetry on, `Auto` kernels).
    pub fn new(ds: &'d Dataset) -> Analysis<'d> {
        Analysis {
            source: Source::Dataset(ds),
            epochs: None,
            opts: PipelineOptions::default(),
            obs: None,
        }
    }

    /// Starts a builder that runs the pass scheduler over a context
    /// built elsewhere (the conformance suites feed the passes a serial
    /// build, a one-attack-per-job build and an epoch fold this way).
    /// The engine selector [`Analysis::epochs`] is incompatible with a
    /// prebuilt context and panics at [`Analysis::try_run`]. Without
    /// [`Analysis::obs`] no telemetry is recorded — the context build,
    /// where most of it lives, already happened.
    pub fn over(ctx: &'d AnalysisContext<'d>) -> Analysis<'d> {
        Analysis {
            source: Source::Context(ctx),
            epochs: None,
            opts: PipelineOptions::default(),
            obs: None,
        }
    }

    /// Replaces the whole option block in one call (the migration path
    /// for callers that already hold a [`PipelineOptions`]).
    pub fn options(mut self, opts: PipelineOptions) -> Analysis<'d> {
        self.opts = opts;
        self
    }

    /// Sets the ARIMA order for the prediction pass.
    pub fn spec(mut self, spec: ArimaSpec) -> Analysis<'d> {
        self.opts = self.opts.spec(spec);
        self
    }

    /// Sets whether the context build, the epoch fold and the pass
    /// scheduler fan out on a worker pool. Report bytes are identical
    /// either way.
    pub fn parallel(mut self, parallel: bool) -> Analysis<'d> {
        self.opts = self.opts.parallel(parallel);
        self
    }

    /// Sets whether spans and metrics are recorded into
    /// [`AnalysisReport::telemetry`]. Ignored when [`Analysis::obs`]
    /// supplies a recorder (its own enabled state wins) and for
    /// [`Analysis::over`] sources without one.
    pub fn telemetry(mut self, telemetry: bool) -> Analysis<'d> {
        self.opts = self.opts.telemetry(telemetry);
        self
    }

    /// Sets the job length of the per-family resolution, which every
    /// context build reads, one-shot or appended (see [`KernelPolicy`]).
    /// Report bytes are identical for every policy.
    pub fn kernels(mut self, kernels: KernelPolicy) -> Analysis<'d> {
        self.opts = self.opts.kernels(kernels);
        self
    }

    /// Records spans and metrics into a caller-supplied [`Obs`] instead
    /// of a run-local recorder — loaders land their ingest telemetry in
    /// the same [`ddos_obs::RunTelemetry`] as the analysis spans this
    /// way. Overrides [`Analysis::telemetry`].
    pub fn obs(mut self, obs: &'d Obs) -> Analysis<'d> {
        self.obs = Some(obs);
        self
    }

    /// Selects the epoch engine with the given epoch length: epochs
    /// append one at a time through an [`IncrementalPipeline`], whose
    /// fold grows in place, and every pass re-runs after each append
    /// that changed the fold. After the last epoch the fold covers the
    /// whole trace, so the report equals the monolithic one.
    pub fn epochs(mut self, epoch_len: Seconds) -> Analysis<'d> {
        self.epochs = Some(epoch_len);
        self
    }

    /// Runs the configured pipeline, panicking on an injected fault —
    /// the common case with no fault plan installed.
    pub fn run(&self) -> AnalysisReport {
        fault::infallible(self.try_run())
    }

    /// Runs the configured pipeline, surfacing `epoch/merge` and
    /// `scheduler/pass` fault injections as `Err` instead of
    /// panicking. The pipeline holds no cross-run state, so retrying
    /// the same builder without the fault plan reproduces the golden
    /// report.
    ///
    /// # Panics
    ///
    /// If [`Analysis::epochs`] was combined with an [`Analysis::over`]
    /// source — a prebuilt context already fixed how the context came
    /// together.
    pub fn try_run(&self) -> Result<AnalysisReport, PipelineError> {
        let owned;
        let obs = match self.obs {
            Some(obs) => obs,
            None => {
                owned = match self.source {
                    // `over` without a recorder keeps the historical
                    // `run_on` contract: no telemetry at all.
                    Source::Context(_) => Obs::disabled(),
                    Source::Dataset(_) if self.opts.telemetry => Obs::enabled(),
                    Source::Dataset(_) => Obs::disabled(),
                };
                &owned
            }
        };
        match self.source {
            Source::Context(ctx) => {
                assert!(
                    self.epochs.is_none(),
                    "Analysis::over(..) runs the pass scheduler over a prebuilt context; \
                     the epoch engine (.epochs) needs a Dataset source (Analysis::new)"
                );
                pipeline::run_over(ctx, self.opts.parallel, obs)
            }
            Source::Dataset(ds) => match self.epochs {
                None => pipeline::run_monolithic(ds, self.opts, obs),
                Some(len) => {
                    IncrementalPipeline::with_obs(ds, self.opts, len, obs).try_into_report()
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset};
    use ddos_schema::Family;

    fn tiny() -> Dataset {
        dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 600, 1),
            attack(Family::Pandora, 2, 120, 700, 1),
            attack(Family::Dirtjumper, 3, 5_000, 900, 2),
        ])
    }

    #[test]
    fn every_engine_spelling_matches_the_batch_report() {
        let ds = tiny();
        let json = |r: &AnalysisReport| serde_json::to_string(r).unwrap();
        let batch = json(&Analysis::new(&ds).run());
        assert_eq!(batch, json(&Analysis::new(&ds).parallel(false).run()));
        assert_eq!(batch, json(&Analysis::new(&ds).telemetry(false).run()));
        assert_eq!(
            batch,
            json(&Analysis::new(&ds).epochs(Seconds(1_000)).run())
        );
        assert_eq!(
            batch,
            json(&Analysis::new(&ds).kernels(KernelPolicy::Chunked(1)).run())
        );
    }

    #[test]
    fn over_runs_the_scheduler_without_telemetry() {
        let ds = tiny();
        let ctx = AnalysisContext::new(&ds);
        let report = Analysis::over(&ctx).parallel(false).run();
        assert!(report.telemetry.is_empty());
        let json = |r: &AnalysisReport| serde_json::to_string(r).unwrap();
        assert_eq!(json(&report), json(&Analysis::new(&ds).run()));
    }

    #[test]
    #[should_panic(expected = "prebuilt context")]
    fn engine_selectors_reject_a_prebuilt_context() {
        let ds = tiny();
        let ctx = AnalysisContext::new(&ds);
        let _ = Analysis::over(&ctx).epochs(Seconds(1_000)).try_run();
    }

    #[test]
    fn shared_obs_carries_caller_spans_into_the_telemetry() {
        let ds = tiny();
        let obs = Obs::enabled();
        {
            let _span = obs.span("caller/load");
        }
        let report = Analysis::new(&ds).obs(&obs).run();
        assert!(report.telemetry.span("caller/load").is_some());
        assert!(report.telemetry.span("context").is_some());
    }
}
