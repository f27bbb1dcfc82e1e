//! `ddos-analytics` — the paper's DDoS characterization and analysis
//! pipeline.
//!
//! This crate is the primary contribution of the reproduced paper: given
//! a seven-month attack trace in the feed's schemas (a
//! [`ddos_schema::Dataset`]), it computes every characterization the
//! paper reports:
//!
//! | Paper section | Module | Artifacts |
//! |---|---|---|
//! | §II-D, §III overview | [`overview`] | Fig. 1–7, Table II |
//! | Table III | [`summary`] | workload summary |
//! | §IV-A source analysis | [`source`] | Fig. 8–13, Table IV |
//! | §IV-B target analysis | [`target`] | Table V, Fig. 14 |
//! | §V collaborations | [`collab`] | Table VI, Fig. 15–18 |
//! | abstract finding 2 | [`target::recurrence`] | next-attack start prediction |
//! | "insight into defenses" | [`defense`] | blacklist & latency simulations |
//!
//! [`Analysis`] is the one entry point: a builder that names a dataset,
//! picks an engine (monolithic, epoch-folded, incremental, or the
//! pre-refactor baseline), and runs — every spelling serializes
//! byte-identically. The `ddos-report` crate renders the results as the
//! paper's tables and figure series, the `ddos-serve` crate keeps an
//! [`IncrementalPipeline`] resident and answers snapshot-isolated
//! queries while epochs append, and the `bench` crate regenerates each
//! artifact individually.
//!
//! The analyses are *pure*: they read the dataset (plus the shared joins
//! built once in [`context`]) and never mutate it. The pass-based
//! pipeline exploits this: [`passes`] registers every report section as
//! a named pass over the [`context::AnalysisContext`] and schedules the
//! independent ones on scoped threads, with a guarantee that the
//! parallel report serializes byte-identically to the serial one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod collab;
pub mod columnar;
pub mod context;
pub mod defense;
pub mod epoch;
pub mod fault;
pub mod kernels;
pub mod overview;
pub mod passes;
pub mod pipeline;
pub mod preprocess;
pub mod source;
pub mod summary;
pub mod target;
pub mod util;

pub use analysis::Analysis;
pub use columnar::{BotTable, SourceTable, NO_BOT};
pub use context::AnalysisContext;
pub use epoch::{AppendDelta, EpochContext, StreamFold};
pub use fault::PipelineError;
pub use kernels::KernelPolicy;
pub use pipeline::{AnalysisReport, AppendStats, IncrementalPipeline, PipelineOptions};

/// The handful of names every pipeline consumer needs:
/// `use ddos_analytics::prelude::*;` and go.
pub mod prelude {
    pub use crate::analysis::Analysis;
    pub use crate::context::AnalysisContext;
    pub use crate::epoch::StreamFold;
    pub use crate::fault::PipelineError;
    pub use crate::kernels::KernelPolicy;
    pub use crate::pipeline::{AnalysisReport, AppendStats, IncrementalPipeline, PipelineOptions};
    pub use ddos_obs::Obs;
    pub use ddos_schema::{Dataset, Seconds};
    pub use ddos_stats::ArimaSpec;
}
