//! The variant lattice: every way the workspace can compute a report.
//!
//! A [`Cell`] fixes one point on four axes — how the dataset is
//! ingested, how the analysis context is built (the monolithic build,
//! the dataset-scan oracle [`crate::baseline_report`], or the epoch
//! engine's incremental appends), how the pass scheduler runs, and
//! which job-length [`KernelPolicy`] the context build uses.
//! [`Cell::run`] executes that exact combination; the conformance
//! driver then asserts every cell of a matrix serializes to the same
//! bytes.
//!
//! [`matrix`] is the curated coverage set (every axis value exercised)
//! that `tests/golden_report.rs` pins against the committed golden
//! digest; [`matrix_full`] is the exhaustive cross product the soak
//! loop can opt into. Every context build reads the kernel policy: the
//! monolithic build is one append of a one-epoch fold, and the epoch
//! engine's appends cut their family jobs by the same rule. The lattice
//! crosses only the monolithic build with it, so an incremental cell
//! would run the same job cut on smaller epochs.

use std::fmt;

use ddos_analytics::{Analysis, AnalysisReport, KernelPolicy, PipelineError};
use ddos_schema::{framed, Dataset, SchemaError, Seconds};
use ddos_stats::ArimaSpec;

/// How the dataset reaches the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// Analyze the in-memory dataset as-is.
    Native,
    /// Round-trip through the framed v2 container with an explicit
    /// frame length and decode worker count.
    V2RoundTrip {
        /// Records per frame at encode time (1 maximizes seams).
        frame_len: usize,
        /// Decode workers (1 pins the serial fast path).
        workers: usize,
    },
    /// Write the framed v2 container to disk and memory-map it back
    /// through `Dataset::open`.
    V2Mmap,
}

/// How the analysis context comes together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Build {
    /// One-shot context build (the `Analysis` builder's default).
    Monolithic,
    /// The dataset-scan oracle ([`crate::baseline_report`]); ignores
    /// the scheduler and kernel axes by construction.
    Baseline,
    /// One-epoch-at-a-time appends through the epoch engine
    /// (`Analysis::epochs`).
    Incremental {
        /// Epoch length in seconds.
        epoch_len_s: i64,
    },
}

/// Pass scheduler mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Passes run one after another in registry order.
    Serial,
    /// Stages fan out on crossbeam scoped threads.
    Parallel,
}

/// One point of the variant lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Ingest axis.
    pub ingest: Ingest,
    /// Context-build axis.
    pub build: Build,
    /// Scheduler axis.
    pub scheduler: Scheduler,
    /// Job-length axis, crossed with the monolithic build only.
    pub kernels: KernelPolicy,
}

/// What a cell run can fail with: the ingest layer's error or the
/// pipeline's (only reachable under an installed `FailPlan`).
#[derive(Debug)]
pub enum CellError {
    /// Ingest (framed decode or mmap) failure.
    Schema(SchemaError),
    /// Pipeline (scheduler/epoch fold) failure.
    Pipeline(PipelineError),
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Schema(e) => write!(f, "ingest: {e}"),
            CellError::Pipeline(e) => write!(f, "pipeline: {e}"),
        }
    }
}

impl std::error::Error for CellError {}

impl From<SchemaError> for CellError {
    fn from(e: SchemaError) -> Self {
        CellError::Schema(e)
    }
}

impl From<PipelineError> for CellError {
    fn from(e: PipelineError) -> Self {
        CellError::Pipeline(e)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ingest = match self.ingest {
            Ingest::Native => "native".to_string(),
            Ingest::V2RoundTrip { frame_len, workers } => {
                format!("v2(frame={frame_len},workers={workers})")
            }
            Ingest::V2Mmap => "v2-mmap".to_string(),
        };
        let build = match self.build {
            Build::Monolithic => "monolithic".to_string(),
            Build::Baseline => "baseline".to_string(),
            Build::Incremental { epoch_len_s } => format!("incremental({epoch_len_s}s)"),
        };
        let sched = match self.scheduler {
            Scheduler::Serial => "serial",
            Scheduler::Parallel => "parallel",
        };
        write!(f, "{ingest} | {build} | {sched} | {:?}", self.kernels)
    }
}

impl Cell {
    /// A short stable label (the `Display` form).
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Runs this cell, panicking on error — the common case for
    /// conformance tests with no fault plan installed.
    pub fn run(&self, ds: &Dataset) -> AnalysisReport {
        self.try_run(ds)
            .unwrap_or_else(|e| panic!("cell `{self}` failed: {e}"))
    }

    /// Runs this cell, surfacing ingest and pipeline errors (which only
    /// occur under an installed `FailPlan`) instead of panicking.
    pub fn try_run(&self, ds: &Dataset) -> Result<AnalysisReport, CellError> {
        let ingested;
        let ds = match self.ingest {
            Ingest::Native => ds,
            Ingest::V2RoundTrip { frame_len, workers } => {
                let bytes = framed::encode_with(ds, frame_len);
                ingested = framed::decode_with_workers(&bytes, workers)?.0;
                &ingested
            }
            Ingest::V2Mmap => {
                let path = crate::temp_trace_path("mmap");
                std::fs::write(&path, framed::encode(ds))
                    .map_err(|e| SchemaError::Io(format!("{}: {e}", path.display())))?;
                let opened = Dataset::open(&path);
                let _ = std::fs::remove_file(&path);
                ingested = opened?;
                &ingested
            }
        };
        let parallel = matches!(self.scheduler, Scheduler::Parallel);
        let base = || Analysis::new(ds).parallel(parallel).kernels(self.kernels);
        let report = match self.build {
            Build::Monolithic => base().try_run()?,
            Build::Baseline => crate::baseline_report(ds, ArimaSpec::DEFAULT),
            Build::Incremental { epoch_len_s } => base().epochs(Seconds(epoch_len_s)).try_run()?,
        };
        Ok(report)
    }
}

/// Default cell: the pipeline exactly as `AnalysisReport::run` runs it.
pub const NATIVE_PARALLEL: Cell = Cell {
    ingest: Ingest::Native,
    build: Build::Monolithic,
    scheduler: Scheduler::Parallel,
    kernels: KernelPolicy::Auto,
};

const WEEK_S: i64 = 7 * 24 * 3600;
/// An epoch length that divides nothing evenly — exercises ragged
/// shard boundaries the same way the golden suite always has.
const ODD_EPOCH_S: i64 = 100_000;

const BUILDS: [Build; 2] = [
    Build::Monolithic,
    Build::Incremental {
        epoch_len_s: WEEK_S,
    },
];

/// The job lengths the monolithic build runs under: one job per worker,
/// one per attack, and a length that divides nothing evenly.
const KERNELS: [KernelPolicy; 3] = [
    KernelPolicy::Auto,
    KernelPolicy::Chunked(1),
    KernelPolicy::Chunked(3),
];

const INGESTS: [Ingest; 3] = [
    Ingest::V2RoundTrip {
        frame_len: 1,
        workers: 4,
    },
    Ingest::V2RoundTrip {
        frame_len: framed::DEFAULT_FRAME_LEN,
        workers: 1,
    },
    Ingest::V2Mmap,
];

/// A native-ingest cell.
fn native(build: Build, scheduler: Scheduler, kernels: KernelPolicy) -> Cell {
    Cell {
        ingest: Ingest::Native,
        build,
        scheduler,
        kernels,
    }
}

/// The curated coverage matrix: 13 cells touching every value of every
/// axis, cheap enough for `cargo test` on every push.
///
/// * the monolithic build under every job length (scheduler
///   alternating), and weekly incremental appends under both
///   schedulers, on the native dataset — 5 cells;
/// * every non-native ingest × both schedulers on the default
///   build/kernels — 6 cells;
/// * the dataset-scan baseline and incremental appends of a ragged
///   epoch length — 2 more.
pub fn matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    for build in BUILDS {
        if build == Build::Monolithic {
            for (j, &kernels) in KERNELS.iter().enumerate() {
                let scheduler = if j % 2 == 0 {
                    Scheduler::Serial
                } else {
                    Scheduler::Parallel
                };
                cells.push(native(build, scheduler, kernels));
            }
        } else {
            for scheduler in [Scheduler::Serial, Scheduler::Parallel] {
                cells.push(native(build, scheduler, KernelPolicy::Auto));
            }
        }
    }
    for &ingest in &INGESTS {
        for scheduler in [Scheduler::Serial, Scheduler::Parallel] {
            cells.push(Cell {
                ingest,
                build: Build::Monolithic,
                scheduler,
                kernels: KernelPolicy::Auto,
            });
        }
    }
    cells.push(native(
        Build::Baseline,
        Scheduler::Serial,
        KernelPolicy::Auto,
    ));
    cells.push(native(
        Build::Incremental {
            epoch_len_s: ODD_EPOCH_S,
        },
        Scheduler::Serial,
        KernelPolicy::Auto,
    ));
    cells
}

/// The exhaustive lattice: every ingest × every build × both
/// schedulers, with the monolithic build also × every job length (plus
/// one baseline per ingest): 36 cells. Soak rounds opt into this; it is
/// too slow for per-push CI.
pub fn matrix_full() -> Vec<Cell> {
    let mut cells = Vec::new();
    let ingests = [Ingest::Native]
        .into_iter()
        .chain(INGESTS)
        .collect::<Vec<_>>();
    for &ingest in &ingests {
        for &build in &BUILDS {
            let kernels: &[KernelPolicy] = if build == Build::Monolithic {
                &KERNELS
            } else {
                &[KernelPolicy::Auto]
            };
            for scheduler in [Scheduler::Serial, Scheduler::Parallel] {
                for &kernels in kernels {
                    cells.push(Cell {
                        ingest,
                        build,
                        scheduler,
                        kernels,
                    });
                }
            }
        }
        cells.push(Cell {
            ingest,
            build: Build::Baseline,
            scheduler: Scheduler::Serial,
            kernels: KernelPolicy::Auto,
        });
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_meets_the_coverage_floor() {
        let cells = matrix();
        assert!(cells.len() >= 13, "matrix has {} cells", cells.len());
        // Every axis value appears somewhere.
        assert!(cells.iter().any(|c| c.ingest == Ingest::Native));
        assert!(cells.iter().any(|c| c.ingest == Ingest::V2Mmap));
        assert!(cells
            .iter()
            .any(|c| matches!(c.ingest, Ingest::V2RoundTrip { workers: 1, .. })));
        assert!(cells
            .iter()
            .any(|c| matches!(c.ingest, Ingest::V2RoundTrip { workers: 4, .. })));
        for build in BUILDS {
            assert!(cells.iter().any(|c| c.build == build), "missing {build:?}");
        }
        assert!(cells.iter().any(|c| c.build == Build::Baseline));
        for kernels in KERNELS {
            assert!(cells
                .iter()
                .any(|c| c.build == Build::Monolithic && c.kernels == kernels));
        }
        // The job cut is one rule for every build; the lattice crosses
        // it with the monolithic build only.
        assert!(cells
            .iter()
            .all(|c| c.build == Build::Monolithic || c.kernels == KernelPolicy::Auto));
        for scheduler in [Scheduler::Serial, Scheduler::Parallel] {
            assert!(cells.iter().any(|c| c.scheduler == scheduler));
        }
        // Labels are unique — a failure names exactly one cell.
        let mut labels: Vec<String> = cells.iter().map(Cell::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cells.len(), "duplicate cell labels");
    }

    #[test]
    fn full_matrix_is_a_superset_scale() {
        let full = matrix_full();
        // Every curated cell except the ragged epoch length is in the
        // exhaustive lattice.
        for cell in matrix() {
            if cell.build
                != (Build::Incremental {
                    epoch_len_s: ODD_EPOCH_S,
                })
            {
                assert!(full.contains(&cell), "full lattice lacks `{cell}`");
            }
        }
        // Exactly the cross product. Per ingest (native and the three
        // framed round trips): the monolithic build under both
        // schedulers × every job length, weekly appends under both
        // schedulers, and one baseline — 4 × 9 = 36 cells.
        let per_ingest = 2 * KERNELS.len() + 2 + 1;
        assert_eq!(full.len(), (1 + INGESTS.len()) * per_ingest);
    }
}
