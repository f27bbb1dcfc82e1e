//! Canonical metric and span names shared across crates.
//!
//! The ingest layer lives in `ddos-schema`, which stays free of an
//! `ddos-obs` dependency (telemetry must never be able to perturb
//! decoding); loaders (`ddoslab`, `repro`) record ingest telemetry
//! themselves from the `IngestStats` the decoders return, under the
//! names pinned here so dashboards and snapshot tests agree on
//! spelling.

/// Span covering one binary trace decode (the framed `DDTL` container,
/// the one binary format).
pub const INGEST_FRAME_DECODE: &str = "ingest/frame_decode";
/// Gauge: size in bytes of the last binary trace ingested.
pub const INGEST_BYTES: &str = "ingest/bytes";
/// Histogram: frames per decoded binary trace.
pub const INGEST_FRAMES: &str = "ingest/frames";
/// Gauge: decode workers used by the last binary trace ingest.
pub const INGEST_WORKERS: &str = "ingest/workers";
/// Span covering one CSV attack import.
pub const INGEST_CSV_PARSE: &str = "ingest/csv_parse";
/// Histogram: attack rows per CSV import.
pub const INGEST_CSV_ROWS: &str = "ingest/csv_rows";
/// Counter: faults injected by the `ddos-failpoints` seam that the
/// pipeline surfaced as `Err` (testkit fault suites assert this moves
/// in lockstep with the errors they observe).
pub const FAULTS_INJECTED: &str = "faults/injected";
/// Counter: seeded soak rounds completed by the conformance driver.
pub const SOAK_ROUNDS: &str = "soak/rounds";
/// Histogram: wall micros one variant cell took inside a soak round.
pub const SOAK_CELL_US: &str = "soak/cell_us";
/// Histogram: micros each pass of a pooled scheduler stage waited in
/// the stage's queue, from the stage opening until a worker claimed it
/// (recorded only for stages that ran on more than one worker).
pub const SCHEDULER_WAIT_US: &str = "scheduler/wait_us";
/// Gauge: the most workers any stage of the last pass-scheduler run
/// used, the calling thread included (1 for a serial run); the pass
/// counterpart of the context build's `context/workers`.
pub const SCHEDULER_WORKERS: &str = "scheduler/workers";
/// Span covering one epoch append on the serve writer path (epoch
/// build + merge + pass re-run + snapshot publish).
pub const SERVE_APPEND: &str = "serve/append";
/// Span covering one snapshot query on the serve read path.
pub const SERVE_QUERY: &str = "serve/query";
/// Counter: queries answered from a published snapshot.
pub const SERVE_QUERIES_ANSWERED: &str = "serve/queries_answered";
/// Counter: appends the service rejected because an injected fault
/// surfaced; the published snapshot is untouched by these.
pub const SERVE_APPEND_FAULTS: &str = "serve/append_faults";
/// Gauge: high-water mark of concurrently in-flight queries.
pub const SERVE_INFLIGHT: &str = "serve/inflight";
/// Gauge: the epoch watermark of the currently published snapshot.
pub const SERVE_WATERMARK: &str = "serve/watermark";
/// Histogram: wall micros per snapshot query.
pub const SERVE_QUERY_US: &str = "serve/query_us";
/// Histogram: wall micros per epoch append.
pub const SERVE_APPEND_US: &str = "serve/append_us";
