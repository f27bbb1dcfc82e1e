//! Data model for botnet-launched DDoS attack traces.
//!
//! This crate implements the three record schemas the paper's monitoring
//! feed exposes (Table I of the paper):
//!
//! * the **`DDoSattack`** schema — one record per verified attack, carrying
//!   the attack id, the launching botnet, the transport category, the target
//!   and its geolocation, and the start/end timestamps
//!   ([`record::AttackRecord`]);
//! * the **`Botlist`** schema — one record per observed bot IP with its BGP
//!   and GeoIP attribution ([`record::BotRecord`]);
//! * the **`Botnetlist`** schema — one record per botnet generation,
//!   identified by the malware binary hash ([`record::BotnetRecord`]).
//!
//! On top of the raw records it provides:
//!
//! * [`time`] — a minimal civil-time module with the paper's 207-day
//!   observation window (2012-08-29 → 2013-03-24) and day/week/hour
//!   bucketing;
//! * [`snapshot`] — the hourly, 24-hour-cumulative botnet population
//!   snapshots the feed publishes per family;
//! * [`dataset`] — the in-memory container over all three schemas: the
//!   validated records, attacks in start order, read by every analysis;
//! * [`codec`] — the compact binary record encoding (plus JSON via
//!   `serde`) so generated traces can be persisted and shared;
//! * [`framed`] — the one binary trace container (`DDTL` version 2):
//!   sections split into checksummed frames decoded in parallel on
//!   scoped threads;
//! * [`mmap`] — [`Dataset::open`], memory-mapped zero-copy loading of a
//!   trace file;
//! * [`csv`] — a plain-text layout of the attack schema for importing
//!   external data.
//!
//! Everything is plain data: geolocation *semantics* (distance, centers,
//! registries) live in `ddos-geo`, statistics in `ddos-stats`, generation in
//! `ddos-sim`, and the paper's analyses in `ddos-analytics`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod csv;
pub mod dataset;
pub mod error;
pub(crate) mod fail;
pub mod family;
pub mod framed;
pub mod geo;
pub mod hashing;
pub mod ids;
pub mod ip;
pub mod mmap;
pub mod protocol;
pub mod record;
pub mod shard;
pub mod snapshot;
pub mod time;
pub(crate) mod wire;

pub use dataset::{Dataset, DatasetBuilder, DatasetSummary, SummarySets};
pub use error::SchemaError;
pub use family::Family;
pub use framed::IngestStats;
pub use geo::{CountryCode, LatLon};
pub use ids::{Asn, BotnetId, CityId, DdosId, OrgId};
pub use ip::IpAddr4;
pub use protocol::Protocol;
pub use record::{AttackRecord, BotRecord, BotnetRecord, Location};
pub use shard::DatasetShard;
pub use snapshot::{HourlySnapshot, SnapshotSeries};
pub use time::{Seconds, Timestamp, Window};
