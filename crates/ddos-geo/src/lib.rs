//! Synthetic geolocation substrate.
//!
//! The paper resolves every bot and victim address through a commercial
//! geolocation service (Digital Envoy's NetAcuity, §II-C) that yields
//! country, city, organization, ASN, and coordinates per IP. That service
//! and its database are proprietary, so this crate provides a faithful
//! *synthetic* replacement:
//!
//! * [`country`] — a registry of 195 countries with ISO 3166-1 alpha-2
//!   codes, approximate centroids, geographic spread, and an
//!   internet-population weight used by the trace generator;
//! * [`geodb`] — a deterministic, seedable world model that synthesizes
//!   cities, organizations, ASNs, and IPv4 prefix allocations per country
//!   and answers `IP → (country, city, org, ASN, lat/lon)` lookups exactly
//!   like the commercial feed;
//! * [`haversine`] — great-circle distances (the paper computes bot-to-
//!   center distances "using Haversine formula", §IV-A);
//! * [`center`] — geographic centers and the paper's **signed dispersion
//!   metric**: the absolute value of the sum of signed distances from each
//!   bot to the population's geographic center, where east/north of the
//!   center counts positive and west/south negative, so a geographically
//!   symmetric botnet scores zero.
//!
//! Determinism matters: the same seed always produces the same world, so
//! experiments are reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod center;
pub mod country;
pub mod geodb;
pub mod haversine;
pub mod reserved;
mod rng;
pub mod trig;

pub use center::{
    dispersion, dispersion_precomp_indexed, dispersion_precomp_indexed_counted,
    dispersion_precomp_indexed_presummed, geographic_center, mean_distance_km, signed_distance_km,
    signed_distance_km_precomp, CenterSum, Dispersion, KernelCounters,
};
pub use country::{CountryInfo, COUNTRIES};
pub use geodb::{CityInfo, GeoConfig, GeoDb, OrgInfo, OrgKind};
pub use haversine::{distance_km, distance_km_precomp, EARTH_RADIUS_KM};
pub use reserved::is_reserved;
pub use trig::{CenterTrig, PointTrig};
