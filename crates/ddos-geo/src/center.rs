//! Geographic centers and the paper's signed dispersion metric.
//!
//! §IV-A of the paper: *"First, we find the geological center point of the
//! various locations of IP addresses at any time. Then, we calculate the
//! distance between each bot and this center point (using Haversine
//! formula), and add the distances together. In our analysis, the distance
//! has a sign to indicate direction: positive indicates east or north, and
//! negative indicates west and south. For simplicity, we consider the
//! absolute value of the sum of all distances; a sum of zero means that
//! participating bots are geographically symmetric."*
//!
//! The sign rule as stated is ambiguous for the northwest and southeast
//! quadrants; we resolve it deterministically: the sign is taken from the
//! **longitude** offset when the point is not due north/south of the
//! center, and from the latitude offset otherwise. This preserves the
//! property the paper relies on — east/west-symmetric populations cancel
//! to zero — and is documented here so results are reproducible.

use std::sync::atomic::{AtomicU64, Ordering};

use ddos_schema::LatLon;
use serde::{Deserialize, Serialize};

use crate::haversine::{distance_km, distance_km_precomp};
use crate::trig::{CenterTrig, PointTrig};

/// Geographic center (spherical centroid) of a set of points.
///
/// Computed as the normalized mean of the 3-D unit vectors of all points.
/// Returns `None` for an empty set or when the vectors cancel exactly
/// (e.g. two antipodal points), in which case no meaningful center exists.
pub fn geographic_center(points: &[LatLon]) -> Option<LatLon> {
    if points.is_empty() {
        return None;
    }
    let (mut x, mut y, mut z) = (0.0f64, 0.0f64, 0.0f64);
    for pnt in points {
        let lat = pnt.lat_rad();
        let lon = pnt.lon_rad();
        x += lat.cos() * lon.cos();
        y += lat.cos() * lon.sin();
        z += lat.sin();
    }
    let n = points.len() as f64;
    let (x, y, z) = (x / n, y / n, z / n);
    let norm = (x * x + y * y + z * z).sqrt();
    if norm < 1e-12 {
        return None;
    }
    let lat = (z / norm).clamp(-1.0, 1.0).asin().to_degrees();
    let lon = y.atan2(x).to_degrees();
    Some(LatLon::new_unchecked(lat.clamp(-90.0, 90.0), lon))
}

/// Signed haversine distance from `center` to `point`, in kilometers.
///
/// The magnitude is the great-circle distance; the sign follows the
/// paper's convention (positive = east/north of the center, negative =
/// west/south), resolved by longitude first and latitude on ties. Exactly
/// coincident points yield `+0.0`.
pub fn signed_distance_km(center: LatLon, point: LatLon) -> f64 {
    let d = distance_km(center, point);
    // Longitude offset normalized to (-180, 180].
    let mut dlon = point.lon - center.lon;
    if dlon > 180.0 {
        dlon -= 360.0;
    } else if dlon <= -180.0 {
        dlon += 360.0;
    }
    let sign = if dlon.abs() > 1e-9 {
        dlon.signum()
    } else {
        let dlat = point.lat - center.lat;
        if dlat.abs() > 1e-9 {
            dlat.signum()
        } else {
            1.0
        }
    };
    sign * d
}

/// [`signed_distance_km`] over precomputed trigonometry.
///
/// Magnitude from [`distance_km_precomp`]; the sign rule reads the
/// cached degree fields, evaluating exactly the scalar expressions.
#[inline]
pub fn signed_distance_km_precomp(center: &CenterTrig, point: &PointTrig) -> f64 {
    let d = distance_km_precomp(center, point);
    // Longitude offset normalized to (-180, 180].
    let mut dlon = point.lon - center.lon;
    if dlon > 180.0 {
        dlon -= 360.0;
    } else if dlon <= -180.0 {
        dlon += 360.0;
    }
    let sign = if dlon.abs() > 1e-9 {
        dlon.signum()
    } else {
        let dlat = point.lat - center.lat;
        if dlat.abs() > 1e-9 {
            dlat.signum()
        } else {
            1.0
        }
    };
    sign * d
}

/// Plain (unsigned) mean distance from the center, in kilometers.
///
/// Not the paper's metric — kept for the ablation bench that contrasts
/// the signed-sum dispersion (which has a zero mode for symmetric
/// populations, Fig. 9) against a conventional spread measure (which does
/// not).
pub fn mean_distance_km(points: &[LatLon]) -> Option<f64> {
    let center = geographic_center(points)?;
    let sum: f64 = points.iter().map(|&p| distance_km(center, p)).sum();
    Some(sum / points.len() as f64)
}

/// Result of the paper's dispersion computation over one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dispersion {
    /// Geographic center of the population.
    pub center: LatLon,
    /// Raw signed sum of distances (kilometers; cancels for symmetric
    /// populations).
    pub signed_sum_km: f64,
    /// Number of points that contributed.
    pub count: usize,
}

impl Dispersion {
    /// The paper's headline value: `|signed_sum_km|`.
    #[inline]
    pub fn value(&self) -> f64 {
        self.signed_sum_km.abs()
    }
}

/// Computes the paper's dispersion metric for a set of bot locations.
///
/// Returns `None` when no center exists (empty or degenerate set).
pub fn dispersion(points: &[LatLon]) -> Option<Dispersion> {
    let center = geographic_center(points)?;
    let signed_sum_km: f64 = points.iter().map(|&p| signed_distance_km(center, p)).sum();
    Some(Dispersion {
        center,
        signed_sum_km,
        count: points.len(),
    })
}

/// [`dispersion`] over *rows of a shared trig column* — the hot kernel
/// of the analysis context build: `rows[i]` indexes `col`, and the
/// computation visits rows in list order. One snapshot costs one center
/// pass plus one signed-distance pass over the rows; all per-point
/// trigonometry comes from the cache, and no `PointTrig` buffer is
/// gathered per snapshot.
///
/// Bit-identical to `dispersion(&rows.map(|r| col[r].point()))`: the
/// center accumulation, the per-point distances, and the signed sum all
/// evaluate the scalar kernels' exact expressions in the same order
/// (the property tests below assert this on arbitrary point sets and
/// row lists).
///
/// # Panics
/// If any row index is out of bounds for `col`.
pub fn dispersion_precomp_indexed(col: &[PointTrig], rows: &[u32]) -> Option<Dispersion> {
    let mut sum = CenterSum::default();
    for &r in rows {
        sum.push(&col[r as usize]);
    }
    finish_presummed(col, rows, sum)
}

/// Running three-component center sum — the first pass of
/// [`dispersion_precomp_indexed`] exposed as a fold, so a caller can
/// fuse it element-for-element with another sweep over the same rows
/// (the analysis context's family resolver folds its weekly-population
/// stamping into the same loop). Push order must be row-list order;
/// [`dispersion_precomp_indexed_presummed`] then consumes the sum with
/// the one-call kernel's exact expressions, so a fused caller stays
/// bit-identical to the one-call path.
#[derive(Debug, Default, Clone, Copy)]
pub struct CenterSum {
    x: f64,
    y: f64,
    z: f64,
}

impl CenterSum {
    /// Folds one point into the center sum.
    #[inline]
    pub fn push(&mut self, p: &PointTrig) {
        self.x += p.cos_lat * p.cos_lon;
        self.y += p.cos_lat * p.sin_lon;
        self.z += p.sin_lat;
    }
}

/// The shared second half of the indexed kernels: resolve the center
/// from the folded sum, then the signed-distance pass over the rows.
fn finish_presummed(col: &[PointTrig], rows: &[u32], sum: CenterSum) -> Option<Dispersion> {
    if rows.is_empty() {
        return None;
    }
    let n = rows.len() as f64;
    let (x, y, z) = (sum.x / n, sum.y / n, sum.z / n);
    let norm = (x * x + y * y + z * z).sqrt();
    if norm < 1e-12 {
        return None;
    }
    let lat = (z / norm).clamp(-1.0, 1.0).asin().to_degrees();
    let lon = y.atan2(x).to_degrees();
    let center = LatLon::new_unchecked(lat.clamp(-90.0, 90.0), lon);
    let ct = CenterTrig::new(center);
    let mut signed_sum_km = 0.0f64;
    for &r in rows {
        signed_sum_km += signed_distance_km_precomp(&ct, &col[r as usize]);
    }
    Some(Dispersion {
        center,
        signed_sum_km,
        count: rows.len(),
    })
}

/// Relaxed-atomic tallies of dispersion-kernel work, safe to share
/// across the context build's worker threads. An observability layer
/// (the pipeline's `ddos-obs` run telemetry) folds these into its
/// metrics after the build; the kernels themselves never read them, so
/// counting cannot perturb a result.
#[derive(Debug, Default)]
pub struct KernelCounters {
    snapshots: AtomicU64,
    points: AtomicU64,
    degenerate: AtomicU64,
}

impl KernelCounters {
    /// Snapshot evaluations tallied so far.
    pub fn snapshots(&self) -> u64 {
        self.snapshots.load(Ordering::Relaxed)
    }

    /// Point (bot-participation) reads tallied so far.
    pub fn points(&self) -> u64 {
        self.points.load(Ordering::Relaxed)
    }

    /// Snapshots that produced no dispersion (empty or degenerate set).
    pub fn degenerate(&self) -> u64 {
        self.degenerate.load(Ordering::Relaxed)
    }
}

/// [`dispersion_precomp_indexed`] with work tallied into `counters` —
/// two relaxed atomic adds per snapshot (three for the degenerate
/// case), cheap enough for the hot path. The returned value is the
/// uncounted kernel's verbatim.
#[inline]
pub fn dispersion_precomp_indexed_counted(
    col: &[PointTrig],
    rows: &[u32],
    counters: &KernelCounters,
) -> Option<Dispersion> {
    counters.snapshots.fetch_add(1, Ordering::Relaxed);
    counters
        .points
        .fetch_add(rows.len() as u64, Ordering::Relaxed);
    let d = dispersion_precomp_indexed(col, rows);
    if d.is_none() {
        counters.degenerate.fetch_add(1, Ordering::Relaxed);
    }
    d
}

/// [`dispersion_precomp_indexed_counted`] for a caller that already
/// folded the center pass into its own sweep over `rows` (as a
/// [`CenterSum`]): runs the remaining center resolution and the
/// signed-distance pass, tallying the same counters. Bit-identical to
/// the one-call kernel when the sum was pushed in row-list order.
pub fn dispersion_precomp_indexed_presummed(
    col: &[PointTrig],
    rows: &[u32],
    sum: CenterSum,
    counters: &KernelCounters,
) -> Option<Dispersion> {
    counters.snapshots.fetch_add(1, Ordering::Relaxed);
    counters
        .points
        .fetch_add(rows.len() as u64, Ordering::Relaxed);
    let d = finish_presummed(col, rows, sum);
    if d.is_none() {
        counters.degenerate.fetch_add(1, Ordering::Relaxed);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(lat: f64, lon: f64) -> LatLon {
        LatLon::new(lat, lon).unwrap()
    }

    #[test]
    fn center_of_empty_is_none() {
        assert!(geographic_center(&[]).is_none());
        assert!(dispersion(&[]).is_none());
        assert!(mean_distance_km(&[]).is_none());
    }

    #[test]
    fn center_of_single_point_is_itself() {
        let moscow = p(55.7558, 37.6173);
        let c = geographic_center(&[moscow]).unwrap();
        assert!(distance_km(c, moscow) < 0.01);
    }

    #[test]
    fn center_of_symmetric_pair_is_midpoint() {
        let a = p(10.0, 20.0);
        let b = p(10.0, 40.0);
        let c = geographic_center(&[a, b]).unwrap();
        assert!((c.lon - 30.0).abs() < 0.1, "lon {}", c.lon);
        // Great-circle midpoint of an east-west pair bulges poleward of
        // the parallel, so only check it stays between the longitudes.
        assert!(c.lat > 9.9, "lat {}", c.lat);
    }

    #[test]
    fn antipodal_pair_has_no_center() {
        assert!(geographic_center(&[p(0.0, 90.0), p(0.0, -90.0)]).is_none());
    }

    #[test]
    fn signed_distance_signs() {
        let center = p(50.0, 30.0);
        assert!(signed_distance_km(center, p(50.0, 40.0)) > 0.0, "east");
        assert!(signed_distance_km(center, p(50.0, 20.0)) < 0.0, "west");
        assert!(signed_distance_km(center, p(60.0, 30.0)) > 0.0, "north");
        assert!(signed_distance_km(center, p(40.0, 30.0)) < 0.0, "south");
        assert_eq!(signed_distance_km(center, center), 0.0);
    }

    #[test]
    fn signed_distance_wraps_dateline() {
        let center = p(0.0, 179.0);
        // 179E -> -179 (181E) is 2 degrees *east* across the dateline.
        assert!(signed_distance_km(center, p(0.0, -179.0)) > 0.0);
        assert!(signed_distance_km(center, p(0.0, 177.0)) < 0.0);
    }

    #[test]
    fn symmetric_population_cancels_to_zero() {
        // Four points symmetric east-west around 30E on the equator-ish
        // parallel: the signed contributions cancel.
        let pts = [p(20.0, 20.0), p(20.0, 40.0), p(25.0, 25.0), p(25.0, 35.0)];
        let d = dispersion(&pts).unwrap();
        assert!(d.value() < 30.0, "signed sum {}", d.signed_sum_km);
        // The conventional mean distance is decidedly non-zero.
        let mean = mean_distance_km(&pts).unwrap();
        assert!(mean > 300.0, "mean distance {mean}");
    }

    #[test]
    fn lopsided_population_scores_high() {
        // The signed sum cancels to first order around the centroid, so
        // large dispersions need the *latitude* component of the distance
        // to correlate with the east/west sign — here an east-west pair
        // straddles the center while a third point sits far due north
        // (sign from latitude, full magnitude counted).
        let pts = [p(0.0, 0.0), p(0.0, 10.0), p(40.0, 5.0)];
        let d = dispersion(&pts).unwrap();
        assert!(d.value() > 1_500.0, "dispersion {}", d.value());
    }

    #[test]
    fn dispersion_counts_points() {
        let pts = [p(1.0, 1.0), p(2.0, 2.0), p(3.0, 3.0)];
        assert_eq!(dispersion(&pts).unwrap().count, 3);
    }

    #[test]
    fn counted_kernel_is_verbatim_and_tallies() {
        let col: Vec<PointTrig> = [p(10.0, 20.0), p(-5.0, 40.0), p(55.0, 37.0)]
            .iter()
            .map(|&q| PointTrig::new(q))
            .collect();
        let counters = KernelCounters::default();
        let rows = [0u32, 2, 1, 0];
        let counted = dispersion_precomp_indexed_counted(&col, &rows, &counters);
        let plain = dispersion_precomp_indexed(&col, &rows);
        assert_eq!(
            counted.map(|d| d.signed_sum_km.to_bits()),
            plain.map(|d| d.signed_sum_km.to_bits())
        );
        assert_eq!(counters.snapshots(), 1);
        assert_eq!(counters.points(), 4);
        assert_eq!(counters.degenerate(), 0);
        // Empty row list: degenerate, still one snapshot, zero points.
        assert!(dispersion_precomp_indexed_counted(&col, &[], &counters).is_none());
        assert_eq!(counters.snapshots(), 2);
        assert_eq!(counters.points(), 4);
        assert_eq!(counters.degenerate(), 1);
    }

    proptest! {
        #[test]
        fn center_minimizes_roughly(lats in proptest::collection::vec(-60.0f64..60.0, 2..20),
                                    lons in proptest::collection::vec(-60.0f64..60.0, 2..20)) {
            let n = lats.len().min(lons.len());
            let pts: Vec<LatLon> = (0..n).map(|i| p(lats[i], lons[i])).collect();
            let c = geographic_center(&pts).unwrap();
            // Every point is within the max pairwise distance of the center.
            let max_pair = pts.iter().flat_map(|a| pts.iter().map(move |b| distance_km(*a, *b)))
                .fold(0.0f64, f64::max);
            for q in &pts {
                prop_assert!(distance_km(c, *q) <= max_pair + 1e-6);
            }
        }

        #[test]
        fn precomp_dispersion_is_bit_identical(
            lats in proptest::collection::vec(-90.0f64..=90.0, 0..40),
            lons in proptest::collection::vec(-180.0f64..=180.0, 0..40),
        ) {
            let n = lats.len().min(lons.len());
            let pts: Vec<LatLon> = (0..n).map(|i| p(lats[i], lons[i])).collect();
            let trig: Vec<PointTrig> = pts.iter().map(|&q| PointTrig::new(q)).collect();
            let rows: Vec<u32> = (0..n as u32).collect();
            let scalar = dispersion(&pts);
            let cached = dispersion_precomp_indexed(&trig, &rows);
            prop_assert_eq!(
                geographic_center(&pts).map(|c| (c.lat.to_bits(), c.lon.to_bits())),
                cached.map(|d| (d.center.lat.to_bits(), d.center.lon.to_bits()))
            );
            prop_assert_eq!(scalar.is_some(), cached.is_some());
            if let (Some(s), Some(c)) = (scalar, cached) {
                prop_assert_eq!(s.signed_sum_km.to_bits(), c.signed_sum_km.to_bits());
                prop_assert_eq!(s.center.lat.to_bits(), c.center.lat.to_bits());
                prop_assert_eq!(s.center.lon.to_bits(), c.center.lon.to_bits());
                prop_assert_eq!(s.count, c.count);
            }
        }

        #[test]
        fn indexed_dispersion_is_bit_identical(
            lats in proptest::collection::vec(-90.0f64..=90.0, 1..24),
            lons in proptest::collection::vec(-180.0f64..=180.0, 1..24),
            picks in proptest::collection::vec(0usize..1024, 0..64),
        ) {
            // A column of distinct points and an arbitrary row list
            // (duplicates and any order allowed).
            let n = lats.len().min(lons.len());
            let pts: Vec<LatLon> = (0..n).map(|i| p(lats[i], lons[i])).collect();
            let col: Vec<PointTrig> = pts.iter().map(|&q| PointTrig::new(q)).collect();
            let rows: Vec<u32> = picks.iter().map(|&k| (k % n) as u32).collect();
            let gathered: Vec<LatLon> = rows.iter().map(|&r| pts[r as usize]).collect();
            let a = dispersion(&gathered);
            let b = dispersion_precomp_indexed(&col, &rows);
            prop_assert_eq!(a.is_some(), b.is_some());
            if let (Some(a), Some(b)) = (a, b) {
                prop_assert_eq!(a.signed_sum_km.to_bits(), b.signed_sum_km.to_bits());
                prop_assert_eq!(a.center.lat.to_bits(), b.center.lat.to_bits());
                prop_assert_eq!(a.center.lon.to_bits(), b.center.lon.to_bits());
                prop_assert_eq!(a.count, b.count);
            }
        }

        #[test]
        fn precomp_signed_distance_is_bit_identical(
            lat1 in -90.0f64..=90.0, lon1 in -180.0f64..=180.0,
            lat2 in -90.0f64..=90.0, lon2 in -180.0f64..=180.0,
        ) {
            let center = p(lat1, lon1);
            let point = p(lat2, lon2);
            let scalar = signed_distance_km(center, point);
            let cached =
                signed_distance_km_precomp(&CenterTrig::new(center), &PointTrig::new(point));
            prop_assert_eq!(scalar.to_bits(), cached.to_bits());
        }

        #[test]
        fn mirrored_points_are_symmetric(lat in -60.0f64..60.0, lon in 1.0f64..60.0) {
            // A pair mirrored east-west about the prime meridian at the
            // same latitude must cancel almost exactly.
            let pts = [p(lat, lon), p(lat, -lon)];
            let d = dispersion(&pts).unwrap();
            prop_assert!(d.value() < 1.0, "sum {}", d.signed_sum_km);
        }
    }
}
