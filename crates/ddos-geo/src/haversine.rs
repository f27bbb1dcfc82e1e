//! Great-circle distance on the WGS-84 mean sphere.
//!
//! The paper computes the distance between each bot and the geographic
//! center of the attacking population "using Haversine formula" (§IV-A);
//! this module is that formula.

use ddos_schema::LatLon;

use crate::trig::{CenterTrig, PointTrig};

/// Mean Earth radius in kilometers (IUGG mean radius R₁).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Haversine great-circle distance between two points, in kilometers.
///
/// Numerically stable for both antipodal and very close points (the
/// `sqrt`/`asin` form with clamping).
pub fn distance_km(a: LatLon, b: LatLon) -> f64 {
    let (lat1, lon1) = (a.lat_rad(), a.lon_rad());
    let (lat2, lon2) = (b.lat_rad(), b.lon_rad());
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    let h = h.clamp(0.0, 1.0);
    2.0 * EARTH_RADIUS_KM * h.sqrt().asin()
}

/// [`distance_km`] over precomputed trigonometry: the center side comes
/// from a [`CenterTrig`] (hoisted out of the caller's batch loop), the
/// point side from a cached [`PointTrig`].
///
/// Evaluates the exact expression of [`distance_km`]`(center, point)` —
/// same operations, same association — so the result is bit-identical;
/// only the `sin`/`cos`/`to_radians` calls are replaced by cached loads.
#[inline]
pub fn distance_km_precomp(center: &CenterTrig, point: &PointTrig) -> f64 {
    let dlat = point.lat_rad() - center.lat_rad;
    let dlon = point.lon_rad() - center.lon_rad;
    let h =
        (dlat / 2.0).sin().powi(2) + center.cos_lat * point.cos_lat * (dlon / 2.0).sin().powi(2);
    let h = h.clamp(0.0, 1.0);
    2.0 * EARTH_RADIUS_KM * h.sqrt().asin()
}

/// Destination point at `distance_km` from `origin` along `bearing_deg`.
///
/// Used by the world synthesizer to scatter cities around a country
/// centroid at controlled distances.
pub fn destination(origin: LatLon, bearing_deg: f64, distance_km: f64) -> LatLon {
    let delta = distance_km / EARTH_RADIUS_KM;
    let theta = bearing_deg.to_radians();
    let (lat1, lon1) = (origin.lat_rad(), origin.lon_rad());
    let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos())
        .clamp(-1.0, 1.0)
        .asin();
    let lon2 = lon1
        + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
    // Normalize longitude to [-180, 180].
    let mut lon_deg = lon2.to_degrees();
    if lon_deg > 180.0 {
        lon_deg -= 360.0;
    } else if lon_deg < -180.0 {
        lon_deg += 360.0;
    }
    LatLon::new_unchecked(lat2.to_degrees().clamp(-90.0, 90.0), lon_deg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(lat: f64, lon: f64) -> LatLon {
        LatLon::new(lat, lon).unwrap()
    }

    #[test]
    fn zero_distance_to_self() {
        let moscow = p(55.7558, 37.6173);
        assert_eq!(distance_km(moscow, moscow), 0.0);
    }

    #[test]
    fn known_city_pairs() {
        // Reference distances from standard great-circle calculators.
        let moscow = p(55.7558, 37.6173);
        let nyc = p(40.7128, -74.0060);
        let d = distance_km(moscow, nyc);
        assert!((d - 7_520.0).abs() < 40.0, "Moscow-NYC {d}");

        let london = p(51.5074, -0.1278);
        let paris = p(48.8566, 2.3522);
        let d = distance_km(london, paris);
        assert!((d - 344.0).abs() < 5.0, "London-Paris {d}");
    }

    #[test]
    fn antipodal_is_half_circumference() {
        let a = p(0.0, 0.0);
        let b = p(0.0, 180.0);
        let d = distance_km(a, b);
        assert!((d - std::f64::consts::PI * EARTH_RADIUS_KM).abs() < 1.0);
    }

    #[test]
    fn destination_round_trip() {
        let origin = p(48.8566, 2.3522);
        for bearing in [0.0, 45.0, 137.0, 270.0] {
            let dest = destination(origin, bearing, 500.0);
            let d = distance_km(origin, dest);
            assert!((d - 500.0).abs() < 1.0, "bearing {bearing}: {d}");
        }
    }

    proptest! {
        #[test]
        fn precomp_distance_is_bit_identical(
            lat1 in -90.0f64..=90.0, lon1 in -180.0f64..=180.0,
            lat2 in -90.0f64..=90.0, lon2 in -180.0f64..=180.0,
        ) {
            let center = p(lat1, lon1);
            let point = p(lat2, lon2);
            let scalar = distance_km(center, point);
            let cached = distance_km_precomp(&CenterTrig::new(center), &PointTrig::new(point));
            prop_assert_eq!(scalar.to_bits(), cached.to_bits());
        }

        #[test]
        fn symmetry(lat1 in -89.0f64..89.0, lon1 in -179.0f64..179.0,
                    lat2 in -89.0f64..89.0, lon2 in -179.0f64..179.0) {
            let a = p(lat1, lon1);
            let b = p(lat2, lon2);
            let ab = distance_km(a, b);
            let ba = distance_km(b, a);
            prop_assert!((ab - ba).abs() < 1e-9);
        }

        #[test]
        fn non_negative_and_bounded(lat1 in -90.0f64..=90.0, lon1 in -180.0f64..=180.0,
                                    lat2 in -90.0f64..=90.0, lon2 in -180.0f64..=180.0) {
            let d = distance_km(p(lat1, lon1), p(lat2, lon2));
            prop_assert!(d >= 0.0);
            prop_assert!(d <= std::f64::consts::PI * EARTH_RADIUS_KM + 1e-6);
        }

        #[test]
        fn triangle_inequality(lat1 in -80.0f64..80.0, lon1 in -170.0f64..170.0,
                               lat2 in -80.0f64..80.0, lon2 in -170.0f64..170.0,
                               lat3 in -80.0f64..80.0, lon3 in -170.0f64..170.0) {
            let a = p(lat1, lon1);
            let b = p(lat2, lon2);
            let c = p(lat3, lon3);
            prop_assert!(distance_km(a, c) <= distance_km(a, b) + distance_km(b, c) + 1e-6);
        }

        #[test]
        fn destination_lands_at_requested_distance(
            lat in -80.0f64..80.0, lon in -170.0f64..170.0,
            bearing in 0.0f64..360.0, dist in 1.0f64..5_000.0,
        ) {
            let origin = p(lat, lon);
            let dest = destination(origin, bearing, dist);
            let measured = distance_km(origin, dest);
            prop_assert!((measured - dist).abs() < 1.0, "{measured} vs {dist}");
        }
    }
}
