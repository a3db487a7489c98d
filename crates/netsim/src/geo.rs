//! Geographic coordinates and speed-of-light propagation.
//!
//! Cross-cluster RPC latency in the paper is dominated by unavoidable wire
//! latency (§3.3.5: "wire latency, not congestion, contributes to the
//! majority of the network latency of the average RPC"), so the model
//! computes propagation from real geometry: great-circle distance, the
//! speed of light in fiber, and a route-inflation factor for non-geodesic
//! fiber paths.

use rpclens_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Speed of light in fiber, km per second (~2/3 of c in vacuum).
pub const FIBER_KM_PER_SEC: f64 = 200_000.0;

/// Multiplier accounting for fiber routes not following great circles.
pub const ROUTE_INFLATION: f64 = 1.5;

/// Mean Earth radius in kilometres.
const EARTH_RADIUS_KM: f64 = 6371.0;

/// A point on the globe, in degrees.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point, normalising longitude into `[-180, 180)`.
    ///
    /// # Panics
    ///
    /// Panics if latitude is outside `[-90, 90]` or either coordinate is
    /// non-finite.
    pub fn new(lat: f64, lon: f64) -> Self {
        assert!(
            lat.is_finite() && lon.is_finite(),
            "coordinates must be finite"
        );
        assert!(
            (-90.0..=90.0).contains(&lat),
            "latitude out of range: {lat}"
        );
        let lon = ((lon + 180.0).rem_euclid(360.0)) - 180.0;
        GeoPoint { lat, lon }
    }

    /// Great-circle distance to another point, in kilometres (haversine).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().min(1.0).asin()
    }

    /// One-way speed-of-light propagation delay to another point over
    /// realistic fiber routing.
    pub fn propagation_delay(&self, other: &GeoPoint) -> SimDuration {
        let km = self.distance_km(other) * ROUTE_INFLATION;
        SimDuration::from_secs_f64(km / FIBER_KM_PER_SEC)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_simcore::rng::Prng;

    fn ny() -> GeoPoint {
        GeoPoint::new(40.7, -74.0)
    }

    fn london() -> GeoPoint {
        GeoPoint::new(51.5, -0.1)
    }

    fn sydney() -> GeoPoint {
        GeoPoint::new(-33.9, 151.2)
    }

    #[test]
    fn distance_to_self_is_zero() {
        assert!(ny().distance_km(&ny()) < 1e-9);
    }

    #[test]
    fn known_city_distances() {
        // NY-London is ~5,570 km; NY-Sydney ~15,990 km.
        let d1 = ny().distance_km(&london());
        assert!((5400.0..5750.0).contains(&d1), "NY-London {d1}");
        let d2 = ny().distance_km(&sydney());
        assert!((15700.0..16300.0).contains(&d2), "NY-Sydney {d2}");
    }

    #[test]
    fn transatlantic_rtt_matches_reality() {
        // One-way NY-London over fiber with route inflation: ~42 ms, so RTT
        // ~84 ms, bracketing real transatlantic RTTs of 70-90 ms.
        let one_way = ny().propagation_delay(&london());
        let ms = one_way.as_millis_f64();
        assert!((35.0..50.0).contains(&ms), "one-way {ms} ms");
    }

    #[test]
    fn antipodal_rtt_is_near_200ms() {
        // The paper's longest WAN RTT is about 200 ms; a near-antipodal
        // path in our model should land in that regime.
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 179.0);
        let rtt_ms = 2.0 * a.propagation_delay(&b).as_millis_f64();
        assert!((250.0..350.0).contains(&rtt_ms), "antipodal rtt {rtt_ms}");
    }

    #[test]
    fn longitude_normalises() {
        let p = GeoPoint::new(0.0, 190.0);
        assert!((p.lon + 170.0).abs() < 1e-9);
        let q = GeoPoint::new(0.0, -190.0);
        assert!((q.lon - 170.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "latitude")]
    fn latitude_out_of_range_panics() {
        GeoPoint::new(91.0, 0.0);
    }

    #[test]
    fn distance_is_symmetric_and_nonnegative() {
        let mut rng = Prng::seed_from(0x6E0_0001);
        let (lo, hi) = ((-90.0, -180.0), (90f64.next_down(), 180f64.next_down()));
        let mut cases = vec![(lo, lo), (hi, hi), (lo, hi), ((hi.0, lo.1), (lo.0, hi.1))];
        cases.push(((0.0, lo.1), (0.0, hi.1)));
        let mut point = || {
            (
                -90.0 + rng.next_f64() * 180.0,
                -180.0 + rng.next_f64() * 360.0,
            )
        };
        cases.resize_with(64, || (point(), point()));
        for (case, ((lat1, lon1), (lat2, lon2))) in cases.into_iter().enumerate() {
            let a = GeoPoint::new(lat1, lon1);
            let b = GeoPoint::new(lat2, lon2);
            let d1 = a.distance_km(&b);
            let d2 = b.distance_km(&a);
            let inputs = format!("case {case}: ({lat1}, {lon1}) to ({lat2}, {lon2})");
            assert!(d1 >= 0.0, "{inputs}");
            assert!((d1 - d2).abs() < 1e-6, "{inputs}");
            // No two points on Earth are further than half the circumference.
            assert!(d1 <= 20_100.0, "{inputs}");
        }
    }

    #[test]
    fn triangle_inequality_holds() {
        let mut rng = Prng::seed_from(0x6E0_0002);
        let (lo, hi) = ((-80.0, -180.0), (80f64.next_down(), 180f64.next_down()));
        let mut cases = vec![
            (lo, lo, lo),
            (hi, hi, hi),
            (lo, hi, lo),
            (hi, lo, hi),
            (lo, hi, hi),
        ];
        let mut point = || {
            (
                -80.0 + rng.next_f64() * 160.0,
                -180.0 + rng.next_f64() * 360.0,
            )
        };
        cases.resize_with(64, || (point(), point(), point()));
        for (case, (p1, p2, p3)) in cases.into_iter().enumerate() {
            let [a, b, c] = [p1, p2, p3].map(|(lat, lon)| GeoPoint::new(lat, lon));
            let (ac, ab, bc) = (a.distance_km(&c), a.distance_km(&b), b.distance_km(&c));
            assert!(ac <= ab + bc + 1e-6, "case {case}: {p1:?}, {p2:?}, {p3:?}");
        }
    }
}
