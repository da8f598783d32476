//! Geography: coordinates, great-circle distances, and continents.
//!
//! The latency model grounds virtual RTTs in physical distance, the same
//! way the paper's RTTs are grounded in the geography of its seven AWS
//! datacenters and ~9,700 RIPE Atlas vantage points.

use std::fmt;

/// Continent grouping used throughout the paper's per-continent tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Continent {
    /// Africa.
    Af,
    /// Asia.
    As,
    /// Europe.
    Eu,
    /// North America.
    Na,
    /// Oceania.
    Oc,
    /// South America.
    Sa,
}

impl Continent {
    /// All continents in the paper's display order.
    pub const ALL: [Continent; 6] =
        [Continent::Af, Continent::As, Continent::Eu, Continent::Na, Continent::Oc, Continent::Sa];

    /// Two-letter code as printed in Table 2.
    pub fn code(self) -> &'static str {
        match self {
            Continent::Af => "AF",
            Continent::As => "AS",
            Continent::Eu => "EU",
            Continent::Na => "NA",
            Continent::Oc => "OC",
            Continent::Sa => "SA",
        }
    }
}

impl fmt::Display for Continent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A point on the globe, in degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude, degrees north.
    pub lat: f64,
    /// Longitude, degrees east.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point; latitude is clamped to ±90, longitude wrapped to ±180.
    pub fn new(lat: f64, lon: f64) -> Self {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = lon % 360.0;
        if lon > 180.0 {
            lon -= 360.0;
        } else if lon < -180.0 {
            lon += 360.0;
        }
        GeoPoint { lat, lon }
    }

    /// Great-circle distance in kilometres (haversine, mean Earth radius).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        const EARTH_RADIUS_KM: f64 = 6371.0;
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }
}

/// A named place: the unit of host placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Place {
    /// Short identifier; datacenters use IATA airport codes like the paper.
    pub code: &'static str,
    /// Human-readable name.
    pub name: &'static str,
    /// Coordinates.
    pub point: GeoPoint,
    /// Continent.
    pub continent: Continent,
}

impl Place {
    /// Creates a place.
    pub const fn new(
        code: &'static str,
        name: &'static str,
        lat: f64,
        lon: f64,
        continent: Continent,
    ) -> Self {
        Place { code, name, point: GeoPoint { lat, lon }, continent }
    }
}

/// The seven datacenters the paper deploys authoritatives in (Table 1).
pub mod datacenters {
    use super::{Continent, Place};

    /// São Paulo, Brazil.
    pub const GRU: Place = Place::new("GRU", "São Paulo", -23.43, -46.47, Continent::Sa);
    /// Tokyo, Japan.
    pub const NRT: Place = Place::new("NRT", "Tokyo", 35.76, 140.39, Continent::As);
    /// Dublin, Ireland.
    pub const DUB: Place = Place::new("DUB", "Dublin", 53.42, -6.27, Continent::Eu);
    /// Frankfurt, Germany.
    pub const FRA: Place = Place::new("FRA", "Frankfurt", 50.03, 8.57, Continent::Eu);
    /// Sydney, Australia.
    pub const SYD: Place = Place::new("SYD", "Sydney", -33.95, 151.18, Continent::Oc);
    /// Washington D.C., United States.
    pub const IAD: Place = Place::new("IAD", "Washington", 38.95, -77.45, Continent::Na);
    /// San Francisco, United States.
    pub const SFO: Place = Place::new("SFO", "San Francisco", 37.62, -122.38, Continent::Na);

    /// All seven, keyed by airport code.
    pub const ALL: [&Place; 7] = [&GRU, &NRT, &DUB, &FRA, &SYD, &IAD, &SFO];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance() {
        let p = GeoPoint::new(50.0, 8.0);
        assert!(p.distance_km(&p) < 1e-9);
    }

    #[test]
    fn known_distances() {
        // Frankfurt–Sydney is roughly 16,500 km.
        let d = datacenters::FRA.point.distance_km(&datacenters::SYD.point);
        assert!((15_500.0..17_500.0).contains(&d), "FRA-SYD {d} km");
        // Frankfurt–Dublin is roughly 1,000 km.
        let d = datacenters::FRA.point.distance_km(&datacenters::DUB.point);
        assert!((900.0..1_200.0).contains(&d), "FRA-DUB {d} km");
        // Washington–San Francisco is roughly 3,900 km.
        let d = datacenters::IAD.point.distance_km(&datacenters::SFO.point);
        assert!((3_500.0..4_300.0).contains(&d), "IAD-SFO {d} km");
    }

    #[test]
    fn distance_symmetric() {
        let a = datacenters::GRU.point;
        let b = datacenters::NRT.point;
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn clamping_and_wrapping() {
        let p = GeoPoint::new(95.0, 190.0);
        assert_eq!(p.lat, 90.0);
        assert!((p.lon - (-170.0)).abs() < 1e-9);
        let q = GeoPoint::new(-95.0, -190.0);
        assert_eq!(q.lat, -90.0);
        assert!((q.lon - 170.0).abs() < 1e-9);
    }

    #[test]
    fn continent_codes() {
        assert_eq!(Continent::Eu.to_string(), "EU");
        assert_eq!(Continent::ALL.len(), 6);
    }
}
