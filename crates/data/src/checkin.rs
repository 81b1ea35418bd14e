//! Core record types: users, POIs, and check-ins.
//!
//! A check-in is the triple `⟨u, l, t⟩` of §3.1 — user identifier, location
//! and time. Identifiers are newtypes so that user and location indices can
//! never be confused at compile time.

/// Opaque user identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

/// Opaque location (POI) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocationId(pub u32);

/// Seconds since the Unix epoch.
pub type Timestamp = i64;

/// A WGS-84 coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

/// An axis-aligned geographic bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Southern latitude bound.
    pub south: f64,
    /// Northern latitude bound.
    pub north: f64,
    /// Western longitude bound.
    pub west: f64,
    /// Eastern longitude bound.
    pub east: f64,
}

impl BoundingBox {
    /// The Tokyo study region of §5.1: a 35 × 25 km² area bounded by
    /// latitudes 35.554–35.759 and longitudes 139.496–139.905.
    pub fn tokyo() -> Self {
        BoundingBox {
            south: 35.554,
            north: 35.759,
            west: 139.496,
            east: 139.905,
        }
    }

    /// `true` iff `p` lies inside (inclusive on all edges).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.lat >= self.south && p.lat <= self.north && p.lon >= self.west && p.lon <= self.east
    }
}

/// A point of interest: a location identifier with its coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poi {
    /// Location identifier.
    pub id: LocationId,
    /// POI coordinate.
    pub point: GeoPoint,
}

/// One check-in record `⟨u, l, t⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckIn {
    /// The user who checked in.
    pub user: UserId,
    /// The visited location.
    pub location: LocationId,
    /// When the visit happened (Unix seconds).
    pub timestamp: Timestamp,
}

impl CheckIn {
    /// Convenience constructor.
    pub fn new(user: u32, location: u32, timestamp: Timestamp) -> Self {
        CheckIn {
            user: UserId(user),
            location: LocationId(location),
            timestamp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtypes_are_distinct() {
        // This is a compile-time property; at runtime just check equality.
        assert_eq!(UserId(3), UserId(3));
        assert_ne!(LocationId(3), LocationId(4));
    }

    #[test]
    fn tokyo_bbox_dimensions_match_paper() {
        // The paper describes the region as roughly 35 x 25 km². A degree
        // of latitude is ≈ 111.2 km, a degree of longitude that times
        // cos(latitude).
        let b = BoundingBox::tokyo();
        let mid = ((b.south + b.north) / 2.0).to_radians();
        let width = (b.east - b.west) * 111.2 * mid.cos();
        let height = (b.north - b.south) * 111.2;
        assert!((33.0..40.0).contains(&width), "width {width}");
        assert!((20.0..26.0).contains(&height), "height {height}");
    }

    #[test]
    fn bbox_containment_is_inclusive() {
        let b = BoundingBox::tokyo();
        assert!(b.contains(&GeoPoint {
            lat: 35.554,
            lon: 139.496
        }));
        assert!(b.contains(&GeoPoint {
            lat: 35.65,
            lon: 139.7
        }));
        assert!(!b.contains(&GeoPoint {
            lat: 35.50,
            lon: 139.7
        }));
        assert!(!b.contains(&GeoPoint {
            lat: 35.65,
            lon: 140.0
        }));
    }

    #[test]
    fn checkin_constructor() {
        let c = CheckIn::new(1, 2, 1_333_238_400);
        assert_eq!(c.user, UserId(1));
        assert_eq!(c.location, LocationId(2));
    }
}
