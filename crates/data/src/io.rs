//! Persistence: CSV and the binary container for check-in datasets.
//!
//! Real deployments would load Foursquare-style CSV exports; experiments
//! snapshot generated datasets in the binary format so every figure harness
//! sees byte-identical input. The binary file is a [`crate::frame`] image
//! of two word sections, so it is checksummed and written atomically like
//! every other artifact: the population `W` it fixes is part of the
//! privacy claim.

use std::fs;
use std::path::Path;

use crate::checkin::{CheckIn, GeoPoint, LocationId, Poi};
use crate::dataset::CheckInDataset;
use crate::error::DataError;
use crate::frame::{self, SnapshotError, Words};

/// Section kind: one `id · lat bits · lon bits` row per POI.
const KIND_POIS: u16 = 32;
/// Section kind: one `user | location << 32 · timestamp` row per check-in.
const KIND_CHECKINS: u16 = 33;

/// Writes check-ins as CSV lines `user,location,timestamp` (with header).
pub fn checkins_to_csv(dataset: &CheckInDataset) -> String {
    let mut out = String::from("user,location,timestamp\n");
    for u in &dataset.users {
        for c in &u.checkins {
            out.push_str(&format!("{},{},{}\n", c.user.0, c.location.0, c.timestamp));
        }
    }
    out
}

/// Parses CSV produced by [`checkins_to_csv`] (header optional).
///
/// # Errors
/// Returns [`DataError::Parse`] with a 1-based line number on malformed
/// input.
pub fn checkins_from_csv(text: &str) -> Result<Vec<CheckIn>, DataError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || (i == 0 && line.starts_with("user")) {
            continue;
        }
        let mut parts = line.split(',');
        let parse_u32 = |s: Option<&str>, what: &str| -> Result<u32, DataError> {
            s.ok_or_else(|| DataError::Parse {
                line: i + 1,
                what: format!("missing {what}"),
            })?
            .trim()
            .parse()
            .map_err(|_| DataError::Parse {
                line: i + 1,
                what: format!("bad {what}"),
            })
        };
        let user = parse_u32(parts.next(), "user")?;
        let location = parse_u32(parts.next(), "location")?;
        let ts: i64 = parts
            .next()
            .ok_or_else(|| DataError::Parse {
                line: i + 1,
                what: "missing timestamp".into(),
            })?
            .trim()
            .parse()
            .map_err(|_| DataError::Parse {
                line: i + 1,
                what: "bad timestamp".into(),
            })?;
        out.push(CheckIn::new(user, location, ts));
    }
    Ok(out)
}

/// Encodes the dataset as a container image.
pub fn encode_binary(dataset: &CheckInDataset) -> Vec<u8> {
    let poi = |p: &Poi| {
        [
            u64::from(p.id.0),
            p.point.lat.to_bits(),
            p.point.lon.to_bits(),
        ]
    };
    let pois: Vec<u64> = dataset.pois.iter().flat_map(poi).collect();
    let checkins: Vec<u64> = dataset
        .users
        .iter()
        .flat_map(|u| &u.checkins)
        .flat_map(|c| {
            let who_where = u64::from(c.user.0) | u64::from(c.location.0) << 32;
            [who_where, c.timestamp as u64]
        })
        .collect();
    frame::encode(
        &[
            (KIND_POIS, 3, Words::U64(&pois)),
            (KIND_CHECKINS, 2, Words::U64(&checkins)),
        ],
        0,
        0,
    )
}

/// Decodes and fully verifies an image produced by [`encode_binary`].
///
/// # Errors
/// [`DataError::Snapshot`] with the container's typed reason.
pub fn decode_binary(image: &[u8]) -> Result<CheckInDataset, DataError> {
    let header = frame::parse(image)?;
    header.verify(image)?;
    let poi = |w: &[u64]| {
        let id = u32::try_from(w[0]).map_err(|_| frame::inconsistent("POI id over 32 bits"))?;
        Ok(Poi {
            id: LocationId(id),
            point: GeoPoint {
                lat: f64::from_bits(w[1]),
                lon: f64::from_bits(w[2]),
            },
        })
    };
    let pois = header
        .words(image, KIND_POIS, 3)?
        .chunks_exact(3)
        .map(poi)
        .collect::<Result<_, SnapshotError>>()?;
    let checkins = header
        .words(image, KIND_CHECKINS, 2)?
        .chunks_exact(2)
        .map(|w| CheckIn::new(w[0] as u32, (w[0] >> 32) as u32, w[1] as i64))
        .collect();
    Ok(CheckInDataset::from_checkins(pois, checkins))
}

/// Atomically writes the dataset image to `path`.
///
/// # Errors
/// Propagates I/O failures.
pub fn save_binary(dataset: &CheckInDataset, path: &Path) -> Result<(), DataError> {
    Ok(frame::write_atomic(path, &encode_binary(dataset))?)
}

/// Loads and verifies a dataset image from `path`.
///
/// # Errors
/// Propagates I/O and decode failures.
pub fn load_binary(path: &Path) -> Result<CheckInDataset, DataError> {
    decode_binary(&fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckInDataset {
        let pois = vec![Poi {
            id: LocationId(10),
            point: GeoPoint {
                lat: 35.6,
                lon: 139.7,
            },
        }];
        let cs = vec![
            CheckIn::new(1, 10, 100),
            CheckIn::new(1, 11, 200),
            CheckIn::new(2, 10, 50),
        ];
        CheckInDataset::from_checkins(pois, cs)
    }

    #[test]
    fn csv_round_trip() {
        let ds = sample();
        let csv = checkins_to_csv(&ds);
        assert!(csv.starts_with("user,location,timestamp\n"));
        let back = checkins_from_csv(&csv).unwrap();
        let rebuilt = CheckInDataset::from_checkins(vec![], back);
        assert_eq!(rebuilt.num_checkins(), 3);
        assert_eq!(rebuilt.num_users(), 2);
    }

    #[test]
    fn csv_reports_line_numbers() {
        let bad = "user,location,timestamp\n1,2,3\nx,2,3\n";
        let err = checkins_from_csv(bad).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 3, .. }), "{err}");
        let missing = "1,2\n";
        assert!(checkins_from_csv(missing).is_err());
        assert!(checkins_from_csv("").unwrap().is_empty());
    }

    #[test]
    fn binary_round_trips_in_memory_and_on_disk() {
        let empty = CheckInDataset::from_checkins(vec![], vec![]);
        assert_eq!(decode_binary(&encode_binary(&empty)).unwrap(), empty);
        let ds = sample();
        let dir = std::env::temp_dir().join("plp_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        save_binary(&ds, &dir.join("ds.bin")).unwrap();
        assert_eq!(load_binary(&dir.join("ds.bin")).unwrap(), ds);
        assert!(matches!(
            load_binary(&dir.join("nope.bin")),
            Err(DataError::Io { .. })
        ));
    }
}
