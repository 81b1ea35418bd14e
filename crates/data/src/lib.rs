//! Check-in data substrate for Private Location Prediction.
//!
//! The paper trains on Foursquare check-ins from Tokyo (739,828 check-ins,
//! 4,602 users, 5,069 POIs after filtering — §5.1). That dataset is not
//! redistributable, so this crate provides both the *data model* a real
//! dataset would load into and a calibrated *synthetic generator*
//! ([`generator`]) reproducing the statistical properties the paper's
//! phenomena depend on (Zipf popularity, heavy-tailed user activity,
//! geographic clustering, 6-hour session structure).
//!
//! Pipeline, mirroring §5.1 "Experimental Settings":
//!
//! 1. [`checkin`] / [`dataset`] — raw `⟨user, location, time⟩` triples
//!    grouped per user,
//! 2. [`preprocess::prepare`] — one pass over a flat table of dense location
//!    indices: iterated filtering (≥ 10 check-ins per user, ≥ 2 distinct
//!    visitors per location), tokenisation into the [`vocab`] `0..L` with
//!    the [`stats`] of what survives, held-out user selection (100
//!    validation + 100 test users) and segmentation into trajectories of at
//!    most six hours,
//! 3. [`window`] — symmetric skip-gram (target, context) pair extraction and
//!    batch generation,
//! 4. [`sampling`] — Poisson user sampling per training step (Algorithm 1,
//!    line 5),
//! 5. [`grouping`] — the paper's data-grouping contribution: packing λ users
//!    into buckets, with the split factor ω of §4.2,
//! 6. [`io`] — (de)serialisation; [`preprocess`] also holds the
//!    bounding-box restriction.

pub mod checkin;
pub mod dataset;
pub mod error;
pub mod frame;
pub mod generator;
pub mod grouping;
pub mod io;
pub mod preprocess;
#[cfg(test)]
mod reference;
pub mod sampling;
pub mod stats;
pub mod vocab;
pub mod window;

pub use checkin::{CheckIn, GeoPoint, LocationId, Poi, Timestamp, UserId};
pub use dataset::{CheckInDataset, TokenizedDataset, UserHistory};
pub use error::DataError;
pub use generator::{GeneratorConfig, SyntheticGenerator};
pub use grouping::{Bucket, GroupingStrategy};
pub use vocab::Vocabulary;
