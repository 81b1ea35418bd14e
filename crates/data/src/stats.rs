//! Dataset statistics.
//!
//! Used (a) to verify that the synthetic generator matches the paper's
//! published dataset profile (§5.1: 739,828 check-ins, 4,602 users, 5,069
//! locations), and (b) to quantify the skew/sparsity properties (Zipf
//! popularity, §4.1; ~0.1% density, §1) that motivate data grouping.

use serde_json::{json, ToJson, Value};

use crate::dataset::CheckInDataset;
use crate::preprocess::{filter_sparse, FilterConfig};

/// Aggregate statistics of a check-in dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Number of users `N`.
    pub num_users: usize,
    /// Number of distinct visited locations `L`.
    pub num_locations: usize,
    /// Total check-ins.
    pub num_checkins: usize,
    /// Mean check-ins per user.
    pub mean_checkins_per_user: f64,
    /// Median check-ins per user.
    pub median_checkins_per_user: f64,
    /// Maximum check-ins by any single user.
    pub max_checkins_per_user: usize,
    /// Minimum check-ins by any user.
    pub min_checkins_per_user: usize,
    /// Fraction of non-zero (user, location) cells: `nnz / (N·L)`.
    pub density: f64,
    /// Gini coefficient of location visit counts (1 = maximally skewed).
    pub location_gini: f64,
    /// Share of all visits captured by the most popular 1% of locations.
    pub top1pct_location_share: f64,
}

impl DatasetStats {
    /// The one formula behind every [`DatasetStats`]: from each user's
    /// check-in count, each location's visit count (locations with none are
    /// not counted) and the number of distinct (user, location) cells.
    pub(crate) fn from_counts(
        mut per_user: Vec<usize>,
        mut per_location: Vec<usize>,
        cells: usize,
    ) -> Self {
        per_user.sort_unstable();
        per_location.retain(|&n| n > 0);
        per_location.sort_unstable();
        let num_users = per_user.len();
        let num_locations = per_location.len();
        let num_checkins: usize = per_user.iter().sum();
        let median = if per_user.is_empty() {
            0.0
        } else if per_user.len() % 2 == 1 {
            per_user[per_user.len() / 2] as f64
        } else {
            (per_user[per_user.len() / 2 - 1] + per_user[per_user.len() / 2]) as f64 / 2.0
        };
        let density = if num_users == 0 || num_locations == 0 {
            0.0
        } else {
            cells as f64 / (num_users as f64 * num_locations as f64)
        };
        let top1 = ((num_locations as f64 * 0.01).ceil() as usize)
            .max(1)
            .min(num_locations);
        let top_share = if num_checkins == 0 {
            0.0
        } else {
            per_location.iter().rev().take(top1).sum::<usize>() as f64 / num_checkins as f64
        };
        DatasetStats {
            num_users,
            num_locations,
            num_checkins,
            mean_checkins_per_user: if num_users == 0 {
                0.0
            } else {
                num_checkins as f64 / num_users as f64
            },
            median_checkins_per_user: median,
            max_checkins_per_user: per_user.last().copied().unwrap_or(0),
            min_checkins_per_user: per_user.first().copied().unwrap_or(0),
            density,
            location_gini: gini(&per_location),
            top1pct_location_share: top_share,
        }
    }
}

impl ToJson for DatasetStats {
    fn to_json(&self) -> Value {
        json!({
            "num_users": self.num_users,
            "num_locations": self.num_locations,
            "num_checkins": self.num_checkins,
            "mean_checkins_per_user": self.mean_checkins_per_user,
            "median_checkins_per_user": self.median_checkins_per_user,
            "max_checkins_per_user": self.max_checkins_per_user,
            "min_checkins_per_user": self.min_checkins_per_user,
            "density": self.density,
            "location_gini": self.location_gini,
            "top1pct_location_share": self.top1pct_location_share,
        })
    }
}

/// Computes [`DatasetStats`] over `dataset`.
pub fn dataset_stats(dataset: &CheckInDataset) -> DatasetStats {
    // Thresholds of zero keep everything, so the filter's tallies are the
    // whole dataset's.
    let none = FilterConfig {
        min_checkins_per_user: 0,
        min_users_per_location: 0,
    };
    let all = filter_sparse(dataset, none);
    let per_user = dataset.users.iter().map(|u| u.len()).collect();
    DatasetStats::from_counts(per_user, all.visits, all.visitors.iter().sum())
}

/// Gini coefficient of a sorted-ascending count vector; `0.0` when empty or
/// all-zero.
pub(crate) fn gini(sorted_counts: &[usize]) -> f64 {
    let n = sorted_counts.len();
    if n == 0 {
        return 0.0;
    }
    let total: usize = sorted_counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut weighted = 0.0;
    for (i, &c) in sorted_counts.iter().enumerate() {
        weighted += (2.0 * (i as f64 + 1.0) - n as f64 - 1.0) * c as f64;
    }
    weighted / (n as f64 * total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkin::CheckIn;

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
        // Perfect equality.
        assert!(gini(&[5, 5, 5, 5]).abs() < 1e-12);
        // Extreme concentration approaches (n-1)/n.
        let g = gini(&[0, 0, 0, 100]);
        assert!((g - 0.75).abs() < 1e-12, "g {g}");
    }

    #[test]
    fn stats_on_small_dataset() {
        let cs = vec![
            CheckIn::new(1, 10, 0),
            CheckIn::new(1, 10, 1),
            CheckIn::new(1, 11, 2),
            CheckIn::new(2, 10, 0),
        ];
        let ds = CheckInDataset::from_checkins(vec![], cs);
        let s = dataset_stats(&ds);
        assert_eq!(s.num_users, 2);
        assert_eq!(s.num_locations, 2);
        assert_eq!(s.num_checkins, 4);
        assert_eq!(s.mean_checkins_per_user, 2.0);
        assert_eq!(s.median_checkins_per_user, 2.0);
        assert_eq!(s.max_checkins_per_user, 3);
        assert_eq!(s.min_checkins_per_user, 1);
        // 3 nnz cells over 2x2.
        assert!((s.density - 0.75).abs() < 1e-12);
        // Location 10 has 3 of 4 visits; top-1% (=1 location) share = 0.75.
        assert!((s.top1pct_location_share - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stats_on_empty_dataset() {
        let ds = CheckInDataset::default();
        let s = dataset_stats(&ds);
        assert_eq!(s.num_users, 0);
        assert_eq!(s.density, 0.0);
        assert_eq!(s.top1pct_location_share, 0.0);
        assert_eq!(s.median_checkins_per_user, 0.0);
    }

    #[test]
    fn skewed_data_has_high_gini() {
        // One hot location, many cold ones.
        let mut cs = Vec::new();
        for t in 0..100 {
            cs.push(CheckIn::new(1, 0, t));
            cs.push(CheckIn::new(2, 0, t));
        }
        for l in 1..50 {
            cs.push(CheckIn::new(1, l, 1000 + l as i64));
        }
        let ds = CheckInDataset::from_checkins(vec![], cs);
        let s = dataset_stats(&ds);
        assert!(s.location_gini > 0.7, "gini {}", s.location_gini);
    }

    #[test]
    fn stats_print_every_field_by_name() {
        // The `dp-nextloc stats` output, byte for byte.
        let s = DatasetStats {
            num_users: 4,
            num_locations: 3,
            num_checkins: 10,
            mean_checkins_per_user: 2.5,
            median_checkins_per_user: 2.0,
            max_checkins_per_user: 5,
            min_checkins_per_user: 1,
            density: 0.5833333333333334,
            location_gini: 0.2,
            top1pct_location_share: 0.6,
        };
        assert_eq!(
            serde_json::to_string_pretty(&serde_json::json!(s)).unwrap(),
            "{\n  \"density\": 0.5833333333333334,\n  \"location_gini\": 0.2,\n  \
             \"max_checkins_per_user\": 5,\n  \"mean_checkins_per_user\": 2.5,\n  \
             \"median_checkins_per_user\": 2.0,\n  \"min_checkins_per_user\": 1,\n  \
             \"num_checkins\": 10,\n  \"num_locations\": 3,\n  \"num_users\": 4,\n  \
             \"top1pct_location_share\": 0.6\n}"
        );
    }
}
