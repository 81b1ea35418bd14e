//! Preprocessing filters of §5.1.
//!
//! "We filter out the users with fewer than ten check-ins, as well as the
//! locations visited by fewer than two users (such filtering is commonly
//! performed in the location recommendation literature)." Removing sparse
//! locations can push users below the check-in threshold and vice versa, so
//! the two filters are applied alternately until a fixpoint.

use std::collections::HashMap;

use crate::checkin::{BoundingBox, CheckIn, LocationId, UserId};
use crate::dataset::{CheckInDataset, UserHistory};

/// Filter thresholds; the defaults are the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterConfig {
    /// Minimum check-ins a user must retain (paper: 10).
    pub min_checkins_per_user: usize,
    /// Minimum *distinct* visitors a location must retain (paper: 2).
    pub min_users_per_location: usize,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            min_checkins_per_user: 10,
            min_users_per_location: 2,
        }
    }
}

/// Restricts the dataset to check-ins at POIs inside `bbox`; POIs outside
/// the box are dropped along with their check-ins. Check-ins at locations
/// with no known POI coordinate are kept (coordinates are optional
/// metadata).
pub fn filter_bounding_box(dataset: &CheckInDataset, bbox: &BoundingBox) -> CheckInDataset {
    let outside: HashMap<LocationId, bool> = dataset
        .pois
        .iter()
        .map(|p| (p.id, !bbox.contains(&p.point)))
        .collect();
    let pois = dataset
        .pois
        .iter()
        .filter(|p| bbox.contains(&p.point))
        .copied()
        .collect();
    let checkins = dataset
        .users
        .iter()
        .flat_map(|u| u.checkins.iter())
        .filter(|c| !outside.get(&c.location).copied().unwrap_or(false))
        .copied()
        .collect();
    CheckInDataset::from_checkins(pois, checkins)
}

/// Applies the user/location sparsity filters until a fixpoint.
///
/// Returns the filtered dataset (possibly empty). POI metadata is retained
/// only for surviving locations. `dataset` is expected in the form
/// [`CheckInDataset::from_checkins`] builds — one history per user, in
/// user order — and the result is in that form again.
pub fn filter_sparse(dataset: &CheckInDataset, config: FilterConfig) -> CheckInDataset {
    // Dense location indices, resolved once per check-in, so the fixpoint
    // runs over flat arrays instead of rebuilding maps every round.
    let mut ids: Vec<LocationId> = dataset
        .users
        .iter()
        .flat_map(|u| u.checkins.iter().map(|c| c.location))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let locs: Vec<Vec<usize>> = dataset
        .users
        .iter()
        .map(|u| {
            let dense = |c: &CheckIn| ids.binary_search(&c.location).expect("collected above");
            u.checkins.iter().map(dense).collect()
        })
        .collect();

    let mut location_alive = vec![true; ids.len()];
    // How many check-ins each user has left; `None` once the user is out.
    let mut left: Vec<Option<usize>> = dataset.users.iter().map(|u| Some(u.len())).collect();
    let mut changed = true;
    while changed {
        changed = false;
        // Distinct visitors per location. Users come one after the other,
        // so a location only has to remember the last one it counted.
        let mut visitors: Vec<(Option<UserId>, usize)> = vec![(None, 0); ids.len()];
        let present = (dataset.users.iter().zip(&locs).zip(&left)).filter(|x| x.1.is_some());
        for ((u, locs), _) in present {
            for &l in locs.iter().filter(|&&l| location_alive[l]) {
                if visitors[l].0 != Some(u.user) {
                    visitors[l] = (Some(u.user), visitors[l].1 + 1);
                }
            }
        }
        for (alive, (_, n)) in location_alive.iter_mut().zip(&visitors) {
            *alive &= *n >= config.min_users_per_location;
        }
        // Losing locations can push a user below the threshold, and losing
        // that user can leave a location short of visitors: go round again
        // whenever a check-in or a user went.
        for (left, locs) in left.iter_mut().zip(&locs) {
            let Some(before) = *left else { continue };
            let kept = locs.iter().filter(|&&l| location_alive[l]).count();
            *left = (kept >= config.min_checkins_per_user).then_some(kept);
            changed |= kept < before || (left.is_none() && before > 0);
        }
    }

    let mut visited = vec![false; ids.len()];
    let mut users = Vec::new();
    for ((u, locs), left) in dataset.users.iter().zip(&locs).zip(&left) {
        let Some(n) = left.filter(|&n| n > 0) else {
            continue;
        };
        let mut checkins = Vec::with_capacity(n);
        for (c, &l) in u.checkins.iter().zip(locs) {
            if location_alive[l] {
                visited[l] = true;
                checkins.push(*c);
            }
        }
        users.push(UserHistory {
            user: u.user,
            checkins,
        });
    }
    let pois = dataset
        .pois
        .iter()
        .filter(|p| ids.binary_search(&p.id).is_ok_and(|l| visited[l]))
        .copied()
        .collect();
    CheckInDataset { pois, users }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkin::{GeoPoint, Poi};

    /// The map-per-round implementation [`filter_sparse`] replaced, kept as
    /// the definition it is tested against.
    fn filter_sparse_reference(dataset: &CheckInDataset, config: FilterConfig) -> CheckInDataset {
        let mut current = dataset.clone();
        loop {
            // Count distinct visitors per location.
            let mut visitors: HashMap<LocationId, Vec<u32>> = HashMap::new();
            for u in &current.users {
                for c in &u.checkins {
                    let v = visitors.entry(c.location).or_default();
                    if !v.contains(&c.user.0) {
                        v.push(c.user.0);
                    }
                }
            }
            let keep_location: HashMap<LocationId, bool> = visitors
                .iter()
                .map(|(&l, v)| (l, v.len() >= config.min_users_per_location))
                .collect();

            let mut changed = false;
            let mut checkins = Vec::new();
            for u in &current.users {
                let kept: Vec<_> = u
                    .checkins
                    .iter()
                    .filter(|c| keep_location.get(&c.location).copied().unwrap_or(false))
                    .copied()
                    .collect();
                if kept.len() < u.checkins.len() {
                    changed = true;
                }
                if kept.len() >= config.min_checkins_per_user {
                    checkins.extend(kept);
                } else if !kept.is_empty() || !u.checkins.is_empty() {
                    changed = true;
                }
            }

            let surviving: HashMap<LocationId, bool> = checkins
                .iter()
                .map(|c: &crate::checkin::CheckIn| (c.location, true))
                .collect();
            let pois = current
                .pois
                .iter()
                .filter(|p| surviving.get(&p.id).copied().unwrap_or(false))
                .copied()
                .collect();
            let next = CheckInDataset::from_checkins(pois, checkins);
            if !changed {
                return next;
            }
            current = next;
        }
    }

    fn poi(id: u32, lat: f64, lon: f64) -> Poi {
        Poi {
            id: LocationId(id),
            point: GeoPoint { lat, lon },
        }
    }

    #[test]
    fn drops_users_below_threshold() {
        // User 1 has 3 check-ins, user 2 has 1. Threshold 2.
        let cs = vec![
            CheckIn::new(1, 10, 0),
            CheckIn::new(1, 10, 1),
            CheckIn::new(1, 11, 2),
            CheckIn::new(2, 10, 0),
            CheckIn::new(3, 10, 0),
            CheckIn::new(3, 11, 1),
        ];
        let ds = CheckInDataset::from_checkins(vec![], cs);
        let f = filter_sparse(
            &ds,
            FilterConfig {
                min_checkins_per_user: 2,
                min_users_per_location: 2,
            },
        );
        assert_eq!(f.num_users(), 2, "users 1 and 3 survive");
        assert!(f.users.iter().all(|u| u.len() >= 2));
    }

    #[test]
    fn drops_single_visitor_locations() {
        // Location 99 visited only by user 1.
        let cs = vec![
            CheckIn::new(1, 10, 0),
            CheckIn::new(1, 99, 1),
            CheckIn::new(2, 10, 0),
            CheckIn::new(2, 10, 5),
        ];
        let ds = CheckInDataset::from_checkins(vec![], cs);
        let f = filter_sparse(
            &ds,
            FilterConfig {
                min_checkins_per_user: 1,
                min_users_per_location: 2,
            },
        );
        let locs: Vec<u32> = f
            .users
            .iter()
            .flat_map(|u| u.checkins.iter().map(|c| c.location.0))
            .collect();
        assert!(!locs.contains(&99));
        assert!(locs.contains(&10));
    }

    #[test]
    fn cascading_removal_reaches_fixpoint() {
        // Removing location 99 (1 visitor) drops user 1 below threshold;
        // dropping user 1 leaves location 10 with one visitor, which then
        // must go, taking user 2 with it: the fixpoint is empty.
        let cs = vec![
            CheckIn::new(1, 99, 0),
            CheckIn::new(1, 10, 1),
            CheckIn::new(2, 10, 0),
            CheckIn::new(2, 20, 1),
            CheckIn::new(3, 20, 0),
        ];
        let ds = CheckInDataset::from_checkins(vec![], cs);
        let f = filter_sparse(
            &ds,
            FilterConfig {
                min_checkins_per_user: 2,
                min_users_per_location: 2,
            },
        );
        assert_eq!(f.num_users(), 0);
        assert_eq!(f.num_checkins(), 0);
    }

    #[test]
    fn surviving_pois_keep_metadata() {
        let cs = vec![
            CheckIn::new(1, 10, 0),
            CheckIn::new(1, 10, 1),
            CheckIn::new(2, 10, 0),
            CheckIn::new(2, 10, 1),
        ];
        let pois = vec![poi(10, 35.6, 139.7), poi(11, 35.6, 139.7)];
        let ds = CheckInDataset::from_checkins(pois, cs);
        let f = filter_sparse(&ds, FilterConfig::default());
        // Threshold 10 per user kills everything here.
        assert_eq!(f.num_users(), 0);
        let f2 = filter_sparse(
            &ds,
            FilterConfig {
                min_checkins_per_user: 2,
                min_users_per_location: 2,
            },
        );
        assert_eq!(f2.pois.len(), 1);
        assert_eq!(f2.pois[0].id, LocationId(10));
    }

    #[test]
    fn one_user_out_can_take_another_with_it() {
        // At the paper's thresholds: location 7 has exactly two visitors,
        // users 1 and 2, and user 2 has exactly ten check-ins, one of them
        // at 7. Without user 1, location 7 goes, user 2 falls to nine and
        // goes too — so the paper-faithful guarantee is over one user of
        // the *filtered* training set, not of the raw data.
        let visits =
            |user: u32, location: u32, n: i64| (0..n).map(move |t| CheckIn::new(user, location, t));
        let raw: Vec<CheckIn> = visits(1, 7, 10)
            .chain(visits(2, 7, 1))
            .chain(visits(2, 8, 9))
            .chain(visits(3, 8, 10))
            .chain(visits(4, 8, 10))
            .collect();
        let survivors = |checkins: Vec<CheckIn>| -> Vec<u32> {
            let ds = CheckInDataset::from_checkins(vec![], checkins);
            let f = filter_sparse(&ds, FilterConfig::default());
            f.users.iter().map(|u| u.user.0).collect()
        };
        assert_eq!(survivors(raw.clone()), [1, 2, 3, 4]);
        let without_user_1 = raw.into_iter().filter(|c| c.user != UserId(1)).collect();
        assert_eq!(survivors(without_user_1), [3, 4], "one user out, two gone");
    }

    mod reference_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn random_checkin_sets_filter_like_the_reference(
                seed in 0u64..1_000_000,
                num_users in 1u32..40,
                num_locations in 1u32..30,
                num_checkins in 0usize..300,
                min_checkins_per_user in 0usize..7,
                min_users_per_location in 0usize..5,
            ) {
                // A multiplicative generator is all the randomness this
                // needs; low location ids are the popular ones.
                let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut next = |n: u32| {
                    state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
                    ((state >> 33) % u64::from(n)) as u32
                };
                let checkins = (0..num_checkins)
                    .map(|_| {
                        let location = next(num_locations).min(next(num_locations));
                        CheckIn::new(next(num_users), location, i64::from(next(50)))
                    })
                    .collect();
                // POIs known for some visited locations, some never visited.
                let pois = (0..num_locations + 3).filter(|l| l % 3 != 1).map(|l| poi(l, 0.0, 0.0));
                let ds = CheckInDataset::from_checkins(pois.collect(), checkins);
                let config = FilterConfig { min_checkins_per_user, min_users_per_location };
                prop_assert_eq!(filter_sparse(&ds, config), filter_sparse_reference(&ds, config));
            }

            #[test]
            fn removal_cascades_like_the_reference(
                links in 1u32..25,
                visits in 1usize..4,
                extra in 0u32..3,
            ) {
                // User i visits locations i and i + 1 `visits` times each,
                // so location 0 has one visitor: dropping it drops user 0,
                // which leaves location 1 with one visitor, and so on down
                // the chain, one link per round. `extra` users who stay at
                // the last location decide whether the far end survives.
                let mut checkins = Vec::new();
                for u in 0..links {
                    for t in 0..visits as i64 {
                        checkins.push(CheckIn::new(u, u, 2 * t));
                        checkins.push(CheckIn::new(u, u + 1, 2 * t + 1));
                    }
                }
                for u in links..links + extra {
                    for t in 0..2 * visits as i64 {
                        checkins.push(CheckIn::new(u, links, t));
                    }
                }
                let ds = CheckInDataset::from_checkins(vec![poi(0, 0.0, 0.0), poi(links, 0.0, 0.0)], checkins);
                let config = FilterConfig {
                    min_checkins_per_user: 2 * visits,
                    min_users_per_location: 2,
                };
                let filtered = filter_sparse(&ds, config);
                prop_assert_eq!(&filtered, &filter_sparse_reference(&ds, config));
                prop_assert_eq!(filtered.num_users(), if extra >= 2 { extra as usize } else { 0 });
            }
        }
    }

    #[test]
    fn bounding_box_filter_respects_coordinates() {
        let inside = poi(1, 35.6, 139.7);
        let outside = poi(2, 40.0, 139.7);
        let cs = vec![
            CheckIn::new(1, 1, 0),
            CheckIn::new(1, 2, 1),
            CheckIn::new(1, 3, 2), // no POI metadata: kept
        ];
        let ds = CheckInDataset::from_checkins(vec![inside, outside], cs);
        let f = filter_bounding_box(&ds, &BoundingBox::tokyo());
        assert_eq!(f.pois.len(), 1);
        let locs: Vec<u32> = f.users[0].checkins.iter().map(|c| c.location.0).collect();
        assert_eq!(locs, vec![1, 3]);
    }
}
