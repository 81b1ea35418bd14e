//! Preprocessing of §5.1: one pass from grouped check-ins to sessions.
//!
//! "We filter out the users with fewer than ten check-ins, as well as the
//! locations visited by fewer than two users (such filtering is commonly
//! performed in the location recommendation literature)." Removing sparse
//! locations can push users below the check-in threshold and vice versa, so
//! the two filters are applied alternately until a fixpoint. The survivors'
//! locations become the vocabulary (§3.2), 100 + 100 randomly chosen users
//! are held out — "our testing and validation sets consist of location
//! visits of users who are *not* part of the training set" — and every
//! history is cut into trajectories that "do not exceed a total duration
//! of six hours, following the work in [10, 34]".
//!
//! [`prepare`] does all of that over one flat table: each check-in gets a
//! dense location index once, ranked in [`LocationId`] order, and the
//! filter, the vocabulary, the statistics, the holdout and the sessions are
//! all derived from that table. No check-in is copied until its token is
//! written into its user's one token array.
//!
//! Indexing and each filter round's counts run per block of users on
//! [`fan_out`], and each block's results merge exactly: dense indices are
//! ranks in the sorted union of the blocks' ids, and the counts are integer
//! sums over users that each lie in one block. Sessions are cut on the
//! calling thread: they outlive the call, and one allocator arena holds
//! them all.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use plp_linalg::par::fan_out;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::blocks;
use crate::checkin::{BoundingBox, CheckIn, LocationId};
use crate::dataset::{CheckInDataset, TokenizedDataset, UserHistory, UserSequences};
use crate::error::DataError;
use crate::stats::DatasetStats;
use crate::vocab::Vocabulary;

/// Six hours in seconds — the paper's trajectory duration cap.
pub(crate) const SIX_HOURS_SECS: i64 = 6 * 3600;

/// The token of a location the filter dropped.
const DROPPED: u32 = u32::MAX;

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

/// What [`filter_sparse`] keeps of a dataset, over a flat table of its
/// check-ins: every check-in as a dense location index, where dense index
/// `l` is the `l`-th smallest location id the dataset visits.
#[derive(Debug, Clone, PartialEq)]
pub struct Survivors {
    /// The dataset's distinct visited locations, ascending.
    pub locations: Vec<LocationId>,
    /// The dense location of every check-in, users one after another.
    dense: Vec<u32>,
    /// User `u`'s check-ins are `dense[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<usize>,
    /// Check-ins each user keeps; 0 for a user the filter drops.
    pub checkins: Vec<usize>,
    /// Distinct kept users at each location; 0 for a location it drops.
    pub visitors: Vec<usize>,
    /// Kept check-ins at each location.
    pub visits: Vec<usize>,
}

impl Survivors {
    /// The dense locations of user `u`'s check-ins, in history order.
    pub fn dense_locations(&self, u: usize) -> &[u32] {
        &self.dense[self.offsets[u]..self.offsets[u + 1]]
    }

    /// The indices of the users the filter keeps, in dataset order.
    pub fn users(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.checkins.len()).filter(|&u| self.checkins[u] > 0)
    }
}

/// A multiplicative hash for the map from location ids to dense indices:
/// the keys are `u32`s, and SipHash per check-in would be most of what
/// indexing costs.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(self.0 as u32 ^ u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Gives every check-in of `dataset` a dense location index ranked in id
/// order: the distinct ids ascending, and the index of each check-in, users
/// one after another from `offsets`, per block of `bounds`.
///
/// Each block numbers the ids it sees in first-seen order through its own
/// hash map; the union of the blocks' sorted ids is the ranking, and each
/// block renumbers its check-ins by it, so no block's view shows in the
/// ranks.
fn index(
    dataset: &CheckInDataset,
    offsets: &[usize],
    bounds: &[usize],
) -> (Vec<LocationId>, Vec<u32>) {
    let mut dense = vec![0; offsets[offsets.len() - 1]];
    let cuts: Vec<usize> = bounds.iter().map(|&u| offsets[u]).collect();
    let blocks = bounds.windows(2).map(|w| &dataset.users[w[0]..w[1]]);
    let parts = blocks.zip(blocks::split_mut(&mut dense, &cuts));
    let seen = fan_out(parts.collect(), |(users, dense)| {
        let mut first_seen: HashMap<LocationId, u32, BuildHasherDefault<IdHasher>> =
            HashMap::with_capacity_and_hasher(dataset.pois.len(), Default::default());
        for (c, l) in checkins(users).zip(dense) {
            let next = first_seen.len() as u32;
            *l = *first_seen.entry(c.location).or_insert(next);
        }
        let mut seen: Vec<(LocationId, u32)> = first_seen.into_iter().collect();
        seen.sort_unstable();
        seen
    });
    // The blocks' id lists are sorted runs, which the stable sort merges.
    let mut locations: Vec<LocationId> = seen.iter().flatten().map(|&(id, _)| id).collect();
    locations.sort();
    locations.dedup();
    let parts = seen.iter().zip(blocks::split_mut(&mut dense, &cuts));
    fan_out(parts.collect(), |(seen, dense)| {
        let mut rank = vec![0; seen.len()];
        let mut r = 0;
        for &(id, first) in seen {
            while locations[r] < id {
                r += 1;
            }
            rank[first as usize] = r as u32;
        }
        for l in dense {
            *l = rank[*l as usize];
        }
    });
    (locations, dense)
}

/// The check-ins of `users`, one history after another.
fn checkins(users: &[UserHistory]) -> impl Iterator<Item = &CheckIn> {
    users.iter().flat_map(|u| &u.checkins)
}

/// One location's tally over one block of users in a filter round.
#[derive(Clone, Copy)]
struct Tally {
    /// Kept check-ins there.
    visits: usize,
    /// Distinct kept users there.
    visitors: usize,
    /// The last user counted there: users come one after the other, so
    /// that is all distinct visitors need.
    last: usize,
}

impl Tally {
    const ZERO: Tally = Tally {
        visits: 0,
        visitors: 0,
        last: usize::MAX,
    };
}

/// Applies the user/location sparsity filters until a fixpoint.
///
/// Answers which users and locations survive, and with how many check-ins
/// and visitors; it copies no check-in. `dataset` is expected in the form
/// [`CheckInDataset::from_checkins`] builds — one history per user.
pub fn filter_sparse(dataset: &CheckInDataset, config: FilterConfig) -> Survivors {
    filter_in_blocks(dataset, config, blocks::count(dataset.num_checkins()))
}

/// [`filter_sparse`] over `blocks` user blocks; the survivors are the same
/// for every count.
fn filter_in_blocks(dataset: &CheckInDataset, config: FilterConfig, blocks: usize) -> Survivors {
    let mut offsets = Vec::with_capacity(dataset.users.len() + 1);
    offsets.push(0);
    for u in &dataset.users {
        offsets.push(offsets[offsets.len() - 1] + u.len());
    }
    let bounds = blocks::bounds(&offsets, blocks);
    let (locations, dense) = index(dataset, &offsets, &bounds);
    let user = |u: usize| &dense[offsets[u]..offsets[u + 1]];
    let mut alive = vec![true; locations.len()];
    // How many check-ins each user has left; `None` once the user is out.
    let mut left: Vec<Option<usize>> = (0..dataset.users.len())
        .map(|u| Some(user(u).len()))
        .collect();
    let mut visitors = vec![0; locations.len()];
    let mut visits = vec![0; locations.len()];
    let mut tallies = vec![vec![Tally::ZERO; locations.len()]; bounds.len() - 1];
    loop {
        let (alive_now, left_now) = (&alive, &left);
        let parts = tallies.iter_mut().zip(bounds.windows(2));
        fan_out(parts.collect(), |(tally, w)| {
            tally.fill(Tally::ZERO);
            for u in (w[0]..w[1]).filter(|&u| left_now[u].is_some()) {
                for &l in user(u).iter().filter(|&&l| alive_now[l as usize]) {
                    let t = &mut tally[l as usize];
                    t.visits += 1;
                    if t.last != u {
                        t.last = u;
                        t.visitors += 1;
                    }
                }
            }
        });
        visitors.fill(0);
        visits.fill(0);
        for tally in &tallies {
            for ((visitors, visits), t) in visitors.iter_mut().zip(&mut visits).zip(tally) {
                *visitors += t.visitors;
                *visits += t.visits;
            }
        }
        for (alive, &n) in alive.iter_mut().zip(&visitors) {
            *alive &= n >= config.min_users_per_location;
        }
        // Losing locations can push a user below the threshold, and losing
        // that user can leave a location short of visitors: go round again
        // whenever a check-in or a user went. A round that changes nothing
        // kills only locations no one counted, so its tallies are final.
        let alive_now = &alive;
        let parts = blocks::split_mut(&mut left, &bounds)
            .into_iter()
            .zip(&bounds);
        let changed = fan_out(parts.collect(), |(left, &first)| {
            let mut changed = false;
            for (u, left) in (first..).zip(left) {
                let Some(before) = *left else { continue };
                let kept = user(u).iter().filter(|&&l| alive_now[l as usize]).count();
                *left = (kept >= config.min_checkins_per_user).then_some(kept);
                changed |= kept < before || (left.is_none() && before > 0);
            }
            changed
        });
        if !changed.contains(&true) {
            break;
        }
    }
    Survivors {
        locations,
        dense,
        offsets,
        checkins: left.into_iter().map(|n| n.unwrap_or(0)).collect(),
        visitors,
        visits,
    }
}

/// The whole of §5.1's preparation after grouping: filters `raw`, builds
/// the vocabulary and the statistics of what survives, holds out
/// `holdouts = [validation, test]` users drawn with `rng`, and cuts every
/// history into six-hour sessions of tokens. Returns `[train, validation,
/// test]`, each in dataset order, with the vocabulary and the statistics.
///
/// # Errors
/// [`DataError::BadConfig`] unless more users survive the filter than the
/// two holdouts take together; [`DataError::Invalid`] if a user keeps more
/// check-ins than a `u32` counts.
pub fn prepare<R: Rng + ?Sized>(
    raw: &CheckInDataset,
    filter: FilterConfig,
    holdouts: [usize; 2],
    rng: &mut R,
) -> Result<([TokenizedDataset; 3], Vocabulary, DatasetStats), DataError> {
    prepare_in_blocks(
        raw,
        filter,
        holdouts,
        rng,
        blocks::count(raw.num_checkins()),
    )
}

/// [`prepare`] over `blocks` user blocks; the output is the same for every
/// count.
pub(crate) fn prepare_in_blocks<R: Rng + ?Sized>(
    raw: &CheckInDataset,
    filter: FilterConfig,
    holdouts: [usize; 2],
    rng: &mut R,
    blocks: usize,
) -> Result<([TokenizedDataset; 3], Vocabulary, DatasetStats), DataError> {
    let mut kept = filter_in_blocks(raw, filter, blocks);

    // The vocabulary is the surviving locations in id order, which is
    // dense order, so each token is a running count.
    let mut token_of = vec![DROPPED; kept.locations.len()];
    let mut locations = Vec::new();
    for (l, _) in kept.visitors.iter().enumerate().filter(|v| *v.1 > 0) {
        token_of[l] = locations.len() as u32;
        locations.push(kept.locations[l]);
    }
    let vocab = Vocabulary::from_locations(locations);
    let users: Vec<usize> = kept.users().collect();
    let per_user = users.iter().map(|&u| kept.checkins[u]).collect();
    let cells = kept.visitors.iter().sum();
    let stats = DatasetStats::from_counts(per_user, std::mem::take(&mut kept.visits), cells);

    let [num_validation, num_test] = holdouts;
    if num_validation + num_test >= users.len() {
        return Err(DataError::BadConfig {
            name: "num_validation + num_test",
            expected: "strictly less than the number of users",
        });
    }
    let mut order: Vec<usize> = (0..users.len()).collect();
    order.shuffle(rng);
    // The split of each surviving user: 0 train, 1 validation, 2 test.
    let mut split_of = vec![0u8; users.len()];
    for (rank, &i) in order.iter().enumerate().take(num_validation + num_test) {
        split_of[i] = if rank < num_validation { 1 } else { 2 };
    }
    let mut splits = [
        users.len() - num_validation - num_test,
        num_validation,
        num_test,
    ]
    .map(|n| TokenizedDataset {
        users: Vec::with_capacity(n),
        vocab_size: vocab.len(),
    });

    // Every survivor's sessions, cut on the calling thread, which keeps
    // them in its own allocator arena, and dealt to the splits in user
    // order.
    let longest = users.iter().map(|&u| kept.checkins[u]).max().unwrap_or(0);
    if u32::try_from(longest).is_err() {
        return Err(DataError::Invalid {
            what: format!("a user keeps {longest} check-ins, more than a u32 counts"),
        });
    }
    let mut ends = Vec::with_capacity(longest);
    for (&u, &split) in users.iter().zip(&split_of) {
        let history = &raw.users[u];
        let (checkins, dense) = (&history.checkins, kept.dense_locations(u));
        let tokens = sessions(checkins, dense, &token_of, kept.checkins[u], &mut ends);
        let sequences = UserSequences::from_parts(history.user, tokens, ends.to_vec());
        splits[usize::from(split)].users.push(sequences);
    }
    Ok((splits, vocab, stats))
}

/// Cuts one user's time-ordered check-ins into sessions whose first-to-last
/// span is at most six hours, skipping check-ins at locations the filter
/// dropped: returns their tokens, allocated once at the user's `kept`
/// check-in count (at most `u32::MAX`), and leaves each session's
/// exclusive end in the scratch `ends`.
fn sessions(
    checkins: &[CheckIn],
    dense: &[u32],
    token_of: &[u32],
    kept: usize,
    ends: &mut Vec<u32>,
) -> Vec<u32> {
    let mut tokens = Vec::with_capacity(kept);
    ends.clear();
    let mut first = None;
    for (c, &l) in checkins.iter().zip(dense) {
        let token = token_of[l as usize];
        if token == DROPPED {
            continue;
        }
        // Saturating: check-ins further apart than an `i64` holds still
        // part, and wherever the difference fits it is exact.
        if first.is_none_or(|t: i64| c.timestamp.saturating_sub(t) > SIX_HOURS_SECS) {
            if !tokens.is_empty() {
                ends.push(tokens.len() as u32);
            }
            first = Some(c.timestamp);
        }
        tokens.push(token);
    }
    if !tokens.is_empty() {
        ends.push(tokens.len() as u32);
    }
    debug_assert_eq!(tokens.len(), kept);
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkin::{GeoPoint, Poi, UserId};
    use crate::reference::{filter_sparse_reference, surviving_dataset};

    fn poi(id: u32, lat: f64, lon: f64) -> Poi {
        Poi {
            id: LocationId(id),
            point: GeoPoint { lat, lon },
        }
    }

    /// Ids of the users `filter_sparse` keeps.
    fn survivors(ds: &CheckInDataset, config: FilterConfig) -> Vec<u32> {
        let kept = filter_sparse(ds, config);
        kept.users().map(|u| ds.users[u].user.0).collect()
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
        let config = FilterConfig {
            min_checkins_per_user: 2,
            min_users_per_location: 2,
        };
        assert_eq!(survivors(&ds, config), [1, 3]);
        assert_eq!(filter_sparse(&ds, config).checkins, [3, 0, 2]);
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
        assert_eq!(f.locations, [LocationId(10), LocationId(99)]);
        assert_eq!(f.visitors, [2, 0]);
        assert_eq!(f.visits, [3, 0]);
        assert_eq!(f.checkins, [1, 2]);
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
        assert_eq!(f.users().count(), 0);
        assert_eq!(f.visits.iter().sum::<usize>(), 0);
    }

    #[test]
    fn dense_locations_rank_ids_in_order() {
        let cs = vec![
            CheckIn::new(1, 30, 0),
            CheckIn::new(1, 10, 1),
            CheckIn::new(2, 20, 0),
            CheckIn::new(2, 30, 1),
        ];
        let ds = CheckInDataset::from_checkins(vec![], cs);
        let f = filter_sparse(&ds, FilterConfig::default());
        assert_eq!(f.locations, [10, 20, 30].map(LocationId));
        assert_eq!(f.dense_locations(0), [2, 0]);
        assert_eq!(f.dense_locations(1), [1, 2]);
        // Threshold 10 per user kills everything here.
        assert_eq!(f.users().count(), 0);
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
        let survivors = |checkins: Vec<CheckIn>| {
            survivors(
                &CheckInDataset::from_checkins(vec![], checkins),
                FilterConfig::default(),
            )
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
                let kept = filter_sparse(&ds, config);
                prop_assert_eq!(surviving_dataset(&ds, &kept), filter_sparse_reference(&ds, config));
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
                let filtered = surviving_dataset(&ds, &filter_sparse(&ds, config));
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
