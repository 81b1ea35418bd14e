//! The stage-by-stage composition [`prepare`] replaced, kept as the
//! definition it is tested against: group by user in a map, filter by
//! rebuilding the dataset every round, compute statistics over a map, build
//! a sorted vocabulary, split three cloned datasets and cut each history
//! into sessions of check-ins before looking every token up.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::checkin::{CheckIn, LocationId, Poi, UserId};
use crate::dataset::{CheckInDataset, TokenizedDataset, UserHistory, UserSequences};
use crate::error::DataError;
use crate::preprocess::{prepare, FilterConfig, Survivors, SIX_HOURS_SECS};
use crate::stats::{gini, DatasetStats};
use crate::vocab::Vocabulary;

/// [`CheckInDataset::from_checkins`] as a map from users to pushed vectors.
fn grouped_reference(pois: Vec<Poi>, checkins: Vec<CheckIn>) -> CheckInDataset {
    let mut by_user: BTreeMap<UserId, Vec<CheckIn>> = BTreeMap::new();
    for c in checkins {
        by_user.entry(c.user).or_default().push(c);
    }
    let users = by_user
        .into_iter()
        .map(|(user, mut cs)| {
            cs.sort_by(|a, b| {
                a.timestamp
                    .cmp(&b.timestamp)
                    .then(a.location.cmp(&b.location))
            });
            UserHistory { user, checkins: cs }
        })
        .collect();
    CheckInDataset { pois, users }
}

/// The sparsity filter as a new dataset per round, with its surviving POIs.
pub(crate) fn filter_sparse_reference(
    dataset: &CheckInDataset,
    config: FilterConfig,
) -> CheckInDataset {
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

        let surviving: HashMap<LocationId, bool> =
            checkins.iter().map(|c| (c.location, true)).collect();
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

/// What `kept` keeps of `dataset`, copied out in the reference's form.
pub(crate) fn surviving_dataset(dataset: &CheckInDataset, kept: &Survivors) -> CheckInDataset {
    let alive = |l: LocationId| {
        let dense = kept.locations.binary_search(&l);
        dense.is_ok_and(|l| kept.visitors[l] > 0)
    };
    let users = kept
        .users()
        .map(|u| UserHistory {
            user: dataset.users[u].user,
            checkins: (dataset.users[u].checkins.iter())
                .filter(|c| alive(c.location))
                .copied()
                .collect(),
        })
        .collect();
    let pois = dataset
        .pois
        .iter()
        .filter(|p| alive(p.id))
        .copied()
        .collect();
    CheckInDataset { pois, users }
}

/// The statistics over a map of location counts and a sorted, deduplicated
/// location list per user.
fn dataset_stats_reference(dataset: &CheckInDataset) -> DatasetStats {
    let num_users = dataset.num_users();
    let num_checkins = dataset.num_checkins();

    let mut per_user: Vec<usize> = dataset.users.iter().map(|u| u.len()).collect();
    per_user.sort_unstable();
    let median = if per_user.is_empty() {
        0.0
    } else if per_user.len() % 2 == 1 {
        per_user[per_user.len() / 2] as f64
    } else {
        (per_user[per_user.len() / 2 - 1] + per_user[per_user.len() / 2]) as f64 / 2.0
    };

    let mut loc_counts: HashMap<u32, usize> = HashMap::new();
    let mut nnz_cells = 0usize;
    for u in &dataset.users {
        let mut locs: Vec<u32> = u.checkins.iter().map(|c| c.location.0).collect();
        for &l in &locs {
            *loc_counts.entry(l).or_insert(0) += 1;
        }
        locs.sort_unstable();
        locs.dedup();
        nnz_cells += locs.len();
    }
    let num_locations = loc_counts.len();
    let density = if num_users == 0 || num_locations == 0 {
        0.0
    } else {
        nnz_cells as f64 / (num_users as f64 * num_locations as f64)
    };

    let mut counts: Vec<usize> = loc_counts.values().copied().collect();
    counts.sort_unstable();
    let location_gini = gini(&counts);
    let top1 = ((num_locations as f64 * 0.01).ceil() as usize)
        .max(1)
        .min(counts.len());
    let top_share = if num_checkins == 0 {
        0.0
    } else {
        counts.iter().rev().take(top1).sum::<usize>() as f64 / num_checkins as f64
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
        location_gini,
        top1pct_location_share: top_share,
    }
}

/// Three datasets — train, validation, test — each a clone of its users.
fn holdout_split_reference<R: Rng + ?Sized>(
    rng: &mut R,
    dataset: &CheckInDataset,
    num_validation: usize,
    num_test: usize,
) -> Result<[CheckInDataset; 3], DataError> {
    let n = dataset.num_users();
    if num_validation + num_test >= n {
        return Err(DataError::BadConfig {
            name: "num_validation + num_test",
            expected: "strictly less than the number of users",
        });
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let pick = |indices: &[usize]| -> CheckInDataset {
        let mut sorted = indices.to_vec();
        sorted.sort_unstable();
        CheckInDataset {
            pois: dataset.pois.clone(),
            users: sorted.iter().map(|&i| dataset.users[i].clone()).collect(),
        }
    };
    Ok([
        pick(&order[num_validation + num_test..]),
        pick(&order[..num_validation]),
        pick(&order[num_validation..num_validation + num_test]),
    ])
}

/// A history as sessions of check-ins, each spanning at most six hours.
fn sessionize_reference(history: &UserHistory) -> Vec<Vec<CheckIn>> {
    let mut sessions = Vec::new();
    let mut current: Vec<CheckIn> = Vec::new();
    for &c in &history.checkins {
        match current.first() {
            Some(first) if c.timestamp - first.timestamp <= SIX_HOURS_SECS => current.push(c),
            Some(_) => {
                sessions.push(std::mem::take(&mut current));
                current.push(c);
            }
            None => current.push(c),
        }
    }
    if !current.is_empty() {
        sessions.push(current);
    }
    sessions
}

/// Every session of every user, each check-in looked up in `vocab`.
fn tokenize_reference(dataset: &CheckInDataset, vocab: &Vocabulary) -> TokenizedDataset {
    let users = (dataset.users.iter())
        .map(|h| UserSequences {
            user: h.user,
            sessions: (sessionize_reference(h).iter())
                .map(|s| s.iter().map(|c| vocab.token(c.location).unwrap()).collect())
                .collect(),
        })
        .collect();
    TokenizedDataset {
        users,
        vocab_size: vocab.len(),
    }
}

/// [`prepare`] as the five stages it used to be.
fn prepare_reference<R: Rng + ?Sized>(
    raw: &CheckInDataset,
    filter: FilterConfig,
    [num_validation, num_test]: [usize; 2],
    rng: &mut R,
) -> Result<([TokenizedDataset; 3], Vocabulary, DatasetStats), DataError> {
    let filtered = filter_sparse_reference(raw, filter);
    let stats = dataset_stats_reference(&filtered);
    let visited = filtered.users.iter().flat_map(|u| &u.checkins);
    let vocab = Vocabulary::from_locations(visited.map(|c| c.location).collect());
    let split = holdout_split_reference(rng, &filtered, num_validation, num_test)?;
    Ok((split.map(|d| tokenize_reference(&d, &vocab)), vocab, stats))
}

/// Random check-ins from a multiplicative generator: few users, locations
/// and timestamps so duplicates and ties are common, timestamps on a
/// 90-minute grid so sessions of exactly six hours are too, and low
/// location ids popular.
fn random_checkins(seed: u64, users: u32, locations: u32, count: usize) -> Vec<CheckIn> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = |n: u32| {
        state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
        ((state >> 33) % u64::from(n)) as u32
    };
    (0..count)
        .map(|_| {
            let location = next(locations).min(next(locations));
            let timestamp = i64::from(next(60)) * 5400 + i64::from(next(3) / 2);
            CheckIn::new(next(users), location, timestamp)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prepare_matches_the_reference_composition(
        seed in 0u64..1_000_000,
        num_users in 1u32..40,
        num_locations in 1u32..30,
        num_checkins in 0usize..400,
        min_checkins_per_user in 0usize..7,
        min_users_per_location in 0usize..5,
        num_validation in 0usize..15,
        num_test in 0usize..15,
    ) {
        let checkins = random_checkins(seed, num_users, num_locations, num_checkins);
        let raw = CheckInDataset::from_checkins(vec![], checkins);
        let filter = FilterConfig { min_checkins_per_user, min_users_per_location };
        let holdouts = [num_validation, num_test];
        let mut rng = StdRng::seed_from_u64(seed);
        let got = prepare(&raw, filter, holdouts, &mut rng);
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(got, prepare_reference(&raw, filter, holdouts, &mut rng));
    }

    #[test]
    fn grouping_matches_the_map_reference(
        seed in 0u64..1_000_000,
        num_users in 1u32..40,
        num_checkins in 0usize..300,
        shuffle_seed in 0u64..1_000,
    ) {
        let mut checkins = random_checkins(seed, num_users, 20, num_checkins);
        checkins.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        prop_assert_eq!(
            CheckInDataset::from_checkins(vec![], checkins.clone()),
            grouped_reference(vec![], checkins)
        );
    }
}
