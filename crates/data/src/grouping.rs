//! Data grouping — the paper's key contribution (§4.1).
//!
//! "Our data grouping technique agglomerates the data of multiple users into
//! buckets H. Given a grouping factor λ, users (and their entire data) are
//! randomly assigned to buckets such that each bucket contains λ users."
//!
//! λ is the one grouping knob: every sampled user lands in exactly one
//! bucket (ω = 1). The paper's two ablations — a user split across ω > 1
//! buckets (§4.2 Case 2) and equal-frequency packing — found no benefit,
//! and neither has a sensitivity argument the ledger could charge, so
//! neither is implemented.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::TokenizedDataset;
use crate::error::DataError;

/// How sampled users are packed into buckets.
///
/// The enum has a single variant only because the benchmark harness calls
/// [`group_data`] with `GroupingStrategy::Random` by name and must build
/// unchanged. It goes with the harness seam of ROADMAP item 1(vi).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupingStrategy {
    /// Shuffle users and cut into consecutive groups of λ.
    #[default]
    Random,
}

/// One training bucket `d_h`: the users it holds and their concatenated
/// token array (the layout `generateBatches` consumes).
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Indices (into the tokenized dataset's user list) of members.
    pub user_indices: Vec<usize>,
    /// The bucket's data as a single token array.
    pub tokens: Vec<usize>,
}

impl Bucket {
    /// Number of tokens in the bucket.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// `true` iff the bucket holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// Packs the sampled users into buckets of `lambda` users each
/// (Algorithm 1, line 6). The last bucket may hold fewer users when the
/// Poisson sample size is not a multiple of λ.
///
/// Every user's data lands in exactly one bucket (ω = 1), which is the
/// precondition of §4.2 Case 1's sensitivity argument. Each bucket's
/// tokens are its members' token arrays, concatenated in member order.
///
/// # Errors
/// `lambda` must be ≥ 1 and every sampled index must be in range.
pub fn group_data<R: Rng + ?Sized>(
    rng: &mut R,
    sampled: &[usize],
    dataset: &TokenizedDataset,
    lambda: usize,
    strategy: GroupingStrategy,
) -> Result<Vec<Bucket>, DataError> {
    if lambda == 0 {
        return Err(DataError::BadConfig {
            name: "lambda",
            expected: ">= 1",
        });
    }
    for &u in sampled {
        if u >= dataset.num_users() {
            return Err(DataError::UnknownUser { user: u as u32 });
        }
    }
    let GroupingStrategy::Random = strategy;
    let mut order = sampled.to_vec();
    order.shuffle(rng);
    Ok(order
        .chunks(lambda)
        .map(|members| {
            let users = members.iter().map(|&u| &dataset.users[u]);
            let mut tokens = Vec::with_capacity(users.clone().map(|u| u.num_tokens()).sum());
            for u in users {
                tokens.extend(u.tokens().iter().map(|&t| t as usize));
            }
            Bucket {
                user_indices: members.to_vec(),
                tokens,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkin::UserId;
    use crate::dataset::UserSequences;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset(sizes: &[usize]) -> TokenizedDataset {
        let users = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                // Two sessions per user, so a bucket's tokens cross session
                // boundaries as well as user boundaries.
                let tokens: Vec<usize> = (0..n).map(|t| (i * 100 + t) % 50).collect();
                let (first, second) = tokens.split_at(n / 2);
                UserSequences::new(UserId(i as u32), vec![first.to_vec(), second.to_vec()])
            })
            .collect();
        TokenizedDataset {
            users,
            vocab_size: 50,
        }
    }

    #[test]
    fn random_grouping_partitions_users() {
        let ds = dataset(&[5, 5, 5, 5, 5, 5, 5]);
        let sampled = vec![0, 1, 2, 3, 4, 5, 6];
        let mut rng = StdRng::seed_from_u64(1);
        let buckets = group_data(&mut rng, &sampled, &ds, 2, GroupingStrategy::Random).unwrap();
        assert_eq!(buckets.len(), 4, "ceil(7/2)");
        let mut all: Vec<usize> = buckets
            .iter()
            .flat_map(|b| b.user_indices.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, sampled, "every user in exactly one bucket");
        // Bucket token arrays are the concatenation of member data.
        for b in &buckets {
            let expected: Vec<usize> = b
                .user_indices
                .iter()
                .flat_map(|&u| ds.users[u].tokens())
                .map(|&t| t as usize)
                .collect();
            assert_eq!(b.tokens, expected);
        }
    }

    #[test]
    fn grouping_validates_inputs() {
        let ds = dataset(&[3]);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(group_data(&mut rng, &[0], &ds, 0, GroupingStrategy::Random).is_err());
        assert!(group_data(&mut rng, &[5], &ds, 1, GroupingStrategy::Random).is_err());
        assert!(group_data(&mut rng, &[], &ds, 2, GroupingStrategy::Random)
            .unwrap()
            .is_empty());
    }

    mod sensitivity_props {
        //! Property tests for the §4.2 Case 1 invariant: every sampled
        //! user's data lands in exactly one bucket — the precondition of the
        //! sum query's sensitivity argument.

        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn every_sampled_user_in_exactly_one_bucket(
                seed in 0u64..1000,
                num_users in 1usize..24,
                lambda in 1usize..9,
            ) {
                let sizes: Vec<usize> = (0..num_users).map(|i| 1 + (i * 7) % 12).collect();
                let ds = dataset(&sizes);
                // A deterministic strict subset exercises partial samples.
                let sampled: Vec<usize> =
                    (0..num_users).filter(|i| !(i + seed as usize).is_multiple_of(3)).collect();
                let mut rng = StdRng::seed_from_u64(seed);
                let buckets =
                    group_data(&mut rng, &sampled, &ds, lambda, GroupingStrategy::Random).unwrap();
                // Exactly ω = 1: each sampled user appears once across all
                // buckets, unsampled users never.
                let mut appearances: Vec<usize> = buckets
                    .iter()
                    .flat_map(|b| b.user_indices.iter().copied())
                    .collect();
                appearances.sort_unstable();
                let mut expected = sampled.clone();
                expected.sort_unstable();
                prop_assert_eq!(appearances, expected);
                // ⌈|S|/λ⌉ buckets (one, under-full, when |S| < λ; one user
                // each at λ = 1), none over λ members and none empty.
                prop_assert_eq!(buckets.len(), sampled.len().div_ceil(lambda));
                prop_assert!(buckets.iter().all(|b| !b.user_indices.is_empty()));
                prop_assert!(buckets.iter().all(|b| b.user_indices.len() <= lambda));
            }
        }
    }
}
