//! Dataset containers: per-user check-in histories and their tokenised form.

use crate::checkin::{CheckIn, Poi, UserId};
use crate::error::DataError;

/// The historical record `U_u` of one user: check-ins sorted by timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct UserHistory {
    /// The owner of the history.
    pub user: UserId,
    /// Time-ordered check-ins.
    pub checkins: Vec<CheckIn>,
}

impl UserHistory {
    /// Number of check-ins.
    pub fn len(&self) -> usize {
        self.checkins.len()
    }

    /// `true` iff the user has no check-ins.
    pub fn is_empty(&self) -> bool {
        self.checkins.is_empty()
    }
}

/// A user-partitioned check-in dataset (the set `U` over locations `P`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckInDataset {
    /// Points of interest appearing in the data.
    pub pois: Vec<Poi>,
    /// Per-user histories, sorted by user id.
    pub users: Vec<UserHistory>,
}

impl CheckInDataset {
    /// Groups a flat list of check-ins into per-user, time-sorted histories.
    ///
    /// Users are ordered by id; each user's check-ins are sorted by
    /// timestamp (ties broken by location id for determinism).
    pub fn from_checkins(pois: Vec<Poi>, mut checkins: Vec<CheckIn>) -> Self {
        // Stable, so on input already grouped by user — what the binary
        // snapshot and the CSV export write — it is one linear pass.
        checkins.sort_by_key(|c| c.user);
        let users = checkins
            .chunk_by(|a, b| a.user == b.user)
            .map(|run| {
                let mut checkins = run.to_vec();
                // Within a user, equal keys are equal check-ins: an unstable
                // sort cannot put them in an order that shows.
                checkins.sort_unstable_by_key(|c| (c.timestamp, c.location));
                UserHistory {
                    user: run[0].user,
                    checkins,
                }
            })
            .collect();
        CheckInDataset { pois, users }
    }

    /// Number of users `N`.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Total number of check-ins.
    pub fn num_checkins(&self) -> usize {
        self.users.iter().map(|u| u.len()).sum()
    }

    /// Checks structural invariants: histories sorted by user, check-ins
    /// time-sorted, every check-in owned by its history's user.
    ///
    /// # Errors
    /// Returns [`DataError::Invalid`] describing the first violation found.
    pub fn validate(&self) -> Result<(), DataError> {
        for w in self.users.windows(2) {
            if w[0].user >= w[1].user {
                return Err(DataError::Invalid {
                    what: format!("user histories not strictly sorted: {:?}", w[1].user),
                });
            }
        }
        for h in &self.users {
            for c in &h.checkins {
                if c.user != h.user {
                    return Err(DataError::Invalid {
                        what: format!("check-in of {:?} filed under {:?}", c.user, h.user),
                    });
                }
            }
            for w in h.checkins.windows(2) {
                if w[0].timestamp > w[1].timestamp {
                    return Err(DataError::Invalid {
                        what: format!("check-ins of {:?} not time-sorted", h.user),
                    });
                }
            }
        }
        Ok(())
    }
}

/// One user's data after tokenisation: every kept check-in as a location
/// token in `0..vocab_size`, in time order, in one array, and the cut of
/// that array into sessions (trajectories of at most the configured
/// duration) as each session's exclusive end. Session `i` is
/// `tokens[ends[i - 1]..ends[i]]`, with `ends[-1] = 0`; an empty session is
/// two equal ends. This is the per-user form of §4.1's layout ("grouped
/// data in each bucket is organized as a single array"): a user costs two
/// buffers however many sessions it has.
#[derive(Debug, Clone, PartialEq)]
pub struct UserSequences {
    /// The owner.
    pub user: UserId,
    /// Every session's tokens, one session after another.
    tokens: Vec<u32>,
    /// The exclusive end of each session in `tokens`, non-decreasing.
    ends: Vec<u32>,
}

impl UserSequences {
    /// The user's data from its sessions, each a time-ordered list of
    /// tokens.
    ///
    /// # Panics
    /// If a token or the total token count does not fit in `u32`.
    pub fn new(user: UserId, sessions: impl IntoIterator<Item = Vec<usize>>) -> Self {
        let wide = |n: usize| u32::try_from(n).expect("token and token count fit in u32");
        let (mut tokens, mut ends) = (Vec::new(), Vec::new());
        for s in sessions {
            tokens.extend(s.into_iter().map(wide));
            ends.push(wide(tokens.len()));
        }
        UserSequences { user, tokens, ends }
    }

    /// The user's data from its parts as [`UserSequences`] lays them out.
    pub(crate) fn from_parts(user: UserId, tokens: Vec<u32>, ends: Vec<u32>) -> Self {
        debug_assert!(ends.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(ends.last().map_or(0, |&e| e as usize), tokens.len());
        UserSequences { user, tokens, ends }
    }

    /// The sessions in time order, each a slice of [`Self::tokens`].
    pub fn sessions(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (0..self.ends.len()).map(|i| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            &self.tokens[start as usize..self.ends[i] as usize]
        })
    }

    /// Number of sessions.
    pub fn num_sessions(&self) -> usize {
        self.ends.len()
    }

    /// Every token, one session after another.
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// Total number of tokens across sessions.
    pub fn num_tokens(&self) -> usize {
        self.tokens.len()
    }
}

/// A fully tokenised dataset ready for skip-gram training.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenizedDataset {
    /// Per-user token sessions, in the same order as the source dataset.
    pub users: Vec<UserSequences>,
    /// Vocabulary size `L`.
    pub vocab_size: usize,
}

impl TokenizedDataset {
    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Total number of tokens across all users.
    pub fn total_tokens(&self) -> usize {
        self.users.iter().map(|u| u.num_tokens()).sum()
    }

    /// Density as defined for check-in matrices: non-zero (user, location)
    /// cells over `N · L`. The paper quotes location datasets at ~0.1%
    /// density (§1).
    pub fn density(&self) -> f64 {
        if self.users.is_empty() || self.vocab_size == 0 {
            return 0.0;
        }
        // `last[l]` is the last user seen at location `l`: users come one
        // after the other, so that is all distinct cells need.
        let mut last = vec![usize::MAX; self.vocab_size];
        let mut nonzero = 0usize;
        for (i, u) in self.users.iter().enumerate() {
            for &t in u.tokens() {
                let t = t as usize;
                if t >= last.len() {
                    last.resize(t + 1, usize::MAX);
                }
                if last[t] != i {
                    last[t] = i;
                    nonzero += 1;
                }
            }
        }
        nonzero as f64 / (self.users.len() as f64 * self.vocab_size as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkin::{GeoPoint, LocationId};

    fn poi(id: u32) -> Poi {
        Poi {
            id: LocationId(id),
            point: GeoPoint {
                lat: 35.6,
                lon: 139.7,
            },
        }
    }

    #[test]
    fn from_checkins_groups_and_sorts() {
        let cs = vec![
            CheckIn::new(2, 10, 300),
            CheckIn::new(1, 11, 200),
            CheckIn::new(1, 12, 100),
            CheckIn::new(2, 13, 250),
        ];
        let ds = CheckInDataset::from_checkins(vec![poi(10)], cs);
        assert_eq!(ds.num_users(), 2);
        assert_eq!(ds.users[0].user, UserId(1));
        assert_eq!(ds.users[0].checkins[0].location, LocationId(12));
        assert_eq!(ds.users[1].checkins[0].location, LocationId(13));
        ds.validate().unwrap();
        assert_eq!(ds.num_checkins(), 4);
    }

    #[test]
    fn tie_break_is_deterministic() {
        let cs = vec![CheckIn::new(1, 9, 100), CheckIn::new(1, 3, 100)];
        let ds = CheckInDataset::from_checkins(vec![], cs);
        assert_eq!(ds.users[0].checkins[0].location, LocationId(3));
    }

    #[test]
    fn validate_catches_corruption() {
        let cs = vec![CheckIn::new(1, 1, 100), CheckIn::new(1, 2, 50)];
        let mut ds = CheckInDataset::from_checkins(vec![], cs);
        // Corrupt ordering manually.
        ds.users[0].checkins.swap(0, 1);
        assert!(ds.validate().is_err());

        let cs = vec![CheckIn::new(1, 1, 100)];
        let mut ds = CheckInDataset::from_checkins(vec![], cs);
        ds.users[0].checkins[0].user = UserId(9);
        assert!(ds.validate().is_err());
    }

    #[test]
    fn density_counts_distinct_user_location_pairs() {
        let user = |id, sessions| UserSequences::new(UserId(id), sessions);
        let tok = TokenizedDataset {
            users: vec![user(1, vec![vec![0, 0], vec![1]]), user(2, vec![vec![0]])],
            vocab_size: 2,
        };
        // 3 distinct (user, loc) cells over 2 users x 2 locations.
        assert!((tok.density() - 0.75).abs() < 1e-12);
        let empty = TokenizedDataset {
            users: vec![],
            vocab_size: 0,
        };
        assert_eq!(empty.density(), 0.0);
    }

    mod layout_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Users with no sessions and empty sessions come up often:
            /// one case in eight has no session, one session in six is empty.
            #[test]
            fn sessions_read_back_from_one_array(
                id in 0u32..1000,
                sessions in prop::collection::vec(prop::collection::vec(0usize..100, 0..6), 0..8),
            ) {
                let u = UserSequences::new(UserId(id), sessions.clone());
                let back: Vec<Vec<_>> = u
                    .sessions()
                    .map(|s| s.iter().map(|&t| t as usize).collect())
                    .collect();
                prop_assert_eq!(&back, &sessions);
                let flat: Vec<u32> = sessions.iter().flatten().map(|&t| t as u32).collect();
                prop_assert_eq!(u.tokens(), &flat[..]);
                prop_assert_eq!(u.num_sessions(), sessions.len());
                prop_assert_eq!(u.sessions().len(), sessions.len());
                prop_assert_eq!(u.num_tokens(), flat.len());
                prop_assert_eq!(u.user, UserId(id));
            }
        }
    }
}
