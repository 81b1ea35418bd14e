//! Dataset containers: per-user check-in histories and their tokenised form.

use std::collections::BTreeMap;

use crate::checkin::{CheckIn, Poi, UserId};
use crate::error::DataError;
use crate::session::sessionize;
use crate::vocab::Vocabulary;

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
    pub fn from_checkins(pois: Vec<Poi>, checkins: Vec<CheckIn>) -> Self {
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

/// One user's data after tokenisation: sessions of location tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct UserSequences {
    /// The owner.
    pub user: UserId,
    /// Sessions (trajectories of at most the configured duration), each a
    /// time-ordered list of location tokens in `0..vocab_size`.
    pub sessions: Vec<Vec<usize>>,
}

impl UserSequences {
    /// Total number of tokens across sessions.
    pub fn num_tokens(&self) -> usize {
        self.sessions.iter().map(|s| s.len()).sum()
    }

    /// Concatenates all sessions into one array — the per-bucket layout of
    /// §4.1 ("grouped data in each bucket is organized as a single array").
    pub fn flattened(&self) -> Vec<usize> {
        self.sessions.iter().flatten().copied().collect()
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
    /// Tokenises `dataset` through `vocab`, splitting each history into
    /// sessions of duration at most `max_session_secs` (the paper uses six
    /// hours, following [10, 34]).
    ///
    /// # Errors
    /// Returns [`DataError::UnknownLocation`] if a check-in's location is
    /// missing from the vocabulary.
    pub fn from_dataset(
        dataset: &CheckInDataset,
        vocab: &Vocabulary,
        max_session_secs: i64,
    ) -> Result<Self, DataError> {
        let mut users = Vec::with_capacity(dataset.users.len());
        for h in &dataset.users {
            let mut sessions = Vec::new();
            for session in sessionize(h, max_session_secs) {
                let mut tokens = Vec::with_capacity(session.len());
                for c in session {
                    tokens.push(vocab.token(c.location).ok_or(DataError::UnknownLocation {
                        location: c.location.0,
                    })?);
                }
                sessions.push(tokens);
            }
            users.push(UserSequences {
                user: h.user,
                sessions,
            });
        }
        Ok(TokenizedDataset {
            users,
            vocab_size: vocab.len(),
        })
    }

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
        let mut nonzero = 0usize;
        for u in &self.users {
            let mut locs: Vec<usize> = u.sessions.iter().flatten().copied().collect();
            locs.sort_unstable();
            locs.dedup();
            nonzero += locs.len();
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
    fn tokenize_respects_sessions_and_vocab() {
        const HOUR: i64 = 3600;
        let cs = vec![
            CheckIn::new(1, 100, 0),
            CheckIn::new(1, 200, HOUR),
            // 10 hours later: a new session.
            CheckIn::new(1, 100, 11 * HOUR),
        ];
        let ds = CheckInDataset::from_checkins(vec![], cs);
        let vocab = Vocabulary::build(&ds);
        let tok = TokenizedDataset::from_dataset(&ds, &vocab, 6 * HOUR).unwrap();
        assert_eq!(tok.vocab_size, 2);
        assert_eq!(tok.users[0].sessions.len(), 2);
        assert_eq!(tok.users[0].sessions[0].len(), 2);
        assert_eq!(tok.users[0].sessions[1].len(), 1);
        assert_eq!(tok.total_tokens(), 3);
        assert_eq!(tok.users[0].flattened().len(), 3);
    }

    #[test]
    fn tokenize_rejects_unknown_location() {
        let cs = vec![CheckIn::new(1, 100, 0)];
        let ds = CheckInDataset::from_checkins(vec![], cs);
        let empty = CheckInDataset::default();
        let vocab = Vocabulary::build(&empty);
        let r = TokenizedDataset::from_dataset(&ds, &vocab, 3600);
        assert!(matches!(
            r,
            Err(DataError::UnknownLocation { location: 100 })
        ));
    }

    #[test]
    fn density_counts_distinct_user_location_pairs() {
        let cs = vec![
            CheckIn::new(1, 100, 0),
            CheckIn::new(1, 100, 10),
            CheckIn::new(1, 200, 20),
            CheckIn::new(2, 100, 0),
        ];
        let ds = CheckInDataset::from_checkins(vec![], cs);
        let vocab = Vocabulary::build(&ds);
        let tok = TokenizedDataset::from_dataset(&ds, &vocab, i64::MAX).unwrap();
        // 3 distinct (user, loc) cells over 2 users x 2 locations.
        assert!((tok.density() - 0.75).abs() < 1e-12);
        let empty = TokenizedDataset {
            users: vec![],
            vocab_size: 0,
        };
        assert_eq!(empty.density(), 0.0);
    }
}
