//! Session (trajectory) segmentation.
//!
//! Following §5.1 ("each individual trajectory does not exceed a total
//! duration of six hours, following the work in [10, 34]"), a user's
//! check-in history is cut into *sessions*: maximal time-ordered runs whose
//! first-to-last span stays within a maximum duration.

use crate::checkin::CheckIn;
use crate::dataset::UserHistory;

/// Six hours in seconds — the paper's trajectory duration cap.
pub const SIX_HOURS_SECS: i64 = 6 * 3600;

/// Splits `history` into sessions whose total duration (last minus first
/// timestamp) is at most `max_duration_secs`.
///
/// A non-positive duration yields one session per check-in. Check-ins are
/// assumed time-sorted (as [`UserHistory`] guarantees).
pub fn sessionize(history: &UserHistory, max_duration_secs: i64) -> Vec<Vec<CheckIn>> {
    let mut sessions = Vec::new();
    let mut current: Vec<CheckIn> = Vec::new();
    for &c in &history.checkins {
        match current.first() {
            Some(first)
                if max_duration_secs > 0 && c.timestamp - first.timestamp <= max_duration_secs =>
            {
                current.push(c);
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkin::UserId;

    fn history(times: &[i64]) -> UserHistory {
        UserHistory {
            user: UserId(1),
            checkins: times
                .iter()
                .map(|&t| CheckIn::new(1, t as u32, t))
                .collect(),
        }
    }

    #[test]
    fn splits_on_duration() {
        const H: i64 = 3600;
        // 0h, 2h, 5h fit in one 6h session; 7h starts a new one because the
        // span 0..7h exceeds six hours.
        let h = history(&[0, 2 * H, 5 * H, 7 * H, 8 * H]);
        let s = sessionize(&h, SIX_HOURS_SECS);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].len(), 3);
        assert_eq!(s[1].len(), 2);
    }

    #[test]
    fn single_long_run_stays_together_under_duration_cap() {
        let h = history(&[0, 100, 200, 300]);
        let s = sessionize(&h, SIX_HOURS_SECS);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].len(), 4);
    }

    #[test]
    fn empty_history_yields_no_sessions() {
        let h = history(&[]);
        assert!(sessionize(&h, SIX_HOURS_SECS).is_empty());
    }

    #[test]
    fn non_positive_duration_isolates_each_checkin() {
        let h = history(&[0, 10, 20]);
        let s = sessionize(&h, 0);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|x| x.len() == 1));
    }

    #[test]
    fn sessions_preserve_order_and_content() {
        let h = history(&[5, 10, 100_000]);
        let s = sessionize(&h, SIX_HOURS_SECS);
        let flat: Vec<i64> = s.iter().flatten().map(|c| c.timestamp).collect();
        assert_eq!(flat, vec![5, 10, 100_000]);
    }
}
