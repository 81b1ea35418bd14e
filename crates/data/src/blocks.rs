//! Contiguous user blocks: how the generator and preparation cut their
//! per-user work for [`plp_linalg::par::fan_out`].
//!
//! A block is a run of consecutive users, cut so that blocks hold about
//! equal numbers of check-ins. Every per-user result is a function of that
//! user's check-ins alone, and every cross-user figure is an integer sum,
//! so where the cuts fall never shows in the output.

use std::num::NonZeroUsize;

/// The fewest check-ins a block is worth a thread for.
const MIN_BLOCK_CHECKINS: usize = 1 << 17;

/// How many blocks `checkins` check-ins are cut into: one per core the
/// process may use, but none smaller than [`MIN_BLOCK_CHECKINS`], so a
/// small dataset runs on the calling thread alone.
pub(crate) fn count(checkins: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    cores.min(checkins / MIN_BLOCK_CHECKINS).max(1)
}

/// The user boundaries of `blocks` blocks over users whose check-ins start
/// at `offsets` (`offsets[u]` check-ins come before user `u`, and the last
/// entry is the total): `blocks + 1` ascending indices from 0 to the user
/// count. A block may be empty.
pub(crate) fn bounds(offsets: &[usize], blocks: usize) -> Vec<usize> {
    let users = offsets.len() - 1;
    let total = offsets[users];
    let mut bounds: Vec<usize> = (0..blocks)
        .map(|k| {
            offsets
                .partition_point(|&o| o < total * k / blocks)
                .min(users)
        })
        .collect();
    bounds.push(users);
    bounds
}

/// Cuts `items` at `bounds` (as [`bounds`] returns them) into one mutable
/// slice per block.
pub(crate) fn split_mut<'a, T>(mut items: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    bounds
        .windows(2)
        .map(|w| {
            let (head, tail) = std::mem::take(&mut items).split_at_mut(w[1] - w[0]);
            items = tail;
            head
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_balance_check_ins_and_cover_every_user() {
        // Users of 5, 1, 1, 1, 1, 1 check-ins: two blocks cut after the
        // heavy user, not in the middle of the user list.
        let offsets = [0, 5, 6, 7, 8, 9, 10];
        assert_eq!(bounds(&offsets, 2), [0, 1, 6]);
        assert_eq!(bounds(&offsets, 1), [0, 6]);
        // More blocks than users: some are empty, all users still covered.
        assert_eq!(bounds(&[0, 3, 6], 4), [0, 1, 1, 2, 2]);
        // Trailing users without check-ins belong to the last block.
        assert_eq!(bounds(&[0, 4, 4, 4], 2), [0, 1, 3]);
        assert_eq!(bounds(&[0], 3), [0, 0, 0, 0]);
    }

    #[test]
    fn split_mut_follows_the_bounds() {
        let mut items = [1, 2, 3, 4, 5];
        let parts = split_mut(&mut items, &[0, 2, 2, 5]);
        assert_eq!(parts.len(), 3);
        assert_eq!(*parts[0], [1, 2]);
        assert!(parts[1].is_empty());
        assert_eq!(*parts[2], [3, 4, 5]);
    }

    #[test]
    fn small_inputs_stay_on_one_block() {
        assert_eq!(count(0), 1);
        assert_eq!(count(MIN_BLOCK_CHECKINS - 1), 1);
        assert!(count(1 << 30) >= 1);
    }
}
