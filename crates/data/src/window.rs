//! Skip-gram window extraction.
//!
//! §3.2: "Given a target location check-in c, a symmetric window of `win`
//! context locations to the left and `win` to the right is created to output
//! multiple pairs of target and context locations as training samples."
//! §4.1's `generateBatches()` — shuffle a bucket's pairs and cut them into
//! batches of β — is `plp_model::train::train_on_tokens`.

/// One training example: a (target, context) token pair.
pub type Pair = (usize, usize);

/// Emits every (target, context) pair from `tokens` under a symmetric
/// window of radius `win`.
///
/// `win == 0` yields no pairs. The pair order is deterministic: by target
/// position, then by context offset left-to-right.
pub fn pairs_from_sequence(tokens: &[usize], win: usize) -> Vec<Pair> {
    let mut out = Vec::new();
    pairs_from_sequence_into(tokens, win, &mut out);
    out
}

/// [`pairs_from_sequence`] into a caller-provided buffer. `out` is cleared
/// first and retains its capacity, so the local-SGD loop can reuse one pair
/// buffer across buckets without allocating in steady state.
pub fn pairs_from_sequence_into(tokens: &[usize], win: usize, out: &mut Vec<Pair>) {
    out.clear();
    if win == 0 {
        return;
    }
    for (i, &target) in tokens.iter().enumerate() {
        let lo = i.saturating_sub(win);
        let hi = (i + win).min(tokens.len().saturating_sub(1));
        for (j, &context) in tokens.iter().enumerate().take(hi + 1).skip(lo) {
            if j != i {
                out.push((target, context));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_radius_one() {
        let pairs = pairs_from_sequence(&[10, 20, 30], 1);
        assert_eq!(pairs, vec![(10, 20), (20, 10), (20, 30), (30, 20)]);
    }

    #[test]
    fn window_radius_two_counts() {
        // Interior tokens see 2 left + 2 right; edges are truncated.
        let tokens = [1, 2, 3, 4, 5];
        let pairs = pairs_from_sequence(&tokens, 2);
        // Position 0: 2 pairs, 1: 3, 2: 4, 3: 3, 4: 2 => 14.
        assert_eq!(pairs.len(), 14);
        // Every pair's tokens are within distance 2 in the sequence.
        for (t, c) in pairs {
            let ti = tokens.iter().position(|&x| x == t).unwrap();
            let ci = tokens.iter().position(|&x| x == c).unwrap();
            assert!(ti.abs_diff(ci) <= 2 && ti != ci);
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(pairs_from_sequence(&[], 2).is_empty());
        assert!(pairs_from_sequence(&[7], 2).is_empty());
        assert!(pairs_from_sequence(&[1, 2, 3], 0).is_empty());
    }
}
