//! Location vocabulary: the tokenisation step of §3.2 ("every location in P
//! is tokenized to a word in a vocabulary of size L = |P|").

use crate::checkin::LocationId;

/// A bijection between [`LocationId`]s and dense token indices `0..L`.
///
/// Token order is the sorted order of location ids, so a vocabulary built
/// from the same set of locations is always identical — important for
/// reproducibility and for sharing models between processes. The sorted
/// list is the whole bijection: a token is a position in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vocabulary {
    locations: Vec<LocationId>,
}

impl Vocabulary {
    /// Builds a vocabulary from an explicit, possibly unsorted location list
    /// (duplicates are removed).
    pub fn from_locations(mut locations: Vec<LocationId>) -> Self {
        locations.sort_unstable();
        locations.dedup();
        Vocabulary { locations }
    }

    /// Vocabulary size `L`.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// `true` iff the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// The token index of `location`, if present.
    pub fn token(&self, location: LocationId) -> Option<usize> {
        self.locations.binary_search(&location).ok()
    }

    /// The location behind token `t`, if in range.
    pub fn location(&self, t: usize) -> Option<LocationId> {
        self.locations.get(t).copied()
    }

    /// All locations in token order.
    pub fn locations(&self) -> &[LocationId] {
        &self.locations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_follow_sorted_deduplicated_ids() {
        let ids = [30, 10, 30, 20].map(LocationId);
        let v = Vocabulary::from_locations(ids.to_vec());
        assert_eq!(v.len(), 3);
        assert_eq!(v.token(LocationId(10)), Some(0));
        assert_eq!(v.token(LocationId(20)), Some(1));
        assert_eq!(v.token(LocationId(30)), Some(2));
        assert_eq!(v.token(LocationId(99)), None);
    }

    #[test]
    fn token_location_round_trip() {
        let v = Vocabulary::from_locations(vec![LocationId(5), LocationId(1), LocationId(5)]);
        assert_eq!(v.len(), 2);
        for t in 0..v.len() {
            let l = v.location(t).unwrap();
            assert_eq!(v.token(l), Some(t));
        }
        assert_eq!(v.location(2), None);
    }

    #[test]
    fn empty_vocabulary() {
        let v = Vocabulary::from_locations(vec![]);
        assert!(v.is_empty());
        assert_eq!(v.token(LocationId(0)), None);
        assert_eq!(v.location(0), None);
    }
}
