//! Location vocabulary: the tokenisation step of §3.2 ("every location in P
//! is tokenized to a word in a vocabulary of size L = |P|").

use std::collections::HashMap;

use crate::checkin::LocationId;
use crate::dataset::CheckInDataset;

/// A bijection between [`LocationId`]s and dense token indices `0..L`.
///
/// Token order is the sorted order of location ids, so a vocabulary built
/// from the same set of locations is always identical — important for
/// reproducibility and for sharing models between processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vocabulary {
    locations: Vec<LocationId>,
    index: HashMap<LocationId, usize>,
}

impl Vocabulary {
    /// Builds a vocabulary from every location visited in `dataset`.
    pub fn build(dataset: &CheckInDataset) -> Self {
        let mut locations: Vec<LocationId> = dataset
            .users
            .iter()
            .flat_map(|u| u.checkins.iter().map(|c| c.location))
            .collect();
        locations.sort_unstable();
        locations.dedup();
        Self::from_locations(locations)
    }

    /// Builds a vocabulary from an explicit, possibly unsorted location list
    /// (duplicates are removed).
    pub fn from_locations(mut locations: Vec<LocationId>) -> Self {
        locations.sort_unstable();
        locations.dedup();
        let index = locations.iter().enumerate().map(|(i, &l)| (l, i)).collect();
        Vocabulary { locations, index }
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
        self.index.get(&location).copied()
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
    use crate::checkin::CheckIn;

    #[test]
    fn build_is_sorted_and_deduped() {
        let cs = vec![
            CheckIn::new(1, 30, 0),
            CheckIn::new(1, 10, 1),
            CheckIn::new(2, 30, 2),
            CheckIn::new(2, 20, 3),
        ];
        let ds = CheckInDataset::from_checkins(vec![], cs);
        let v = Vocabulary::build(&ds);
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
