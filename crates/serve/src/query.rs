//! The serving request type and its cache key.

/// One next-POI recommendation request: rank all locations against the
/// profile of `recent` and return the best `k`, never returning anything
/// in `exclude` (§3.3 — typically the locations just visited).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Recent check-in history `ζ` (tokens; must be non-empty).
    pub recent: Vec<usize>,
    /// How many recommendations to return.
    pub k: usize,
    /// Locations to exclude from the result (out-of-range entries are
    /// ignored, matching `Recommender::recommend_excluding_into`).
    pub exclude: Vec<usize>,
}

impl Query {
    /// A query with no exclusions.
    pub fn new(recent: Vec<usize>, k: usize) -> Self {
        Query {
            recent,
            k,
            exclude: Vec::new(),
        }
    }

    /// A query excluding the given locations.
    pub fn with_exclusions(recent: Vec<usize>, k: usize, exclude: Vec<usize>) -> Self {
        Query { recent, k, exclude }
    }

    /// The normalised cache key of this query. Exclusions are sorted and
    /// de-duplicated because exclusion is a set operation: two queries
    /// differing only in exclusion order (or repetition) have identical
    /// results and must share one cache entry.
    pub fn key(&self) -> QueryKey {
        self.key_for_generation(0)
    }

    /// The cache key of this query under a specific model generation.
    /// Hot-swap serving stamps the serving generation into every key so a
    /// cache shared across a swap can never return a stale generation's
    /// result for a fresh query (and vice versa).
    pub fn key_for_generation(&self, generation: u64) -> QueryKey {
        let mut exclude = self.exclude.clone();
        exclude.sort_unstable();
        exclude.dedup();
        QueryKey {
            generation,
            recent: self.recent.clone(),
            k: self.k,
            exclude,
        }
    }
}

/// The normalised `(generation, recent, k, exclude)` identity of a
/// [`Query`], used as the LRU cache key. The full key (not just its hash)
/// is stored, so a hash collision can never serve a wrong result. The
/// generation id keys cached results to the model that produced them;
/// engines outside the hot-swap path use generation 0.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    generation: u64,
    recent: Vec<usize>,
    k: usize,
    exclude: Vec<usize>,
}

impl QueryKey {
    /// The model generation this key is scoped to.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_normalises_exclusions() {
        let a = Query::with_exclusions(vec![1, 2], 5, vec![9, 3, 9]);
        let b = Query::with_exclusions(vec![1, 2], 5, vec![3, 9]);
        assert_eq!(a.key(), b.key());
        let c = Query::with_exclusions(vec![1, 2], 5, vec![3, 8]);
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn key_distinguishes_history_order_and_k() {
        // History order changes the profile average's rounding, so it is
        // part of the identity.
        let a = Query::new(vec![1, 2], 5);
        assert_ne!(a.key(), Query::new(vec![2, 1], 5).key());
        assert_ne!(a.key(), Query::new(vec![1, 2], 6).key());
    }

    #[test]
    fn key_distinguishes_generations() {
        let q = Query::new(vec![1, 2], 5);
        assert_eq!(q.key(), q.key_for_generation(0));
        assert_ne!(q.key_for_generation(1), q.key_for_generation(2));
        assert_eq!(q.key_for_generation(7).generation(), 7);
    }
}
