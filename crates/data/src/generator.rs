//! Synthetic Foursquare-Tokyo check-in generator.
//!
//! The paper's dataset (739,828 check-ins / 4,602 users / 5,069 POIs inside
//! a 35 × 25 km² Tokyo bounding box, 22 months — §5.1) is not
//! redistributable, so this module synthesises a dataset calibrated to the
//! same statistical profile. The generator reproduces the properties every
//! experiment depends on:
//!
//! * **Zipf location popularity** — "the frequency of check-ins of users at
//!   locations follows the Zipf's law" (§4.1): POI choice inside a
//!   neighbourhood is Zipf-distributed.
//! * **Heavy-tailed user activity** — per-user check-in counts are
//!   log-normal with a hard floor (the post-filter minimum of 10), which is
//!   what makes *user-level* DP materially stronger than record-level.
//! * **Geographic clustering + sequential structure** — POIs belong to
//!   neighbourhood clusters; users move among a few favourite clusters with
//!   sticky transitions, so consecutive check-ins are highly predictable —
//!   the signal skip-gram embeddings learn.
//! * **Session structure** — visits arrive in bursts that respect the
//!   six-hour trajectory cap used in evaluation.
//!
//! Everything is driven by one seeded RNG: the same seed yields the same
//! dataset byte-for-byte. [`SyntheticGenerator::generate`] makes every draw
//! on the calling thread, in one fixed order, and only then maps each
//! visit's uniform to its POI and time-sorts each history, per block of
//! users on [`plp_linalg::par::fan_out`]: that pass draws nothing, so the
//! number of blocks cannot show in the dataset.

use std::sync::OnceLock;

use rand::{Rng, RngExt};

use plp_linalg::par::fan_out;
use plp_linalg::sample::{NormalSampler, Zipf};

use crate::blocks;
use crate::checkin::{BoundingBox, CheckIn, GeoPoint, LocationId, Poi, UserId};
use crate::dataset::{CheckInDataset, UserHistory};
use crate::error::DataError;

/// Configuration of the synthetic generator. Defaults reproduce the paper's
/// dataset profile; [`GeneratorConfig::small`] is a fast profile for tests
/// and CI-scale benches.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of users to synthesise.
    pub num_users: usize,
    /// Number of POIs.
    pub num_locations: usize,
    /// Target *total* check-ins (achieved in expectation).
    pub target_checkins: usize,
    /// Number of geographic neighbourhood clusters.
    pub num_clusters: usize,
    /// Zipf exponent for POI choice within a cluster.
    pub zipf_exponent: f64,
    /// Zipf exponent for cluster attractiveness (how unevenly users favour
    /// neighbourhoods).
    pub cluster_zipf_exponent: f64,
    /// Probability of staying in the current cluster at each step.
    pub cluster_stay_prob: f64,
    /// Probability of an excursion to a uniformly random cluster.
    pub explore_prob: f64,
    /// Number of favourite clusters per user.
    pub favorites_per_user: usize,
    /// Minimum check-ins per user (the post-filter floor; paper: 10).
    pub min_checkins_per_user: usize,
    /// Maximum check-ins per user (clamps the log-normal tail).
    pub max_checkins_per_user: usize,
    /// Geographic region.
    pub bbox: BoundingBox,
    /// First possible check-in timestamp (Unix seconds).
    pub start_timestamp: i64,
    /// Observation window length in seconds (paper: 22 months).
    pub duration_secs: i64,
    /// Standard deviation of POI offsets from their cluster centre, in
    /// degrees (~0.005 ≈ 550 m).
    pub poi_scatter_deg: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            num_users: 4602,
            num_locations: 5069,
            target_checkins: 739_828,
            num_clusters: 40,
            zipf_exponent: 1.0,
            cluster_zipf_exponent: 0.6,
            cluster_stay_prob: 0.85,
            explore_prob: 0.03,
            favorites_per_user: 2,
            min_checkins_per_user: 10,
            max_checkins_per_user: 4000,
            bbox: BoundingBox::tokyo(),
            // 2012-04-01 00:00:00 UTC, 22 months ≈ 669 days.
            start_timestamp: 1_333_238_400,
            duration_secs: 669 * 24 * 3600,
            poi_scatter_deg: 0.005,
        }
    }
}

impl GeneratorConfig {
    /// A fast profile (~300 users, 400 POIs, ~15k check-ins) preserving the
    /// same distributional shape; used by unit tests and scaled benches.
    pub fn small() -> Self {
        GeneratorConfig {
            num_users: 300,
            num_locations: 400,
            target_checkins: 15_000,
            num_clusters: 12,
            ..GeneratorConfig::default()
        }
    }

    /// A medium profile (~1200 users, 600 POIs, ~120k check-ins) for the
    /// figure harnesses: large enough for stable accuracy trends, small
    /// enough to sweep many configurations.
    ///
    /// The location count preserves the paper's per-coordinate
    /// signal-to-noise ratio at the smaller population: with m = qN
    /// sampled users the noise in the averaged update scales as
    /// `σC·λ/m` per coordinate while a clipped bucket delta spreads over
    /// `O(√(L·dim))` coordinates, so SNR ∝ `m / (λσ√(L·dim))`. Matching
    /// the paper's N = 4602, L = 5069 at N = 1200 requires L ≈ 600.
    pub fn medium() -> Self {
        GeneratorConfig {
            num_users: 1200,
            num_locations: 600,
            target_checkins: 120_000,
            num_clusters: 10,
            ..GeneratorConfig::default()
        }
    }

    /// A production-scale profile: a ~100k-location city across 400
    /// neighbourhood clusters. This is the vocabulary regime the
    /// million-location serving work targets — big enough that an
    /// exhaustive per-query scan over all locations is the bottleneck
    /// and the IVF index has real cell structure to exploit, while the
    /// user count stays modest so *world* construction (POIs, clusters)
    /// dominates and check-in synthesis remains bench-friendly.
    pub fn city() -> Self {
        GeneratorConfig {
            num_users: 2000,
            num_locations: 100_000,
            target_checkins: 200_000,
            num_clusters: 400,
            ..GeneratorConfig::default()
        }
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    /// Returns [`DataError::BadConfig`] naming the first bad field.
    pub fn validate(&self) -> Result<(), DataError> {
        // Users and POIs are numbered by u32 ids: a larger count would
        // wrap, and two users would share one history.
        if self.num_users == 0 || u32::try_from(self.num_users).is_err() {
            return Err(DataError::BadConfig {
                name: "num_users",
                expected: "in [1, u32::MAX]",
            });
        }
        if self.num_locations == 0 || u32::try_from(self.num_locations).is_err() {
            return Err(DataError::BadConfig {
                name: "num_locations",
                expected: "in [1, u32::MAX]",
            });
        }
        if self.num_clusters == 0 || self.num_clusters > self.num_locations {
            return Err(DataError::BadConfig {
                name: "num_clusters",
                expected: "in [1, num_locations]",
            });
        }
        if !(0.0..=1.0).contains(&self.cluster_stay_prob) {
            return Err(DataError::BadConfig {
                name: "cluster_stay_prob",
                expected: "in [0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&self.explore_prob) {
            return Err(DataError::BadConfig {
                name: "explore_prob",
                expected: "in [0, 1]",
            });
        }
        if self.favorites_per_user == 0 {
            return Err(DataError::BadConfig {
                name: "favorites_per_user",
                expected: ">= 1",
            });
        }
        if self.min_checkins_per_user == 0
            || self.max_checkins_per_user < self.min_checkins_per_user
        {
            return Err(DataError::BadConfig {
                name: "min/max_checkins_per_user",
                expected: "1 <= min <= max",
            });
        }
        if !self.zipf_exponent.is_finite() || self.zipf_exponent < 0.0 {
            return Err(DataError::BadConfig {
                name: "zipf_exponent",
                expected: ">= 0",
            });
        }
        if self.duration_secs <= 0 {
            return Err(DataError::BadConfig {
                name: "duration_secs",
                expected: "> 0",
            });
        }
        Ok(())
    }
}

/// Buffers one user's draws reuse from the last user's.
#[derive(Default)]
struct Scratch {
    favorites: Vec<usize>,
    sizes: Vec<usize>,
    starts: Vec<i64>,
}

/// The generator: holds the world model (clusters, POIs, distributions)
/// built from a [`GeneratorConfig`].
#[derive(Debug, Clone)]
pub struct SyntheticGenerator {
    config: GeneratorConfig,
    /// Cluster index of each POI.
    poi_cluster: Vec<usize>,
    /// POIs of each cluster, ordered by within-cluster popularity rank.
    cluster_pois: Vec<Vec<usize>>,
    /// Within-cluster POI popularity distribution, one per cluster, so
    /// mapping a visit's uniform to a POI is one [`Zipf::rank_of`]. Built
    /// by the first `generate`: construction draws nothing from the RNG,
    /// and a world that only places POIs never needs it.
    cluster_poi_dist: OnceLock<Vec<Zipf>>,
    /// POI coordinates.
    pois: Vec<Poi>,
    /// Cluster attractiveness distribution.
    cluster_dist: Zipf,
}

impl SyntheticGenerator {
    /// Builds the world model (cluster geography, POI placement).
    ///
    /// # Errors
    /// Propagates configuration validation failures.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: GeneratorConfig) -> Result<Self, DataError> {
        config.validate()?;
        let bbox = config.bbox;
        let lat_span = bbox.north - bbox.south;
        let lon_span = bbox.east - bbox.west;
        // Cluster centres, kept off the border so POI scatter stays inside.
        let margin = 0.05;
        let centers: Vec<GeoPoint> = (0..config.num_clusters)
            .map(|_| GeoPoint {
                lat: bbox.south + lat_span * (margin + (1.0 - 2.0 * margin) * rng.random::<f64>()),
                lon: bbox.west + lon_span * (margin + (1.0 - 2.0 * margin) * rng.random::<f64>()),
            })
            .collect();

        let cluster_dist = Zipf::new(config.num_clusters, config.cluster_zipf_exponent).ok_or(
            DataError::BadConfig {
                name: "cluster_zipf_exponent",
                expected: ">= 0",
            },
        )?;

        // Assign POIs to clusters (attractive clusters get more POIs) and
        // scatter them around the centre.
        let mut normal = NormalSampler::new();
        let mut poi_cluster = Vec::with_capacity(config.num_locations);
        let mut cluster_pois: Vec<Vec<usize>> = vec![Vec::new(); config.num_clusters];
        let mut pois = Vec::with_capacity(config.num_locations);
        for p in 0..config.num_locations {
            // Guarantee every cluster owns at least one POI, then sample.
            let c = if p < config.num_clusters {
                p
            } else {
                cluster_dist.sample(rng)
            };
            poi_cluster.push(c);
            cluster_pois[c].push(p);
            let center = centers[c];
            let point = GeoPoint {
                lat: (center.lat + normal.sample_scaled(rng, config.poi_scatter_deg))
                    .clamp(bbox.south, bbox.north),
                lon: (center.lon + normal.sample_scaled(rng, config.poi_scatter_deg))
                    .clamp(bbox.west, bbox.east),
            };
            pois.push(Poi {
                id: LocationId(p as u32),
                point,
            });
        }

        Ok(SyntheticGenerator {
            config,
            poi_cluster,
            cluster_pois,
            cluster_poi_dist: OnceLock::new(),
            pois,
            cluster_dist,
        })
    }

    /// The world's POIs.
    pub fn pois(&self) -> &[Poi] {
        &self.pois
    }

    /// The cluster a POI belongs to.
    pub fn cluster_of(&self, poi: usize) -> Option<usize> {
        self.poi_cluster.get(poi).copied()
    }

    /// Generates the full dataset.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> CheckInDataset {
        self.generate_in_blocks(rng, blocks::count(self.config.target_checkins))
    }

    /// [`SyntheticGenerator::generate`] with the POI mapping cut into
    /// `blocks` user blocks; the dataset is the same for every count.
    pub(crate) fn generate_in_blocks<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        blocks: usize,
    ) -> CheckInDataset {
        let cfg = &self.config;
        let mut normal = NormalSampler::new();
        // Log-normal per-user activity calibrated so the mean hits
        // target_checkins / num_users: mean(LN) = exp(mu + s²/2).
        let mean_target = (cfg.target_checkins as f64 / cfg.num_users as f64)
            .max(cfg.min_checkins_per_user as f64);
        let s = 0.9_f64;
        let mu = mean_target.ln() - 0.5 * s * s;

        // Every draw, in order, on this thread. A history holds each
        // visit's cluster in its location field until the mapping below
        // replaces it; `uniforms` holds the uniform that picks the POI.
        let mut users = Vec::with_capacity(cfg.num_users);
        let mut uniforms = Vec::with_capacity(cfg.target_checkins + cfg.target_checkins / 8);
        let mut offsets = Vec::with_capacity(cfg.num_users + 1);
        offsets.push(0);
        let mut scratch = Scratch::default();
        for user in 0..cfg.num_users {
            let raw = (mu + s * normal.sample(rng)).exp();
            let count =
                (raw.round() as usize).clamp(cfg.min_checkins_per_user, cfg.max_checkins_per_user);
            self.pick_favorites(rng, &mut scratch.favorites);
            let mut checkins = Vec::with_capacity(count);
            self.draw_user(
                rng,
                user as u32,
                count,
                &mut scratch,
                &mut checkins,
                &mut uniforms,
            );
            users.push(UserHistory {
                user: UserId(user as u32),
                checkins,
            });
            offsets.push(uniforms.len());
        }

        let dists = self.cluster_poi_dist.get_or_init(|| {
            let exponent = self.config.zipf_exponent;
            let dist = |members: &Vec<usize>| Zipf::new(members.len(), exponent);
            let dists = self.cluster_pois.iter().map(dist);
            dists
                .collect::<Option<_>>()
                .expect("validated exponent, no empty cluster")
        });
        let bounds = blocks::bounds(&offsets, blocks);
        let parts = blocks::split_mut(&mut users, &bounds);
        let parts = parts
            .into_iter()
            .zip(bounds.windows(2))
            .map(|(histories, w)| (histories, &uniforms[offsets[w[0]]..offsets[w[1]]]));
        fan_out(parts.collect(), |(histories, uniforms)| {
            let mut uniforms = uniforms.iter();
            for history in histories {
                for (c, &u) in history.checkins.iter_mut().zip(&mut uniforms) {
                    let cluster = c.location.0 as usize;
                    let rank = dists[cluster].rank_of(u);
                    c.location = LocationId(self.cluster_pois[cluster][rank] as u32);
                }
                // Sessions are time-ordered runs with sorted starts: most
                // histories are in order already, and the rest are long runs
                // the run-merging stable sort joins. Within a user, equal
                // keys are equal check-ins, so no sort can put them in an
                // order that shows.
                let key = |c: &CheckIn| (c.timestamp, c.location);
                if !history.checkins.is_sorted_by_key(key) {
                    history.checkins.sort_by_key(key);
                }
            }
        });
        CheckInDataset {
            pois: self.pois.clone(),
            users,
        }
    }

    /// Fills `favorites` with the user's favourite clusters.
    fn pick_favorites<R: Rng + ?Sized>(&self, rng: &mut R, favorites: &mut Vec<usize>) {
        let want = self.config.favorites_per_user.min(self.config.num_clusters);
        favorites.clear();
        // Rejection-sample distinct clusters from the attractiveness
        // distribution; favourites are shared across users because they are
        // drawn from the same skewed global distribution.
        let mut guard = 0;
        while favorites.len() < want && guard < 10_000 {
            let c = self.cluster_dist.sample(rng);
            if !favorites.contains(&c) {
                favorites.push(c);
            }
            guard += 1;
        }
        while favorites.len() < want {
            // Degenerate configs (e.g. huge exponent): fill deterministically.
            for c in 0..self.config.num_clusters {
                if !favorites.contains(&c) {
                    favorites.push(c);
                    break;
                }
            }
        }
    }

    /// Draws one user's `count` visits: each one's cluster (in the location
    /// field) and time into `out`, in session order, and the uniform that
    /// will pick its POI into `uniforms`.
    fn draw_user<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        user: u32,
        count: usize,
        scratch: &mut Scratch,
        out: &mut Vec<CheckIn>,
        uniforms: &mut Vec<f64>,
    ) {
        let cfg = &self.config;
        let Scratch {
            favorites,
            sizes,
            starts,
        } = scratch;
        let mut remaining = count;
        // Sessions of 2..=8 visits; starts uniform over the window, sorted.
        sizes.clear();
        while remaining > 0 {
            let size = rng.random_range(2..=8).min(remaining);
            sizes.push(size);
            remaining -= size;
        }
        starts.clear();
        starts.extend(sizes.iter().map(|_| {
            cfg.start_timestamp
                + (rng.random::<f64>() * (cfg.duration_secs - 6 * 3600).max(1) as f64) as i64
        }));
        starts.sort_unstable();

        for (&size, &start) in sizes.iter().zip(starts.iter()) {
            let mut t = start;
            // Each session starts from a favourite neighbourhood.
            let mut cluster = favorites[rng.random_range(0..favorites.len())];
            for step in 0..size {
                if step > 0 {
                    let r: f64 = rng.random();
                    if r < cfg.explore_prob {
                        cluster = rng.random_range(0..cfg.num_clusters);
                    } else if r >= cfg.explore_prob + cfg.cluster_stay_prob {
                        cluster = favorites[rng.random_range(0..favorites.len())];
                    }
                    // 10–90 minutes between visits keeps sessions within the
                    // six-hour trajectory cap for up to 8 visits.
                    t += rng.random_range(600..=5400);
                }
                // The POI within the cluster is Zipf by rank over this one
                // uniform; the mapping waits for the parallel pass.
                uniforms.push(rng.random());
                out.push(CheckIn::new(user, cluster as u32, t));
            }
        }
    }

    /// Convenience: build the world and generate in one call from a seed.
    ///
    /// # Errors
    /// Propagates configuration validation failures.
    pub fn generate_with_seed(
        config: GeneratorConfig,
        seed: u64,
    ) -> Result<CheckInDataset, DataError> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = SyntheticGenerator::new(&mut rng, config)?;
        Ok(g.generate(&mut rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::dataset_stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_profile_matches_targets() {
        let cfg = GeneratorConfig::small();
        let ds = SyntheticGenerator::generate_with_seed(cfg.clone(), 42).unwrap();
        let s = dataset_stats(&ds);
        assert_eq!(s.num_users, cfg.num_users);
        assert!(s.num_locations <= cfg.num_locations);
        // Total within 30% of target (log-normal sampling noise).
        let ratio = s.num_checkins as f64 / cfg.target_checkins as f64;
        assert!((0.7..1.3).contains(&ratio), "ratio {ratio}");
        assert!(s.min_checkins_per_user >= cfg.min_checkins_per_user);
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = SyntheticGenerator::generate_with_seed(GeneratorConfig::small(), 7).unwrap();
        let b = SyntheticGenerator::generate_with_seed(GeneratorConfig::small(), 7).unwrap();
        assert_eq!(a, b);
        let c = SyntheticGenerator::generate_with_seed(GeneratorConfig::small(), 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn pois_lie_inside_the_bbox() {
        let cfg = GeneratorConfig::small();
        let ds = SyntheticGenerator::generate_with_seed(cfg.clone(), 3).unwrap();
        assert!(ds.pois.iter().all(|p| cfg.bbox.contains(&p.point)));
    }

    #[test]
    fn popularity_is_skewed() {
        let ds = SyntheticGenerator::generate_with_seed(GeneratorConfig::small(), 11).unwrap();
        let s = dataset_stats(&ds);
        assert!(s.location_gini > 0.4, "gini {}", s.location_gini);
        // Density in the sparse regime the paper discusses (well under 10%).
        assert!(s.density < 0.12, "density {}", s.density);
    }

    #[test]
    fn timestamps_lie_in_window_and_histories_are_sorted() {
        let cfg = GeneratorConfig::small();
        let ds = SyntheticGenerator::generate_with_seed(cfg.clone(), 5).unwrap();
        ds.validate().unwrap();
        let lo = cfg.start_timestamp;
        let hi = cfg.start_timestamp + cfg.duration_secs + 8 * 5400;
        for u in &ds.users {
            for c in &u.checkins {
                assert!(c.timestamp >= lo && c.timestamp <= hi);
            }
        }
    }

    #[test]
    fn sequential_structure_exists() {
        // Consecutive check-ins should stay in the same cluster far more
        // often than chance — this is the signal skip-gram learns.
        let mut rng = StdRng::seed_from_u64(17);
        let g = SyntheticGenerator::new(&mut rng, GeneratorConfig::small()).unwrap();
        let ds = g.generate(&mut rng);
        let mut same = 0usize;
        let mut total = 0usize;
        for u in &ds.users {
            for w in u.checkins.windows(2) {
                // Only count transitions within a session (< 2h apart).
                if w[1].timestamp - w[0].timestamp <= 2 * 3600 {
                    total += 1;
                    let a = g.cluster_of(w[0].location.0 as usize).unwrap();
                    let b = g.cluster_of(w[1].location.0 as usize).unwrap();
                    if a == b {
                        same += 1;
                    }
                }
            }
        }
        let frac = same as f64 / total as f64;
        assert!(frac > 0.5, "same-cluster transition fraction {frac}");
    }

    #[test]
    fn user_activity_is_heavy_tailed() {
        let ds = SyntheticGenerator::generate_with_seed(GeneratorConfig::small(), 23).unwrap();
        let s = dataset_stats(&ds);
        assert!(
            s.max_checkins_per_user as f64 > 4.0 * s.median_checkins_per_user,
            "max {} median {}",
            s.max_checkins_per_user,
            s.median_checkins_per_user
        );
    }

    #[test]
    fn city_profile_builds_a_100k_location_world() {
        let cfg = GeneratorConfig::city();
        cfg.validate().unwrap();
        assert!(cfg.num_locations >= 100_000);
        let mut rng = StdRng::seed_from_u64(9);
        let g = SyntheticGenerator::new(&mut rng, cfg.clone()).unwrap();
        assert_eq!(g.pois().len(), cfg.num_locations);
        assert!(cfg.bbox.contains(&g.pois()[cfg.num_locations - 1].point));
        // Every POI belongs to a cluster and every cluster is non-empty.
        let mut counts = vec![0usize; cfg.num_clusters];
        for p in 0..cfg.num_locations {
            counts[g.cluster_of(p).unwrap()] += 1;
        }
        assert!(counts.iter().all(|&n| n > 0));
    }

    #[test]
    fn world_build_is_seed_deterministic_at_city_scale() {
        let mut a_rng = StdRng::seed_from_u64(31);
        let mut b_rng = StdRng::seed_from_u64(31);
        let a = SyntheticGenerator::new(&mut a_rng, GeneratorConfig::city()).unwrap();
        let b = SyntheticGenerator::new(&mut b_rng, GeneratorConfig::city()).unwrap();
        assert_eq!(a.pois(), b.pois());
        assert!((0..100_000).all(|p| a.cluster_of(p) == b.cluster_of(p)));
    }

    #[test]
    fn more_users_than_u32_ids_are_refused() {
        // User u is UserId(u as u32): past u32::MAX two users would share
        // an id and merge into one history.
        let mut c = GeneratorConfig::small();
        c.num_users = u32::MAX as usize + 1;
        assert!(matches!(
            c.validate(),
            Err(DataError::BadConfig {
                name: "num_users",
                ..
            })
        ));
        c.num_users = u32::MAX as usize;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn more_locations_than_u32_ids_are_refused() {
        let mut c = GeneratorConfig::small();
        c.num_locations = u32::MAX as usize + 1;
        assert!(matches!(
            c.validate(),
            Err(DataError::BadConfig {
                name: "num_locations",
                ..
            })
        ));
        c.num_locations = u32::MAX as usize;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn config_validation_rejects_bad_fields() {
        let ok = GeneratorConfig::small();
        assert!(ok.validate().is_ok());
        let mut c = ok.clone();
        c.num_users = 0;
        assert!(c.validate().is_err());
        let mut c = ok.clone();
        c.num_clusters = 0;
        assert!(c.validate().is_err());
        let mut c = ok.clone();
        c.num_clusters = c.num_locations + 1;
        assert!(c.validate().is_err());
        let mut c = ok.clone();
        c.cluster_stay_prob = 1.5;
        assert!(c.validate().is_err());
        let mut c = ok.clone();
        c.favorites_per_user = 0;
        assert!(c.validate().is_err());
        let mut c = ok.clone();
        c.max_checkins_per_user = 1;
        c.min_checkins_per_user = 10;
        assert!(c.validate().is_err());
        let mut c = ok.clone();
        c.zipf_exponent = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.duration_secs = 0;
        assert!(c.validate().is_err());
    }
}
