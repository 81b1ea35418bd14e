//! Cross-crate pipeline invariants: persistence round-trips, vocabulary
//! consistency across splits, and generator/filter statistics.

use dp_nextloc::core::experiment::{ExperimentConfig, PreparedData};
use dp_nextloc::data::generator::SyntheticGenerator;
use dp_nextloc::data::io;
use dp_nextloc::data::preprocess::{filter_sparse, FilterConfig};
use dp_nextloc::data::stats::dataset_stats;

fn tiny() -> ExperimentConfig {
    let mut c = ExperimentConfig::small(101);
    c.generator.num_users = 100;
    c.generator.num_locations = 90;
    c.generator.target_checkins = 4_000;
    c.generator.num_clusters = 5;
    c.validation_users = 8;
    c.test_users = 8;
    c
}

#[test]
fn binary_snapshot_survives_the_full_pipeline() {
    let cfg = tiny();
    let raw = SyntheticGenerator::generate_with_seed(cfg.generator.clone(), cfg.seed).unwrap();
    let bytes = io::encode_binary(&raw);
    let restored = io::decode_binary(&bytes).unwrap();
    assert_eq!(raw, restored);

    // Preparing from the restored dataset gives identical tokenised splits.
    let a = PreparedData::from_checkins(&raw, &cfg).unwrap();
    let b = PreparedData::from_checkins(&restored, &cfg).unwrap();
    assert_eq!(a.train, b.train);
    assert_eq!(a.validation, b.validation);
    assert_eq!(a.test, b.test);
}

#[test]
fn csv_export_reimports_to_the_same_histories() {
    let cfg = tiny();
    let raw = SyntheticGenerator::generate_with_seed(cfg.generator.clone(), cfg.seed).unwrap();
    let csv = io::checkins_to_csv(&raw);
    let back = io::checkins_from_csv(&csv).unwrap();
    let rebuilt = dp_nextloc::data::CheckInDataset::from_checkins(raw.pois.clone(), back);
    assert_eq!(raw.users, rebuilt.users);
}

#[test]
fn splits_share_one_vocabulary_and_tokens_are_in_range() {
    let prep = PreparedData::generate(&tiny()).unwrap();
    let l = prep.vocab.len();
    assert_eq!(prep.train.vocab_size, l);
    assert_eq!(prep.validation.vocab_size, l);
    assert_eq!(prep.test.vocab_size, l);
    for split in [&prep.train, &prep.validation, &prep.test] {
        for u in &split.users {
            for s in &u.sessions {
                assert!(s.iter().all(|&t| t < l));
            }
        }
    }
}

#[test]
fn filtering_is_idempotent() {
    let cfg = tiny();
    let raw = SyntheticGenerator::generate_with_seed(cfg.generator.clone(), cfg.seed).unwrap();
    let once = filter_sparse(&raw, FilterConfig::default());
    let twice = filter_sparse(&once, FilterConfig::default());
    assert_eq!(once, twice, "a fixpoint must be stable");
    let s = dataset_stats(&once);
    assert!(s.min_checkins_per_user >= 10 || s.num_users == 0);
}

#[test]
fn generator_matches_paper_statistics_at_full_scale_shape() {
    // Down-scaled proportions of the paper's profile: heavy tail, Zipf
    // skew, sparse user-location matrix.
    let prep = PreparedData::generate(&tiny()).unwrap();
    let s = &prep.stats;
    assert!(s.location_gini > 0.3, "gini {}", s.location_gini);
    assert!(
        s.max_checkins_per_user as f64 >= 3.0 * s.median_checkins_per_user,
        "max {} median {}",
        s.max_checkins_per_user,
        s.median_checkins_per_user
    );
    assert!(s.top1pct_location_share > 0.01);
}
