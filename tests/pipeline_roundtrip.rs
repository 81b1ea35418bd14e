//! Cross-crate pipeline invariants: persistence round-trips, vocabulary
//! consistency across splits, and generator/filter statistics.

use dp_nextloc::core::experiment::{ExperimentConfig, PreparedData};
use dp_nextloc::data::frame::fnv1a64;
use dp_nextloc::data::generator::SyntheticGenerator;
use dp_nextloc::data::io;
use dp_nextloc::data::preprocess::{filter_sparse, FilterConfig, Survivors};
use dp_nextloc::data::stats::dataset_stats;
use dp_nextloc::data::CheckInDataset;

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
    let rebuilt = CheckInDataset::from_checkins(raw.pois.clone(), back);
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
    // The survivors' check-ins at surviving locations, filtered again.
    let kept = once.users().flat_map(|u| {
        let checkins = raw.users[u].checkins.iter().zip(once.dense_locations(u));
        checkins
            .filter(|(_, &l)| once.visitors[l as usize] > 0)
            .map(|(c, _)| *c)
    });
    let survivors = CheckInDataset::from_checkins(vec![], kept.collect());
    let twice = filter_sparse(&survivors, FilterConfig::default());
    let kept_counts = |s: &Survivors| s.users().map(|u| s.checkins[u]).collect::<Vec<_>>();
    let visited = |s: &Survivors| {
        let locations = s.locations.iter().zip(&s.visitors).zip(&s.visits);
        locations
            .filter(|x| *x.0 .1 > 0)
            .map(|((&l, &v), &n)| (l, v, n))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        kept_counts(&twice),
        kept_counts(&once),
        "a fixpoint must be stable"
    );
    assert_eq!(twice.users().count(), survivors.num_users());
    assert_eq!(visited(&twice), visited(&once));
    let s = dataset_stats(&survivors);
    assert!(s.min_checkins_per_user >= 10 || s.num_users == 0);
}

/// fnv1a64 over everything preparation hands a trainer: per split the user
/// ids, session lengths and tokens, then the vocabulary ids and every
/// [`DatasetStats`](dp_nextloc::data::stats::DatasetStats) field (f64s as
/// bits), each as a little-endian u64.
fn prepared_digest(prep: &PreparedData) -> u64 {
    let mut words = Vec::new();
    for split in [&prep.train, &prep.validation, &prep.test] {
        words.push(split.users.len() as u64);
        for u in &split.users {
            words.extend([u64::from(u.user.0), u.sessions.len() as u64]);
            for s in &u.sessions {
                words.push(s.len() as u64);
                words.extend(s.iter().map(|&t| t as u64));
            }
        }
    }
    words.extend(prep.vocab.locations().iter().map(|l| u64::from(l.0)));
    let s = &prep.stats;
    words.extend([
        s.num_users as u64,
        s.num_locations as u64,
        s.num_checkins as u64,
        s.mean_checkins_per_user.to_bits(),
        s.median_checkins_per_user.to_bits(),
        s.max_checkins_per_user as u64,
        s.min_checkins_per_user as u64,
        s.density.to_bits(),
        s.location_gini.to_bits(),
        s.top1pct_location_share.to_bits(),
    ]);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

#[test]
fn prepared_data_matches_the_digests_taken_before_the_single_pass() {
    // Computed by this same digest at commit 4d743ba, where preparation
    // still ran as five stages over copied datasets (filter, statistics,
    // vocabulary, holdout, sessions): the one pass must hand the trainer
    // the same users, sessions, tokens, vocabulary and statistics. Every
    // user of the first two shapes survives the filter; the third drops 26
    // of 300, so which users the holdout draws from shows too.
    let medium = ExperimentConfig::medium(42);
    let mut wide = ExperimentConfig::medium(42);
    wide.generator.num_locations = 30_000;
    wide.generator.num_users = 1_500;
    wide.generator.target_checkins = 400_000;
    let mut dropping = ExperimentConfig::small(42);
    dropping.generator.min_checkins_per_user = 2;
    let digests =
        [medium, wide, dropping].map(|c| prepared_digest(&PreparedData::generate(&c).unwrap()));
    println!("medium(42), train_wide shape, dropping: {digests:#018x?}");
    assert_eq!(
        digests,
        [
            0xf986_fb3c_a6eb_118a,
            0x88cd_bec0_89eb_0770,
            0x6fc0_154b_62a4_a42a
        ]
    );
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
