//! How often data preparation allocates — counted, not argued.
//!
//! The whole binary runs behind a counting allocator, so it holds exactly
//! one test function: the count is process-wide and a second test running
//! beside it would be counted too. Run it optimised
//! (`cargo test --release -p plp-core --test alloc_count -- --nocapture`):
//! it prints the figures DESIGN.md quotes.

use plp_core::experiment::{ExperimentConfig, PreparedData};
use plp_data::generator::SyntheticGenerator;
use plp_mmap::CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

/// `PreparedData::from_checkins` allocates once per output session, a
/// bounded number of times per user and a constant number of times
/// besides: no allocation per check-in, per location or per filter round.
#[test]
fn preparation_allocates_per_session_and_per_user_only() {
    let mut wide = ExperimentConfig::medium(42);
    wide.generator.num_locations = 30_000;
    wide.generator.num_users = 1_500;
    wide.generator.target_checkins = 400_000;
    for (name, config) in [
        ("medium(42)", ExperimentConfig::medium(42)),
        ("train_wide shape", wide),
    ] {
        let raw =
            SyntheticGenerator::generate_with_seed(config.generator.clone(), config.seed).unwrap();
        let before = ALLOCATOR.allocations();
        let prep = PreparedData::from_checkins(&raw, &config).unwrap();
        let allocations = ALLOCATOR.allocations() - before;
        let splits = [&prep.train, &prep.validation, &prep.test];
        let sessions: usize = splits
            .iter()
            .flat_map(|s| &s.users)
            .map(|u| u.sessions.len())
            .sum();
        let users = raw.num_users();
        let ceiling = (sessions + 2 * users + 64) as u64;
        println!(
            "preparation, {name}: {allocations} allocations for {sessions} sessions of {users} \
             users (ceiling {ceiling})"
        );
        assert!(
            allocations <= ceiling,
            "{name}: more than sessions + 2·users + 64"
        );
    }
}
