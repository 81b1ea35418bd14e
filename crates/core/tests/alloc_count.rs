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

/// `PreparedData::from_checkins` allocates two buffers per kept user — its
/// token array, sized to its kept check-ins, and its session ends at their
/// exact length — and a bounded number of times besides: the flat tables,
/// and a few per filter round for its two fan-outs (more at two user
/// blocks, where each spawns a thread). No allocation per session, per
/// check-in or per location: the sizing reaches 2·users + 55 on
/// `medium(42)` and 2·users + 95 on the `train_wide` shape, on 2 cores.
#[test]
fn preparation_allocates_twice_per_kept_user_only() {
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
        let users: usize = splits.iter().map(|s| s.num_users()).sum();
        let sessions: usize = splits
            .iter()
            .flat_map(|s| &s.users)
            .map(|u| u.num_sessions())
            .sum();
        let ceiling = (2 * users + 128) as u64;
        println!(
            "preparation, {name}: {allocations} allocations for {users} kept users of {} \
             ({sessions} sessions; ceiling {ceiling})",
            raw.num_users()
        );
        assert!(allocations <= ceiling, "{name}: more than 2·users + 128");
    }
}
