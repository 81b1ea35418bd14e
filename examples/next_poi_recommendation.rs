//! Next-POI recommendation walkthrough (§3.3 "Model Utilization").
//!
//! Trains a (non-private, for speed) skip-gram on synthetic Tokyo
//! check-ins, then walks through the deployment path: build the profile
//! F(ζ) from a user's recent check-ins, rank all POIs by cosine score,
//! return the top-K — optionally excluding just-visited places — and map
//! tokens back to POI coordinates.
//!
//! Run with: `cargo run --release --example next_poi_recommendation`

use rand::rngs::StdRng;
use rand::SeedableRng;

use dp_nextloc::core::config::Hyperparameters;
use dp_nextloc::core::experiment::{ExperimentConfig, PreparedData};
use dp_nextloc::core::nonprivate::{train_nonprivate, NonPrivateConfig};
use dp_nextloc::data::generator::SyntheticGenerator;
use dp_nextloc::model::metrics::{evaluate_hit_rate, leave_one_out_trials};
use dp_nextloc::model::recommender::RecommendScratch;
use dp_nextloc::model::Recommender;

fn main() {
    let config = ExperimentConfig::small(2024);
    // Regenerate the raw world too so we can resolve coordinates.
    let raw = SyntheticGenerator::generate_with_seed(config.generator.clone(), config.seed)
        .expect("generation");
    let prep = PreparedData::from_checkins(&raw, &config).expect("preparation");

    let hp = Hyperparameters {
        embedding_dim: 32,
        negative_samples: 8,
        ..Hyperparameters::default()
    };
    let mut rng = StdRng::seed_from_u64(11);
    println!("training a non-private skip-gram for a few epochs ...");
    let out = train_nonprivate(
        &mut rng,
        &prep.train,
        None,
        &hp,
        &NonPrivateConfig {
            epochs: 6,
            ..NonPrivateConfig::default()
        },
    )
    .expect("training");

    let recommender = Recommender::new(&out.params);

    // Take a real held-out trajectory as the "recent check-ins" zeta.
    let (input, target) = leave_one_out_trials(&prep.test)
        .into_iter()
        .find(|(i, _)| i.len() >= 3)
        .expect("a test trajectory with >= 3 visits");
    println!("\nrecent check-ins zeta (tokens): {input:?}");
    println!("ground-truth next location: token {target}");

    let top = recommender.recommend(input, 10).expect("recommendation");
    println!("top-10 recommendations: {top:?}");
    println!("hit: {}", top.contains(&target));

    // Same query, but suppress places the user is standing in right now.
    let fresh = recommender
        .recommend_excluding_into(input, 10, input, &mut RecommendScratch::new())
        .expect("recommendation");
    println!("top-10 excluding already-visited: {fresh:?}");

    // Tokens map back to POIs with coordinates via the shared vocabulary.
    println!("\nresolved coordinates of the top-3:");
    for &t in top.iter().take(3) {
        let loc = prep.vocab.location(t).expect("token in vocab");
        if let Some(poi) = raw.pois.iter().find(|p| p.id == loc) {
            println!(
                "  token {t} -> POI {:?} at ({:.4}, {:.4})",
                poi.id.0, poi.point.lat, poi.point.lon
            );
        }
    }

    // Aggregate quality on all held-out users.
    let hr = evaluate_hit_rate(&recommender, &prep.test, &[5, 10, 20]).expect("evaluation");
    println!("\nheld-out quality:");
    for h in &hr {
        println!("  HR@{:<2} = {:.4}", h.k, h.rate());
    }
}
