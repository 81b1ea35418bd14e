//! Golden trained bits: the FNV-1a digest of the trained θ (every float
//! as its little-endian bits — embedding, then context, then bias) and of
//! ε's bits, for two private configurations of `end_to_end_private.rs`'s
//! shape — PLP at λ = 4 and DP-SGD — at one and two threads.
//!
//! The θ digests were last re-pinned with `KERNEL_SCHEME_VERSION` 4:
//! DP-Adam's moments are stored in f32, so from the second step on every
//! server update reads rounded moments and every trained bit moves. Before
//! that, with scheme 3, local SGD began to draw one negative set per batch
//! instead of one per pair; and before that the digests were taken before
//! the private step's sum moved from a θ-shaped aggregate into a row sum
//! and its noise, scale and Adam passes fused into one. ε's digest has
//! never moved, because ε does not depend on θ. The digests hold across
//! builds what the in-build identity tests hold only between two paths of
//! one build: a change to the step that moves a single trained bit fails
//! here.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dp_nextloc::core::config::Hyperparameters;
use dp_nextloc::core::dpsgd::train_dpsgd;
use dp_nextloc::core::experiment::{ExperimentConfig, PreparedData};
use dp_nextloc::core::plp::{train_plp, PlpOutcome};
use dp_nextloc::data::frame::fnv1a64;
use dp_nextloc::privacy::PrivacyBudget;

fn tiny() -> ExperimentConfig {
    let mut c = ExperimentConfig::small(55);
    c.generator.num_users = 120;
    c.generator.num_locations = 100;
    c.generator.target_checkins = 5_000;
    c.generator.num_clusters = 5;
    c.validation_users = 10;
    c.test_users = 10;
    c
}

fn fast_hp() -> Hyperparameters {
    Hyperparameters {
        embedding_dim: 12,
        negative_samples: 4,
        sampling_prob: 0.1,
        grouping_factor: 4,
        max_steps: 6,
        budget: PrivacyBudget {
            epsilon: 100.0,
            delta: 2e-4,
        },
        ..Hyperparameters::default()
    }
}

/// `(θ digest, ε digest)` of a finished run.
fn digests(out: &PlpOutcome) -> (u64, u64) {
    let p = &out.params;
    let bytes: Vec<u8> = [p.embedding.as_slice(), p.context.as_slice(), &p.bias]
        .into_iter()
        .flatten()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    (
        fnv1a64(&bytes),
        fnv1a64(&out.summary.epsilon_spent.to_bits().to_le_bytes()),
    )
}

/// ε's digest: the same six steps at the same (q, σ) in every case.
const EPS: u64 = 0x1c8b_5faf_9b5e_2b27;

#[test]
fn trained_theta_and_epsilon_match_the_pinned_digests() {
    let prep = PreparedData::generate(&tiny()).unwrap();
    let plp = fast_hp();
    // (name, seed, hyper-parameters, DP-SGD?, θ digest)
    let cases = [
        (
            "plp lambda 4",
            31,
            plp.clone(),
            false,
            0xc4da_156b_075b_d2d1_u64,
        ),
        ("dp-sgd lambda 1", 13, plp, true, 0xe015_1113_f794_587c),
    ];
    let mut got = Vec::new();
    let mut want = Vec::new();
    for (name, seed, hp, dpsgd, theta) in cases {
        for threads in [1usize, 2] {
            let hp = Hyperparameters {
                threads,
                ..hp.clone()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let out = if dpsgd {
                train_dpsgd(&mut rng, &prep.train, None, &hp)
            } else {
                train_plp(&mut rng, &prep.train, None, &hp)
            }
            .unwrap();
            assert_eq!(out.summary.steps, hp.max_steps as u64, "{name}");
            let (t, e) = digests(&out);
            got.push(format!("{name}, threads={threads}: {t:#018x} {e:#018x}"));
            want.push(format!(
                "{name}, threads={threads}: {theta:#018x} {EPS:#018x}"
            ));
        }
    }
    assert_eq!(got, want);
}
