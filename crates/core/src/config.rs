//! Hyper-parameters (Table 1 of the paper) with the §5.1 defaults, and
//! their one encoding: fixed-width words that the checkpoint fingerprint
//! hashes and the federated setup frame carries.

use plp_data::grouping::GroupingStrategy;
use plp_model::train::LocalSgdConfig;
use plp_privacy::PrivacyBudget;

use crate::error::CoreError;

/// Words in [`Hyperparameters::to_words`].
const HP_WORDS: usize = 17;

/// All tunables of the system, named after Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Hyperparameters {
    /// Embedding dimension `dim` (paper: 50).
    pub embedding_dim: usize,
    /// Symmetric context window `win` (paper: 2).
    pub context_window: usize,
    /// Batch size `b`/β (paper: 32).
    pub batch_size: usize,
    /// Negative samples `neg` (paper: 16), drawn once per batch and shared
    /// by its pairs.
    pub negative_samples: usize,
    /// Local SGD learning rate η (paper: 0.06).
    pub learning_rate: f64,
    /// User sampling probability `q` per step (paper default: 0.06).
    pub sampling_prob: f64,
    /// Noise scale σ (paper default: 2.5).
    pub noise_multiplier: f64,
    /// Overall clipping magnitude `C`; each tensor is clipped to `C/√3`
    /// (paper default: 0.5).
    pub clip_norm: f64,
    /// Grouping factor λ (paper default: 4).
    pub grouping_factor: usize,
    /// Data split factor ω (§4.2; the paper sets ω = 1).
    pub split_factor: usize,
    /// How users are packed into buckets.
    pub grouping_strategy: GroupingStrategy,
    /// Privacy budget (ε, δ); δ defaults to the paper's 2·10⁻⁴.
    pub budget: PrivacyBudget,
    /// Step size of the server's DP-Adam over the noisy aggregated delta
    /// (the paper's optimiser, §5.1).
    pub server_learning_rate: f64,
    /// Hard cap on private steps (safety net on top of the budget stop).
    pub max_steps: usize,
    /// Evaluate validation HR@10 every this many steps (0 = never).
    pub eval_every: usize,
    /// Worker threads for bucket updates (1 = sequential; results are
    /// identical either way because bucket RNGs are derived per bucket).
    ///
    /// `0` means *auto*: fan out over at most
    /// `std::thread::available_parallelism()` workers (see
    /// [`Hyperparameters::effective_threads`]). Oversubscribing a host —
    /// e.g. `threads: 4` on a single hardware thread — is strictly slower
    /// than sequential because the workers just time-slice one core, so
    /// auto is the right setting whenever the core count is unknown. Like
    /// every explicit thread count, auto is fingerprint-neutral: results
    /// are bit-identical for any resolved worker count.
    pub threads: usize,
}

impl Default for Hyperparameters {
    fn default() -> Self {
        Hyperparameters {
            embedding_dim: 50,
            context_window: 2,
            batch_size: 32,
            negative_samples: 16,
            learning_rate: 0.06,
            sampling_prob: 0.06,
            noise_multiplier: 2.5,
            clip_norm: 0.5,
            grouping_factor: 4,
            split_factor: 1,
            grouping_strategy: GroupingStrategy::Random,
            budget: PrivacyBudget {
                epsilon: 2.0,
                delta: 2e-4,
            },
            // The paper's η = 0.06 maps to the *local* SGD rate here; the
            // server-side Adam step over the noisy aggregate uses a smaller
            // rate (calibrated empirically — larger values let the DP noise
            // random-walk the parameters out of the useful region, smaller
            // values freeze learning; see EXPERIMENTS.md).
            server_learning_rate: 0.01,
            max_steps: 10_000,
            eval_every: 0,
            threads: 1,
        }
    }
}

impl Hyperparameters {
    /// Validates every field's domain.
    ///
    /// # Errors
    /// Returns [`CoreError::BadConfig`] naming the first bad field.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.embedding_dim == 0 {
            return Err(CoreError::BadConfig {
                name: "embedding_dim",
                expected: ">= 1",
            });
        }
        if self.context_window == 0 {
            return Err(CoreError::BadConfig {
                name: "context_window",
                expected: ">= 1",
            });
        }
        if self.batch_size == 0 {
            return Err(CoreError::BadConfig {
                name: "batch_size",
                expected: ">= 1",
            });
        }
        if self.negative_samples == 0 {
            return Err(CoreError::BadConfig {
                name: "negative_samples",
                expected: ">= 1",
            });
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(CoreError::BadConfig {
                name: "learning_rate",
                expected: "finite and > 0",
            });
        }
        // q = 0 samples nobody yet still spends budget every step; treat
        // it as a configuration bug rather than an expensive no-op.
        if !self.sampling_prob.is_finite() || self.sampling_prob <= 0.0 || self.sampling_prob > 1.0
        {
            return Err(CoreError::BadConfig {
                name: "sampling_prob",
                expected: "in (0, 1]",
            });
        }
        if !(self.noise_multiplier.is_finite() && self.noise_multiplier > 0.0) {
            return Err(CoreError::BadConfig {
                name: "noise_multiplier",
                expected: "finite and > 0",
            });
        }
        if !(self.clip_norm.is_finite() && self.clip_norm > 0.0) {
            return Err(CoreError::BadConfig {
                name: "clip_norm",
                expected: "finite and > 0",
            });
        }
        if self.grouping_factor == 0 {
            return Err(CoreError::BadConfig {
                name: "grouping_factor",
                expected: ">= 1",
            });
        }
        if self.split_factor == 0 {
            return Err(CoreError::BadConfig {
                name: "split_factor",
                expected: ">= 1",
            });
        }
        if self.max_steps == 0 {
            return Err(CoreError::BadConfig {
                name: "max_steps",
                expected: ">= 1",
            });
        }
        // threads == 0 is legal: it selects the auto mode resolved by
        // `effective_threads`, so there is no invalid thread count.
        if !(self.server_learning_rate.is_finite() && self.server_learning_rate > 0.0) {
            return Err(CoreError::BadConfig {
                name: "server_learning_rate",
                expected: "finite and > 0",
            });
        }
        Ok(())
    }

    /// Resolves the configured thread count to the worker fan-out actually
    /// used: `0` (auto) clamps to [`std::thread::available_parallelism`]
    /// (falling back to 1 if the host cannot report it); any explicit
    /// count is used as-is, oversubscribed or not. Always returns ≥ 1.
    ///
    /// The resolved count never appears in the checkpoint fingerprint —
    /// every trainer phase is bit-identical across thread counts — so the
    /// same run may resume under a different `available_parallelism`.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// The local-SGD slice of the configuration.
    pub fn local_sgd(&self) -> LocalSgdConfig {
        LocalSgdConfig {
            learning_rate: self.learning_rate,
            batch_size: self.batch_size,
            window: self.context_window,
            negatives: self.negative_samples,
        }
    }

    /// The configuration's one encoding: the fields in declaration order,
    /// integers as themselves, floats as their bits, the grouping strategy
    /// as its tag.
    pub fn to_words(&self) -> [u64; HP_WORDS] {
        let grouping = match self.grouping_strategy {
            GroupingStrategy::Random => 0,
            GroupingStrategy::EqualFrequency => 1,
        };
        [
            self.embedding_dim as u64,
            self.context_window as u64,
            self.batch_size as u64,
            self.negative_samples as u64,
            self.learning_rate.to_bits(),
            self.sampling_prob.to_bits(),
            self.noise_multiplier.to_bits(),
            self.clip_norm.to_bits(),
            self.grouping_factor as u64,
            self.split_factor as u64,
            grouping,
            self.budget.epsilon.to_bits(),
            self.budget.delta.to_bits(),
            self.server_learning_rate.to_bits(),
            self.max_steps as u64,
            self.eval_every as u64,
            self.threads as u64,
        ]
    }

    /// Decodes [`Hyperparameters::to_words`] exactly. Field domains are
    /// [`Hyperparameters::validate`]'s business, not the decoder's.
    ///
    /// # Errors
    /// [`CoreError::BadConfig`] naming the grouping strategy if its tag is
    /// unknown, or a count that does not fit this platform's `usize`.
    pub fn from_words(w: &[u64; HP_WORDS]) -> Result<Self, CoreError> {
        let bad = |name, expected| CoreError::BadConfig { name, expected };
        let count = |i: usize| usize::try_from(w[i]).map_err(|_| bad("count", "within usize"));
        let float = |i: usize| f64::from_bits(w[i]);
        Ok(Hyperparameters {
            embedding_dim: count(0)?,
            context_window: count(1)?,
            batch_size: count(2)?,
            negative_samples: count(3)?,
            learning_rate: float(4),
            sampling_prob: float(5),
            noise_multiplier: float(6),
            clip_norm: float(7),
            grouping_factor: count(8)?,
            split_factor: count(9)?,
            grouping_strategy: match w[10] {
                0 => GroupingStrategy::Random,
                1 => GroupingStrategy::EqualFrequency,
                _ => return Err(bad("grouping_strategy", "a known tag")),
            },
            budget: PrivacyBudget {
                epsilon: float(11),
                delta: float(12),
            },
            server_learning_rate: float(13),
            max_steps: count(14)?,
            eval_every: count(15)?,
            threads: count(16)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let h = Hyperparameters::default();
        assert_eq!(h.embedding_dim, 50);
        assert_eq!(h.context_window, 2);
        assert_eq!(h.batch_size, 32);
        assert_eq!(h.negative_samples, 16);
        assert_eq!(h.learning_rate, 0.06);
        assert_eq!(h.sampling_prob, 0.06);
        assert_eq!(h.noise_multiplier, 2.5);
        assert_eq!(h.clip_norm, 0.5);
        assert_eq!(h.grouping_factor, 4);
        assert_eq!(h.split_factor, 1);
        assert_eq!(h.budget.delta, 2e-4);
        assert!(h.validate().is_ok());
    }

    #[test]
    fn validation_rejects_each_bad_field() {
        let base = Hyperparameters::default();
        type Mutator = Box<dyn Fn(&mut Hyperparameters)>;
        let cases: Vec<Mutator> = vec![
            Box::new(|h| h.embedding_dim = 0),
            Box::new(|h| h.context_window = 0),
            Box::new(|h| h.batch_size = 0),
            Box::new(|h| h.negative_samples = 0),
            Box::new(|h| h.learning_rate = 0.0),
            Box::new(|h| h.sampling_prob = 1.5),
            Box::new(|h| h.sampling_prob = f64::NAN),
            Box::new(|h| h.noise_multiplier = 0.0),
            Box::new(|h| h.clip_norm = -1.0),
            Box::new(|h| h.grouping_factor = 0),
            Box::new(|h| h.sampling_prob = 0.0),
            Box::new(|h| h.sampling_prob = -0.1),
            Box::new(|h| h.noise_multiplier = -2.5),
            Box::new(|h| h.noise_multiplier = f64::INFINITY),
            Box::new(|h| h.clip_norm = 0.0),
            Box::new(|h| h.clip_norm = f64::NAN),
            Box::new(|h| h.split_factor = 0),
            Box::new(|h| h.max_steps = 0),
            Box::new(|h| h.server_learning_rate = 0.0),
        ];
        for (i, mutate) in cases.iter().enumerate() {
            let mut h = base.clone();
            mutate(&mut h);
            assert!(h.validate().is_err(), "case {i} should fail");
        }
    }

    #[test]
    fn validation_names_the_offending_privacy_bound() {
        let expect_name = |mutate: &dyn Fn(&mut Hyperparameters), name: &str| {
            let mut h = Hyperparameters::default();
            mutate(&mut h);
            match h.validate() {
                Err(CoreError::BadConfig { name: got, .. }) => {
                    assert_eq!(got, name, "wrong field blamed");
                }
                other => panic!("expected BadConfig for {name}, got {other:?}"),
            }
        };
        expect_name(&|h| h.noise_multiplier = 0.0, "noise_multiplier");
        expect_name(&|h| h.noise_multiplier = -1.0, "noise_multiplier");
        expect_name(&|h| h.sampling_prob = 0.0, "sampling_prob");
        expect_name(&|h| h.sampling_prob = 1.0 + 1e-12, "sampling_prob");
        expect_name(&|h| h.clip_norm = 0.0, "clip_norm");
        expect_name(&|h| h.clip_norm = -0.5, "clip_norm");
        expect_name(&|h| h.grouping_factor = 0, "grouping_factor");
        // The boundary values themselves are legal.
        let h = Hyperparameters {
            sampling_prob: 1.0,
            ..Hyperparameters::default()
        };
        assert!(h.validate().is_ok(), "q = 1 (sample everyone) is legal");
    }

    #[test]
    fn threads_zero_is_auto_and_valid() {
        let mut h = Hyperparameters {
            threads: 0,
            ..Hyperparameters::default()
        };
        assert!(h.validate().is_ok(), "threads = 0 selects auto mode");
        let resolved = h.effective_threads();
        assert!(resolved >= 1, "auto resolves to at least one worker");
        let avail = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(resolved, avail, "auto clamps to available_parallelism");
        // Explicit counts pass through untouched, even oversubscribed ones.
        h.threads = 7;
        assert_eq!(h.effective_threads(), 7);
    }

    #[test]
    fn local_sgd_slice_mirrors_fields() {
        let h = Hyperparameters::default();
        let l = h.local_sgd();
        assert_eq!(l.learning_rate, h.learning_rate);
        assert_eq!(l.batch_size, h.batch_size);
        assert_eq!(l.window, h.context_window);
        assert_eq!(l.negatives, h.negative_samples);
    }

    #[test]
    fn words_round_trip_bit_exactly_and_refuse_unknown_tags() {
        // The enum off its default, and no two floats or counts alike, so a
        // float or count read from another field's word cannot go unnoticed.
        let other = Hyperparameters {
            sampling_prob: 0.125,
            eval_every: 5,
            grouping_strategy: GroupingStrategy::EqualFrequency,
            server_learning_rate: 0.1 + 0.2,
            noise_multiplier: -0.0,
            threads: 0,
            ..Hyperparameters::default()
        };
        for h in [Hyperparameters::default(), other] {
            let back = Hyperparameters::from_words(&h.to_words()).unwrap();
            assert_eq!(back, h);
            assert_eq!(back.to_words(), h.to_words(), "bits, -0.0 included");
        }
        let mut w = Hyperparameters::default().to_words();
        w[10] = 2;
        assert!(matches!(
            Hyperparameters::from_words(&w),
            Err(CoreError::BadConfig {
                name: "grouping_strategy",
                ..
            })
        ));
    }
}
