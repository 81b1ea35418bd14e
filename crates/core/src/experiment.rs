//! The experiment pipeline: generate → filter → split → tokenize →
//! train → evaluate, fully seeded.
//!
//! This reproduces §5.1's data path: synthetic Tokyo check-ins stand in
//! for the Foursquare export (see DESIGN.md for the substitution
//! rationale), the sparsity filters and the 100-user validation/test
//! holdouts follow the paper, and every stage is derived from one seed so
//! a figure can be regenerated byte-for-byte.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, ToJson, Value};

use plp_data::dataset::{CheckInDataset, TokenizedDataset};
use plp_data::generator::{GeneratorConfig, SyntheticGenerator};
use plp_data::preprocess::{prepare, FilterConfig};
use plp_data::stats::DatasetStats;
use plp_data::vocab::Vocabulary;
use plp_model::metrics::{evaluate_hit_rate, HitRate};
use plp_model::params::ModelParams;

use crate::error::CoreError;

/// Configuration of the data-preparation stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Synthetic-world parameters.
    pub generator: GeneratorConfig,
    /// Sparsity filters (paper defaults).
    pub filter: FilterConfig,
    /// Held-out users for validation (paper: 100).
    pub validation_users: usize,
    /// Held-out users for testing (paper: 100).
    pub test_users: usize,
    /// Master seed for generation and splitting.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper-scale configuration (4,602 users / 5,069 POIs / 100+100
    /// holdouts).
    pub fn paper_scale(seed: u64) -> Self {
        ExperimentConfig {
            generator: GeneratorConfig::default(),
            filter: FilterConfig::default(),
            validation_users: 100,
            test_users: 100,
            seed,
        }
    }

    /// A fast configuration for unit tests and scaled benches.
    pub fn small(seed: u64) -> Self {
        ExperimentConfig {
            generator: GeneratorConfig::small(),
            filter: FilterConfig::default(),
            validation_users: 30,
            test_users: 30,
            seed,
        }
    }

    /// A medium configuration for the figure harnesses.
    pub fn medium(seed: u64) -> Self {
        ExperimentConfig {
            generator: GeneratorConfig::medium(),
            filter: FilterConfig::default(),
            validation_users: 60,
            test_users: 60,
            seed,
        }
    }
}

/// The prepared data of one experiment: tokenised splits over a shared
/// vocabulary.
#[derive(Debug, Clone)]
pub struct PreparedData {
    /// Training users.
    pub train: TokenizedDataset,
    /// Held-out validation users.
    pub validation: TokenizedDataset,
    /// Held-out test users.
    pub test: TokenizedDataset,
    /// The shared location vocabulary: the locations that survive
    /// `filter_sparse` over *all* users, so it is a function of the private
    /// check-ins, not the public POI directory (DESIGN.md §5.2).
    pub vocab: Vocabulary,
    /// Statistics of the filtered dataset.
    pub stats: DatasetStats,
}

impl PreparedData {
    /// Prepares data from a raw check-in dataset (generated or loaded):
    /// one pass of [`prepare`] over a flat table of its check-ins.
    ///
    /// # Errors
    /// A holdout of at least as many users as survive the filter.
    pub fn from_checkins(
        raw: &CheckInDataset,
        config: &ExperimentConfig,
    ) -> Result<Self, CoreError> {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x5EED));
        let holdouts = [config.validation_users, config.test_users];
        let ([train, validation, test], vocab, stats) =
            prepare(raw, config.filter, holdouts, &mut rng)?;
        Ok(PreparedData {
            train,
            validation,
            test,
            vocab,
            stats,
        })
    }

    /// Generates the synthetic world and prepares it.
    ///
    /// # Errors
    /// Propagates generation and preparation errors.
    pub fn generate(config: &ExperimentConfig) -> Result<Self, CoreError> {
        let raw = SyntheticGenerator::generate_with_seed(config.generator.clone(), config.seed)?;
        Self::from_checkins(&raw, config)
    }

    /// Vocabulary size `L`.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }
}

/// A serialisable record of one evaluated configuration — the rows the
/// figure harnesses print.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// Label of the method (e.g. "PLP λ=6" or "DP-SGD").
    pub method: String,
    /// The x-axis value of the figure (ε, q, λ, σ, C or neg).
    pub x: f64,
    /// Hit rates at the configured cutoffs.
    pub hit_rates: Vec<HitRate>,
    /// ε actually spent.
    pub epsilon_spent: f64,
    /// Private steps executed.
    pub steps: u64,
    /// Wall-clock milliseconds of the training loop.
    pub wall_ms: f64,
}

impl ToJson for EvalRecord {
    fn to_json(&self) -> Value {
        json!({
            "method": self.method,
            "x": self.x,
            "hit_rates": self.hit_rates,
            "epsilon_spent": self.epsilon_spent,
            "steps": self.steps,
            "wall_ms": self.wall_ms,
        })
    }
}

/// Evaluates trained parameters on the test users at the given cutoffs.
///
/// # Errors
/// Propagates evaluation errors.
pub fn evaluate(
    params: &ModelParams,
    test: &TokenizedDataset,
    ks: &[usize],
) -> Result<Vec<HitRate>, CoreError> {
    Ok(evaluate_hit_rate(params, test, ks)?)
}

/// Convenience: HR@10 of trained parameters on a held-out set.
///
/// # Errors
/// Propagates evaluation errors.
pub fn hit_rate_at_10(params: &ModelParams, test: &TokenizedDataset) -> Result<f64, CoreError> {
    Ok(evaluate(params, test, &[10])?[0].rate())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        let mut c = ExperimentConfig::small(7);
        c.generator.num_users = 120;
        c.generator.num_locations = 80;
        c.generator.target_checkins = 4000;
        c.generator.num_clusters = 6;
        c.validation_users = 10;
        c.test_users = 10;
        c
    }

    #[test]
    fn pipeline_produces_consistent_splits() {
        let cfg = tiny_config();
        let prep = PreparedData::generate(&cfg).unwrap();
        assert_eq!(prep.validation.num_users(), 10);
        assert_eq!(prep.test.num_users(), 10);
        assert_eq!(
            prep.train.num_users() + 20,
            prep.stats.num_users,
            "train + holdouts = filtered population"
        );
        assert_eq!(prep.train.vocab_size, prep.vocab.len());
        assert!(prep.train.total_tokens() > 0);
        assert!(prep.test.total_tokens() > 0);
    }

    #[test]
    fn pipeline_is_seed_deterministic() {
        let cfg = tiny_config();
        let a = PreparedData::generate(&cfg).unwrap();
        let b = PreparedData::generate(&cfg).unwrap();
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
        let mut cfg2 = cfg;
        cfg2.seed = 8;
        let c = PreparedData::generate(&cfg2).unwrap();
        assert_ne!(a.train, c.train);
    }

    #[test]
    fn filters_enforce_paper_thresholds() {
        let cfg = tiny_config();
        let prep = PreparedData::generate(&cfg).unwrap();
        assert!(prep.stats.min_checkins_per_user >= cfg.filter.min_checkins_per_user);
    }

    #[test]
    fn evaluate_runs_on_prepared_data() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let cfg = tiny_config();
        let prep = PreparedData::generate(&cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let params = ModelParams::init(&mut rng, prep.vocab_size(), 8).unwrap();
        let hr = evaluate(&params, &prep.test, &[5, 10]).unwrap();
        assert_eq!(hr.len(), 2);
        assert!(hr[0].trials > 0);
        let hr10 = hit_rate_at_10(&params, &prep.test).unwrap();
        assert!((0.0..=1.0).contains(&hr10));
    }

    #[test]
    fn records_print_every_field_by_name() {
        // A row of the `figures` JSON line, byte for byte.
        let r = EvalRecord {
            method: "PLP λ=6 \"a\"".into(),
            x: 2.0,
            hit_rates: vec![
                HitRate {
                    k: 5,
                    hits: 3,
                    trials: 40,
                },
                HitRate {
                    k: 10,
                    hits: 7,
                    trials: 40,
                },
            ],
            epsilon_spent: 1.9871,
            steps: 12,
            wall_ms: f64::NAN,
        };
        assert_eq!(
            serde_json::to_string(&serde_json::json!(r)).unwrap(),
            "{\"epsilon_spent\":1.9871,\"hit_rates\":[{\"hits\":3,\"k\":5,\"trials\":40},\
             {\"hits\":7,\"k\":10,\"trials\":40}],\"method\":\"PLP λ=6 \\\"a\\\"\",\
             \"steps\":12,\"wall_ms\":null,\"x\":2.0}"
        );
    }
}
