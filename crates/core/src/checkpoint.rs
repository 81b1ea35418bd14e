//! Crash-safe training checkpoints.
//!
//! A [`TrainingCheckpoint`] captures everything a private training run
//! needs to resume bit-identically after a crash: the model parameters,
//! the server-optimizer state (including Adam's moment estimates), the
//! auditable privacy ledger, the run seed and the number of completed
//! steps. On disk it is a PLPS container image (`plp_data::frame`): θ and
//! Adam's `m`, `v` as tensor sections, the scalars and the ledger rows as
//! word sections. The container supplies the checksums over every byte,
//! the typed rejection reasons and the atomic writer; this module adds
//! what only a checkpoint knows:
//!
//! * **Config-fingerprinted**: the image carries a fingerprint of the
//!   hyper-parameters (and vocabulary size) that produced it; a resumed
//!   run refuses to start under a different configuration, because mixing
//!   configurations would silently invalidate both the model and the
//!   privacy accounting.
//! * **Self-consistent**: the ledger entries must be valid, their step
//!   total must equal the stored step, Adam's moments must have θ's shape
//!   and every tensor must be finite — damage re-sealed under valid
//!   checksums is still refused.
//!
//! The privacy ledger inside the checkpoint is the source of truth for ε:
//! resuming rebuilds the moments accountant from the ledger entries
//! rather than trusting any cached ε value.

use std::fs;
use std::path::Path;

use plp_data::frame::{self, fnv1a64, SnapshotError, Words};
use plp_model::optimizer::{ServerAdam, ServerSgd};
use plp_model::params::ModelParams;
use plp_model::plps::{param_sections, PlpsSnapshot, KIND_EMBEDDING};
use plp_model::ModelError;
use plp_privacy::accountant::LedgerEntry;
use plp_privacy::PrivacyLedger;

use crate::config::Hyperparameters;
use crate::error::CoreError;

/// Base section kind of Adam's first-moment triple (θ sits at
/// [`KIND_EMBEDDING`]).
const KIND_ADAM_M: u16 = 3;
/// Base section kind of Adam's second-moment triple.
const KIND_ADAM_V: u16 = 6;
/// Section kind: `fingerprint · run_seed · step · server tag · learning
/// rate`, then for Adam `β₁ · β₂ · ε · t` — one word each, floats as bits.
const KIND_META: u16 = 16;
/// Section kind: one `q bits · σ bits · steps` row per ledger entry.
const KIND_LEDGER: u16 = 17;

const SERVER_SGD: u64 = 0;
const SERVER_ADAM: u64 = 1;

/// Version of the noise-RNG scheme, folded into [`config_fingerprint`]:
/// any future change to how per-step noise is derived (stream seeding,
/// domains, bias chunking) must bump this so old checkpoints cannot
/// silently resume onto a different noise trajectory.
pub const RNG_SCHEME_VERSION: u64 = 2;

/// Version of the dense-kernel reduction scheme, folded into
/// [`config_fingerprint`] exactly like [`RNG_SCHEME_VERSION`]: the unrolled
/// lane count of `plp_linalg::ops` fixes the floating-point reduction order
/// of every dot product and norm, so changing it (scheme 1 = four lanes,
/// scheme 2 = eight lanes) forks the bit stream of every trained model.
/// Any future kernel-order change must bump this so old checkpoints cannot
/// silently resume under a different reduction order.
pub const KERNEL_SCHEME_VERSION: u64 = 2;

/// Server-optimizer state as stored in a checkpoint.
// A checkpoint holds exactly one of these, so the Sgd/Adam size gap is
// irrelevant; boxing the moment tensors would only complicate the codec.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ServerState {
    /// Plain averaging server (stateless beyond its rate).
    Sgd {
        /// Server learning rate.
        learning_rate: f64,
    },
    /// DP-Adam with its full moment state.
    Adam {
        /// Step size α.
        learning_rate: f64,
        /// First-moment decay β₁.
        beta1: f64,
        /// Second-moment decay β₂.
        beta2: f64,
        /// Numerical-stability constant ε.
        eps: f64,
        /// Steps taken (drives bias correction).
        t: u64,
        /// First-moment estimate.
        m: ModelParams,
        /// Second-moment estimate.
        v: ModelParams,
    },
}

impl ServerState {
    /// Captures the state of a live optimizer.
    pub fn of_sgd(sgd: &ServerSgd) -> Self {
        ServerState::Sgd {
            learning_rate: sgd.learning_rate,
        }
    }

    /// Captures the state of a live Adam optimizer.
    pub fn of_adam(adam: &ServerAdam) -> Self {
        let (t, m, v) = adam.state();
        ServerState::Adam {
            learning_rate: adam.learning_rate,
            beta1: adam.beta1,
            beta2: adam.beta2,
            eps: adam.eps,
            t,
            m: m.clone(),
            v: v.clone(),
        }
    }
}

/// Everything needed to resume a private training run bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingCheckpoint {
    /// Fingerprint of the configuration that produced this checkpoint
    /// (see [`config_fingerprint`]).
    pub fingerprint: u64,
    /// The run's base seed; per-step randomness derives from
    /// `(run_seed, step)`, which is what makes resumption bit-identical.
    pub run_seed: u64,
    /// Completed (and privacy-accounted) steps.
    pub step: u64,
    /// Model parameters after `step` steps.
    pub params: ModelParams,
    /// Server-optimizer state after `step` steps.
    pub server: ServerState,
    /// The auditable privacy ledger — the source of truth for ε.
    pub ledger: PrivacyLedger,
}

/// Fingerprints a training configuration: FNV-1a 64 over the little-endian
/// bytes of [`Hyperparameters::to_words`], then the vocabulary size, the
/// noise-RNG scheme version and the dense-kernel scheme version, one word
/// each. Any change to one of these yields a different fingerprint, so
/// checkpoints cannot silently resume under mismatched settings.
///
/// `threads` is deliberately normalised out: every phase of the trainer is
/// bit-identical across thread counts (strided partitions with ordered
/// reductions, counter-based noise streams, element-wise server updates),
/// so a run checkpointed at one thread count may resume at another and
/// stay on the exact same trajectory.
pub fn config_fingerprint(hp: &Hyperparameters, vocab_size: usize) -> u64 {
    let canonical = Hyperparameters {
        threads: 1,
        ..hp.clone()
    };
    let tail = [vocab_size as u64, RNG_SCHEME_VERSION, KERNEL_SCHEME_VERSION];
    let bytes: Vec<u8> = canonical
        .to_words()
        .iter()
        .chain(&tail)
        .flat_map(|w| w.to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

/// Serializes a checkpoint to its container image.
pub fn encode_checkpoint(ckpt: &TrainingCheckpoint) -> Vec<u8> {
    let mut meta = vec![ckpt.fingerprint, ckpt.run_seed, ckpt.step];
    let mut sections = param_sections(&ckpt.params, KIND_EMBEDDING).to_vec();
    match &ckpt.server {
        ServerState::Sgd { learning_rate } => {
            meta.extend([SERVER_SGD, learning_rate.to_bits()]);
        }
        ServerState::Adam {
            learning_rate,
            beta1,
            beta2,
            eps,
            t,
            m,
            v,
        } => {
            let scalars = [learning_rate, beta1, beta2, eps].map(|x| x.to_bits());
            meta.push(SERVER_ADAM);
            meta.extend(scalars);
            meta.push(*t);
            sections.extend(param_sections(m, KIND_ADAM_M));
            sections.extend(param_sections(v, KIND_ADAM_V));
        }
    }
    let ledger: Vec<u64> = ckpt
        .ledger
        .entries()
        .iter()
        .flat_map(|e| [e.q.to_bits(), e.noise_multiplier.to_bits(), e.steps])
        .collect();
    sections.push((KIND_META, 1, Words::U64(&meta)));
    sections.push((KIND_LEDGER, 3, Words::U64(&ledger)));
    frame::encode(&sections, 0, 0)
}

/// Decodes and integrity-checks a checkpoint image.
///
/// # Errors
/// [`CoreError::CheckpointCorrupt`] with the container's typed reason on
/// any truncation, bad or legacy magic, CRC mismatch, missing or
/// mis-shaped section, non-finite tensor, invalid ledger entry, or a step
/// count disagreeing with the ledger.
pub fn decode_checkpoint(image: Vec<u8>) -> Result<TrainingCheckpoint, CoreError> {
    decode(image).map_err(|e| match e {
        ModelError::Snapshot(e) => CoreError::CheckpointCorrupt(e),
        other => CoreError::Model(other),
    })
}

fn decode(image: Vec<u8>) -> Result<TrainingCheckpoint, ModelError> {
    // Checksums hold but the content cannot be resumed.
    let inconsistent = |what| ModelError::Snapshot(SnapshotError::Inconsistent { what });
    let snap = PlpsSnapshot::from_bytes(image)?;
    snap.verify_bodies()?;
    let tensors = |base: u16| {
        let params = snap.params_at(base)?;
        if !params.all_finite() {
            return Err(inconsistent("non-finite tensor"));
        }
        Ok(params)
    };
    let params = tensors(KIND_EMBEDDING)?;
    let meta = snap.words(KIND_META, 1)?;
    let float = |i: usize| f64::from_bits(meta[i]);
    let server = match meta.get(3) {
        Some(&SERVER_SGD) if meta.len() == 5 => ServerState::Sgd {
            learning_rate: float(4),
        },
        Some(&SERVER_ADAM) if meta.len() == 9 => {
            let (m, v) = (tensors(KIND_ADAM_M)?, tensors(KIND_ADAM_V)?);
            if !params.same_shape(&m) || !params.same_shape(&v) {
                return Err(inconsistent("Adam moment shapes differ from θ"));
            }
            ServerState::Adam {
                learning_rate: float(4),
                beta1: float(5),
                beta2: float(6),
                eps: float(7),
                t: meta[8],
                m,
                v,
            }
        }
        _ => return Err(inconsistent("unknown server state")),
    };
    let entry = |w: &[u64]| LedgerEntry {
        q: f64::from_bits(w[0]),
        noise_multiplier: f64::from_bits(w[1]),
        steps: w[2],
    };
    let entries = snap
        .words(KIND_LEDGER, 3)?
        .chunks_exact(3)
        .map(entry)
        .collect();
    let ledger =
        PrivacyLedger::from_entries(entries).map_err(|_| inconsistent("invalid ledger entry"))?;
    if ledger.total_steps() != meta[2] {
        return Err(inconsistent("step count disagrees with ledger"));
    }
    Ok(TrainingCheckpoint {
        fingerprint: meta[0],
        run_seed: meta[1],
        step: meta[2],
        params,
        server,
        ledger,
    })
}

/// Reads and integrity-checks a checkpoint from `path`.
///
/// # Errors
/// [`CoreError::Io`] on filesystem failures, [`CoreError::CheckpointCorrupt`]
/// on a damaged file.
pub fn load_checkpoint(path: &Path) -> Result<TrainingCheckpoint, CoreError> {
    let image = fs::read(path).map_err(|e| CoreError::Io {
        message: e.to_string(),
    })?;
    decode_checkpoint(image)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_pinned_at_the_paper_defaults() {
        // FNV-1a over the words, not over any text rendering: a change to
        // this value orphans every checkpoint on disk, so it must be made
        // on purpose (a scheme bump or a new field).
        assert_eq!(
            config_fingerprint(&Hyperparameters::default(), 600),
            0xfa52_14dc_3a4e_efda
        );
    }

    #[test]
    fn fingerprint_moves_with_every_field_but_threads() {
        let base = Hyperparameters::default();
        let a = config_fingerprint(&base, 100);
        assert_ne!(a, config_fingerprint(&base, 101), "vocab matters");
        // One mutation per word of `to_words`, threads last.
        type Mutator = fn(&mut Hyperparameters);
        let fields: [(&str, Mutator); 19] = [
            ("embedding_dim", |h| h.embedding_dim += 1),
            ("context_window", |h| h.context_window += 1),
            ("batch_size", |h| h.batch_size += 1),
            ("negative_samples", |h| h.negative_samples += 1),
            ("learning_rate", |h| h.learning_rate *= 2.0),
            ("sampling_prob", |h| h.sampling_prob *= 2.0),
            ("noise_multiplier", |h| h.noise_multiplier += 0.1),
            ("clip_norm", |h| h.clip_norm *= 2.0),
            ("grouping_factor", |h| h.grouping_factor += 1),
            ("split_factor", |h| h.split_factor += 1),
            ("grouping_strategy", |h| {
                h.grouping_strategy = plp_data::grouping::GroupingStrategy::EqualFrequency
            }),
            ("epsilon", |h| h.budget.epsilon *= 2.0),
            ("delta", |h| h.budget.delta *= 2.0),
            ("loss", |h| h.loss = plp_model::loss::Loss::Sgns),
            ("server_optimizer", |h| {
                h.server_optimizer = crate::config::ServerOptimizer::Sgd {
                    learning_rate: 0.01,
                }
            }),
            ("server learning rate", |h| {
                h.server_optimizer = crate::config::ServerOptimizer::Adam {
                    learning_rate: 0.02,
                }
            }),
            ("max_steps", |h| h.max_steps += 1),
            ("eval_every", |h| h.eval_every += 1),
            // Every trainer phase is bit-identical across thread counts, so
            // a checkpoint taken at one count must resume at any other — 0,
            // the auto mode, included.
            ("threads", |h| h.threads = 0),
        ];
        for (name, mutate) in fields {
            let mut hp = base.clone();
            mutate(&mut hp);
            assert_ne!(hp.to_words(), base.to_words(), "{name} is a word");
            let moved = config_fingerprint(&hp, 100) != a;
            assert_eq!(moved, name != "threads", "{name}");
        }
        for threads in [2, 8, 32] {
            let hp = Hyperparameters {
                threads,
                ..base.clone()
            };
            assert_eq!(config_fingerprint(&hp, 100), a, "threads={threads}");
        }
    }
}
