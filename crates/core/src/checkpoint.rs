//! Crash-safe training checkpoints.
//!
//! A [`TrainingCheckpoint`] is a private training run between two steps:
//! the model parameters, the server optimiser (Adam's moment estimates
//! included), the run seed and the number of completed steps. The trainer
//! steps that very value, and a save encodes it where it lies together
//! with the auditable privacy ledger beside it — everything a run needs to
//! resume bit-identically after a crash. On disk it is a PLPS container
//! image (`plp_data::frame`): θ and Adam's `m`, `v` as tensor sections, the
//! scalars and the ledger rows as word sections. The container supplies the
//! checksums over every byte, the typed rejection reasons and the atomic
//! writer; this module adds what only a checkpoint knows:
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
use plp_model::optimizer::ServerAdam;
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
/// rate · β₁ · β₂ · ε · t` — one word each, floats as bits. The tag is
/// always [`SERVER_ADAM`] and β₁, β₂, ε are always [`ServerAdam`]'s
/// constants; both stay in the layout, and are checked on decode.
const KIND_META: u16 = 16;
/// Section kind: one `q bits · σ bits · steps` row per ledger entry.
const KIND_LEDGER: u16 = 17;

/// The server tag of a DP-Adam run.
const SERVER_ADAM: u64 = 1;
/// β₁, β₂ and ε, in the order the meta section stores them.
const ADAM_CONSTANTS: [f64; 3] = [ServerAdam::BETA1, ServerAdam::BETA2, ServerAdam::EPS];

/// Version of the noise-RNG scheme, folded into [`config_fingerprint`]:
/// any change to how per-step noise is derived (stream seeding, domains,
/// bias chunking, the Gaussian kernel) must bump this so old checkpoints
/// cannot silently resume onto a different noise trajectory. Scheme 1 drew
/// all of a step's noise from one sequential sampler; scheme 2 is per-row
/// SplitMix64 streams (`noise::step_noise_seed`, `stream_seed`,
/// 64-element bias pseudo-rows) feeding Box–Muller with a cached spare;
/// scheme 3 keeps the streams and feeds them to a 256-layer ziggurat, one
/// `u64` per try. `noise::tests` pins each scheme's bits.
pub const RNG_SCHEME_VERSION: u64 = 3;

/// Version of the local-SGD kernel scheme, folded into
/// [`config_fingerprint`] exactly like [`RNG_SCHEME_VERSION`]: anything
/// that forks the bit stream of every trained model from the same seeds
/// bumps it, so old checkpoints cannot silently resume onto another
/// trajectory. Scheme 1 = four-lane `plp_linalg::ops` reductions; scheme
/// 2 = eight lanes, which fixes the floating-point reduction order of
/// every dot product and norm; scheme 3: one negative set per batch — each
/// batch of local SGD draws one uniform set S shared by its pairs instead
/// of one per pair, so the RNG draws and the rows touched both change.
pub const KERNEL_SCHEME_VERSION: u64 = 3;

/// A private training run between two steps: everything Algorithm 1
/// carries from one step to the next but the privacy ledger, which sits
/// beside it — in the trainer's accountant while the run is live, in its
/// own section on disk — and is the source of truth for ε.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingCheckpoint {
    /// Fingerprint of the configuration that produced this run (see
    /// [`config_fingerprint`]).
    pub fingerprint: u64,
    /// The run's base seed; per-step randomness derives from
    /// `(run_seed, step)`, which is what makes resumption bit-identical.
    pub run_seed: u64,
    /// Completed (and privacy-accounted) steps.
    pub step: u64,
    /// Model parameters after `step` steps.
    pub params: ModelParams,
    /// The server's DP-Adam after `step` steps (Algorithm 1, line 10).
    pub server: ServerAdam,
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

/// Serializes a run and its privacy ledger to a checkpoint image, reading
/// both where they lie.
pub fn encode_checkpoint(run: &TrainingCheckpoint, ledger: &PrivacyLedger) -> Vec<u8> {
    let (t, m, v) = run.server.state();
    let lr = run.server.learning_rate.to_bits();
    let [b1, b2, eps] = ADAM_CONSTANTS.map(f64::to_bits);
    let meta = [
        run.fingerprint,
        run.run_seed,
        run.step,
        SERVER_ADAM,
        lr,
        b1,
        b2,
        eps,
        t,
    ];
    let mut sections = param_sections(&run.params, KIND_EMBEDDING).to_vec();
    sections.extend(param_sections(m, KIND_ADAM_M));
    sections.extend(param_sections(v, KIND_ADAM_V));
    let ledger: Vec<u64> = ledger
        .entries()
        .iter()
        .flat_map(|e| [e.q.to_bits(), e.noise_multiplier.to_bits(), e.steps])
        .collect();
    sections.push((KIND_META, 1, Words::U64(&meta)));
    sections.push((KIND_LEDGER, 3, Words::U64(&ledger)));
    frame::encode(&sections, 0, 0)
}

/// Decodes and integrity-checks a checkpoint image into the run and its
/// privacy ledger.
///
/// # Errors
/// [`CoreError::CheckpointCorrupt`] with the container's typed reason on
/// any truncation, bad or legacy magic, CRC mismatch, missing or
/// mis-shaped section, non-finite tensor, invalid server state or ledger
/// entry, or a step count disagreeing with the ledger.
pub fn decode_checkpoint(image: Vec<u8>) -> Result<(TrainingCheckpoint, PrivacyLedger), CoreError> {
    decode(image).map_err(|e| match e {
        ModelError::Snapshot(e) => CoreError::CheckpointCorrupt(e),
        other => CoreError::Model(other),
    })
}

fn decode(image: Vec<u8>) -> Result<(TrainingCheckpoint, PrivacyLedger), ModelError> {
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
    if meta.len() != 9 || meta[3] != SERVER_ADAM || meta[5..8] != ADAM_CONSTANTS.map(f64::to_bits) {
        return Err(inconsistent("unknown server state"));
    }
    let (m, v) = (tensors(KIND_ADAM_M)?, tensors(KIND_ADAM_V)?);
    if !params.same_shape(&m) || !params.same_shape(&v) {
        return Err(inconsistent("Adam moment shapes differ from θ"));
    }
    let server = ServerAdam::from_state(f64::from_bits(meta[4]), meta[8], m, v)
        .map_err(|_| inconsistent("invalid server state"))?;
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
    let run = TrainingCheckpoint {
        fingerprint: meta[0],
        run_seed: meta[1],
        step: meta[2],
        params,
        server,
    };
    Ok((run, ledger))
}

/// Reads and integrity-checks a checkpoint from `path`.
///
/// # Errors
/// [`CoreError::Io`] on filesystem failures, [`CoreError::CheckpointCorrupt`]
/// on a damaged file.
pub fn load_checkpoint(path: &Path) -> Result<(TrainingCheckpoint, PrivacyLedger), CoreError> {
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
        // on purpose (a scheme bump, or a field added or removed).
        assert_eq!(
            config_fingerprint(&Hyperparameters::default(), 600),
            0x1a0e_6449_3371_aa2b
        );
    }

    #[test]
    fn fingerprint_moves_with_every_field_but_threads() {
        let base = Hyperparameters::default();
        let a = config_fingerprint(&base, 100);
        assert_ne!(a, config_fingerprint(&base, 101), "vocab matters");
        // One mutation per word of `to_words`, threads last.
        type Mutator = fn(&mut Hyperparameters);
        let fields: [(&str, Mutator); 17] = [
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
            ("server_learning_rate", |h| h.server_learning_rate *= 2.0),
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
