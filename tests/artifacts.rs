//! The one corruption suite of the artifact container, run over every
//! kind of image the workspace writes: serving bundle, full-parameter
//! model, checkpoint (SGD and Adam server) and dataset. The byte-level
//! cases that need no artifact live beside the codec in
//! `plp_data::frame`; here each damaged image goes through the loader its
//! kind really uses, so the semantic checks behind the checksums are
//! covered too. Also pins the serving bundle's bytes to the digest they
//! had before the container was generalised.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dp_nextloc::core::checkpoint::{
    config_fingerprint, decode_checkpoint, encode_checkpoint, load_checkpoint, ServerState,
    TrainingCheckpoint,
};
use dp_nextloc::core::plp::{resume_plp, TrainOptions};
use dp_nextloc::core::{CoreError, Hyperparameters, ServerOptimizer};
use dp_nextloc::data::dataset::TokenizedDataset;
use dp_nextloc::data::frame::{self, fnv1a64, Words};
use dp_nextloc::data::{io, CheckIn, CheckInDataset, DataError, GeoPoint, LocationId, Poi};
use dp_nextloc::linalg::Matrix;
use dp_nextloc::model::optimizer::ServerAdam;
use dp_nextloc::model::plps::{self, PlpsSnapshot};
use dp_nextloc::model::{ModelError, ModelParams, Recommender};
use dp_nextloc::privacy::PrivacyLedger;

/// Section kinds as the artifact modules assign them (DESIGN.md §8).
const KIND_EMBEDDING: u16 = 0;
const KIND_CONTEXT: u16 = 1;
const KIND_BIAS: u16 = 2;
const KIND_ADAM_M: u16 = 3;
const KIND_META: u16 = 16;
const KIND_LEDGER: u16 = 17;
const KIND_POIS: u16 = 32;
const KIND_CHECKINS: u16 = 33;

const VOCAB: usize = 9;
const DIM: usize = 4;

/// The sections of an image as `(kind, cols, words)`, open to tampering.
type Sections = Vec<(u16, usize, Vec<u64>)>;

/// A loader's verdict: `Err` carries the container's `kind: detail`
/// rendering (or `non_finite`). Any other error is a failure of the suite.
type Verdict = Result<(), String>;

type Loader = fn(Vec<u8>) -> Verdict;

/// An artifact kind: its name, a pristine image and its loader.
type Kind = (&'static str, Vec<u8>, Loader);

fn model_refusal(e: ModelError) -> String {
    match e {
        ModelError::Snapshot(e) => e.to_string(),
        ModelError::NonFinite { at } => format!("non_finite: {at}"),
        other => panic!("untyped refusal: {other}"),
    }
}

fn open_bundle(image: Vec<u8>) -> Verdict {
    let snapshot = PlpsSnapshot::from_bytes(image).map_err(model_refusal)?;
    snapshot.validate().map_err(model_refusal)?;
    snapshot.recommender().map(drop).map_err(model_refusal)
}

fn open_params(image: Vec<u8>) -> Verdict {
    let snapshot = PlpsSnapshot::from_bytes(image).map_err(model_refusal)?;
    snapshot.validate().map_err(model_refusal)?;
    snapshot.params().map(drop).map_err(model_refusal)
}

fn open_checkpoint(image: Vec<u8>) -> Verdict {
    match decode_checkpoint(image) {
        Ok(_) => Ok(()),
        Err(CoreError::CheckpointCorrupt(e)) => Err(e.to_string()),
        Err(other) => panic!("untyped refusal: {other}"),
    }
}

fn open_dataset(image: Vec<u8>) -> Verdict {
    match io::decode_binary(&image) {
        Ok(_) => Ok(()),
        Err(DataError::Snapshot(e)) => Err(e.to_string()),
        Err(other) => panic!("untyped refusal: {other}"),
    }
}

fn params() -> ModelParams {
    let mut rng = StdRng::seed_from_u64(13);
    ModelParams::init(&mut rng, VOCAB, DIM).unwrap()
}

fn checkpoint(adam: bool) -> TrainingCheckpoint {
    let params = params();
    let server = if adam {
        let mut opt = ServerAdam::new(&params, 0.01).unwrap();
        let mut direction = ModelParams::zeros(VOCAB, DIM);
        direction.bias[1] = 0.125;
        opt.step_threaded(&mut params.clone(), &direction, 1)
            .unwrap();
        ServerState::of_adam(&opt)
    } else {
        ServerState::Sgd { learning_rate: 0.5 }
    };
    let mut ledger = PrivacyLedger::new();
    for _ in 0..6 {
        ledger.track(0.06, 2.5).unwrap();
    }
    ledger.track(0.08, 2.5).unwrap();
    TrainingCheckpoint {
        fingerprint: 0xDEAD_BEEF_F00D_CAFE,
        run_seed: 42,
        step: 7,
        params,
        server,
        ledger,
    }
}

fn dataset() -> CheckInDataset {
    let pois = (0..5)
        .map(|i| Poi {
            id: LocationId(10 + i),
            point: GeoPoint {
                lat: 35.6 + f64::from(i) * 0.01,
                lon: 139.7,
            },
        })
        .collect();
    let checkins = (0..40)
        .map(|i| CheckIn::new(1 + i % 3, 10 + i % 5, 1_000 + i64::from(i) * 60))
        .collect();
    CheckInDataset::from_checkins(pois, checkins)
}

/// What `write` left at a scratch path.
fn written(name: &str, write: impl FnOnce(&std::path::Path)) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("plp_artifacts_{}_{name}", std::process::id()));
    write(&path);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// One pristine image per kind with the loader that kind goes through.
fn kinds() -> &'static [Kind] {
    static KINDS: OnceLock<Vec<Kind>> = OnceLock::new();
    KINDS.get_or_init(|| {
        let theta = params();
        let bundle = written("bundle", |p| {
            plps::write_deployable(p, Recommender::new(&theta).embedding(), 3).unwrap();
        });
        let full = written("full", |p| plps::write_params(p, &theta, 0).unwrap());
        vec![
            ("bundle", bundle, open_bundle),
            ("params", full, open_params),
            (
                "checkpoint-sgd",
                encode_checkpoint(&checkpoint(false)),
                open_checkpoint,
            ),
            (
                "checkpoint-adam",
                encode_checkpoint(&checkpoint(true)),
                open_checkpoint,
            ),
            ("dataset", io::encode_binary(&dataset()), open_dataset),
        ]
    })
}

fn image_of(name: &str) -> Vec<u8> {
    let (_, image, _) = kinds().iter().find(|(n, ..)| *n == name).unwrap();
    image.clone()
}

/// The image with its sections rewritten by `tamper` and every checksum
/// re-stamped, so only a check *behind* the checksums can refuse it.
fn resealed(name: &str, tamper: impl FnOnce(&mut Sections)) -> Vec<u8> {
    let image = image_of(name);
    let header = frame::parse(&image).unwrap();
    let section = |s: &frame::Section| {
        let words = header.words(&image, s.kind, s.cols).unwrap();
        (s.kind, s.cols, words)
    };
    let mut sections = header.sections.iter().map(section).collect();
    tamper(&mut sections);
    let borrowed: Vec<_> = sections
        .iter()
        .map(|(kind, cols, words)| (*kind, *cols, Words::U64(words)))
        .collect();
    frame::encode(&borrowed, header.generation, header.flags)
}

fn words_of(sections: &mut Sections, kind: u16) -> &mut Vec<u64> {
    let (.., words) = sections.iter_mut().find(|(k, ..)| *k == kind).unwrap();
    words
}

fn set_cols(sections: &mut Sections, kind: u16, cols: usize) {
    let (_, width, _) = sections.iter_mut().find(|(k, ..)| *k == kind).unwrap();
    *width = cols;
}

fn assert_refused(verdict: Verdict, kind: &str, detail: &str) {
    let text = verdict.expect_err("damaged image was accepted");
    assert!(
        text.starts_with(kind) && text.contains(detail),
        "expected `{kind}: …{detail}…`, got `{text}`"
    );
}

/// `name`'s image, resealed after `tamper`, must be refused by its own
/// loader as `inconsistent: …detail…`.
fn assert_inconsistent(name: &str, detail: &str, tamper: impl FnOnce(&mut Sections)) {
    let (_, _, open) = kinds().iter().find(|(n, ..)| *n == name).unwrap();
    assert_refused(open(resealed(name, tamper)), "inconsistent", detail);
}

#[test]
fn pristine_images_round_trip_and_reseal_is_the_identity() {
    for (name, image, open) in kinds() {
        assert_eq!(open(image.clone()), Ok(()), "{name}");
        assert_eq!(&resealed(name, |_| {}), image, "{name}");
    }
    for (name, adam) in [("checkpoint-sgd", false), ("checkpoint-adam", true)] {
        assert_eq!(decode_checkpoint(image_of(name)).unwrap(), checkpoint(adam));
    }
    assert_eq!(io::decode_binary(&image_of("dataset")).unwrap(), dataset());
    let absent = std::path::Path::new("/nonexistent/run.plpc");
    assert!(matches!(load_checkpoint(absent), Err(CoreError::Io { .. })));
}

#[test]
fn every_region_of_every_kind_is_checksummed() {
    for (name, image, open) in kinds() {
        let header = frame::parse(image).unwrap();
        // Magic, version, flags, generation, count, every table entry,
        // the unused rest of the header block and the header CRC.
        let mut targets: Vec<usize> = vec![0, 5, 7, 12, 19, 3000, 4092, 4095];
        targets.extend(20..20 + 32 * header.sections.len());
        let mut padding = 0;
        let mut body_end = 4096;
        for s in &header.sections {
            if s.offset > body_end {
                targets.extend([body_end, s.offset - 1]);
                padding += 1;
            }
            body_end = s.offset + s.rows * s.cols * 8;
            if body_end > s.offset {
                targets.extend([s.offset, body_end - 1]);
            }
        }
        assert_eq!(body_end, image.len(), "{name}: bytes past the last body");
        assert_eq!(padding > 0, *name != "bundle", "{name}: padding gaps");
        for at in targets {
            for bit in [0, 7] {
                let mut damaged = image.clone();
                damaged[at] ^= 1 << bit;
                assert!(
                    open(damaged).is_err(),
                    "{name}: flip of bit {bit} at byte {at} was accepted"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncation_at_any_length_is_refused_typed(cut in 0usize..10_000) {
        for (name, image, open) in kinds() {
            let cut = cut * image.len() / 10_000;
            let verdict = open(image[..cut].to_vec());
            let text = verdict.expect_err("a truncated image was accepted");
            prop_assert!(text.starts_with("truncated_"), "{name} cut at {cut}: {text}");
        }
    }

    #[test]
    fn any_single_bit_flip_is_refused(at in 0usize..10_000, bit in 0usize..8) {
        for (name, image, open) in kinds() {
            let at = at * image.len() / 10_000;
            let mut damaged = image.clone();
            damaged[at] ^= 1 << bit;
            prop_assert!(
                open(damaged).is_err(),
                "{name}: flip of bit {bit} at byte {at} was accepted"
            );
        }
    }
}

#[test]
fn retired_formats_are_refused_as_legacy_by_every_loader() {
    // Hand-built openings of the three retired formats; what follows the
    // magic does not matter, so a whole image behind one reads the same.
    let mut relabelled = image_of("checkpoint-sgd");
    relabelled[..4].copy_from_slice(b"PLPC");
    for (name, _, open) in kinds() {
        for (opening, magic, remedy) in [
            (&b"PLPM\x01"[..], "PLPM", "retrain"),
            (&b"PLPC\x03"[..], "PLPC", "restart the run"),
            (&b"PLPD\x01"[..], "PLPD", "`generate` again"),
            (&relabelled[..], "PLPC", "restart the run"),
        ] {
            let text = open(opening.to_vec()).expect_err(name);
            assert!(text.starts_with("legacy_format"), "{name}: {text}");
            assert!(text.contains(magic) && text.contains(remedy), "{text}");
        }
    }
}

#[test]
fn the_wrong_kind_of_artifact_is_refused() {
    let cases: [(&str, Loader, &str); 6] = [
        ("dataset", open_params, "absent"),
        ("bundle", open_params, "absent"),
        ("params", open_bundle, "flagged"),
        ("params", open_dataset, "absent"),
        ("bundle", open_checkpoint, "absent"),
        ("dataset", open_checkpoint, "absent"),
    ];
    for (image, open, detail) in cases {
        assert_refused(open(image_of(image)), "inconsistent", detail);
    }
}

#[test]
fn resealed_model_damage_is_refused_by_the_semantic_checks() {
    let nan = f64::NAN.to_bits();
    let poisoned = resealed("bundle", |s| words_of(s, KIND_EMBEDDING)[5] = nan);
    assert_refused(open_bundle(poisoned), "non_finite", "tensor");
    let poisoned = resealed("params", |s| words_of(s, KIND_BIAS)[0] = nan);
    assert_refused(open_params(poisoned), "non_finite", "tensor");
    assert_inconsistent("params", "absent", |s| {
        s.retain(|(kind, ..)| *kind != KIND_CONTEXT);
    });
    assert_inconsistent("params", "shapes", |s| {
        words_of(s, KIND_BIAS).pop();
    });
    assert_inconsistent("params", "shapes", |s| set_cols(s, KIND_CONTEXT, DIM / 2));
}

#[test]
fn resealed_checkpoint_damage_is_refused_by_the_semantic_checks() {
    for name in ["checkpoint-sgd", "checkpoint-adam"] {
        assert_inconsistent(name, "step count disagrees", |s| {
            words_of(s, KIND_META)[2] += 1;
        });
        assert_inconsistent(name, "invalid ledger entry", |s| {
            words_of(s, KIND_LEDGER)[2] = 0;
        });
        assert_inconsistent(name, "invalid ledger entry", |s| {
            words_of(s, KIND_LEDGER)[0] = f64::NAN.to_bits();
        });
        assert_inconsistent(name, "non-finite tensor", |s| {
            words_of(s, KIND_CONTEXT)[3] = f64::INFINITY.to_bits();
        });
        assert_inconsistent(name, "unknown server state", |s| {
            words_of(s, KIND_META)[3] = 7;
        });
        assert_inconsistent(name, "unknown server state", |s| {
            words_of(s, KIND_META).pop();
        });
        assert_inconsistent(name, "absent", |s| {
            s.retain(|(kind, ..)| *kind != KIND_LEDGER);
        });
        assert_inconsistent(name, "section row width", |s| set_cols(s, KIND_LEDGER, 1));
        // Two step counts of 2⁶³: their sum wraps to 0, which a claimed
        // step of 0 would *match* if the sum were not checked.
        assert_inconsistent(name, "invalid ledger entry", |s| {
            words_of(s, KIND_LEDGER)[2] = 1 << 63;
            words_of(s, KIND_LEDGER)[5] = 1 << 63;
            words_of(s, KIND_META)[2] = 0;
        });
    }
    let adam = "checkpoint-adam";
    assert_inconsistent(adam, "non-finite tensor", |s| {
        words_of(s, KIND_ADAM_M)[0] = f64::NAN.to_bits();
    });
    // Adam's first moment for a vocabulary one location smaller than θ's.
    assert_inconsistent(adam, "Adam moment shapes", |s| {
        for (tensor, row) in [(0, DIM), (1, DIM), (2, 1)] {
            let words = words_of(s, KIND_ADAM_M + tensor);
            words.truncate(words.len() - row);
        }
    });
    // An SGD tag over an image that still carries Adam's scalars.
    assert_inconsistent(adam, "unknown server state", |s| {
        words_of(s, KIND_META)[3] = 0;
    });

    // A consistent claim of 2⁶⁰ steps decodes — nothing in the image
    // contradicts it — but resuming would replay the accountant one
    // composition per step: the trainer must refuse it against the run's
    // `max_steps`, at once and typed, under an otherwise matching config.
    let hp = Hyperparameters {
        embedding_dim: DIM,
        server_optimizer: ServerOptimizer::Sgd { learning_rate: 0.5 },
        ..Hyperparameters::default()
    };
    let fingerprint = config_fingerprint(&hp, VOCAB);
    let claim = |steps: u64| {
        let image = resealed("checkpoint-sgd", |s| {
            words_of(s, KIND_META)[0] = fingerprint;
            words_of(s, KIND_META)[2] = steps;
            words_of(s, KIND_LEDGER)[2] = steps - 1;
        });
        decode_checkpoint(image).unwrap()
    };
    let train = TokenizedDataset {
        users: Vec::new(),
        vocab_size: VOCAB,
    };
    let resume = |ckpt| resume_plp(ckpt, &train, None, &hp, &TrainOptions::default());
    let started = std::time::Instant::now();
    let refused = resume(claim(1 << 60));
    assert!(
        matches!(refused, Err(CoreError::CheckpointMismatch { what }) if what.contains("max_steps")),
        "{:?}",
        refused.map(|out| out.summary)
    );
    assert!(started.elapsed() < std::time::Duration::from_secs(1));
    // The same image claiming the run's last step is an honest checkpoint.
    let resumed = resume(claim(hp.max_steps as u64)).unwrap();
    assert_eq!(resumed.summary.steps, hp.max_steps as u64);
}

#[test]
fn resealed_dataset_damage_is_refused_by_the_semantic_checks() {
    assert_inconsistent("dataset", "absent", |s| {
        s.retain(|(kind, ..)| *kind != KIND_CHECKINS);
    });
    assert_inconsistent("dataset", "section row width", |s| {
        set_cols(s, KIND_POIS, 1)
    });
    assert_inconsistent("dataset", "POI id", |s| words_of(s, KIND_POIS)[0] = 1 << 32);
    // A moved user id under valid checksums is a different dataset, not a
    // refusal: only the checksums can tell, which is why they must hold.
    let moved = resealed("dataset", |s| words_of(s, KIND_CHECKINS)[0] ^= 1);
    assert_ne!(io::decode_binary(&moved).unwrap(), dataset());
}

#[test]
fn write_deployable_bytes_match_the_digest_taken_before_the_container_moved() {
    // Length and digest were computed by this same code at commit 8fcecdb,
    // where `plp_model::plps` still had its own encoder: the bundles the
    // benchmark's serving workloads read have not changed by a byte.
    let data: Vec<f64> = (0..900u64)
        .map(|i| ((i * 37 + 11) % 101) as f64 / 64.0 - 0.75)
        .collect();
    let embedding = Matrix::from_vec(300, 3, data).unwrap();
    let bytes = written("golden", |p| {
        plps::write_deployable(p, &embedding, 7).unwrap()
    });
    assert_eq!(bytes.len(), 11_296);
    assert_eq!(fnv1a64(&bytes), 0x4cb0_3675_d79e_dbc2);
}

#[test]
fn the_content_digest_and_the_span_domain_hash_are_one_fnv1a() {
    // `plp-obs` is a leaf crate and keeps its own copy; the two must stay
    // the same function.
    for s in ["", "a", "foobar", "fed_round", "PLP λ=6"] {
        assert_eq!(fnv1a64(s.as_bytes()), plp_obs::trace::fnv1a64(s), "{s:?}");
    }
}
