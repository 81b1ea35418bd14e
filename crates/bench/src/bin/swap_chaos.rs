//! Hot-swap chaos drill: proves the PLPS zero-copy serving stack swaps
//! model generations under live traffic without ever dropping, tearing or
//! mis-answering a query, and that a mapped generation is bit-identical to
//! a fresh in-memory engine on every scoring path (dense, IVF, quantized).
//!
//! Drills:
//! 1. mapped/owned/fresh engine identity — one published bundle opened via
//!    mmap and via the owned fallback, served through dense, partial-probe
//!    IVF, full-probe IVF and quantized engines; every result must be
//!    bit-identical to the fresh in-memory engine,
//! 2. torn writer — a publisher killed mid-publish (stray tmp file,
//!    pointer at a missing file, pointer at a truncated file) must never
//!    move traffic off the serving generation,
//! 3. corrupt candidate — header and body bit flips are rejected with
//!    typed reasons while the old generation keeps serving bit-identically,
//! 4. swap hammer — 50 published generations (10 with `--smoke`) swapped
//!    under concurrent query threads; every response must match the
//!    sequential reference of the generation that answered it.
//!
//! Usage: `cargo run --release -p plp-bench --bin swap_chaos [-- --smoke]`
//!
//! Exits non-zero if any drill fails, so it can gate CI.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use plp_model::params::ModelParams;
use plp_model::plps::PlpsSnapshot;
use plp_model::Recommender;
use plp_obs::Observer;
use plp_serve::swap::{
    generation_file_name, publish_generation, GenerationWatcher, HotSwapServer, ModelGeneration,
    SwapOutcome, CURRENT_POINTER,
};
use plp_serve::{AnnConfig, BatchEngine, Query, ServeConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SEED: u64 = 0x5AFE;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plp_swap_chaos_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn check(name: &str, ok: bool, detail: &str) -> bool {
    println!("{} {name}: {detail}", if ok { "PASS" } else { "FAIL" });
    ok
}

fn recommender(vocab: usize, dim: usize, seed: u64) -> Recommender {
    let mut rng = StdRng::seed_from_u64(seed);
    Recommender::new(&ModelParams::init(&mut rng, vocab, dim).expect("init params"))
}

fn queries(vocab: usize, n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let len = rng.random_range(1usize..=4);
            let recent: Vec<usize> = (0..len).map(|_| rng.random_range(0..vocab)).collect();
            if i % 2 == 0 {
                Query::new(recent, 8)
            } else {
                let exclude = recent.clone();
                Query::with_exclusions(recent, 8, exclude)
            }
        })
        .collect()
}

fn sequential_reference(rec: &Recommender, queries: &[Query]) -> Vec<Vec<usize>> {
    queries
        .iter()
        .map(|q| {
            if q.exclude.is_empty() {
                rec.recommend(&q.recent, q.k).expect("recommend")
            } else {
                rec.recommend_excluding(&q.recent, q.k, &q.exclude)
                    .expect("recommend_excluding")
            }
        })
        .collect()
}

/// Drill 1: a published bundle served zero-copy (and via the owned
/// fallback) must be bit-identical to a fresh in-memory engine on every
/// scoring path.
fn drill_identity(smoke: bool) -> bool {
    println!("== drill 1: mapped/owned/fresh bit-identity ==");
    let vocab = if smoke { 400 } else { 1500 };
    let dim = 12;
    let rec = recommender(vocab, dim, SEED);
    let dir = scratch("identity");
    let path = publish_generation(&dir, rec.embedding(), 1).expect("publish");

    let mapped = PlpsSnapshot::open_mapped(&path).expect("open mapped");
    let owned = PlpsSnapshot::open_owned(&path).expect("open owned");
    mapped.validate().expect("validate mapped");
    owned.validate().expect("validate owned");
    let mut ok = check(
        "sources",
        mapped.is_mapped() && !owned.is_mapped(),
        "mmap open and owned fallback both available",
    );
    let bits_identical = mapped
        .embedding()
        .expect("mapped embedding")
        .as_slice()
        .iter()
        .zip(rec.embedding().as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    ok &= check(
        "embedding bits",
        bits_identical,
        "mapped bytes identical to publisher",
    );

    let ann = AnnConfig {
        cells: 8,
        nprobe: 3,
        kmeans_iters: 4,
        kmeans_sample: vocab,
        seed: SEED ^ 0x1F,
        build_threads: 2,
        quantized: false,
        overfetch: 4,
    };
    let configs: Vec<(&str, ServeConfig)> = vec![
        (
            "dense",
            ServeConfig {
                max_batch: 16,
                workers: 2,
                cache_capacity: 128,
                ann: None,
            },
        ),
        (
            "ivf",
            ServeConfig {
                max_batch: 16,
                workers: 2,
                cache_capacity: 128,
                ann: Some(ann),
            },
        ),
        (
            "ivf full-probe",
            ServeConfig {
                max_batch: 16,
                workers: 2,
                cache_capacity: 128,
                ann: Some(AnnConfig {
                    nprobe: ann.cells,
                    ..ann
                }),
            },
        ),
        (
            "quantized",
            ServeConfig {
                max_batch: 16,
                workers: 2,
                cache_capacity: 128,
                ann: Some(AnnConfig {
                    quantized: true,
                    ..ann
                }),
            },
        ),
    ];
    let qs = queries(vocab, if smoke { 96 } else { 256 }, SEED ^ 0xA);
    for (name, cfg) in configs {
        let fresh = BatchEngine::new(rec.clone(), cfg).expect("fresh engine");
        let em = BatchEngine::new(mapped.recommender().expect("mapped rec"), cfg)
            .expect("mapped engine");
        let eo =
            BatchEngine::new(owned.recommender().expect("owned rec"), cfg).expect("owned engine");
        let want = fresh.serve(&qs).expect("fresh serve");
        let got_m = em.serve(&qs).expect("mapped serve");
        let got_o = eo.serve(&qs).expect("owned serve");
        ok &= check(
            name,
            got_m == want && got_o == want,
            "mapped and owned engines bit-identical to fresh",
        );
    }
    ok
}

/// Drill 2: publisher killed mid-publish. Whatever partial state it left
/// behind, the watcher must keep serving the old generation.
fn drill_torn_writer() -> bool {
    println!("== drill 2: torn writer ==");
    let vocab = 300;
    let rec = recommender(vocab, 8, SEED ^ 1);
    let dir = scratch("torn");
    publish_generation(&dir, rec.embedding(), 1).expect("publish gen 1");
    let cfg = ServeConfig {
        max_batch: 8,
        workers: 2,
        cache_capacity: 64,
        ann: None,
    };
    let server = Arc::new(HotSwapServer::new(
        ModelGeneration::load(&dir.join(generation_file_name(1)), cfg).expect("load gen 1"),
    ));
    let watcher = GenerationWatcher::new(&dir, cfg, Arc::clone(&server), Observer::disabled());
    let qs = queries(vocab, 32, SEED ^ 2);
    let want = sequential_reference(&rec, &qs);
    let serving_ok = |server: &HotSwapServer| -> bool {
        match server.serve_pinned(&qs) {
            Ok((gen, got)) => gen == 1 && got == want,
            Err(_) => false,
        }
    };

    // Killed before the bundle finished: a stray half-written tmp file,
    // pointer untouched.
    std::fs::write(dir.join("gen-00000000000000000002.plps.tmp"), [0u8; 999]).expect("write tmp");
    let mut ok = check(
        "stray tmp",
        watcher.poll_once() == SwapOutcome::Unchanged && serving_ok(&server),
        "half-written tmp file ignored, old generation serves",
    );

    // Killed between pointer tmp and bundle write ordering violation:
    // pointer names a file that does not exist.
    std::fs::write(dir.join(CURRENT_POINTER), "gen-00000000000000000003.plps")
        .expect("write pointer");
    let rejected_io = matches!(
        watcher.poll_once(),
        SwapOutcome::Rejected { ref kind, .. } if kind == "io"
    );
    ok &= check(
        "missing target",
        rejected_io && serving_ok(&server),
        "pointer at missing file rejected as io, old generation serves",
    );

    // Killed mid-write with a non-atomic copy: pointer at a truncated file.
    let pristine = std::fs::read(dir.join(generation_file_name(1))).expect("read gen 1");
    std::fs::write(
        dir.join("gen-00000000000000000004.plps"),
        &pristine[..pristine.len() / 2],
    )
    .expect("write truncated");
    std::fs::write(dir.join(CURRENT_POINTER), "gen-00000000000000000004.plps")
        .expect("write pointer");
    let rejected_trunc = matches!(
        watcher.poll_once(),
        SwapOutcome::Rejected { ref kind, .. } if kind.starts_with("truncated")
    );
    ok &= check(
        "truncated target",
        rejected_trunc && serving_ok(&server),
        "pointer at truncated file rejected typed, old generation serves",
    );

    // The writer retries and completes: the same watcher then swaps.
    let rec2 = recommender(vocab, 8, SEED ^ 3);
    publish_generation(&dir, rec2.embedding(), 5).expect("publish gen 5");
    let swapped = matches!(
        watcher.poll_once(),
        SwapOutcome::Swapped { from: 1, to: 5, .. }
    );
    ok &= check(
        "recovery",
        swapped && server.generation() == 5,
        "completed publish swaps after the torn attempts",
    );
    ok
}

/// Drill 3: corrupt candidates (bit flips) are rejected with typed reasons
/// and never reach traffic.
fn drill_corrupt_candidate() -> bool {
    println!("== drill 3: corrupt candidate ==");
    let vocab = 300;
    let rec = recommender(vocab, 8, SEED ^ 4);
    let next = recommender(vocab, 8, SEED ^ 5);
    let dir = scratch("corrupt");
    publish_generation(&dir, rec.embedding(), 1).expect("publish gen 1");
    let cfg = ServeConfig {
        max_batch: 8,
        workers: 2,
        cache_capacity: 64,
        ann: None,
    };
    let server = Arc::new(HotSwapServer::new(
        ModelGeneration::load(&dir.join(generation_file_name(1)), cfg).expect("load gen 1"),
    ));
    let watcher = GenerationWatcher::new(&dir, cfg, Arc::clone(&server), Observer::disabled());
    let qs = queries(vocab, 32, SEED ^ 6);
    let want = sequential_reference(&rec, &qs);

    let path = publish_generation(&dir, next.embedding(), 2).expect("publish gen 2");
    let pristine = std::fs::read(&path).expect("read gen 2");

    // Header flip (inside the CRC-covered block).
    let mut raw = pristine.clone();
    raw[9] ^= 0x40;
    std::fs::write(&path, &raw).expect("write header flip");
    let header_rejected = matches!(
        watcher.poll_once(),
        SwapOutcome::Rejected { ref kind, .. } if kind == "bad_crc" || kind == "bad_magic" || kind == "bad_version"
    );
    let (gen, got) = server.serve_pinned(&qs).expect("serve after header flip");
    let mut ok = check(
        "header flip",
        header_rejected && gen == 1 && got == want,
        "typed reject, old generation bit-identical",
    );

    // Body flip (header intact, body CRC must catch it).
    let mut raw = pristine.clone();
    let at = raw.len() - 11;
    raw[at] ^= 0x04;
    std::fs::write(&path, &raw).expect("write body flip");
    let body_rejected = matches!(
        watcher.poll_once(),
        SwapOutcome::Rejected { ref kind, .. } if kind == "bad_crc"
    );
    let (gen, got) = server.serve_pinned(&qs).expect("serve after body flip");
    ok &= check(
        "body flip",
        body_rejected && gen == 1 && got == want,
        "body CRC reject, old generation bit-identical",
    );

    // Restore the pristine bundle: it must now swap and serve the new
    // model bit-identically to a fresh engine.
    std::fs::write(&path, &pristine).expect("restore");
    let swapped = matches!(watcher.poll_once(), SwapOutcome::Swapped { to: 2, .. });
    let want_next = sequential_reference(&next, &qs);
    let (gen, got) = server.serve_pinned(&qs).expect("serve after swap");
    ok &= check(
        "repaired swap",
        swapped && gen == 2 && got == want_next,
        "pristine candidate swaps and serves bit-identically",
    );
    ok
}

/// Drill 4: hammer — many generations published and swapped under
/// concurrent query threads; every answer must match the sequential
/// reference of the generation that produced it.
fn drill_hammer(smoke: bool) -> bool {
    println!("== drill 4: swap hammer ==");
    let swaps = if smoke { 10 } else { 50 };
    let vocab = if smoke { 300 } else { 600 };
    let dim = 8;
    let dir = scratch("hammer");
    let cfg = ServeConfig {
        max_batch: 16,
        workers: 2,
        cache_capacity: 256,
        ann: None,
    };
    let qs = Arc::new(queries(vocab, 48, SEED ^ 7));

    // Generation g gets its own model; expected results precomputed from
    // the sequential recommender so every in-flight answer is checkable.
    let recs: Vec<Recommender> = (1..=swaps as u64 + 1)
        .map(|g| recommender(vocab, dim, SEED ^ (0x100 + g)))
        .collect();
    let expected: Arc<HashMap<u64, Vec<Vec<usize>>>> = Arc::new(
        recs.iter()
            .enumerate()
            .map(|(i, r)| (i as u64 + 1, sequential_reference(r, &qs)))
            .collect(),
    );

    publish_generation(&dir, recs[0].embedding(), 1).expect("publish gen 1");
    let server = Arc::new(HotSwapServer::new(
        ModelGeneration::load(&dir.join(generation_file_name(1)), cfg).expect("load gen 1"),
    ));
    let watcher = GenerationWatcher::new(&dir, cfg, Arc::clone(&server), Observer::disabled());

    let done = Arc::new(AtomicBool::new(false));
    let dropped = Arc::new(AtomicU64::new(0));
    let torn = Arc::new(AtomicU64::new(0));
    let answered = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let server = Arc::clone(&server);
            let qs = Arc::clone(&qs);
            let expected = Arc::clone(&expected);
            let done = Arc::clone(&done);
            let dropped = Arc::clone(&dropped);
            let torn = Arc::clone(&torn);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    match server.serve_pinned(&qs) {
                        Ok((gen, got)) => {
                            answered.fetch_add(got.len() as u64, Ordering::Relaxed);
                            match expected.get(&gen) {
                                Some(want) if *want == got => {}
                                _ => {
                                    torn.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Err(_) => {
                            dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();

    // Publish-and-confirm loop: each generation is published, then the
    // watcher (on this thread) is polled until it swaps — queries hammer
    // the server the whole time.
    let mut observed_swaps = 0usize;
    for g in 2..=swaps as u64 + 1 {
        publish_generation(&dir, recs[g as usize - 1].embedding(), g).expect("publish");
        loop {
            match watcher.poll_once() {
                SwapOutcome::Swapped { to, .. } => {
                    assert_eq!(to, g, "swapped onto the generation just published");
                    observed_swaps += 1;
                    break;
                }
                SwapOutcome::Unchanged => std::thread::yield_now(),
                other => panic!("hammer publish must swap, got {other:?}"),
            }
        }
    }
    done.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().expect("query thread");
    }

    let dropped = dropped.load(Ordering::Relaxed);
    let torn = torn.load(Ordering::Relaxed);
    let answered = answered.load(Ordering::Relaxed);
    let mut ok = check(
        "swaps",
        observed_swaps == swaps,
        &format!("{observed_swaps}/{swaps} generations swapped under load"),
    );
    ok &= check(
        "dropped",
        dropped == 0,
        &format!("{dropped} dropped (errored) waves across {answered} answers"),
    );
    ok &= check(
        "torn",
        torn == 0,
        &format!("{torn} waves diverged from their generation's sequential reference"),
    );
    // End state: the final generation serves bit-identically to a fresh
    // engine over the same model.
    let fresh = BatchEngine::new(recs[swaps].clone(), cfg).expect("fresh final engine");
    let want = fresh.serve(&qs).expect("fresh final serve");
    let (gen, got) = server.serve_pinned(&qs).expect("final serve");
    ok &= check(
        "final generation",
        gen == swaps as u64 + 1 && got == want,
        "post-hammer server bit-identical to a fresh engine",
    );
    ok
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut all_ok = true;
    all_ok &= drill_identity(smoke);
    all_ok &= drill_torn_writer();
    all_ok &= drill_corrupt_candidate();
    all_ok &= drill_hammer(smoke);
    if all_ok {
        println!("swap_chaos: all drills passed");
        ExitCode::SUCCESS
    } else {
        println!("swap_chaos: FAILURES detected");
        ExitCode::FAILURE
    }
}
