//! Message types and codecs of the coordinator↔worker round protocol.
//!
//! Four message kinds cross the pipe, every one wrapped in the CRC frame
//! of [`crate::frame`]:
//!
//! * [`MSG_SETUP`] (words): the protocol version, the worker's slot and
//!   incarnation, the hyper-parameters and the fault plan — sent once per
//!   spawned process.
//! * [`MSG_ROUND`] (binary): one step's work order — the step identity and
//!   seed, the full parameter snapshot θ_t, and the assigned buckets with
//!   their *global* indices.
//! * [`MSG_REPLY`] (binary): the worker's bucket results. Deltas travel as
//!   row-sparse gradients with exact `f64` bits, so a bucket computed
//!   remotely aggregates to the same sum as one computed in process.
//! * [`MSG_SHUTDOWN`] (empty): clean worker exit.
//!
//! Every numeric field is little-endian. Decoders read through one slice
//! cursor that checks each field is there before reading it, refuses
//! a length claim over the shared frame ceiling before allocating, and
//! refuses bytes left over after the last field. Model parameters travel
//! as an in-memory PLPS image ([`plp_model::plps`]), the same tensor
//! sections a saved model has; the receiver parses its header but skips
//! the per-section CRC pass, because the pipe frame's CRC already covers
//! every byte of the payload.

use plp_core::config::Hyperparameters;
use plp_core::faults::FaultPlan;
use plp_core::plp::BucketUpdate;
use plp_data::frame::{checked_frame_len, encode};
use plp_data::grouping::Bucket;
use plp_model::journal::{DeltaRows, RowDelta};
use plp_model::params::ModelParams;
use plp_model::plps::{param_sections, PlpsSnapshot, KIND_EMBEDDING};

use crate::error::FedError;

/// The coordinator↔worker protocol version, checked at Setup.
///
/// Version 2 added the optional trace-context frame header (the
/// [`crate::frame::KIND_TRACED`] flag bit); version 3 made the Setup
/// payload words instead of JSON; version 4 dropped the loss and
/// server-optimiser tags from its hyper-parameter words. A worker handed a `protocol_version`
/// other than its own rejects the session *before* any round traffic,
/// and an older worker cannot parse a newer Setup at all — old workers
/// are refused cleanly either way.
pub const PROTOCOL_VERSION: u64 = 4;

/// Frame kind: coordinator → worker session setup (words payload).
pub const MSG_SETUP: u8 = 1;
/// Frame kind: coordinator → worker round work order (binary payload).
pub const MSG_ROUND: u8 = 2;
/// Frame kind: worker → coordinator round results (binary payload).
pub const MSG_REPLY: u8 = 3;
/// Frame kind: coordinator → worker clean shutdown request (empty).
pub const MSG_SHUTDOWN: u8 = 4;

/// Reads little-endian fields off a received payload. Every read checks
/// that its bytes are there, so a short payload is a decode error naming
/// the field, never a panic.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(payload: &'a [u8]) -> Self {
        Cursor { rest: payload }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FedError> {
        if self.rest.len() < n {
            return Err(decode_error(format!("truncated {what}")));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], FedError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, FedError> {
        self.array(what).map(|[b]| b)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, FedError> {
        self.array(what).map(u32::from_le_bytes)
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, FedError> {
        self.array(what).map(u64::from_le_bytes)
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, FedError> {
        self.array(what).map(f64::from_le_bytes)
    }

    fn usize(&mut self, what: &'static str) -> Result<usize, FedError> {
        usize::try_from(self.u64(what)?)
            .map_err(|_| decode_error(format!("{what} overflows usize")))
    }

    /// `N` consecutive `u64` words.
    fn words<const N: usize>(&mut self, what: &'static str) -> Result<[u64; N], FedError> {
        let mut out = [0; N];
        for w in &mut out {
            *w = self.u64(what)?;
        }
        Ok(out)
    }

    /// Reads a `u32` element count and refuses claims whose decoded size
    /// (at `elem_bytes` per element) would break the shared frame ceiling.
    fn count(&mut self, elem_bytes: u64, what: &'static str) -> Result<usize, FedError> {
        let n = self.u32(what)? as usize;
        if checked_frame_len((n as u64).saturating_mul(elem_bytes)).is_none() {
            return Err(decode_error(format!(
                "{what} count {n} over max frame size"
            )));
        }
        Ok(n)
    }

    /// A `u32` count of `usize` elements, one `u64` word each.
    fn usize_vec(&mut self, what: &'static str) -> Result<Vec<usize>, FedError> {
        let n = self.count(8, what)?;
        (0..n).map(|_| self.usize(what)).collect()
    }

    /// Refuses bytes left over after the last field.
    fn finish(self, what: &'static str) -> Result<(), FedError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(decode_error(format!("{n} trailing bytes after {what}"))),
        }
    }
}

fn decode_error(what: String) -> FedError {
    FedError::Decode { what }
}

fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_usize_vec(buf: &mut Vec<u8>, v: &[usize]) {
    put_u32(buf, v.len() as u32);
    for &x in v {
        put_u64(buf, x as u64);
    }
}

/// Session setup: everything a worker process needs before its first
/// round.
#[derive(Debug, Clone, PartialEq)]
pub struct Setup {
    /// The sender's [`PROTOCOL_VERSION`]; the worker refuses the session
    /// on any mismatch (exit code [`crate::worker::exit_code::VERSION`]).
    pub protocol_version: u64,
    /// The worker's slot in the coordinator's table (diagnostics only).
    pub slot: usize,
    /// The worker's incarnation: a coordinator-wide monotone spawn
    /// counter. Worker-level fault decisions key on it, so a respawned
    /// worker draws *fresh* stall/exit decisions — that is what makes
    /// recovery converge instead of re-hitting the same injected fault.
    pub incarnation: u64,
    /// The run's hyper-parameters (identical on every worker).
    pub hp: Hyperparameters,
    /// Fault plan to replay, if the run injects faults. The *same* plan
    /// drives coordinator- and worker-side decisions: injector decisions
    /// are pure functions of `(seed, kind, step, index)`, so both sides
    /// agree on which buckets are poisoned without communicating.
    pub plan: Option<FaultPlan>,
}

impl Setup {
    /// Encodes the setup payload as little-endian `u64` words:
    /// `protocol_version · slot · incarnation`, then
    /// [`Hyperparameters::to_words`], then a plan flag (0 or 1) followed,
    /// when it is 1, by [`FaultPlan::to_words`].
    pub fn encode(&self) -> Vec<u8> {
        let mut words = vec![self.protocol_version, self.slot as u64, self.incarnation];
        words.extend(self.hp.to_words());
        words.push(u64::from(self.plan.is_some()));
        words.extend(self.plan.iter().flat_map(FaultPlan::to_words));
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Decodes a setup payload.
    ///
    /// # Errors
    /// [`FedError::Decode`] on truncation, an unknown enum tag in the
    /// hyper-parameters, a plan flag other than 0 or 1, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, FedError> {
        let mut cur = Cursor::new(payload);
        let protocol_version = cur.u64("setup protocol version")?;
        let slot = cur.usize("setup slot")?;
        let incarnation = cur.u64("setup incarnation")?;
        let hp = Hyperparameters::from_words(&cur.words("setup hyper-parameters")?)
            .map_err(|e| decode_error(format!("setup hyper-parameters: {e}")))?;
        let plan = match cur.u64("setup plan flag")? {
            0 => None,
            1 => Some(FaultPlan::from_words(&cur.words("setup fault plan")?)),
            other => return Err(decode_error(format!("bad setup plan flag {other}"))),
        };
        cur.finish("setup")?;
        Ok(Setup {
            protocol_version,
            slot,
            incarnation,
            hp,
            plan,
        })
    }
}

/// One step's work order for one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRequest {
    /// The global step number (1-based, as in the trainer).
    pub step: u64,
    /// The step's bucket seed; combined with each bucket's global index it
    /// fully determines the bucket's local-SGD randomness.
    pub step_seed: u64,
    /// Coordinator-wide monotone send counter. Replies echo it, which is
    /// how stale answers (from a superseded attempt) are told apart from
    /// current ones, and how reply-frame fault decisions get fresh draws
    /// on every re-request.
    pub attempt: u64,
    /// The current global parameters θ_t.
    pub params: ModelParams,
    /// Assigned buckets with their global index in the step's bucket list.
    pub assignments: Vec<(u64, Bucket)>,
}

impl RoundRequest {
    /// Encodes the work order.
    pub fn encode(&self) -> Vec<u8> {
        let snapshot = encode(&param_sections(&self.params, KIND_EMBEDDING), 0, 0);
        let mut buf = Vec::with_capacity(36 + snapshot.len());
        put_u64(&mut buf, self.step);
        put_u64(&mut buf, self.step_seed);
        put_u64(&mut buf, self.attempt);
        put_u32(&mut buf, snapshot.len() as u32);
        buf.extend_from_slice(&snapshot);
        put_u32(&mut buf, self.assignments.len() as u32);
        for (index, bucket) in &self.assignments {
            put_u64(&mut buf, *index);
            put_usize_vec(&mut buf, &bucket.user_indices);
            put_usize_vec(&mut buf, &bucket.tokens);
        }
        buf
    }

    /// Decodes a work order.
    ///
    /// # Errors
    /// [`FedError::Decode`] on truncation, trailing bytes or a length
    /// claim over the shared frame ceiling; snapshot shape errors
    /// propagate as [`FedError::Core`].
    pub fn decode(payload: &[u8]) -> Result<Self, FedError> {
        let mut cur = Cursor::new(payload);
        let step = cur.u64("round header")?;
        let step_seed = cur.u64("round header")?;
        let attempt = cur.u64("round header")?;
        let snap_len = cur.count(1, "round snapshot")?;
        let snapshot = cur.take(snap_len, "round snapshot body")?.to_vec();
        let params = PlpsSnapshot::from_bytes(snapshot)
            .and_then(|image| image.params())
            .map_err(|e| FedError::Core(plp_core::CoreError::Model(e)))?;
        let n = cur.count(24, "round assignments")?;
        let assignments = (0..n)
            .map(|_| {
                let index = cur.u64("assignment index")?;
                let bucket = Bucket {
                    user_indices: cur.usize_vec("assignment users")?,
                    tokens: cur.usize_vec("assignment tokens")?,
                };
                Ok((index, bucket))
            })
            .collect::<Result<_, FedError>>()?;
        cur.finish("round")?;
        Ok(RoundRequest {
            step,
            step_seed,
            attempt,
            params,
            assignments,
        })
    }
}

/// One bucket's result as it crosses the wire: either the clipped delta or
/// a drop marker (worker-side panic barrier / non-finite delta).
pub type WireResult = (u64, Option<WireUpdate>);

/// The transportable part of a [`BucketUpdate`] (the index travels beside
/// it in [`WireResult`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WireUpdate {
    /// The clipped sparse delta, exact bits.
    pub grad: RowDelta,
    /// Mean local loss (telemetry only).
    pub mean_loss: f64,
    /// Whether clipping rescaled the delta.
    pub clipped: bool,
}

impl From<BucketUpdate> for WireUpdate {
    fn from(u: BucketUpdate) -> Self {
        WireUpdate {
            grad: u.grad,
            mean_loss: u.mean_loss,
            clipped: u.clipped,
        }
    }
}

impl WireUpdate {
    /// Rebuilds the in-process update at global position `index`.
    pub fn into_update(self, index: usize) -> BucketUpdate {
        BucketUpdate {
            index,
            grad: self.grad,
            mean_loss: self.mean_loss,
            clipped: self.clipped,
        }
    }
}

fn put_grad(buf: &mut Vec<u8>, grad: &RowDelta) {
    // A delta's rows come out in ascending row order whatever order they
    // were touched in; f64 bits are copied verbatim so the aggregated sum
    // is bit-identical to local execution.
    for tensor in [&grad.embedding, &grad.context] {
        put_u32(buf, tensor.len() as u32);
        for (row, v) in tensor.rows() {
            put_u64(buf, row as u64);
            put_u32(buf, v.len() as u32);
            for &x in v {
                put_u64(buf, x.to_bits());
            }
        }
    }
    put_u32(buf, grad.bias.len() as u32);
    for (row, b) in grad.bias.rows() {
        put_u64(buf, row as u64);
        put_u64(buf, b[0].to_bits());
    }
}

/// Appends one decoded row; a row that is out of order, repeated, of
/// another width than its tensor's or past the index range is a decode
/// error, never a panic further in.
fn push_row(
    rows: &mut DeltaRows,
    row: u64,
    values: &[f64],
    what: &'static str,
) -> Result<(), FedError> {
    usize::try_from(row)
        .ok()
        .and_then(|row| rows.push_row(row, values).ok())
        .ok_or_else(|| {
            decode_error(format!(
                "{what} row {row} out of order, repeated or misshapen"
            ))
        })
}

fn get_rows(cur: &mut Cursor<'_>, what: &'static str) -> Result<DeltaRows, FedError> {
    let n = cur.count(12, what)?;
    let mut rows = DeltaRows::default();
    let mut v = Vec::new();
    for _ in 0..n {
        let row = cur.u64(what)?;
        let dim = cur.count(8, what)?;
        v.clear();
        for _ in 0..dim {
            v.push(cur.f64(what)?);
        }
        push_row(&mut rows, row, &v, what)?;
    }
    Ok(rows)
}

fn get_grad(cur: &mut Cursor<'_>) -> Result<RowDelta, FedError> {
    let embedding = get_rows(cur, "grad embedding")?;
    let context = get_rows(cur, "grad context")?;
    let n = cur.count(16, "grad bias")?;
    let mut bias = DeltaRows::default();
    for _ in 0..n {
        let row = cur.u64("grad bias")?;
        let b = cur.f64("grad bias")?;
        push_row(&mut bias, row, &[b], "grad bias")?;
    }
    Ok(RowDelta {
        embedding,
        context,
        bias,
    })
}

fn get_result(cur: &mut Cursor<'_>) -> Result<WireResult, FedError> {
    let index = cur.u64("reply result")?;
    let update = match cur.u8("reply result")? {
        0 => None,
        1 => Some(WireUpdate {
            grad: get_grad(cur)?,
            mean_loss: cur.f64("reply update tail")?,
            clipped: match cur.u8("reply update tail")? {
                0 => false,
                1 => true,
                other => return Err(decode_error(format!("bad clipped flag {other}"))),
            },
        }),
        other => return Err(decode_error(format!("bad result tag {other}"))),
    };
    Ok((index, update))
}

/// A worker's answer to one [`RoundRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReply {
    /// Echo of the request's step.
    pub step: u64,
    /// Echo of the request's attempt — the coordinator's staleness key.
    pub attempt: u64,
    /// Per-assigned-bucket results, in request order. `None` marks a
    /// bucket the worker dropped behind its panic barrier (injected panic
    /// or non-finite delta); the coordinator folds those into the same
    /// DP-safe skipped count the in-process path uses.
    pub results: Vec<WireResult>,
}

impl RoundReply {
    /// Encodes the reply.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(24);
        put_u64(&mut buf, self.step);
        put_u64(&mut buf, self.attempt);
        put_u32(&mut buf, self.results.len() as u32);
        for (index, result) in &self.results {
            put_u64(&mut buf, *index);
            match result {
                None => buf.push(0),
                Some(u) => {
                    buf.push(1);
                    put_grad(&mut buf, &u.grad);
                    put_u64(&mut buf, u.mean_loss.to_bits());
                    buf.push(u8::from(u.clipped));
                }
            }
        }
        buf
    }

    /// Decodes a reply.
    ///
    /// # Errors
    /// [`FedError::Decode`] on truncation, trailing bytes, oversize
    /// claims, rows that are not strictly ascending (a repeat included) or
    /// not of one width, or an unknown result tag.
    pub fn decode(payload: &[u8]) -> Result<Self, FedError> {
        let mut cur = Cursor::new(payload);
        let step = cur.u64("reply header")?;
        let attempt = cur.u64("reply header")?;
        let n = cur.count(9, "reply results")?;
        let results = (0..n)
            .map(|_| get_result(&mut cur))
            .collect::<Result<_, _>>()?;
        cur.finish("reply")?;
        Ok(RoundReply {
            step,
            attempt,
            results,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_params() -> ModelParams {
        let mut p = ModelParams::zeros(4, 3);
        p.embedding.set(1, 2, 0.5);
        p.context.set(3, 0, -1.25);
        // An awkward, bit-sensitive value.
        p.bias[2] = (0.1f64 + 0.2).ln();
        p
    }

    fn sample_grad() -> RowDelta {
        let mut g = RowDelta::default();
        g.embedding.push_row(0, &[0.25, -0.5, 1.0 / 3.0]).unwrap();
        g.context.push_row(3, &[1e-300, 2.0, -0.0]).unwrap();
        g.bias.push_row(1, &[-0.125]).unwrap();
        g
    }

    fn sample_setup(plan: Option<FaultPlan>) -> Setup {
        Setup {
            protocol_version: PROTOCOL_VERSION,
            slot: 2,
            incarnation: 17,
            hp: Hyperparameters::default(),
            plan,
        }
    }

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            worker_stall_rate: 0.25,
            worker_stall_ms: 500,
            ..FaultPlan::quiet(9)
        }
    }

    #[test]
    fn setup_round_trips_as_words() {
        for (plan, words) in [(None, 3 + 17 + 1), (Some(sample_plan()), 3 + 17 + 1 + 10)] {
            let setup = sample_setup(plan);
            let bytes = setup.encode();
            assert_eq!(bytes.len(), 8 * words);
            assert_eq!(bytes[..8], PROTOCOL_VERSION.to_le_bytes());
            assert_eq!(Setup::decode(&bytes).unwrap(), setup);
        }
    }

    #[test]
    fn round_request_round_trips_exactly() {
        let req = RoundRequest {
            step: 7,
            step_seed: 0xDEAD_BEEF_CAFE_F00D,
            attempt: 42,
            params: sample_params(),
            assignments: vec![
                (
                    0,
                    Bucket {
                        user_indices: vec![5, 9],
                        tokens: vec![1, 2, 3, 1],
                    },
                ),
                (
                    3,
                    Bucket {
                        user_indices: vec![],
                        tokens: vec![0],
                    },
                ),
            ],
        };
        let bytes = req.encode();
        let back = RoundRequest::decode(&bytes).unwrap();
        assert_eq!(back, req);
        // Parameter bits survive exactly.
        assert_eq!(back.params.bias[2].to_bits(), req.params.bias[2].to_bits());
    }

    #[test]
    fn round_reply_round_trips_exactly() {
        let reply = RoundReply {
            step: 7,
            attempt: 42,
            results: vec![
                (
                    1,
                    Some(WireUpdate {
                        grad: sample_grad(),
                        mean_loss: 0.75,
                        clipped: true,
                    }),
                ),
                (4, None),
            ],
        };
        let bytes = reply.encode();
        let back = RoundReply::decode(&bytes).unwrap();
        assert_eq!(back, reply);
        let (_, Some(u)) = &back.results[0] else {
            panic!("first result must carry an update");
        };
        let bits = |g: &RowDelta| -> Vec<u64> {
            let (_, v) = g.context.rows().next().expect("one context row");
            v.iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(
            bits(&u.grad),
            bits(&sample_grad()),
            "delta bits (the -0.0 included) must survive the wire"
        );
    }

    #[test]
    fn reply_bytes_match_the_digest_taken_before_the_delta_moved() {
        // Length and digest were computed at commit c3c8134, where a delta
        // was a `SparseGrad` (one `BTreeMap` of row `Vec`s per tensor) and
        // this reply was built with its `add_*` calls: rows in all three
        // tensors, a dropped bucket, and a bias entry poisoned the way
        // fault injection does it. The arena must encode to the same bytes
        // — here straight out of a journal, rows touched in descending
        // order and one touched without being changed.
        let theta = ModelParams::zeros(12, 3);
        let mut journal = plp_model::journal::RowJournal::new();
        let mut touch =
            |emb: &[(usize, [f64; 3])], ctx: &[(usize, [f64; 3])], bias: &[(usize, f64)]| {
                use plp_model::ParamsViewMut;
                let mut phi = plp_model::journal::CowParams::new(&theta, &mut journal);
                for (r, v) in emb {
                    phi.embedding_row_mut(*r).copy_from_slice(v);
                }
                for (r, v) in ctx {
                    phi.context_row_mut(*r).copy_from_slice(v);
                }
                for (r, b) in bias {
                    *phi.bias_at_mut(*r) = *b;
                }
                journal.take_delta(&theta)
            };
        let a = touch(
            &[
                (9, [1e-300, 2.0, 0.5]),
                (4, [0.0; 3]),
                (2, [0.25, -0.5, 1.0 / 3.0]),
            ],
            &[
                (11, [-7.75e2, 0.015625, 3.0]),
                (5, [0.1, 0.2, 0.30000000000000004]),
                (0, [1.0, 0.0, -1.0]),
            ],
            &[(5, (0.1f64 + 0.2).ln()), (0, -0.125)],
        );
        let mut b = touch(
            &[(1, [4.0, 5.0, 6.0])],
            &[(3, [-1.5e-3, 1.0e-7, 0.5])],
            &[(3, 0.5)],
        );
        b.add_bias(0, f64::NAN);
        let reply = RoundReply {
            step: 7,
            attempt: 42,
            results: vec![
                (
                    0,
                    Some(WireUpdate {
                        grad: a,
                        mean_loss: 0.75,
                        clipped: true,
                    }),
                ),
                (1, None),
                (
                    2,
                    Some(WireUpdate {
                        grad: b,
                        mean_loss: 1.5,
                        clipped: false,
                    }),
                ),
            ],
        };
        let bytes = reply.encode();
        assert_eq!(bytes.len(), 405);
        assert_eq!(plp_data::frame::fnv1a64(&bytes), 0x118a_63c7_aa1d_2a27);
        // And the compact arena a decoder builds encodes to them again.
        let back = RoundReply::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn decode_rejects_garbage() {
        let is_decode = |r: Result<Setup, FedError>| matches!(r, Err(FedError::Decode { .. }));
        // Setup: every truncation of a valid payload, an unknown grouping
        // strategy tag (payload word 13), a plan flag (word 20) other than
        // 0 or 1, and trailing bytes.
        let setup = sample_setup(Some(sample_plan())).encode();
        let with_word = |i: usize, value: u64| {
            let mut bytes = setup.clone();
            bytes[8 * i..8 * i + 8].copy_from_slice(&value.to_le_bytes());
            bytes
        };
        let mut hostile: Vec<Vec<u8>> = (0..setup.len()).map(|n| setup[..n].to_vec()).collect();
        hostile.extend([13, 20].map(|i| with_word(i, 2)));
        hostile.push(with_word(20, 0));
        hostile.push([&setup[..], &[0]].concat());
        hostile.push([&sample_setup(None).encode()[..], &[0; 8]].concat());
        hostile.push(br#"{"protocol_version":2}"#.to_vec());
        for bytes in hostile {
            assert!(is_decode(Setup::decode(&bytes)), "{bytes:?}");
        }

        assert!(RoundRequest::decode(&[1, 2, 3]).is_err());
        assert!(RoundReply::decode(&[0; 10]).is_err());
        let header = |results: u32| {
            let mut buf = Vec::new();
            put_u64(&mut buf, 1);
            put_u64(&mut buf, 1);
            put_u32(&mut buf, results);
            buf
        };
        // A reply claiming a huge result count must fail the ceiling
        // check instead of attempting the allocation.
        let err = RoundReply::decode(&header(u32::MAX)).unwrap_err();
        assert!(
            err.to_string().contains("max frame size"),
            "expected ceiling diagnostic, got {err}"
        );
        // Bad result tag.
        let mut buf = header(1);
        put_u64(&mut buf, 0);
        buf.push(9);
        assert!(RoundReply::decode(&buf).is_err());
        // Trailing bytes after a whole reply.
        let mut buf = header(1);
        put_u64(&mut buf, 0);
        buf.extend([0, 0]);
        assert!(matches!(
            RoundReply::decode(&buf),
            Err(FedError::Decode { .. })
        ));

        // Rows that arrive out of order, twice, or in two widths — in any
        // tensor — are refused as a decode error, never a panic later on.
        let reply_with = |rows: &[(u64, &[f64])], bias: &[(u64, f64)]| {
            let mut buf = header(1);
            put_u64(&mut buf, 0);
            buf.push(1);
            for tensor in [rows, &[]] {
                put_u32(&mut buf, tensor.len() as u32);
                for (row, v) in tensor {
                    put_u64(&mut buf, *row);
                    put_u32(&mut buf, v.len() as u32);
                    v.iter().for_each(|x| put_u64(&mut buf, x.to_bits()));
                }
            }
            put_u32(&mut buf, bias.len() as u32);
            for (row, b) in bias {
                put_u64(&mut buf, *row);
                put_u64(&mut buf, b.to_bits());
            }
            put_u64(&mut buf, 0.5f64.to_bits());
            buf.push(0);
            RoundReply::decode(&buf)
        };
        assert!(reply_with(&[(2, &[1.0]), (5, &[2.0])], &[(0, 1.0), (3, 2.0)]).is_ok());
        for (rows, bias) in [
            (&[(5u64, &[1.0][..]), (2, &[2.0])][..], &[][..]),
            (&[(2, &[1.0]), (2, &[2.0])], &[]),
            (&[(2, &[1.0]), (5, &[2.0, 3.0])], &[]),
            (&[(u64::MAX, &[1.0])], &[]),
            (&[], &[(3u64, 1.0), (0, 2.0)]),
            (&[], &[(3, 1.0), (3, 2.0)]),
        ] {
            let err = reply_with(rows, bias).unwrap_err();
            assert!(matches!(err, FedError::Decode { .. }), "{err}");
        }
    }

    #[test]
    fn update_conversion_preserves_fields() {
        let upd = BucketUpdate {
            index: 11,
            grad: sample_grad(),
            mean_loss: 1.5,
            clipped: false,
        };
        let wire = WireUpdate::from(upd.clone());
        assert_eq!(wire.into_update(11), upd);
    }
}
