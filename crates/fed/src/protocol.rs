//! Message types and codecs of the coordinator↔worker round protocol.
//!
//! Four message kinds cross the pipe, every one wrapped in the CRC frame
//! of [`crate::frame`]:
//!
//! * [`MSG_SETUP`] (JSON): hyper-parameters, the fault plan, and the
//!   worker's slot + incarnation — sent once per spawned process.
//! * [`MSG_ROUND`] (binary): one step's work order — the step identity and
//!   seed, the full parameter snapshot θ_t, and the assigned buckets with
//!   their *global* indices.
//! * [`MSG_REPLY`] (binary): the worker's bucket results. Deltas travel as
//!   row-sparse gradients with exact `f64` bits, so a bucket computed
//!   remotely aggregates to the same sum as one computed in process.
//! * [`MSG_SHUTDOWN`] (empty): clean worker exit.
//!
//! Every numeric field is little-endian and every length is validated
//! before allocation. Model parameters travel as an in-memory PLPS image
//! ([`plp_model::plps`]), the same tensor sections a saved model has; the
//! receiver parses its header but skips the per-section CRC pass, because
//! the pipe frame's CRC already covers every byte of the payload.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

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
/// [`crate::frame::KIND_TRACED`] flag bit). A version-1 worker that
/// receives a traced frame sees an unknown kind byte and exits through
/// its protocol-error path; a version-2 worker handed a mismatched
/// `protocol_version` in Setup rejects the session *before* any round
/// traffic — old workers are refused cleanly either way.
pub const PROTOCOL_VERSION: u32 = 2;

/// Frame kind: coordinator → worker session setup (JSON payload).
pub const MSG_SETUP: u8 = 1;
/// Frame kind: coordinator → worker round work order (binary payload).
pub const MSG_ROUND: u8 = 2;
/// Frame kind: worker → coordinator round results (binary payload).
pub const MSG_REPLY: u8 = 3;
/// Frame kind: coordinator → worker clean shutdown request (empty).
pub const MSG_SHUTDOWN: u8 = 4;

/// Session setup: everything a worker process needs before its first
/// round. JSON because it is sent once and debuggability beats bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Setup {
    /// The sender's [`PROTOCOL_VERSION`]; the worker refuses the session
    /// on any mismatch (exit code [`crate::worker::exit_code::VERSION`]).
    pub protocol_version: u32,
    /// The run's hyper-parameters (identical on every worker).
    pub hp: Hyperparameters,
    /// Fault plan to replay, if the run injects faults. The *same* plan
    /// drives coordinator- and worker-side decisions: injector decisions
    /// are pure functions of `(seed, kind, step, index)`, so both sides
    /// agree on which buckets are poisoned without communicating.
    pub plan: Option<FaultPlan>,
    /// The worker's slot in the coordinator's table (diagnostics only).
    pub slot: usize,
    /// The worker's incarnation: a coordinator-wide monotone spawn
    /// counter. Worker-level fault decisions key on it, so a respawned
    /// worker draws *fresh* stall/exit decisions — that is what makes
    /// recovery converge instead of re-hitting the same injected fault.
    pub incarnation: u64,
}

impl Setup {
    /// Encodes the setup payload as JSON bytes.
    ///
    /// # Errors
    /// Propagates serializer failures as [`FedError::Decode`].
    pub fn encode(&self) -> Result<Vec<u8>, FedError> {
        serde_json::to_string(self)
            .map(String::into_bytes)
            .map_err(|e| FedError::Decode {
                what: format!("setup encode: {e}"),
            })
    }

    /// Decodes a setup payload.
    ///
    /// # Errors
    /// [`FedError::Decode`] on malformed JSON.
    pub fn decode(payload: &[u8]) -> Result<Self, FedError> {
        let text = std::str::from_utf8(payload).map_err(|_| FedError::Decode {
            what: "setup payload is not utf-8".into(),
        })?;
        serde_json::from_str(text).map_err(|e| FedError::Decode {
            what: format!("setup decode: {e}"),
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

fn need(data: &Bytes, n: usize, what: &'static str) -> Result<(), FedError> {
    if data.remaining() < n {
        return Err(FedError::Decode {
            what: format!("truncated {what}"),
        });
    }
    Ok(())
}

/// Reads a `u32` element count and refuses claims whose decoded size (at
/// `elem_bytes` per element) would break the shared frame ceiling.
fn get_count(data: &mut Bytes, elem_bytes: u64, what: &'static str) -> Result<usize, FedError> {
    need(data, 4, what)?;
    let n = data.get_u32_le() as usize;
    if checked_frame_len((n as u64).saturating_mul(elem_bytes)).is_none() {
        return Err(FedError::Decode {
            what: format!("{what} count {n} over max frame size"),
        });
    }
    Ok(n)
}

fn put_usize_vec(buf: &mut BytesMut, v: &[usize]) {
    buf.put_u32_le(v.len() as u32);
    for &x in v {
        buf.put_u64_le(x as u64);
    }
}

fn get_usize_vec(data: &mut Bytes, what: &'static str) -> Result<Vec<usize>, FedError> {
    let n = get_count(data, 8, what)?;
    need(data, n * 8, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(
            usize::try_from(data.get_u64_le()).map_err(|_| FedError::Decode {
                what: format!("{what} element overflows usize"),
            })?,
        );
    }
    Ok(out)
}

impl RoundRequest {
    /// Encodes the work order.
    pub fn encode(&self) -> Vec<u8> {
        let snapshot = encode(&param_sections(&self.params, KIND_EMBEDDING), 0, 0);
        let mut buf = BytesMut::with_capacity(36 + snapshot.len());
        buf.put_u64_le(self.step);
        buf.put_u64_le(self.step_seed);
        buf.put_u64_le(self.attempt);
        buf.put_u32_le(snapshot.len() as u32);
        buf.put_slice(&snapshot);
        buf.put_u32_le(self.assignments.len() as u32);
        for (index, bucket) in &self.assignments {
            buf.put_u64_le(*index);
            put_usize_vec(&mut buf, &bucket.user_indices);
            put_usize_vec(&mut buf, &bucket.tokens);
        }
        buf.freeze().to_vec()
    }

    /// Decodes a work order.
    ///
    /// # Errors
    /// [`FedError::Decode`] on truncation or a length claim over the
    /// shared frame ceiling; snapshot shape errors propagate as
    /// [`FedError::Core`].
    pub fn decode(payload: &[u8]) -> Result<Self, FedError> {
        let mut data = Bytes::from(payload.to_vec());
        need(&data, 24, "round header")?;
        let step = data.get_u64_le();
        let step_seed = data.get_u64_le();
        let attempt = data.get_u64_le();
        let snap_len = get_count(&mut data, 1, "round snapshot")?;
        need(&data, snap_len, "round snapshot body")?;
        let snapshot = data[..snap_len].to_vec();
        data = data.slice(snap_len..);
        let params = PlpsSnapshot::from_bytes(snapshot)
            .and_then(|image| image.params())
            .map_err(|e| FedError::Core(plp_core::CoreError::Model(e)))?;
        let n = get_count(&mut data, 24, "round assignments")?;
        let mut assignments = Vec::with_capacity(n);
        for _ in 0..n {
            need(&data, 8, "assignment index")?;
            let index = data.get_u64_le();
            let user_indices = get_usize_vec(&mut data, "assignment users")?;
            let tokens = get_usize_vec(&mut data, "assignment tokens")?;
            assignments.push((
                index,
                Bucket {
                    user_indices,
                    tokens,
                },
            ));
        }
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

fn put_grad(buf: &mut BytesMut, grad: &RowDelta) {
    // A delta's rows come out in ascending row order whatever order they
    // were touched in; f64 bits are copied verbatim so the aggregated sum
    // is bit-identical to local execution.
    for tensor in [&grad.embedding, &grad.context] {
        buf.put_u32_le(tensor.len() as u32);
        for (row, v) in tensor.rows() {
            buf.put_u64_le(row as u64);
            buf.put_u32_le(v.len() as u32);
            for &x in v {
                buf.put_f64_le(x);
            }
        }
    }
    buf.put_u32_le(grad.bias.len() as u32);
    for (row, b) in grad.bias.rows() {
        buf.put_u64_le(row as u64);
        buf.put_f64_le(b[0]);
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
        .ok_or_else(|| FedError::Decode {
            what: format!("{what} row {row} out of order, repeated or misshapen"),
        })
}

fn get_rows(data: &mut Bytes, what: &'static str) -> Result<DeltaRows, FedError> {
    let n = get_count(data, 12, what)?;
    let mut rows = DeltaRows::default();
    let mut v = Vec::new();
    for _ in 0..n {
        need(data, 8, what)?;
        let row = data.get_u64_le();
        let dim = get_count(data, 8, what)?;
        need(data, dim * 8, what)?;
        v.clear();
        v.extend((0..dim).map(|_| data.get_f64_le()));
        push_row(&mut rows, row, &v, what)?;
    }
    Ok(rows)
}

fn get_grad(data: &mut Bytes) -> Result<RowDelta, FedError> {
    let embedding = get_rows(data, "grad embedding")?;
    let context = get_rows(data, "grad context")?;
    let n = get_count(data, 16, "grad bias")?;
    let mut bias = DeltaRows::default();
    for _ in 0..n {
        need(data, 16, "grad bias")?;
        let row = data.get_u64_le();
        let b = data.get_f64_le();
        push_row(&mut bias, row, &[b], "grad bias")?;
    }
    Ok(RowDelta {
        embedding,
        context,
        bias,
    })
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
        let mut buf = BytesMut::with_capacity(24);
        buf.put_u64_le(self.step);
        buf.put_u64_le(self.attempt);
        buf.put_u32_le(self.results.len() as u32);
        for (index, result) in &self.results {
            buf.put_u64_le(*index);
            match result {
                None => buf.put_u8(0),
                Some(u) => {
                    buf.put_u8(1);
                    put_grad(&mut buf, &u.grad);
                    buf.put_f64_le(u.mean_loss);
                    buf.put_u8(u8::from(u.clipped));
                }
            }
        }
        buf.freeze().to_vec()
    }

    /// Decodes a reply.
    ///
    /// # Errors
    /// [`FedError::Decode`] on truncation, oversize claims, rows that are
    /// not strictly ascending (a repeat included) or not of one width, or
    /// an unknown result tag.
    pub fn decode(payload: &[u8]) -> Result<Self, FedError> {
        let mut data = Bytes::from(payload.to_vec());
        need(&data, 16, "reply header")?;
        let step = data.get_u64_le();
        let attempt = data.get_u64_le();
        let n = get_count(&mut data, 9, "reply results")?;
        let mut results = Vec::with_capacity(n);
        for _ in 0..n {
            need(&data, 9, "reply result")?;
            let index = data.get_u64_le();
            match data.get_u8() {
                0 => results.push((index, None)),
                1 => {
                    let grad = get_grad(&mut data)?;
                    need(&data, 9, "reply update tail")?;
                    let mean_loss = data.get_f64_le();
                    let clipped = match data.get_u8() {
                        0 => false,
                        1 => true,
                        other => {
                            return Err(FedError::Decode {
                                what: format!("bad clipped flag {other}"),
                            })
                        }
                    };
                    results.push((
                        index,
                        Some(WireUpdate {
                            grad,
                            mean_loss,
                            clipped,
                        }),
                    ));
                }
                other => {
                    return Err(FedError::Decode {
                        what: format!("bad result tag {other}"),
                    })
                }
            }
        }
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

    /// FNV-1a 64, independent of the CRC the pipe frames use.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn setup_round_trips_via_json() {
        let setup = Setup {
            protocol_version: PROTOCOL_VERSION,
            hp: Hyperparameters::default(),
            plan: Some(FaultPlan {
                worker_stall_rate: 0.25,
                worker_stall_ms: 500,
                ..FaultPlan::quiet(9)
            }),
            slot: 2,
            incarnation: 17,
        };
        let bytes = setup.encode().unwrap();
        assert_eq!(Setup::decode(&bytes).unwrap(), setup);
        assert!(Setup::decode(b"not json").is_err());
        assert!(Setup::decode(&[0xFF, 0xFE]).is_err());
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
        assert_eq!(fnv1a(&bytes), 0x118a_63c7_aa1d_2a27);
        // And the compact arena a decoder builds encodes to them again.
        let back = RoundReply::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(RoundRequest::decode(&[1, 2, 3]).is_err());
        assert!(RoundReply::decode(&[0; 10]).is_err());
        // A reply claiming a huge result count must fail the ceiling
        // check instead of attempting the allocation.
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        buf.put_u64_le(1);
        buf.put_u32_le(u32::MAX);
        let err = RoundReply::decode(&buf.freeze().to_vec()).unwrap_err();
        assert!(
            err.to_string().contains("max frame size"),
            "expected ceiling diagnostic, got {err}"
        );
        // Bad result tag.
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        buf.put_u64_le(1);
        buf.put_u32_le(1);
        buf.put_u64_le(0);
        buf.put_u8(9);
        assert!(RoundReply::decode(&buf.freeze().to_vec()).is_err());

        // Rows that arrive out of order, twice, or in two widths — in any
        // tensor — are refused as a decode error, never a panic later on.
        let reply_with = |rows: &[(u64, &[f64])], bias: &[(u64, f64)]| {
            let mut buf = BytesMut::new();
            buf.put_u64_le(1);
            buf.put_u64_le(1);
            buf.put_u32_le(1);
            buf.put_u64_le(0);
            buf.put_u8(1);
            for tensor in [rows, &[]] {
                buf.put_u32_le(tensor.len() as u32);
                for (row, v) in tensor {
                    buf.put_u64_le(*row);
                    buf.put_u32_le(v.len() as u32);
                    v.iter().for_each(|&x| buf.put_f64_le(x));
                }
            }
            buf.put_u32_le(bias.len() as u32);
            for (row, b) in bias {
                buf.put_u64_le(*row);
                buf.put_f64_le(*b);
            }
            buf.put_f64_le(0.5);
            buf.put_u8(0);
            RoundReply::decode(&buf.freeze().to_vec())
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
