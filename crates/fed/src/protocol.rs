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
use plp_model::grad::SparseGrad;
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
    pub grad: SparseGrad,
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

fn put_grad(buf: &mut BytesMut, grad: &SparseGrad) {
    // BTreeMap iteration gives a deterministic row order; f64 bits are
    // copied verbatim so the aggregated sum is bit-identical to local
    // execution.
    buf.put_u32_le(grad.embedding.len() as u32);
    for (&row, v) in &grad.embedding {
        buf.put_u64_le(row as u64);
        buf.put_u32_le(v.len() as u32);
        for &x in v {
            buf.put_f64_le(x);
        }
    }
    buf.put_u32_le(grad.context.len() as u32);
    for (&row, v) in &grad.context {
        buf.put_u64_le(row as u64);
        buf.put_u32_le(v.len() as u32);
        for &x in v {
            buf.put_f64_le(x);
        }
    }
    buf.put_u32_le(grad.bias.len() as u32);
    for (&row, &b) in &grad.bias {
        buf.put_u64_le(row as u64);
        buf.put_f64_le(b);
    }
}

fn get_rows(
    data: &mut Bytes,
    what: &'static str,
) -> Result<std::collections::BTreeMap<usize, Vec<f64>>, FedError> {
    let n = get_count(data, 12, what)?;
    let mut rows = std::collections::BTreeMap::new();
    for _ in 0..n {
        need(data, 8, what)?;
        let row = data.get_u64_le() as usize;
        let dim = get_count(data, 8, what)?;
        need(data, dim * 8, what)?;
        let mut v = Vec::with_capacity(dim);
        for _ in 0..dim {
            v.push(data.get_f64_le());
        }
        if rows.insert(row, v).is_some() {
            return Err(FedError::Decode {
                what: format!("duplicate {what} row"),
            });
        }
    }
    Ok(rows)
}

fn get_grad(data: &mut Bytes) -> Result<SparseGrad, FedError> {
    let mut grad = SparseGrad::new();
    grad.embedding = get_rows(data, "grad embedding")?;
    grad.context = get_rows(data, "grad context")?;
    let n = get_count(data, 16, "grad bias")?;
    for _ in 0..n {
        need(data, 16, "grad bias")?;
        let row = data.get_u64_le() as usize;
        let b = data.get_f64_le();
        if grad.bias.insert(row, b).is_some() {
            return Err(FedError::Decode {
                what: "duplicate grad bias row".into(),
            });
        }
    }
    Ok(grad)
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
    /// [`FedError::Decode`] on truncation, oversize claims, duplicate
    /// rows, or an unknown result tag.
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

    fn sample_grad() -> SparseGrad {
        let mut g = SparseGrad::new();
        g.add_embedding_row(0, 1.0, &[0.25, -0.5, 1.0 / 3.0]);
        g.add_context_row(3, 1.0, &[1e-300, 2.0, -0.0]);
        g.add_bias(1, -0.125);
        g
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
        assert_eq!(
            u.grad.context[&3][0].to_bits(),
            sample_grad().context[&3][0].to_bits(),
            "delta bits must survive the wire"
        );
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
