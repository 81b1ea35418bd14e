//! The federated phase table — the one place these names are spelled.
//! Worker-side span ids are pure functions of what crosses the pipe (the
//! trace id, the attempt, the bucket's global index), so the coordinator
//! and the stitcher can predict them without a return channel.

plp_obs::phase_table! {
    /// `plp_fed_round_ms{phase=…}` and the `fed` trace category.
    TABLE = "plp_fed_round_ms", "fed";
    /// Coordinator: one step's round, fan-out to last reply (index: step).
    FED_ROUND = timed "fed_round";
    /// Coordinator: one dispatch of a slot's round request, retries
    /// included (index: attempt). Its context crosses the pipe.
    FED_SEND = trace_only "fed_send";
    /// Worker: one round request handled, under the `fed_send` that caused
    /// it (index: attempt).
    FED_WORKER_ROUND = trace_only "fed_worker_round";
    /// Worker: one bucket of the round (index: its global bucket index).
    FED_BUCKET = trace_only "fed_bucket";
}
