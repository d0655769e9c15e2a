//! `l2 serve`: a crash-isolated synthesis daemon.
//!
//! Turns the synthesizer into a long-lived service without giving up the
//! engine's determinism or the process's stability:
//!
//! * [`frame`] — length-prefixed wire framing that survives garbage
//!   bytes, truncation, and hostile length prefixes.
//! * [`proto`] — JSON requests/responses; every request gets exactly one
//!   structured reply (`ok`, `unsolved`, `error`, `overloaded`,
//!   `shutting_down`).
//! * [`server`] — bounded admission queue with load shedding, a worker
//!   pool with per-request budgets/cancellation, `catch_unwind` crash
//!   isolation, one warm term-store cache shared by the pool, and
//!   graceful drain.
//! * [`client`] — connection + call helpers and seeded jittered retry.
//! * [`access`] — per-request observability: every request gets a stable
//!   server-assigned ID (`c<conn>-r<n>`, echoed in the reply as
//!   `req_id`) and settles one [`AccessRecord`](access::AccessRecord),
//!   folded into the daemon's live [`AccessReport`](access::AccessReport)
//!   tally and, with `--access-log`, appended as one schema-versioned
//!   JSONL line; the same fold over a loaded log backs
//!   `l2 serve report`. All of it is observation-only — the differential
//!   test in `tests/serve.rs` proves replies are byte-identical with the
//!   whole layer on or off.
//!
//! The daemon and `l2 synth` share one code path
//! ([`crate::Synthesizer::synthesize_report_warm`]), so a served problem
//! returns the same program, cost, and attempt ladder as a local run
//! under the same options — the differential tests in `tests/serve.rs`
//! hold the bridge.

pub mod access;
pub mod client;
pub mod frame;
pub mod proto;
pub mod server;

pub use access::{load_access_log, AccessLog, AccessRecord, AccessReport};
pub use client::{request_with_retry, Backoff, Client, ClientError};
pub use frame::{write_frame, FrameError, FrameReader, MAX_FRAME_BYTES};
pub use proto::{parse_request, ReqOp, Request, PROTO_VERSION};
pub use server::{ServeConfig, ServeSummary, Server};
