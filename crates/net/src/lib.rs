//! The remote multi-tenant serving front-end (DESIGN.md §14).
//!
//! `intertubes-serve` answers local replay files against one snapshot;
//! this crate puts a wire in front of it without bending the byte-identity
//! contract:
//!
//! * [`wire`] — the `intertubes-wire/v1` length-prefixed binary frame
//!   protocol: magic, version, tenant id, snapshot id, request id, and an
//!   FNV-1a-checksummed canonical-JSON payload, with staged typed
//!   [`wire::WireError`] decoding mirroring the snapshot container;
//! * [`registry`] — a multi-snapshot registry serving several loaded
//!   worlds/seeds from one process, routing each frame by snapshot id
//!   (cache keys are snapshot-scoped, so identical queries against
//!   different snapshots never alias);
//! * [`server`] — a single-threaded non-blocking poll loop (over the
//!   vendored `netpoll` shim) enforcing per-tenant token-bucket quotas
//!   **ahead of** the scheduler's queue-position admission — quota
//!   rejections are typed `Rejected` responses, never drops, and land in
//!   the `ServeTelemetry` count plane as per-tenant aggregates;
//! * [`client`] — a reconnect-and-resend client plus the multi-client
//!   harness proving responses byte-identical across 1/2/8 concurrent
//!   clients × cache on/off × snapshot count.
//!
//! The server also injects the `FaultPlan` transport families — torn
//! frames, slow-loris partial writes, mid-stream disconnects — into
//! response frames, each a keyed draw (`FaultPlan::fires_at`) on
//! (connection, frame) recorded in [`ServerReport::ledger`], the same
//! fault model every other surface uses. Torn frames and disconnects
//! destroy the response in flight and the client reconnects and resends;
//! slow-loris only changes pacing.
//!
//! The determinism claim the remote gate enforces: because the engine is
//! pure, quota buckets tick in request-count time, and answers are
//! correlated by request id, the per-request response bytes are identical
//! no matter how many clients carry the workload or which transport
//! faults are injected along the way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod registry;
pub mod server;
pub mod wire;

// The socket shim, for callers (the CLI) that bind the listener
// themselves before handing it to [`NetServer::run`].
pub use netpoll;

pub use client::{run_clients, NetClient, NetReply};
pub use registry::SnapshotRegistry;
pub use server::{NetServer, RunningServer, ServerReport};
pub use wire::{
    decode_frame, encode_frame, Frame, FrameKind, FrameReader, WireError, HEADER_LEN,
    MAX_FRAME_LEN, WIRE_MAGIC, WIRE_SCHEMA, WIRE_VERSION,
};
