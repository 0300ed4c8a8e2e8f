//! # nshd-net
//!
//! The networked serving front end for NSHD: the "millions of users"
//! tier from the roadmap, layered on the fault-tolerant
//! [`ReplicaSet`](nshd_runtime::ReplicaSet) cluster.
//!
//! Three pieces:
//!
//! - [`wire`] — the `nshd-wire/v1` compact binary protocol: a fixed
//!   20-byte little-endian header, request payloads in three
//!   encodings (raw f32, symmetric INT8 at ~4× smaller, bit-packed ±1
//!   signs at ~32× smaller — the HD-native compressions), typed reply
//!   frames with per-request timing, and structured error frames
//!   mapping every [`PipelineError`](nshd_core::PipelineError)
//!   variant. Decoding is total: malformed bytes yield typed
//!   [`WireFault`]s, never panics.
//! - [`NetServer`] — a threaded TCP server (acceptor + per-connection
//!   reader/writer threads + one failover thread) feeding the cluster
//!   through `ReplicaSet::submit_then`, whose completions answer the
//!   writers directly, with pipelined
//!   out-of-order replies matched by request id, load-shedding via
//!   the cluster's admission control surfaced as typed `Overloaded`
//!   frames, per-connection socket deadlines, and graceful drain.
//! - [`NetClient`] — a blocking client with connection reuse, typed
//!   errors, and a pipelined `send`/`recv` mode for load generation.
//!
//! Determinism contract: the payload→tensor expansion is one shared
//! function ([`RequestBody::to_tensor`]), so a prediction served over
//! TCP is bit-identical to one computed by calling the cluster
//! directly with the same decoded tensor — across payload kinds,
//! worker counts, and mid-traffic replica kills (the survivor
//! invariant, asserted end-to-end by the crate's chaos tests and
//! `net_bench --smoke`).

#![warn(missing_docs)]

mod client;
mod server;
pub mod wire;

pub use client::{ClientError, NetClient, TaggedReply};
pub use server::{NetServer, NetServerConfig};
pub use wire::{
    ErrorBody, ErrorCode, Frame, FrameReadError, Header, PayloadKind, ReplyBody, RequestBody,
    WireFault, WireInput,
};
