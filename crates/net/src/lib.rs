//! TCP front door for the MRIS scheduling service.
//!
//! `mris-net` exposes a running [`mris_service::Service`] over a plain
//! TCP socket — zero external dependencies, thread-per-connection — so
//! clients in other processes can submit jobs, query the outcome ledger,
//! stream telemetry, and drain the service for its final report.
//!
//! * **Wire protocol** ([`proto`]) — length-prefixed, CRC-32-checksummed
//!   frames over the service's own codec, opened by an `MRNP` handshake
//!   that pins the protocol version and (optionally) the configuration
//!   fingerprint of the served world. Floats travel as IEEE-754 bits, so
//!   a drained report crosses the wire bit-identically.
//! * **Server** ([`serve_net`], [`NetServer`]) — an acceptor plus
//!   per-connection handler threads, each of which runs its requests on
//!   the one service itself, under one lock, and writes the reply after
//!   releasing it; the admission sequence is lock-acquisition order, so
//!   one client connection replays the in-process driver exactly (the
//!   `net_conservativity` suite pins TCP ≡ in-process on bits).
//! * **Multi-tenant admission** — connections authenticate to a
//!   [`mris_service::TenantSpec`] by token during the handshake; every
//!   submission is offered on that tenant's behalf, subject to the
//!   service's per-tenant quotas and deficit-round-robin fair admission.
//! * **Client** ([`NetClient`]) — a blocking handle mirroring the
//!   in-process submission API: `submit`, `submit_at`, `submit_batch`,
//!   `query`, `stats`, `subscribe`, `drain`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod proto;
mod server;

pub use client::NetClient;
pub use proto::{
    read_frame, write_frame, HandshakeStatus, Hello, HelloReply, NetStats, Request, Response,
    MAX_FRAME_LEN, NET_MAGIC, NET_VERSION,
};
pub use server::{serve_net, NetServeError, NetServer};
