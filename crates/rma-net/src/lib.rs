//! Network front-end for the sharded RMA database: a binary wire
//! protocol and a non-blocking TCP server that put a database
//! session behind a socket.
//!
//! The stack, bottom-up:
//!
//! * `sys` (private) — the two things the loop needs that `std` has
//!   no type for: an `epoll(7)` set and an `eventfd(2)`, over the FFI
//!   declared in `rewiring::libc`. The listener and the connections
//!   are `std::net` sockets.
//! * [`wire`] — length-prefixed, CRC-32-checked frames carrying
//!   batches of typed [`rma_db::Op`]s and streamed
//!   [`rma_db::Reply`]s; see the module docs for the frame layout.
//! * [`NetServer`] — a single-threaded epoll event loop that executes
//!   on its own thread: each pass decodes the frames of every
//!   connection and the pass's scan continuations into one
//!   [`rma_db::Session::submit`] under one commit barrier (wire-side
//!   group commit), pauses reading from connections that exceed their
//!   in-flight or write-buffer caps (backpressure), and streams big
//!   scans in bounded chunks.
//! * [`WireClient`] — a small blocking client used by the examples,
//!   tests and the `fig23_network` benchmark driver.
//!
//! Connection and protocol activity is counted in [`NetStats`]
//! (rendered Prometheus-style next to the engine's metrics) and
//! journaled as `conn_open` / `conn_close` / `proto_error` events in
//! the engine's maintenance journal.

pub mod client;
pub mod server;
pub mod stats;
mod sys;
pub mod wire;

pub use client::{Completed, WireClient};
pub use server::{NetConfig, NetServer};
pub use stats::{NetSnapshot, NetStats};
pub use wire::{ErrorCode, WireError};
