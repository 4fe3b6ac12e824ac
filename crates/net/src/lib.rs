//! # reflex-net — network model for the ReFlex reproduction
//!
//! Simulates the commodity 10GbE TCP/IP environment of the paper:
//!
//! * [`Fabric`] — machines connected through a switch; per-NIC
//!   serialization/receive capacity and propagation delays, lazily computed
//!   like the Flash device model.
//! * [`ConnTable`] — per-connection state indexed by the densely issued
//!   [`ConnId`], for flow tables and routes on the request path.
//! * [`StackProfile`] — Linux kernel TCP versus the IX dataplane stack
//!   (latency, jitter, per-thread message-rate ceilings).
//! * [`ReflexHeader`] / [`wire_bytes`] — the binary wire protocol actually
//!   serialized and parsed by the dataplane.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fabric;
mod stack;
mod wire;

pub use fabric::{
    ConnId, Delivery, Fabric, LinkConfig, MachineId, NetFaultAction, NetFaultHook, NicQueueId,
    RxPushes,
};
pub use stack::{StackProfile, Transport};
pub use wire::{
    wire_bytes, Opcode, ReflexHeader, WireError, FRAME_OVERHEAD, HEADER_SIZE, MAGIC, MSS,
};

/// Per-connection state, found by the connection's index.
pub type ConnTable<T> = reflex_sim::DenseTable<ConnId, T>;
