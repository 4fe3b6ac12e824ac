//! # reflex-qos — the ReFlex QoS scheduler
//!
//! The paper's core contribution: a request cost model plus a token-based
//! scheduling algorithm (Algorithm 1) that enforces tail-latency and
//! throughput SLOs for latency-critical tenants while letting best-effort
//! tenants consume all remaining Flash bandwidth, fairly, across all
//! dataplane threads.
//!
//! * [`Tokens`], [`TokenRate`], [`TokenGen`] — exact fixed-point token
//!   accounting (1 token = one 4KB mixed-load read).
//! * [`CostModel`] / [`LoadMix`] — `cost = ceil(size/4KB) × C(type, r)`.
//! * [`TenantId`], [`SloSpec`], [`TenantClass`] — tenants and SLOs.
//! * [`GlobalBucket`] — the lock-free shared bucket for spare tokens.
//! * [`QosScheduler`] — Algorithm 1, one instance per dataplane thread.
//! * [`fit_cost_model`] — the §3.2.1 calibration fit.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bucket;
mod calibrate;
mod cost;
mod scheduler;
mod slo;
mod tokens;
mod wake;

pub use bucket::GlobalBucket;
pub use calibrate::{
    fit_cost_model, max_iops_at_latency, CalibrationError, FittedCosts, RatioCapacity, SweepPoint,
};
pub use cost::{CostModel, LoadMix};
pub use scheduler::{
    CostedRequest, QosError, QosScheduler, ScheduleOutcome, SchedulerParams, TenantSchedStats,
    TenantSlot,
};
pub use slo::{SloSpec, TenantClass, TenantId};
pub use tokens::{TokenGen, TokenRate, Tokens};
