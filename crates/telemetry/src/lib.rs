//! Observability layer for the ReFlex reproduction.
//!
//! The simulator's headline claim — remote Flash within tens of
//! microseconds of local at a 500µs p95 SLO — is only checkable if every
//! microsecond can be attributed to a pipeline stage and per-tenant SLO
//! conformance can be watched live. This crate provides that surface:
//!
//! * per-tenant, per-[`Stage`] latency **spans** recorded into the
//!   existing log-bucketed [`Histogram`],
//! * per-tenant IO conservation counters (submitted / completed / failed /
//!   retried, plus an open-span gauge),
//! * a rolling-window SLO tracker ([`Telemetry::slo_observe`]) that
//!   checks p95/p99 against `qos::slo` targets and emits
//!   [`SloViolation`] events,
//! * named counters, which the components keep themselves: the testbed
//!   reads them into the snapshot,
//! * a mergeable, deterministic [`TelemetrySnapshot`] with JSON and TSV
//!   exporters.
//!
//! # One recorder per world
//!
//! A simulated world runs on one thread, so its recorder takes no lock:
//! [`Telemetry`] is a shared handle to a `RefCell`, and each tenant's
//! spans, IO counters and SLO window sit in one record found by the
//! tenant's index, the way a connection's state is.
//!
//! # Zero cost when disabled
//!
//! [`Telemetry::disabled`] carries no allocation and every recording call
//! is a single `Option` branch, so instrumented hot paths stay within the
//! workspace's allocation budget (`alloc_budget.rs`). Recording is purely
//! passive — no RNG draws, no simulated CPU time, no event scheduling — so
//! enabling telemetry can never perturb simulation results.
//!
//! # Examples
//!
//! ```
//! use reflex_sim::SimDuration;
//! use reflex_telemetry::{Stage, Telemetry, TenantKey};
//!
//! let tel = Telemetry::enabled();
//! tel.note_submitted(TenantKey(1));
//! tel.span(TenantKey(1), Stage::Channel, SimDuration::from_micros(80));
//! let snap = tel.snapshot().unwrap();
//! assert_eq!(snap.ios[&TenantKey(1)].submitted, 1);
//! assert_eq!(snap.spans[&(TenantKey(1), Stage::Channel)].count(), 1);
//!
//! let off = Telemetry::disabled();
//! off.note_submitted(TenantKey(1)); // no-op, no allocation
//! assert!(off.snapshot().is_none());
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::iter;
use std::rc::Rc;

use reflex_sim::{DenseId, DenseTable, Histogram, SimDuration, SimTime};

/// Identifies a tenant inside the telemetry layer.
///
/// Mirrors `qos::TenantId` (callers convert via `.0`) without creating a
/// dependency cycle; [`TenantKey::GLOBAL`] tags tenant-agnostic spans such
/// as fabric wire time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantKey(pub u32);

impl TenantKey {
    /// Sentinel for spans not attributable to a single tenant.
    pub const GLOBAL: TenantKey = TenantKey(u32::MAX);

    /// Human-readable label (`"global"` for the sentinel).
    fn label(self) -> String {
        if self == Self::GLOBAL {
            "global".to_string()
        } else {
            self.0.to_string()
        }
    }
}

/// Tenant ids are issued densely from zero, like connection ids.
impl DenseId for TenantKey {
    fn index(self) -> u64 {
        u64::from(self.0)
    }

    fn from_index(index: u64) -> Self {
        TenantKey(index as u32)
    }
}

/// One stage of the request pipeline, in wire order. Each span records the
/// time a request spent inside that stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Client-side send gating: queueing behind the client thread's
    /// per-message CPU cost before the request hits the fabric.
    Ingress,
    /// Request-direction wire time: TX stack + serialization + propagation
    /// + RX stack on the server NIC.
    Fabric,
    /// NIC receive queue wait: message arrival to the dataplane thread
    /// starting RX processing.
    NicQueue,
    /// Dataplane RX processing: decode, ACL, ordering, QoS enqueue.
    Dataplane,
    /// DRAM cache service: lookup plus copy-out for reads served entirely
    /// from the per-thread cache, which skip FlashSq/Channel/Cq.
    DramCache,
    /// Flash submission-queue wait: QoS enqueue to device submit.
    FlashSq,
    /// Flash channel occupancy: device submit to completion.
    Channel,
    /// Completion handling: device completion to response on the wire.
    Cq,
    /// Response-direction wire time back to the client.
    Egress,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 9] = [
        Stage::Ingress,
        Stage::Fabric,
        Stage::NicQueue,
        Stage::Dataplane,
        Stage::DramCache,
        Stage::FlashSq,
        Stage::Channel,
        Stage::Cq,
        Stage::Egress,
    ];

    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingress => "ingress",
            Stage::Fabric => "fabric",
            Stage::NicQueue => "nic_queue",
            Stage::Dataplane => "dataplane",
            Stage::DramCache => "dram_cache",
            Stage::FlashSq => "flash_sq",
            Stage::Channel => "channel",
            Stage::Cq => "cq",
            Stage::Egress => "egress",
        }
    }
}

/// Per-tenant IO conservation counters. After a drained run,
/// `submitted == completed + failed + retried` and `open_spans == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Device submission attempts.
    pub submitted: u64,
    /// Successful completions.
    pub completed: u64,
    /// Completions with an error status.
    pub failed: u64,
    /// Submission attempts refused by a full submission queue, retried.
    pub retried: u64,
    /// Reads served from the per-thread DRAM cache. Hits count in both
    /// `submitted` and `completed` (a hit is a submission the cache
    /// completed), so conservation is unchanged; `hits <= completed`.
    pub hits: u64,
    /// Requests accepted by the dataplane whose response has not yet been
    /// sent (a gauge, not a monotone counter).
    pub open_spans: u64,
}

/// How the dataplane answered a request it accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// From the DRAM cache: a submission the cache itself completed, so
    /// `submitted`, `completed` and `hits` move together and conservation
    /// holds without a device round trip.
    Hit,
    /// With the device's successful completion.
    Completed,
    /// With an error.
    Failed,
}

/// A closed SLO window whose p95 exceeded the tenant's target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloViolation {
    /// The violating tenant.
    pub tenant: TenantKey,
    /// Simulated time the window closed.
    pub at: SimTime,
    /// Window p95 in nanoseconds.
    pub p95_nanos: u64,
    /// Window p99 in nanoseconds.
    pub p99_nanos: u64,
    /// The tenant's SLO target in nanoseconds.
    pub target_p95_nanos: u64,
}

/// Rolling SLO windows close every 10ms of simulated time.
const SLO_WINDOW: SimDuration = SimDuration::from_millis(10);

/// At most this many violation events are retained verbatim; the total
/// count keeps incrementing past it.
const MAX_VIOLATION_EVENTS: usize = 256;

#[derive(Debug)]
struct SloState {
    target_p95_nanos: u64,
    window: Histogram,
    window_start: SimTime,
    windows: u64,
    violations: u64,
    worst_p95_nanos: u64,
}

impl SloState {
    fn new(target_p95_nanos: u64) -> Self {
        SloState {
            target_p95_nanos,
            window: Histogram::new(),
            window_start: SimTime::ZERO,
            windows: 0,
            violations: 0,
            worst_p95_nanos: 0,
        }
    }

    /// Closes the current window if one is due, returning a violation
    /// event when the window's p95 missed the target.
    fn observe(&mut self, tenant: TenantKey, nanos: u64, now: SimTime) -> Option<SloViolation> {
        let mut fired = None;
        if !self.window.is_empty() && now.saturating_since(self.window_start) >= SLO_WINDOW {
            let p95 = self.window.p95().as_nanos();
            let p99 = self.window.p99().as_nanos();
            self.windows += 1;
            self.worst_p95_nanos = self.worst_p95_nanos.max(p95);
            if p95 > self.target_p95_nanos {
                self.violations += 1;
                fired = Some(SloViolation {
                    tenant,
                    at: now,
                    p95_nanos: p95,
                    p99_nanos: p99,
                    target_p95_nanos: self.target_p95_nanos,
                });
            }
            self.window.reset();
        }
        if self.window.is_empty() {
            self.window_start = now;
        }
        self.window.record_nanos(nanos);
        fired
    }

    fn summary(&self) -> SloSnapshot {
        SloSnapshot {
            target_p95_nanos: self.target_p95_nanos,
            windows: self.windows,
            violations: self.violations,
            worst_p95_nanos: self.worst_p95_nanos,
        }
    }
}

/// Everything recorded for one tenant; `None` until first recorded.
#[derive(Debug, Default)]
struct TenantRecord {
    /// Span histograms indexed by [`Stage`].
    spans: [Option<Histogram>; 9],
    ios: Option<IoCounters>,
    slo: Option<SloState>,
}

impl TenantRecord {
    #[inline]
    fn span(&mut self, stage: Stage, nanos: u64) {
        let h = self.spans[stage as usize].get_or_insert_with(Histogram::new);
        h.record_nanos(nanos);
    }
}

#[derive(Debug, Default)]
struct Recorder {
    /// Boxed so that the dense table costs a pointer per id below the
    /// largest one seen, not a record.
    tenants: DenseTable<TenantKey, Box<TenantRecord>>,
    /// [`TenantKey::GLOBAL`]'s record, kept apart: the device and the
    /// fabric record a span under it for every command and message.
    global: TenantRecord,
    violations: Vec<SloViolation>,
}

impl Recorder {
    #[inline]
    fn tenant(&mut self, tenant: TenantKey) -> &mut TenantRecord {
        if tenant == TenantKey::GLOBAL {
            &mut self.global
        } else {
            self.tenants.get_or_insert_with(tenant, Box::default)
        }
    }
}

/// Shared, cloneable handle to a world's telemetry recorder.
///
/// [`Telemetry::disabled`] is the zero-cost default: every method is a
/// single `Option` branch and no state is allocated. Clones of an enabled
/// handle share one recorder, so a testbed can hand the same handle to the
/// fabric, the device, every dataplane thread, and the client world — all
/// of which run on the world's one thread.
#[derive(Debug, Clone, Default)]
pub struct Telemetry(Option<Rc<RefCell<Recorder>>>);

impl Telemetry {
    /// A no-op handle: records nothing, allocates nothing.
    pub fn disabled() -> Self {
        Telemetry(None)
    }

    /// A live handle backed by a fresh recorder.
    pub fn enabled() -> Self {
        Telemetry(Some(Rc::default()))
    }

    #[inline]
    fn with(&self, f: impl FnOnce(&mut Recorder)) {
        if let Some(rec) = &self.0 {
            f(&mut rec.borrow_mut());
        }
    }

    /// Records a latency sample for `(tenant, stage)`.
    pub fn span(&self, tenant: TenantKey, stage: Stage, d: SimDuration) {
        self.span_nanos(tenant, stage, d.as_nanos());
    }

    /// Records a raw nanosecond latency sample for `(tenant, stage)`.
    #[inline]
    pub fn span_nanos(&self, tenant: TenantKey, stage: Stage, nanos: u64) {
        self.with(|rec| rec.tenant(tenant).span(stage, nanos));
    }

    #[inline]
    fn with_ios(&self, tenant: TenantKey, f: impl FnOnce(&mut IoCounters)) {
        self.with(|rec| f(rec.tenant(tenant).ios.get_or_insert_default()));
    }

    /// Notes a device submission attempt for `tenant`.
    pub fn note_submitted(&self, tenant: TenantKey) {
        self.with_ios(tenant, |c| c.submitted += 1);
    }

    /// Notes a successful completion for `tenant`.
    pub fn note_completed(&self, tenant: TenantKey) {
        self.with_ios(tenant, |c| c.completed += 1);
    }

    /// Notes an errored completion for `tenant`.
    pub fn note_failed(&self, tenant: TenantKey) {
        self.with_ios(tenant, |c| c.failed += 1);
    }

    /// Notes a submission refused by a full queue, to be retried.
    pub fn note_retried(&self, tenant: TenantKey) {
        self.with_ios(tenant, |c| c.retried += 1);
    }

    /// Opens a request span: the dataplane accepted a request it will
    /// eventually answer.
    pub fn open_span(&self, tenant: TenantKey) {
        self.with_ios(tenant, |c| c.open_spans += 1);
    }

    /// Closes a request span: the response left the dataplane. Callers
    /// pair this with exactly one [`open_span`](Self::open_span) — the
    /// generation-checked in-flight slab guarantees that even across slot
    /// recycling. A span opened before recording began closes at zero.
    pub fn close_span(&self, tenant: TenantKey) {
        self.with_ios(tenant, |c| c.open_spans = c.open_spans.saturating_sub(1));
    }

    /// Closes the span of a request the dataplane answered, with the
    /// request's server-side stage `spans`: one visit to the tenant's
    /// record for what [`span`](Self::span), a note of the `answer` and
    /// [`close_span`](Self::close_span) would record.
    #[inline]
    pub fn answer(&self, tenant: TenantKey, spans: &[(Stage, SimDuration)], answer: Answer) {
        self.with(|rec| {
            let r = rec.tenant(tenant);
            for &(stage, d) in spans {
                r.span(stage, d.as_nanos());
            }
            let c = r.ios.get_or_insert_default();
            match answer {
                Answer::Hit => {
                    c.submitted += 1;
                    c.completed += 1;
                    c.hits += 1;
                }
                Answer::Completed => c.completed += 1,
                Answer::Failed => c.failed += 1,
            }
            c.open_spans = c.open_spans.saturating_sub(1);
        });
    }

    /// Registers (idempotently) an SLO target for `tenant`. Rolling p95
    /// checks start with the first [`slo_observe`](Self::slo_observe).
    pub fn slo_register(&self, tenant: TenantKey, target_p95: SimDuration) {
        self.with(|rec| {
            let slo = &mut rec.tenant(tenant).slo;
            slo.get_or_insert_with(|| SloState::new(target_p95.as_nanos()));
        });
    }

    /// Feeds one end-to-end latency sample into `tenant`'s rolling SLO
    /// window. Unregistered tenants are ignored.
    pub fn slo_observe(&self, tenant: TenantKey, latency: SimDuration, now: SimTime) {
        self.with(|rec| {
            let Some(state) = rec.tenant(tenant).slo.as_mut() else {
                return;
            };
            if let Some(v) = state.observe(tenant, latency.as_nanos(), now) {
                if rec.violations.len() < MAX_VIOLATION_EVENTS {
                    rec.violations.push(v);
                }
            }
        });
    }

    /// A point-in-time copy of everything recorded so far (`None` when
    /// disabled).
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        let rec = self.0.as_ref()?.borrow();
        let mut snap = TelemetrySnapshot {
            violations: rec.violations.clone(),
            ..TelemetrySnapshot::default()
        };
        let tenants = rec.tenants.iter().map(|(t, r)| (t, &**r));
        for (t, r) in tenants.chain(iter::once((TenantKey::GLOBAL, &rec.global))) {
            for (stage, h) in Stage::ALL.into_iter().zip(&r.spans) {
                if let Some(h) = h {
                    snap.spans.insert((t, stage), h.clone());
                }
            }
            if let Some(io) = r.ios {
                snap.ios.insert(t, io);
            }
            if let Some(slo) = &r.slo {
                snap.slo.insert(t, slo.summary());
            }
        }
        Some(snap)
    }
}

/// Per-tenant SLO conformance summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SloSnapshot {
    /// Target p95 in nanoseconds.
    pub target_p95_nanos: u64,
    /// Closed rolling windows.
    pub windows: u64,
    /// Windows whose p95 exceeded the target.
    pub violations: u64,
    /// Worst closed-window p95 in nanoseconds.
    pub worst_p95_nanos: u64,
}

/// A mergeable point-in-time copy of a telemetry recorder.
///
/// Merging is commutative and associative (counters add, histograms
/// merge, SLO windows add), so snapshots taken on different sweep worker
/// threads can be folded in any order with a deterministic result.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Named counters.
    pub counters: BTreeMap<String, u64>,
    /// Per-(tenant, stage) latency histograms.
    pub spans: BTreeMap<(TenantKey, Stage), Histogram>,
    /// Per-tenant IO conservation counters.
    pub ios: BTreeMap<TenantKey, IoCounters>,
    /// Per-tenant SLO conformance.
    pub slo: BTreeMap<TenantKey, SloSnapshot>,
    /// Retained violation events (capped; counts in [`SloSnapshot`] are
    /// exact).
    pub violations: Vec<SloViolation>,
}

impl TelemetrySnapshot {
    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty() && self.ios.is_empty()
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.spans {
            self.spans.entry(*k).or_default().merge(h);
        }
        for (t, c) in &other.ios {
            let mine = self.ios.entry(*t).or_default();
            mine.submitted += c.submitted;
            mine.completed += c.completed;
            mine.failed += c.failed;
            mine.retried += c.retried;
            mine.hits += c.hits;
            mine.open_spans += c.open_spans;
        }
        for (t, s) in &other.slo {
            let mine = self.slo.entry(*t).or_default();
            mine.target_p95_nanos = mine.target_p95_nanos.max(s.target_p95_nanos);
            mine.windows += s.windows;
            mine.violations += s.violations;
            mine.worst_p95_nanos = mine.worst_p95_nanos.max(s.worst_p95_nanos);
        }
        for v in &other.violations {
            if self.violations.len() >= MAX_VIOLATION_EVENTS {
                break;
            }
            self.violations.push(*v);
        }
    }

    /// The span histogram for `(tenant, stage)` if any samples exist.
    pub fn stage(&self, tenant: TenantKey, stage: Stage) -> Option<&Histogram> {
        self.spans.get(&(tenant, stage))
    }

    /// Deterministic JSON rendering of the snapshot (schema
    /// `reflex-telemetry-v2`, pinned by a golden-file test; v2 added the
    /// per-tenant `hits` counter for the DRAM cache tier).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"reflex-telemetry-v2\",\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    {}: {}", json_str(k), v);
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"spans\": [");
        first = true;
        for ((tenant, stage), h) in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"tenant\": {}, \"stage\": \"{}\", \"count\": {}, \
                 \"mean_us\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
                 \"max_us\": {}}}",
                json_str(&tenant.label()),
                stage.name(),
                h.count(),
                json_f64(h.mean().as_micros_f64()),
                json_f64(h.p50().as_micros_f64()),
                json_f64(h.p95().as_micros_f64()),
                json_f64(h.p99().as_micros_f64()),
                json_f64(h.max().as_micros_f64()),
            );
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"tenants\": [");
        first = true;
        for (t, c) in &self.ios {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"tenant\": {}, \"submitted\": {}, \"completed\": {}, \
                 \"failed\": {}, \"retried\": {}, \"hits\": {}, \"open_spans\": {}}}",
                json_str(&t.label()),
                c.submitted,
                c.completed,
                c.failed,
                c.retried,
                c.hits,
                c.open_spans,
            );
        }
        if !self.ios.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"slo\": [");
        first = true;
        for (t, s) in &self.slo {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"tenant\": {}, \"target_p95_us\": {}, \"windows\": {}, \
                 \"violations\": {}, \"worst_p95_us\": {}}}",
                json_str(&t.label()),
                json_f64(s.target_p95_nanos as f64 / 1e3),
                s.windows,
                s.violations,
                json_f64(s.worst_p95_nanos as f64 / 1e3),
            );
        }
        if !self.slo.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Deterministic TSV rendering: one section per table, separated by
    /// `#`-prefixed headers.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str("# counters\ncounter\tvalue\n");
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k}\t{v}");
        }
        out.push_str("# spans\ntenant\tstage\tcount\tmean_us\tp50_us\tp95_us\tp99_us\tmax_us\n");
        for ((tenant, stage), h) in &self.spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.3}",
                tenant.label(),
                stage.name(),
                h.count(),
                h.mean().as_micros_f64(),
                h.p50().as_micros_f64(),
                h.p95().as_micros_f64(),
                h.p99().as_micros_f64(),
                h.max().as_micros_f64(),
            );
        }
        out.push_str(
            "# tenants\ntenant\tsubmitted\tcompleted\tfailed\tretried\thits\topen_spans\n",
        );
        for (t, c) in &self.ios {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                t.label(),
                c.submitted,
                c.completed,
                c.failed,
                c.retried,
                c.hits,
                c.open_spans,
            );
        }
        out.push_str("# slo\ntenant\ttarget_p95_us\twindows\tviolations\tworst_p95_us\n");
        for (t, s) in &self.slo {
            let _ = writeln!(
                out,
                "{}\t{:.3}\t{}\t{}\t{:.3}",
                t.label(),
                s.target_p95_nanos as f64 / 1e3,
                s.windows,
                s.violations,
                s.worst_p95_nanos as f64 / 1e3,
            );
        }
        out
    }
}

/// JSON string escaping (sufficient for counter names and tenant labels).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Deterministic fixed-precision float rendering for JSON.
fn json_f64(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let tel = Telemetry::disabled();
        tel.span(TenantKey(1), Stage::Channel, SimDuration::from_micros(5));
        tel.note_submitted(TenantKey(1));
        tel.slo_register(TenantKey(1), SimDuration::from_micros(500));
        tel.slo_observe(
            TenantKey(1),
            SimDuration::from_micros(700),
            SimTime::from_nanos(1),
        );
        assert!(tel.snapshot().is_none());
    }

    #[test]
    fn clones_share_one_sink() {
        let a = Telemetry::enabled();
        let b = a.clone();
        a.note_submitted(TenantKey(1));
        b.note_submitted(TenantKey(1));
        assert_eq!(a.snapshot().unwrap().ios[&TenantKey(1)].submitted, 2);
    }

    #[test]
    fn spans_accumulate_per_tenant_and_stage() {
        let tel = Telemetry::enabled();
        tel.span(TenantKey(1), Stage::Channel, SimDuration::from_micros(10));
        tel.span(TenantKey(1), Stage::Channel, SimDuration::from_micros(20));
        tel.span(TenantKey(2), Stage::Channel, SimDuration::from_micros(30));
        tel.span(TenantKey(1), Stage::Cq, SimDuration::from_micros(40));
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.stage(TenantKey(1), Stage::Channel).unwrap().count(), 2);
        assert_eq!(snap.stage(TenantKey(2), Stage::Channel).unwrap().count(), 1);
        assert_eq!(snap.stage(TenantKey(1), Stage::Cq).unwrap().count(), 1);
        assert!(snap.stage(TenantKey(2), Stage::Cq).is_none());
    }

    #[test]
    fn io_counters_conserve() {
        let tel = Telemetry::enabled();
        let t = TenantKey(7);
        for _ in 0..5 {
            tel.open_span(t);
            tel.note_submitted(t);
        }
        tel.note_retried(t);
        tel.note_submitted(t);
        for _ in 0..4 {
            tel.note_completed(t);
            tel.close_span(t);
        }
        tel.note_failed(t);
        tel.close_span(t);
        // Cache hits complete without a device round trip but still obey
        // conservation: submitted/completed/hits move together.
        for _ in 0..3 {
            tel.open_span(t);
            tel.answer(t, &[], Answer::Hit);
        }
        let c = tel.snapshot().unwrap().ios[&t];
        assert_eq!(c.submitted, 9);
        assert_eq!(c.hits, 3);
        assert_eq!(c.submitted, c.completed + c.failed + c.retried);
        assert!(c.hits <= c.completed);
        assert_eq!(c.open_spans, 0);
    }

    #[test]
    fn slo_monitor_counts_violating_windows() {
        let tel = Telemetry::enabled();
        let t = TenantKey(1);
        tel.slo_register(t, SimDuration::from_micros(100));
        // First window: all fast. Second window: all slow.
        for i in 0..100u64 {
            tel.slo_observe(
                t,
                SimDuration::from_micros(50),
                SimTime::from_nanos(i * 10_000),
            );
        }
        for i in 0..100u64 {
            tel.slo_observe(
                t,
                SimDuration::from_micros(400),
                SimTime::from_nanos(15_000_000 + i * 10_000),
            );
        }
        // Third batch closes the slow window.
        tel.slo_observe(
            t,
            SimDuration::from_micros(50),
            SimTime::from_nanos(40_000_000),
        );
        let snap = tel.snapshot().unwrap();
        let s = snap.slo[&t];
        assert_eq!(s.windows, 2);
        assert_eq!(s.violations, 1);
        assert!(s.worst_p95_nanos >= 350_000);
        assert_eq!(snap.violations.len(), 1);
        assert_eq!(snap.violations[0].tenant, t);
    }

    #[test]
    fn merge_is_commutative() {
        let a = Telemetry::enabled();
        a.span(TenantKey(1), Stage::Fabric, SimDuration::from_micros(10));
        a.note_submitted(TenantKey(1));
        let b = Telemetry::enabled();
        b.span(TenantKey(1), Stage::Fabric, SimDuration::from_micros(90));
        b.note_completed(TenantKey(1));
        let (mut sa, mut sb) = (a.snapshot().unwrap(), b.snapshot().unwrap());
        sa.counters.insert("x".into(), 1);
        sb.counters.extend([("x".into(), 2), ("y".into(), 5)]);
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.counters["x"], 3);
        assert_eq!(ab.stage(TenantKey(1), Stage::Fabric).unwrap().count(), 2);
    }

    #[test]
    fn exports_are_deterministic() {
        let build = || {
            let tel = Telemetry::enabled();
            tel.span(
                TenantKey::GLOBAL,
                Stage::Fabric,
                SimDuration::from_micros(7),
            );
            tel.note_submitted(TenantKey(3));
            let mut snap = tel.snapshot().unwrap();
            snap.counters.insert("replication.failovers".into(), 1);
            snap
        };
        assert_eq!(build().to_json(), build().to_json());
        assert_eq!(build().to_tsv(), build().to_tsv());
        assert!(build().to_json().contains("\"global\""));
    }
}
