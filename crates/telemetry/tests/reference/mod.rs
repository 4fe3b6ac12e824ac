//! Test-only oracle: the telemetry sink as it stood before the recorder
//! a world owns — one `Mutex` around three `BTreeMap`s keyed by
//! (tenant, stage) and tenant, every recording line kept (the engine
//! probe and the named counters dropped). `recorder.rs` drives it and [`reflex_telemetry::Telemetry`]
//! through the same operations and demands identical exports. It builds
//! its snapshot from the crate's public types only.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use reflex_sim::{Histogram, SimDuration, SimTime};
use reflex_telemetry::{
    IoCounters, SloSnapshot, SloViolation, Stage, TelemetrySnapshot, TenantKey,
};

const SLO_WINDOW: SimDuration = SimDuration::from_millis(10);
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
}

#[derive(Debug, Default)]
struct Inner {
    spans: BTreeMap<(TenantKey, Stage), Histogram>,
    ios: BTreeMap<TenantKey, IoCounters>,
    slo: BTreeMap<TenantKey, SloState>,
    violations: Vec<SloViolation>,
}

/// The map-based sink.
#[derive(Debug, Clone, Default)]
pub struct MapSink(Arc<Mutex<Inner>>);

impl MapSink {
    pub fn span_nanos(&self, tenant: TenantKey, stage: Stage, nanos: u64) {
        let mut inner = self.0.lock().unwrap();
        inner
            .spans
            .entry((tenant, stage))
            .or_default()
            .record_nanos(nanos);
    }

    fn with_ios(&self, tenant: TenantKey, f: impl FnOnce(&mut IoCounters)) {
        f(self.0.lock().unwrap().ios.entry(tenant).or_default());
    }

    pub fn note_submitted(&self, tenant: TenantKey) {
        self.with_ios(tenant, |c| c.submitted += 1);
    }

    pub fn note_completed(&self, tenant: TenantKey) {
        self.with_ios(tenant, |c| c.completed += 1);
    }

    pub fn note_failed(&self, tenant: TenantKey) {
        self.with_ios(tenant, |c| c.failed += 1);
    }

    pub fn note_retried(&self, tenant: TenantKey) {
        self.with_ios(tenant, |c| c.retried += 1);
    }

    pub fn note_hit(&self, tenant: TenantKey) {
        self.with_ios(tenant, |c| {
            c.submitted += 1;
            c.completed += 1;
            c.hits += 1;
        });
    }

    pub fn open_span(&self, tenant: TenantKey) {
        self.with_ios(tenant, |c| c.open_spans += 1);
    }

    pub fn close_span(&self, tenant: TenantKey) {
        self.with_ios(tenant, |c| c.open_spans = c.open_spans.saturating_sub(1));
    }

    pub fn slo_register(&self, tenant: TenantKey, target_p95: SimDuration) {
        let mut inner = self.0.lock().unwrap();
        inner
            .slo
            .entry(tenant)
            .or_insert_with(|| SloState::new(target_p95.as_nanos()));
    }

    pub fn slo_observe(&self, tenant: TenantKey, latency: SimDuration, now: SimTime) {
        let mut inner = self.0.lock().unwrap();
        let Some(state) = inner.slo.get_mut(&tenant) else {
            return;
        };
        if let Some(v) = state.observe(tenant, latency.as_nanos(), now) {
            if inner.violations.len() < MAX_VIOLATION_EVENTS {
                inner.violations.push(v);
            }
        }
    }

    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.0.lock().unwrap();
        TelemetrySnapshot {
            spans: inner.spans.clone(),
            ios: inner.ios.clone(),
            slo: (inner.slo.iter())
                .map(|(t, s)| {
                    let summary = SloSnapshot {
                        target_p95_nanos: s.target_p95_nanos,
                        windows: s.windows,
                        violations: s.violations,
                        worst_p95_nanos: s.worst_p95_nanos,
                    };
                    (*t, summary)
                })
                .collect(),
            violations: inner.violations.clone(),
            ..TelemetrySnapshot::default()
        }
    }
}
