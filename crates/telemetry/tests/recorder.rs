//! The recorder against the map-based sink it replaced
//! (`reference/mod.rs`): random spans, IO notes, answers and SLO traffic
//! over dense, stray and hostile tenant ids and
//! [`TenantKey::GLOBAL`] must export the same JSON and TSV and keep the
//! same violation events. And a hostile id costs the recorder one entry,
//! not a table sized to the id.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use reflex_sim::{SimDuration, SimRng, SimTime};
use reflex_telemetry::{Answer, Stage, Telemetry, TelemetrySnapshot, TenantKey};

#[allow(dead_code)]
mod reference;

use reference::MapSink;

const TENANTS: [TenantKey; 6] = [
    TenantKey(0),
    TenantKey(1),
    TenantKey(4_999),
    TenantKey(1 << 20),
    TenantKey(u32::MAX - 1),
    TenantKey::GLOBAL,
];

/// A latency from 100 ns to ~10 ms, log-uniform, so histogram windows
/// grow both ways.
fn latency(rng: &mut SimRng) -> u64 {
    let octave = rng.below(17);
    (100 << octave) + rng.below(100 << octave)
}

fn assert_same(recorder: &Telemetry, oracle: &MapSink, seed: u64, op: usize) {
    let got: TelemetrySnapshot = recorder.snapshot().expect("enabled");
    let want = oracle.snapshot();
    assert_eq!(got.to_json(), want.to_json(), "seed {seed}, op {op}");
    assert_eq!(got.to_tsv(), want.to_tsv(), "seed {seed}, op {op}");
    assert_eq!(got.violations, want.violations, "seed {seed}, op {op}");
}

#[test]
fn recorder_exports_what_the_map_based_sink_exported() {
    for seed in 0..20u64 {
        let mut rng = SimRng::seed(seed);
        let (recorder, oracle) = (Telemetry::enabled(), MapSink::default());
        let mut now = SimTime::ZERO;
        for op in 0..4_000 {
            let t = TENANTS[rng.below(TENANTS.len() as u64) as usize];
            match rng.below(11) {
                0 => {
                    let stage = Stage::ALL[rng.below(9) as usize];
                    let nanos = latency(&mut rng);
                    recorder.span_nanos(t, stage, nanos);
                    oracle.span_nanos(t, stage, nanos);
                }
                1 => {
                    recorder.note_submitted(t);
                    oracle.note_submitted(t);
                }
                2 => {
                    recorder.note_completed(t);
                    oracle.note_completed(t);
                }
                3 => {
                    recorder.note_failed(t);
                    oracle.note_failed(t);
                }
                4 => {
                    recorder.note_retried(t);
                    oracle.note_retried(t);
                }
                5 => {
                    recorder.open_span(t);
                    oracle.open_span(t);
                }
                6 => {
                    recorder.close_span(t);
                    oracle.close_span(t);
                }
                7 => {
                    let spans: Vec<(Stage, SimDuration)> = (0..rng.below(6))
                        .map(|_| {
                            let stage = Stage::ALL[rng.below(9) as usize];
                            (stage, SimDuration::from_nanos(latency(&mut rng)))
                        })
                        .collect();
                    let answer =
                        [Answer::Hit, Answer::Completed, Answer::Failed][rng.below(3) as usize];
                    recorder.answer(t, &spans, answer);
                    for &(stage, d) in &spans {
                        oracle.span_nanos(t, stage, d.as_nanos());
                    }
                    match answer {
                        Answer::Hit => oracle.note_hit(t),
                        Answer::Completed => oracle.note_completed(t),
                        Answer::Failed => oracle.note_failed(t),
                    }
                    oracle.close_span(t);
                }
                8 => {
                    let target = SimDuration::from_nanos(latency(&mut rng));
                    recorder.slo_register(t, target);
                    oracle.slo_register(t, target);
                }
                _ => {
                    // Mostly a few microseconds on; now and then past a
                    // whole window.
                    now += SimDuration::from_nanos(match rng.below(10) {
                        0 => 10_000_000 + rng.below(20_000_000),
                        _ => rng.below(5_000),
                    });
                    let d = SimDuration::from_nanos(latency(&mut rng));
                    recorder.slo_observe(t, d, now);
                    oracle.slo_observe(t, d, now);
                }
            }
            if op % 500 == 0 {
                assert_same(&recorder, &oracle, seed, op);
            }
        }
        assert_same(&recorder, &oracle, seed, 4_000);
        assert!(!oracle.snapshot().violations.is_empty(), "seed {seed}");
    }
}

/// The system allocator, counting the bytes this thread asks for.
struct CountingBytes;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers entirely to `System`; the counter is a thread-local `Cell`
// with no destructor.
unsafe impl GlobalAlloc for CountingBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|b| b.set(b.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingBytes = CountingBytes;

/// Bytes allocated by everything a tenant's first records take.
fn first_records(tenant: TenantKey) -> u64 {
    let tel = Telemetry::enabled();
    let before = BYTES.with(Cell::get);
    tel.span_nanos(tenant, Stage::Channel, 80_000);
    tel.note_submitted(tenant);
    tel.slo_register(tenant, SimDuration::from_micros(500));
    BYTES.with(Cell::get) - before
}

#[test]
fn a_hostile_tenant_id_costs_one_entry() {
    let first = first_records(TenantKey(0));
    for hostile in [TenantKey(1 << 20), TenantKey(u32::MAX - 1)] {
        let bytes = first_records(hostile);
        assert!(
            bytes <= first + 1_024,
            "{hostile:?}: {bytes} bytes, tenant 0 {first}"
        );
    }
}
