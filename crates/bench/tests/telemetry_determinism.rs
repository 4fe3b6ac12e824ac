//! Telemetry is an observer, not a participant: enabling it must leave
//! every simulation outcome — and therefore every figure TSV —
//! byte-identical. These tests run the same scenarios instrumented and
//! uninstrumented and diff the rendered rows, and pin the snapshot JSON
//! schema against a golden file.

use reflex_bench::sweep::Sweep;
use reflex_bench::{run_testbed, telemetry, MEASURE, WARMUP};
use reflex_core::{Testbed, WorkloadSpec};
use reflex_qos::{SloSpec, TenantClass, TenantId};
use reflex_sim::{SimDuration, SimTime};
use reflex_telemetry::{Stage, Telemetry, TenantKey};

fn chaos_smoke() -> Sweep {
    reflex_bench::figure("chaos")
        .expect("registered")
        .sweep(true)
}

/// Serializes the tests that flip the process-wide telemetry switch or
/// drain the global sink (cargo runs tests on parallel threads).
static GLOBAL_SINK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A fig4-style load sweep (one LC tenant, escalating open-loop load),
/// rendered exactly like the figure binaries render their rows.
fn fig4_style_rows(instrument: bool) -> String {
    let mut out = String::new();
    for offered in [50_000.0f64, 200_000.0, 400_000.0] {
        let mut tb = Testbed::builder().seed(42).server_threads(1).build();
        if instrument {
            tb.enable_telemetry();
        }
        let slo = SloSpec::new(400_000, 100, SimDuration::from_millis(2));
        let mut spec = WorkloadSpec::open_loop(
            "app",
            TenantId(1),
            TenantClass::LatencyCritical(slo),
            offered,
        );
        spec.io_size = 1024;
        spec.conns = 16;
        spec.client_threads = 4;
        tb.add_workload(spec).expect("admitted");
        tb.run(WARMUP);
        tb.begin_measurement();
        tb.run(MEASURE);
        let report = tb.report();
        let w = report.workload("app");
        out.push_str(&format!(
            "{offered:.0}\t{:.0}\t{:.1}\t{:.1}\t{}\n",
            w.iops,
            w.mean_read_us(),
            w.p95_read_us(),
            report.engine_events,
        ));
        // The instrumented run must actually have recorded something —
        // a no-op sink passing the diff would prove nothing.
        if instrument {
            let snap = report.telemetry.expect("telemetry enabled");
            assert!(snap.stage(TenantKey(1), Stage::Channel).is_some());
            assert!(snap.ios[&TenantKey(1)].completed > 0);
        } else {
            assert!(report.telemetry.is_none());
        }
    }
    out
}

#[test]
fn fig4_style_tsv_identical_with_and_without_telemetry() {
    assert_eq!(fig4_style_rows(false), fig4_style_rows(true));
}

#[test]
fn chaos_smoke_tsv_identical_with_and_without_global_sink() {
    let _guard = GLOBAL_SINK.lock().unwrap();
    // `run_faulted` always instruments its testbeds; the global sink
    // switch must not perturb the sweep either way.
    telemetry::force(Some(false));
    let off = chaos_smoke().run_with_threads(1);
    telemetry::force(Some(true));
    let on = chaos_smoke().run_with_threads(1);
    telemetry::force(None);
    let _ = telemetry::take(); // drop whatever the instrumented run merged
    assert_eq!(off.tsv(), on.tsv());
    // The chaos JSON carries the per-tenant SLO-violation count on every
    // point, instrumented or not.
    for result in [&off, &on] {
        for c in &result.curves {
            for p in &c.points {
                if c.label != "server-death" {
                    assert!(
                        p.metric("slo_violations").is_some(),
                        "curve {} missing slo_violations",
                        c.label
                    );
                }
            }
        }
    }
}

#[test]
fn run_testbed_merges_into_global_sink_only_when_enabled() {
    let _guard = GLOBAL_SINK.lock().unwrap();
    let mk = || {
        let mut tb = Testbed::builder().seed(7).server_threads(1).build();
        let slo = SloSpec::new(50_000, 100, SimDuration::from_micros(500));
        let spec = WorkloadSpec::open_loop(
            "app",
            TenantId(1),
            TenantClass::LatencyCritical(slo),
            20_000.0,
        );
        tb.add_workload(spec).expect("admitted");
        tb
    };
    telemetry::force(Some(false));
    let _ = telemetry::take();
    let quiet = run_testbed(mk(), Vec::new(), WARMUP, MEASURE);
    assert!(quiet.telemetry.is_none());
    assert!(
        telemetry::take().is_none(),
        "disabled run polluted the sink"
    );

    telemetry::force(Some(true));
    let loud = run_testbed(mk(), Vec::new(), WARMUP, MEASURE);
    telemetry::force(None);
    let snap = telemetry::take().expect("instrumented run merged a snapshot");
    assert!(!snap.is_empty());
    assert_eq!(
        loud.workload("app").iops,
        quiet.workload("app").iops,
        "instrumentation changed the simulation"
    );
    // Requests can still be in flight when the report snapshots (the
    // open-loop generator never drains mid-run), so conservation is an
    // inequality here; the soak test asserts exact balance after a
    // drain.
    let io = snap.ios[&TenantKey(1)];
    assert!(io.submitted >= io.completed + io.failed + io.retried);
    // Every request sitting in the device contributes an open span (more
    // may be open while queued ahead of submission).
    let in_device = io.submitted - (io.completed + io.failed + io.retried);
    assert!(
        io.open_spans >= in_device,
        "open spans {} < device backlog {in_device}",
        io.open_spans
    );
}

/// Pins the `reflex-telemetry-v2` snapshot JSON schema: a snapshot built
/// from fixed recordings must render byte-identically to the golden
/// file. Regenerate deliberately (and bump the schema tag) if the format
/// changes: the rendered JSON is printed on mismatch.
#[test]
fn snapshot_json_matches_golden_schema() {
    let telemetry = Telemetry::enabled();
    telemetry.count("device.commands", 3);
    telemetry.count("net.messages", 5);
    let t = TenantKey(1);
    telemetry.slo_register(t, SimDuration::from_micros(500));
    for (stage, nanos) in [
        (Stage::Ingress, 1_000),
        (Stage::NicQueue, 2_000),
        (Stage::Dataplane, 1_500),
        (Stage::FlashSq, 3_000),
        (Stage::Channel, 78_000),
        (Stage::Cq, 900),
    ] {
        telemetry.span_nanos(t, stage, nanos);
    }
    telemetry.span_nanos(TenantKey::GLOBAL, Stage::Fabric, 5_700);
    telemetry.span_nanos(TenantKey::GLOBAL, Stage::Egress, 5_700);
    for _ in 0..3 {
        telemetry.open_span(t);
        telemetry.note_submitted(t);
    }
    telemetry.note_completed(t);
    telemetry.close_span(t);
    telemetry.note_failed(t);
    telemetry.close_span(t);
    telemetry.note_retried(t);
    telemetry.close_span(t);
    // Two closed SLO windows, one violating its 500us target.
    let t0 = SimTime::ZERO;
    telemetry.slo_observe(t, SimDuration::from_micros(100), t0);
    telemetry.slo_observe(
        t,
        SimDuration::from_micros(120),
        t0 + SimDuration::from_millis(11),
    );
    telemetry.slo_observe(
        t,
        SimDuration::from_micros(900),
        t0 + SimDuration::from_millis(12),
    );
    telemetry.slo_observe(
        t,
        SimDuration::from_micros(950),
        t0 + SimDuration::from_millis(23),
    );
    let snapshot = telemetry.snapshot().expect("enabled");
    let json = snapshot.to_json();
    if std::env::var("REFLEX_BLESS").is_ok() {
        // Deliberate regeneration: REFLEX_BLESS=1 cargo test ... then
        // re-run without it so the compiled-in golden is compared.
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/telemetry_snapshot.json"
            ),
            &json,
        )
        .expect("write golden");
        return;
    }
    let golden = include_str!("golden/telemetry_snapshot.json");
    assert_eq!(
        json, golden,
        "snapshot schema drifted; rendered JSON:\n{json}"
    );
}
