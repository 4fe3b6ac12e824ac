//! Ablations: the design choices DESIGN.md calls out, swept one at a time.
//!
//! * **NEG_LIMIT** (paper: −50 tokens) — the LC burst allowance. Too small
//!   queues bursts.
//! * **Cost model off** (unit costs) — writes charged like reads: the
//!   write-heavy tenant overruns its fair share and the reader's SLO dies.
//!
//! Run: `reflex-bench ablations`

use crate::sweep::{PointOutcome, Sweep};
use crate::{run_testbed, MEASURE, WARMUP};
use reflex_core::{ServerConfig, Testbed, WorkloadSpec};
use reflex_qos::{CostModel, SchedulerParams, SloSpec, TenantClass, TenantId, Tokens};
use reflex_sim::SimDuration;

fn scenario_specs() -> Vec<WorkloadSpec> {
    let slo =
        TenantClass::LatencyCritical(SloSpec::new(120_000, 100, SimDuration::from_micros(500)));
    let mut lc = WorkloadSpec::open_loop("lc-reader", TenantId(1), slo, 120_000.0);
    lc.conns = 8;
    lc.client_threads = 4;
    let mut be = WorkloadSpec::closed_loop("be-writer", TenantId(2), TenantClass::BestEffort, 16);
    be.read_pct = 25;
    be.conns = 8;
    be.client_threads = 4;
    vec![lc, be]
}

fn run_with(
    knob: &str,
    value: String,
    server: ServerConfig,
    cost_model: Option<CostModel>,
    telemetry: bool,
) -> PointOutcome {
    let mut builder = Testbed::builder().seed(111).server(server);
    if let Some(m) = cost_model {
        builder = builder.cost_model(m);
    }
    let report = run_testbed(
        builder.build(),
        scenario_specs(),
        WARMUP,
        MEASURE,
        telemetry,
    );
    let lc = report.workload("lc-reader");
    let be = report.workload("be-writer");
    let p95 = lc.p95_read_us();
    PointOutcome::new(p95)
        .with_row(format!(
            "{knob}\t{value}\t{:.0}\t{p95:.0}\t{:.0}",
            lc.iops / 1e3,
            be.iops / 1e3
        ))
        .with_metric("lc_kiops", lc.iops / 1e3)
        .with_metric("lc_p95_us", p95)
        .with_metric("be_kiops", be.iops / 1e3)
        .with_events(&report)
        .with_telemetry(report.telemetry)
}

pub fn build(sweep: &mut Sweep, _smoke: bool) {
    sweep.text(
        "# Ablations on the Figure-5-style scenario (LC reader vs BE writer)\n\
         knob\tvalue\tlc_kiops\tlc_p95_us\tbe_kiops\n",
    );
    let telemetry = sweep.telemetry;
    let curve = sweep.curve("neg_limit");
    for neg in [-5i64, -50, -500, -5_000] {
        curve.point(move || {
            let server = ServerConfig {
                sched_params: SchedulerParams {
                    neg_limit: Tokens::from_tokens(neg),
                    ..SchedulerParams::default()
                },
                ..ServerConfig::default()
            };
            run_with("neg_limit", neg.to_string(), server, None, telemetry)
        });
    }

    sweep.text("\n");
    let curve = sweep.curve("cost_model");
    curve.point(move || {
        // Cost model ablation: writes cost the same as reads (1 token).
        let unit = CostModel::new(
            4096,
            Tokens::from_tokens(1),
            Tokens::from_millitokens(500),
            Tokens::from_tokens(1),
        );
        run_with(
            "cost_model",
            "unit-writes".into(),
            ServerConfig::default(),
            Some(unit),
            telemetry,
        )
    });
    curve.point(move || {
        run_with(
            "cost_model",
            "calibrated".into(),
            ServerConfig::default(),
            None,
            telemetry,
        )
    });
}
