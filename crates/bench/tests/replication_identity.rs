//! The replication figure is bit-reproducible across sweep thread
//! counts, and its panels carry the claims the figure exists to make: quorum reads
//! cost more than single-copy reads, and failover recovery does not get
//! worse as the replication factor grows.

use reflex_bench::sweep::{Sweep, SweepResult};
use reflex_bench::Figure;

fn figure() -> &'static Figure {
    reflex_bench::figure("fig_replication").expect("registered")
}

fn smoke_sweep() -> Sweep {
    figure().sweep(true, false)
}

fn rendered(result: &SweepResult) -> String {
    let mut out = Vec::new();
    (figure().render)(result, &mut out).expect("rendering into a Vec");
    String::from_utf8(out).expect("TSV is UTF-8")
}

#[test]
fn replication_figure_is_byte_identical_across_sweep_threads() {
    let single = smoke_sweep().run_with_threads(1);
    let parallel = smoke_sweep().run_with_threads(2);

    assert_eq!(rendered(&single), rendered(&parallel));

    // Every per-point metric matches too, not just the rendered rows.
    for (sc, pc) in single.curves.iter().zip(&parallel.curves) {
        assert_eq!(sc.label, pc.label);
        assert_eq!(sc.points.len(), pc.points.len());
        for (sp, pp) in sc.points.iter().zip(&pc.points) {
            assert_eq!(sp.metrics, pp.metrics, "curve {}", sc.label);
        }
    }
}

#[test]
fn replication_costs_show_and_failover_recovers() {
    let result = smoke_sweep().run_with_threads(2);

    // Panel 1: replicated quorum reads are never cheaper than
    // single-copy primary reads at the same offered load.
    let single = &result.curve("R1-primary").points;
    let quorum3 = &result.curve("R3-quorum").points;
    assert_eq!(single.len(), quorum3.len());
    for (s, q) in single.iter().zip(quorum3) {
        let (sm, qm) = (
            s.metric("mean_read_us").unwrap(),
            q.metric("mean_read_us").unwrap(),
        );
        assert!(
            qm > sm,
            "R=3 quorum mean read {qm:.1}us should exceed single-copy {sm:.1}us"
        );
    }

    // Panel 2: both failover runs recover, and recovery does not get
    // worse with more replicas (R=3 has a surviving quorum throughout,
    // so it must do at least as well as R=2).
    let rec = |label: &str| {
        let p = &result.curve(label).points[0];
        (
            p.metric("recovery_ms").unwrap(),
            p.metric("slo_violations").unwrap(),
        )
    };
    let (rec2, viol2) = rec("failover-R2");
    let (rec3, viol3) = rec("failover-R3");
    assert!(rec2 >= 0.0, "R=2 must recover (got {rec2})");
    assert!(rec3 >= 0.0, "R=3 must recover (got {rec3})");
    assert!(
        rec3 <= rec2 + 10.0,
        "recovery should not degrade with more replicas: R=3 {rec3}ms vs R=2 {rec2}ms"
    );

    // Panel 3: the outage is visible to the SLO monitor.
    assert!(viol2 >= 1.0, "R=2 failover must register SLO violations");
    assert!(viol3 >= 1.0, "R=3 failover must register SLO violations");
}
