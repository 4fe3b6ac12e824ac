//! The chaos sweep is bit-reproducible: fault draws come from private
//! RNG streams keyed by `(plan seed, event id)`, so the TSV — and every
//! per-point metric — is byte-identical no matter how many worker
//! threads execute the points (`REFLEX_BENCH_THREADS=1` vs `=8`).

use reflex_bench::sweep::Sweep;

fn chaos_smoke() -> Sweep {
    reflex_bench::figure("chaos")
        .expect("registered")
        .sweep(true)
}

#[test]
fn chaos_tsv_is_byte_identical_across_thread_counts() {
    let serial = chaos_smoke().run_with_threads(1);
    let parallel = chaos_smoke().run_with_threads(8);

    assert_eq!(serial.tsv(), parallel.tsv());

    // The aggregated fault totals (the JSON `faults` section) match too.
    assert!(serial.faults().is_some());
    assert_eq!(serial.faults(), parallel.faults());

    // And so does every per-point metric, not just the rendered rows.
    for (sc, pc) in serial.curves.iter().zip(&parallel.curves) {
        assert_eq!(sc.label, pc.label);
        assert_eq!(sc.points.len(), pc.points.len());
        for (sp, pp) in sc.points.iter().zip(&pc.points) {
            assert_eq!(sp.metrics, pp.metrics, "curve {}", sc.label);
        }
    }
}

#[test]
fn chaos_smoke_recovers_everything() {
    let result = chaos_smoke().run_with_threads(2);
    let summary = result.faults().expect("chaos points carry fault metrics");
    assert!(summary.injected > 0, "smoke plan must inject faults");
    assert_eq!(
        summary.unrecovered, 0,
        "smoke faults must all be recovered: {summary:?}"
    );
    assert!(summary.recovered > 0, "retries must have salvaged requests");
}
