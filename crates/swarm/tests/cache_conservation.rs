//! Cache-path conservation under fault schedules.
//!
//! Every read the dataplane accepts is classified exactly once as a
//! DRAM-cache hit or miss. This property test holds that
//! classification to the telemetry books on read-only workloads — where
//! accepted reads are exactly `submitted - retried` (each accepted
//! non-hit read notes one submission per SQ attempt and one retry per
//! SQ-full rejection; hits note one submission and no retries) — while
//! the device dies mid-run, so fills race completions and late reads
//! abort with `DeviceUnavailable`.

use proptest::prelude::*;
use reflex_core::{AddrPattern, RetryPolicy, ServerConfig, Testbed, WorkloadSpec};
use reflex_dataplane::{CacheConfig, DataplaneConfig};
use reflex_faults::{install, FaultKind, FaultPlan};
use reflex_qos::{TenantClass, TenantId};
use reflex_sim::{SimDuration, SimTime};

/// Drain window after generators stop; matches the swarm runner's
/// sizing argument (full retry chains off a 10ms timeout).
const DRAIN: SimDuration = SimDuration::from_millis(1500);

fn run_case(seed: u64, cache_mb: u64, tenants: usize, depth: u32, zipf: u16, death_ms: u64) {
    let mut cache = CacheConfig::with_capacity(cache_mb << 20);
    cache.line_bytes = 4096;
    let mut tb = Testbed::builder()
        .seed(seed)
        .server(ServerConfig {
            dataplane: DataplaneConfig {
                cache: Some(cache),
                ..DataplaneConfig::default()
            },
            ..ServerConfig::default()
        })
        .build();
    let plan = FaultPlan::seeded(seed).with_event(
        SimTime::ZERO + SimDuration::from_millis(death_ms),
        FaultKind::DeviceDeath,
    );
    let _stats = install(&plan, &mut tb);
    tb.enable_telemetry();
    for i in 0..tenants {
        let mut spec = WorkloadSpec::closed_loop(
            &format!("t{i}"),
            TenantId(i as u32 + 1),
            TenantClass::BestEffort,
            depth.max(1),
        );
        spec.read_pct = 100;
        spec.io_size = 4096;
        if zipf > 0 {
            spec.addr_pattern = AddrPattern::Zipfian {
                theta_permille: zipf,
            };
        }
        spec = spec.with_retry(RetryPolicy::standard());
        tb.add_workload(spec).expect("read-only tenant admitted");
    }
    tb.run(SimDuration::from_millis(10));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(40));
    tb.world_mut().stop_all_workloads();
    tb.run(DRAIN);

    let report = tb.report();
    let (mut hits, mut misses, mut fills) = (0u64, 0u64, 0u64);
    for t in &report.threads {
        let s = t.stats.as_ref().expect("core testbed exposes stats");
        hits += s.cache_hits;
        misses += s.cache_misses;
        fills += s.cache_fills;
    }
    let snapshot = tb.telemetry_snapshot().expect("telemetry enabled");
    let (mut submitted, mut retried, mut completed, mut failed, mut tel_hits) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for io in snapshot.ios.values() {
        assert_eq!(
            io.submitted,
            io.completed + io.failed + io.retried,
            "seed {seed}: drained books must balance"
        );
        assert!(
            io.hits <= io.completed,
            "seed {seed}: hits beyond completions"
        );
        submitted += io.submitted;
        retried += io.retried;
        completed += io.completed;
        failed += io.failed;
        tel_hits += io.hits;
    }
    assert!(submitted > 0, "seed {seed}: the case carried no traffic");
    // The classification identity: every accepted read is exactly one of
    // hit / miss, and on a read-only mix accepted reads are
    // `submitted - retried` (SQ-full re-attempts double `submitted` and
    // `retried` together).
    assert_eq!(
        hits + misses,
        submitted - retried,
        "seed {seed}: hit {hits} + miss {misses} \
         != accepted reads {} (completed {completed}, failed {failed})",
        submitted - retried
    );
    // Thread-side and telemetry-side hit books agree, and fills only come
    // from successful flash completions — a dead device stops filling.
    assert_eq!(hits, tel_hits, "seed {seed}: hit books disagree");
    assert!(
        fills <= completed - tel_hits,
        "seed {seed}: {fills} fills from {} flash completions",
        completed - tel_hits
    );
}

proptest! {
    /// Random read-only cache-enabled scenarios with the device dying
    /// mid-window (possibly mid-fill): classification and conservation
    /// hold through the fault.
    #[test]
    fn hits_and_misses_cover_accepted_reads(
        seed in any::<u64>(),
        cache_mb in 1u64..9,
        tenants in 1usize..3,
        depth in 1u32..8,
        zipf_on in any::<bool>(),
        death_ms in 5u64..45,
    ) {
        run_case(seed, cache_mb, tenants, depth, if zipf_on { 900 } else { 0 }, death_ms);
    }
}
