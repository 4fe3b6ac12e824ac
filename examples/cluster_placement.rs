//! Global control plane: SLO-aware tenant placement across a cluster of
//! ReFlex servers (paper §4.3 future work).
//!
//! Places a stream of tenants with mixed latency requirements on a
//! four-site testbed, shows the planner separating latency classes to
//! preserve cluster-wide throughput, then runs the placed tenants.
//!
//! Run with: `cargo run --release --example cluster_placement`

use reflex::core::{Testbed, WorkloadSpec};
use reflex::qos::{SloSpec, TenantId};
use reflex::sim::SimDuration;

fn main() {
    let mut tb = Testbed::builder().sites(4).build();

    // A mixed fleet: latency-sensitive caches, mid-tier databases and
    // relaxed analytics tenants arrive interleaved. Each is a one-copy
    // replicated workload, so the testbed's planner chooses its site.
    let demands = [
        ("cache", 40_000u64, 100u8, 300u64),
        ("db", 60_000, 90, 1_000),
        ("analytics", 80_000, 95, 5_000),
    ];
    println!(
        "{:<14} {:>10} {:>8} {:>10}  placed_on",
        "tenant", "IOPS", "reads%", "p95_bound"
    );
    let mut placed = Vec::new();
    let mut id = 0u32;
    for round in 0..3 {
        for (kind, iops, read_pct, p95_us) in demands {
            id += 1;
            let name = format!("{kind}#{round}");
            let slo = SloSpec::new(iops, read_pct, SimDuration::from_micros(p95_us));
            // Offered half the reservation, so the run below stays light.
            let mut spec = WorkloadSpec::replicated(&name, TenantId(id), slo, iops as f64 / 2.0);
            spec.namespace = (u64::from(id) << 30, 1 << 30);
            let row = format!("{name:<14} {iops:>10} {read_pct:>8} {p95_us:>8}us");
            match tb.add_workload(spec) {
                Ok(()) => {
                    let site = tb.world().member_sites(placed.len())[0];
                    println!("{row}  server {site}");
                    placed.push((name, p95_us));
                }
                Err(e) => println!("{row}  REJECTED: {e}"),
            }
        }
    }

    println!("\nPer-server view:");
    let servers = tb.world().planner().servers();
    for s in servers {
        println!(
            "  server {}: {} tenants, strictest SLO {:?}, headroom {:.0} tokens/s",
            s.id.0,
            s.tenant_count(),
            s.strictest_slo().map(|d| format!("{d}")),
            s.headroom_tokens_per_sec()
        );
    }
    let headroom: f64 = servers.iter().map(|s| s.headroom_tokens_per_sec()).sum();
    println!(
        "\nTotal cluster headroom preserved: {headroom:.0} tokens/s. Strict (300us) \
         tenants share servers so they do not shrink the relaxed servers' \
         token budgets — the co-location policy the paper sketches for the \
         global control plane."
    );

    tb.run(SimDuration::from_millis(20));
    tb.begin_measurement();
    tb.run(SimDuration::from_millis(50));
    let report = tb.report();
    println!("\nRun, 50 ms measured:");
    for (name, bound) in placed {
        let w = report.workload(&name);
        println!(
            "  {name:<14} {:>7.0} IOPS  p95 read {:>5.0}us (bound {bound}us)",
            w.iops,
            w.p95_read_us()
        );
    }
}
