//! Legacy applications on the remote block device (paper §5.6).
//!
//! Runs the FIO tester and the RocksDB-style `db_bench` workloads against
//! the three block data paths of Figure 7 — local kernel NVMe, the ReFlex
//! remote block device driver, and iSCSI, each a testbed — and prints
//! per-path results.
//!
//! Run with: `cargo run --release --example remote_block_device`

use reflex::core::{Testbed, TestbedBuilder, WorkloadSpec};
use reflex::net::StackProfile;
use reflex::qos::{TenantClass, TenantId};
use reflex::sim::SimDuration;
use reflex::workloads::{run_db_bench, DbBenchmark, LsmConfig};
use reflex_bench::baselines::{iscsi, local_kernel};

fn main() {
    type Builds = fn() -> TestbedBuilder;
    let paths: [(&str, Builds); 3] = [
        ("local", local_kernel),
        ("reflex", || {
            Testbed::builder().client_machines(vec![StackProfile::linux_tcp()])
        }),
        ("iscsi", || {
            iscsi(1).client_machines(vec![StackProfile::linux_tcp()])
        }),
    ];

    println!("--- FIO: 6 threads x QD32, 4KB random read ---");
    println!(
        "{:<8} {:>10} {:>10} {:>12}",
        "path", "IOPS", "MB/s", "p95 us"
    );
    for (name, path) in &paths {
        let mut tb = path().seed(11).build();
        let mut fio = WorkloadSpec::closed_loop("fio", TenantId(1), TenantClass::BestEffort, 32);
        fio.conns = 6;
        fio.client_threads = 6;
        tb.add_workload(fio).expect("accepted");
        tb.run(SimDuration::from_millis(50));
        tb.begin_measurement();
        tb.run(SimDuration::from_millis(300));
        let report = tb.report();
        let rep = report.workload("fio");
        println!(
            "{:<8} {:>10.0} {:>10.0} {:>12.0}",
            name,
            rep.iops,
            rep.bytes_per_sec / 1e6,
            rep.p95_read_us()
        );
    }

    println!("\n--- RocksDB db_bench (scaled 2GB database) ---");
    println!(
        "{:<8} {:>8} {:>8} {:>8}   (seconds; lower is better)",
        "path", "BL", "RR", "RwW"
    );
    let small = LsmConfig {
        db_bytes: 2 * 1024 * 1024 * 1024,
        read_ops: 120_000,
        ..LsmConfig::default()
    };
    let mut local_times = [0.0f64; 3];
    for (name, path) in &paths {
        let mut row = Vec::new();
        for (i, bench) in DbBenchmark::all().into_iter().enumerate() {
            let mut tb = path().seed(23).build();
            let t = run_db_bench(bench, &small, &mut tb, 5).as_secs_f64();
            if *name == "local" {
                local_times[i] = t;
            }
            row.push(t);
        }
        println!(
            "{:<8} {:>8.2} {:>8.2} {:>8.2}",
            name, row[0], row[1], row[2]
        );
        if *name != "local" {
            println!(
                "{:<8} {:>7.2}x {:>7.2}x {:>7.2}x  (slowdown vs local)",
                "",
                row[0] / local_times[0],
                row[1] / local_times[1],
                row[2] / local_times[2]
            );
        }
    }
    println!(
        "\nReFlex keeps legacy applications within a few percent of \
              local Flash except where client-side Linux overheads bite; \
              iSCSI costs 30-70% on read-heavy workloads (paper Figure 7)."
    );
}
