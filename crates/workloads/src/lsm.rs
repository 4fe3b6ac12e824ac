//! RocksDB-style LSM key-value store I/O model (paper Figure 7c).
//!
//! The paper runs `db_bench` on a 43GB RocksDB with the database and WAL
//! on Flash and the page cache limited via cgroups. What the storage
//! backend sees is:
//!
//! * **bulkload** — large sequential SST writes (compaction-style chunks);
//!   Flash write bandwidth is the bottleneck, so local and remote perform
//!   almost identically;
//! * **randomread** — point lookups: per-op CPU (memtable/block-cache
//!   probing, bloom filters) plus a synchronous 4KB data-block read on a
//!   block-cache miss;
//! * **readwhilewriting** — the same lookups with a concurrent writer
//!   stream (WAL appends plus amortized flush/compaction traffic).
//!
//! Slowdowns versus local Flash reproduce the paper's ordering: iSCSI
//! suffers heavily on read benchmarks, ReFlex stays close to local.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use reflex_flash::IoType;
use reflex_sim::{SimDuration, SimRng, SimTime};

use crate::backend::Backend;

/// The three `db_bench` routines of Figure 7c.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbBenchmark {
    /// `bulkload` (BL): populate the database.
    BulkLoad,
    /// `randomread` (RR): uniform point lookups.
    RandomRead,
    /// `readwhilewriting` (RwW): lookups with a concurrent writer.
    ReadWhileWriting,
}

impl DbBenchmark {
    /// All three in the paper's order.
    pub fn all() -> [DbBenchmark; 3] {
        [
            DbBenchmark::BulkLoad,
            DbBenchmark::RandomRead,
            DbBenchmark::ReadWhileWriting,
        ]
    }

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DbBenchmark::BulkLoad => "BL",
            DbBenchmark::RandomRead => "RR",
            DbBenchmark::ReadWhileWriting => "RwW",
        }
    }
}

/// LSM workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsmConfig {
    /// Database size in bytes (paper: 43GB).
    pub db_bytes: u64,
    /// Reader threads (`db_bench --threads`).
    pub threads: u32,
    /// Block-cache + page-cache hit percentage for point lookups.
    pub cache_hit_pct: u8,
    /// Per-op CPU: memtable probe, bloom filters, comparator, decode.
    pub compute_per_op: SimDuration,
    /// Point lookups to perform (RR / RwW).
    pub read_ops: u64,
    /// Concurrent writer rate in puts/sec (RwW).
    pub writer_puts_per_sec: f64,
    /// Device page-writes per put, amortizing WAL + flush + compaction
    /// (leveled write amplification on an 800B value).
    pub write_pages_per_put: f64,
    /// SST chunk size for bulkload/compaction writes.
    pub sst_chunk: u32,
    /// Bulkload write amplification.
    pub bulkload_write_amp: f64,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            db_bytes: 43 * 1024 * 1024 * 1024,
            threads: 8,
            cache_hit_pct: 80,
            compute_per_op: SimDuration::from_micros_f64(22.0),
            read_ops: 2_000_000,
            writer_puts_per_sec: 30_000.0,
            write_pages_per_put: 1.3,
            sst_chunk: 128 * 1024,
            bulkload_write_amp: 1.2,
        }
    }
}

impl LsmConfig {
    /// A scaled-down configuration for fast tests.
    pub fn small() -> Self {
        LsmConfig {
            db_bytes: 2 * 1024 * 1024 * 1024,
            read_ops: 120_000,
            ..LsmConfig::default()
        }
    }
}

/// Runs `bench` against `backend`; returns the end-to-end execution time.
///
/// # Panics
///
/// Panics if the config is degenerate (zero threads/ops).
pub fn run_db_bench(
    bench: DbBenchmark,
    config: &LsmConfig,
    backend: &mut Backend,
    seed: u64,
) -> SimDuration {
    assert!(
        config.threads > 0 && config.read_ops > 0,
        "degenerate config"
    );
    match bench {
        DbBenchmark::BulkLoad => run_bulkload(config, backend),
        DbBenchmark::RandomRead => run_reads(config, backend, seed, false),
        DbBenchmark::ReadWhileWriting => run_reads(config, backend, seed, true),
    }
}

fn run_bulkload(config: &LsmConfig, backend: &mut Backend) -> SimDuration {
    let total = (config.db_bytes as f64 * config.bulkload_write_amp) as u64;
    let chunks = total / config.sst_chunk as u64;
    let qd = 4usize;
    let io_threads = backend.client_threads();
    let mut heap: BinaryHeap<Reverse<SimTime>> = BinaryHeap::new();
    let mut issued = 0u64;
    let mut addr = 0u64;
    let capacity = backend.capacity();
    let issue = |backend: &mut Backend, now: SimTime, addr: &mut u64, issued: &mut u64| {
        let a = *addr % (capacity - config.sst_chunk as u64);
        *addr += config.sst_chunk as u64;
        let done = backend.submit(
            now,
            (*issued as usize) % io_threads,
            IoType::Write,
            a,
            config.sst_chunk,
        );
        *issued += 1;
        done
    };
    for _ in 0..qd.min(chunks as usize) {
        let done = issue(backend, SimTime::ZERO, &mut addr, &mut issued);
        heap.push(Reverse(done));
    }
    let mut last = SimTime::ZERO;
    while let Some(Reverse(done)) = heap.pop() {
        last = last.max(done);
        if issued < chunks {
            let next = issue(backend, done, &mut addr, &mut issued);
            heap.push(Reverse(next));
        }
    }
    last.saturating_since(SimTime::ZERO)
}

fn run_reads(
    config: &LsmConfig,
    backend: &mut Backend,
    seed: u64,
    with_writer: bool,
) -> SimDuration {
    let mut rng = SimRng::seed(seed);
    let io_threads = backend.client_threads();
    // Reserve the last I/O thread for the writer stream when present.
    let read_io_threads = if with_writer && io_threads > 1 {
        io_threads - 1
    } else {
        io_threads
    };

    // Reader state: each thread performs ops sequentially.
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
    for th in 0..config.threads as usize {
        heap.push(Reverse((SimTime::from_nanos(th as u64 * 700), th)));
    }
    let mut remaining = config.read_ops;
    let mut completed_at = SimTime::ZERO;
    let mut io_rr = 0usize;

    // Writer pacing.
    let write_page_gap = if with_writer {
        Some(SimDuration::from_secs_f64(
            1.0 / (config.writer_puts_per_sec * config.write_pages_per_put),
        ))
    } else {
        None
    };
    let mut next_write = SimTime::ZERO;
    let mut wal_addr = 0u64;
    let capacity = backend.capacity();

    while let Some(Reverse((ready, th))) = heap.pop() {
        // Interleave the background writer up to the current instant.
        if let Some(gap) = write_page_gap {
            while next_write <= ready {
                let a = wal_addr % (capacity - 4096);
                wal_addr += 4096;
                let _ = backend.submit(next_write, io_threads - 1, IoType::Write, a, 4096);
                next_write += gap;
            }
        }

        if remaining == 0 {
            continue;
        }
        remaining -= 1;
        // Per-op CPU on the reader thread, then a data-block read on miss.
        let after_cpu = ready + config.compute_per_op;
        let done = if rng.below(100) < config.cache_hit_pct as u64 {
            after_cpu
        } else {
            let addr = rng.below(config.db_bytes / 4096) * 4096 % (capacity - 4096);
            let io_th = io_rr % read_io_threads;
            io_rr += 1;
            backend.submit(after_cpu, io_th, IoType::Read, addr, 4096)
        };
        completed_at = completed_at.max(done);
        heap.push(Reverse((done, th)));
        if remaining == 0 && heap.iter().all(|Reverse((t, _))| *t >= done) {
            // All threads idle past the final op.
        }
    }
    completed_at.saturating_since(SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendProfile;
    use reflex_flash::device_a;

    fn runtime(bench: DbBenchmark, profile: BackendProfile) -> f64 {
        let mut b = Backend::new(profile, device_a(), 6, 31);
        run_db_bench(bench, &LsmConfig::small(), &mut b, 3).as_secs_f64()
    }

    #[test]
    fn bulkload_is_flash_bound_everywhere() {
        let local = runtime(DbBenchmark::BulkLoad, BackendProfile::local_nvme());
        let reflex = runtime(DbBenchmark::BulkLoad, BackendProfile::reflex_remote());
        let iscsi = runtime(DbBenchmark::BulkLoad, BackendProfile::iscsi_remote());
        // Paper: BL performance almost equal between local and remote.
        assert!(
            (0.95..1.10).contains(&(reflex / local)),
            "BL reflex {}",
            reflex / local
        );
        assert!(
            (0.95..1.15).contains(&(iscsi / local)),
            "BL iscsi {}",
            iscsi / local
        );
        // Sanity: 2GB * 1.2 at ~260MB/s Flash write bandwidth ≈ 10s.
        assert!((5.0..20.0).contains(&local), "BL local runtime {local}s");
    }

    #[test]
    fn randomread_slowdown_ordering() {
        let local = runtime(DbBenchmark::RandomRead, BackendProfile::local_nvme());
        let reflex = runtime(DbBenchmark::RandomRead, BackendProfile::reflex_remote());
        let iscsi = runtime(DbBenchmark::RandomRead, BackendProfile::iscsi_remote());
        let s_reflex = reflex / local;
        let s_iscsi = iscsi / local;
        // Paper: iSCSI 32%, ReFlex <4%. Our synchronous-read client model
        // overweights per-read latency, so ReFlex lands somewhat higher
        // (documented in EXPERIMENTS.md); the ordering must hold clearly.
        assert!(
            (1.0..1.35).contains(&s_reflex),
            "RR reflex slowdown {s_reflex:.3}"
        );
        assert!(
            (1.2..1.8).contains(&s_iscsi),
            "RR iscsi slowdown {s_iscsi:.3}"
        );
        assert!(s_iscsi > s_reflex + 0.1, "iSCSI must be clearly worse");
    }

    #[test]
    fn readwhilewriting_amplifies_iscsi_pain() {
        let rr_iscsi = runtime(DbBenchmark::RandomRead, BackendProfile::iscsi_remote())
            / runtime(DbBenchmark::RandomRead, BackendProfile::local_nvme());
        let rww_iscsi = runtime(
            DbBenchmark::ReadWhileWriting,
            BackendProfile::iscsi_remote(),
        ) / runtime(DbBenchmark::ReadWhileWriting, BackendProfile::local_nvme());
        // The writer stream competes for the iSCSI core.
        assert!(
            rww_iscsi > rr_iscsi - 0.1,
            "RwW iscsi {rww_iscsi:.3} vs RR {rr_iscsi:.3}"
        );
        let rww_reflex = runtime(
            DbBenchmark::ReadWhileWriting,
            BackendProfile::reflex_remote(),
        ) / runtime(DbBenchmark::ReadWhileWriting, BackendProfile::local_nvme());
        assert!(
            (0.95..1.4).contains(&rww_reflex),
            "RwW reflex slowdown {rww_reflex:.3}"
        );
    }

    #[test]
    fn deterministic() {
        let a = runtime(DbBenchmark::RandomRead, BackendProfile::local_nvme());
        let b = runtime(DbBenchmark::RandomRead, BackendProfile::local_nvme());
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
