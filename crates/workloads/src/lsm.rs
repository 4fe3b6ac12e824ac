//! RocksDB-style LSM key-value store I/O model (paper Figure 7c).
//!
//! The paper runs `db_bench` on a 43GB RocksDB with the database and WAL
//! on Flash and the page cache limited via cgroups. What the block
//! device sees is:
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
//!
//! Each bulkload stream and each reader thread is one connection of the
//! app's workload; the writer is a second, open-loop workload.

use reflex_core::{AppDriver, Testbed, WorkloadSpec};
use reflex_qos::{TenantClass, TenantId};
use reflex_sim::{SimDuration, SimRng, SimTime};

use crate::{run_app, IO_THREADS};

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

/// Runs `bench` on a workload of `tb` (and, for readwhilewriting, a
/// writer beside it); returns the end-to-end execution time.
///
/// # Panics
///
/// Panics if the config is degenerate (zero threads/ops).
pub fn run_db_bench(
    bench: DbBenchmark,
    config: &LsmConfig,
    tb: &mut Testbed,
    seed: u64,
) -> SimDuration {
    assert!(
        config.threads > 0 && config.read_ops > 0,
        "degenerate config"
    );
    let capacity = tb.world().device().profile().capacity_bytes;
    if bench == DbBenchmark::BulkLoad {
        let total = (config.db_bytes as f64 * config.bulkload_write_amp) as u64;
        let app = BulkLoad {
            left: total / u64::from(config.sst_chunk),
            offset: 0,
            chunk: u64::from(config.sst_chunk),
            capacity,
        };
        let streams = (4, IO_THREADS, config.sst_chunk);
        return run_app(tb, Box::new(app), streams, None);
    }
    // readwhilewriting's WAL appends plus amortized flush/compaction
    // traffic: an open-loop writer on an I/O thread of its own.
    let pages_per_sec = config.writer_puts_per_sec * config.write_pages_per_put;
    let writer = (bench == DbBenchmark::ReadWhileWriting).then(|| WorkloadSpec {
        read_pct: 0,
        ..WorkloadSpec::open_loop(
            "writer",
            TenantId(2),
            TenantClass::BestEffort,
            pages_per_sec,
        )
    });
    let io_threads = IO_THREADS - u32::from(writer.is_some());
    let app = Readers {
        remaining: config.read_ops,
        compute: config.compute_per_op,
        hit_pct: u64::from(config.cache_hit_pct),
        blocks: config.db_bytes / 4096,
        capacity,
        done: vec![false; config.threads as usize],
        rng: SimRng::seed(seed),
    };
    run_app(
        tb,
        Box::new(app),
        (config.threads, io_threads, 4096),
        writer,
    )
}

/// bulkload: sequential chunk writes, 4 at a time.
#[derive(Debug)]
struct BulkLoad {
    /// Chunks no stream has taken on yet, and the next one's place.
    left: u64,
    offset: u64,
    chunk: u64,
    capacity: u64,
}

impl AppDriver for BulkLoad {
    fn next(&mut self, _conn: usize, now: SimTime) -> Option<SimTime> {
        self.left = self.left.checked_sub(1)?;
        Some(now)
    }

    fn request(&mut self, _conn: usize, _now: SimTime) -> Option<(bool, u64)> {
        let addr = self.offset % (self.capacity - self.chunk);
        self.offset += self.chunk;
        Some((false, addr))
    }
}

/// The reader threads of randomread and readwhilewriting, one per
/// connection: each op costs CPU, then reads a data block on a cache miss.
#[derive(Debug)]
struct Readers {
    /// Point lookups left, over all threads.
    remaining: u64,
    compute: SimDuration,
    hit_pct: u64,
    /// Data blocks of the database.
    blocks: u64,
    capacity: u64,
    /// Whether each thread has run out of lookups.
    done: Vec<bool>,
    rng: SimRng,
}

impl AppDriver for Readers {
    fn next(&mut self, conn: usize, now: SimTime) -> Option<SimTime> {
        if self.done[conn] {
            return None;
        }
        // Threads start 700 ns apart; a cache hit completes at its CPU's end.
        let mut t = now.max(SimTime::from_nanos(conn as u64 * 700));
        while self.remaining > 0 {
            self.remaining -= 1;
            t += self.compute;
            if self.rng.below(100) >= self.hit_pct {
                return Some(t);
            }
        }
        // Done then: `request` answers the instant with no read.
        self.done[conn] = true;
        Some(t)
    }

    fn request(&mut self, conn: usize, _now: SimTime) -> Option<(bool, u64)> {
        if self.done[conn] {
            return None;
        }
        let block = self.rng.below(self.blocks);
        Some((true, block * 4096 % (self.capacity - 4096)))
    }
}
