//! # reflex-workloads — application workloads from the paper's evaluation
//!
//! Models the legacy Linux applications of §5.6 at the I/O level as
//! [`AppDriver`]s: each picks its next block read or write when one
//! completes, after its own compute, and drives a workload of a
//! [`Testbed`] — the local kernel path, the ReFlex remote block device
//! or iSCSI, whichever the testbed is built as:
//!
//! * [`run_flashx`] — FlashX graph analytics: WCC, PageRank, BFS, SCC
//!   (Figure 7b),
//! * [`run_db_bench`] — RocksDB `db_bench`: bulkload, randomread,
//!   readwhilewriting (Figure 7c).
//!
//! FIO (Figure 7a) needs no model: it is a closed-loop workload.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod flashx;
mod lsm;

pub use flashx::{run_flashx, FlashXConfig, GraphAlgo, GraphSpec};
pub use lsm::{run_db_bench, DbBenchmark, LsmConfig};

use reflex_core::{AppDriver, Testbed, WorkloadSpec};
use reflex_qos::{TenantClass, TenantId};
use reflex_sim::SimDuration;

/// The client machine's I/O threads: the block driver's hardware
/// contexts, one per core (§4.2), that an app's requests spread over.
const IO_THREADS: u32 = 6;

/// Runs `app` on `tb` until it is done, beside workload `other` if any,
/// and returns how long it took from the testbed's current instant. Its
/// workload has `conns` connections at depth 1 over `threads` I/O
/// threads and `io_size`-byte requests. The run is one measurement
/// window, so `tb.report()` afterwards covers all of it.
///
/// # Panics
///
/// Panics if the testbed refuses either workload.
fn run_app(
    tb: &mut Testbed,
    app: Box<dyn AppDriver>,
    (conns, threads, io_size): (u32, u32, u32),
    other: Option<WorkloadSpec>,
) -> SimDuration {
    const STEP: SimDuration = SimDuration::from_millis(10);
    let spec = WorkloadSpec {
        conns,
        client_threads: threads,
        io_size,
        ..WorkloadSpec::closed_loop("app", TenantId(1), TenantClass::BestEffort, 1)
    };
    let start = tb.now();
    tb.begin_measurement();
    let added = other.map_or(Ok(()), |other| tb.add_workload(other));
    if let Err(e) = added.and_then(|()| tb.add_driven(spec, app)) {
        panic!("an app's workloads were refused: {e}");
    }
    loop {
        tb.run(STEP);
        if let Some(done) = tb.app_finished("app") {
            return done.saturating_since(start);
        }
    }
}
