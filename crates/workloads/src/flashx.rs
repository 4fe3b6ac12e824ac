//! FlashX-style semi-external-memory graph analytics (paper Figure 7b).
//!
//! FlashGraph/FlashX keeps vertex state in RAM and streams edge lists from
//! Flash through the SAFS user-space filesystem. The I/O behaviour of each
//! algorithm is what matters for the local-vs-remote comparison, so the
//! model executes each algorithm as a sequence of *phases*: a number of
//! edge pages to fetch (sequentially for scan-style iterations, randomly
//! for frontier-driven ones) with per-page compute overlapped via a
//! bounded prefetch window per worker thread. Each window slot is one
//! connection of the app's workload; a phase starts when the last page
//! of the one before has been computed on.
//!
//! Calibration: per-page compute costs are set so the algorithms' page
//! demand sits near the paper's operating points — PR just above the
//! iSCSI per-core ceiling (~15% slowdown), BFS/SCC well above it (~40%),
//! with ReFlex's remote bandwidth far above all demands (1–4% slowdowns).

use reflex_core::{AppDriver, Testbed};
use reflex_sim::{SimDuration, SimRng, SimTime};

use crate::{run_app, IO_THREADS};

/// Graph dimensions. Defaults to SOC-LiveJournal1 (4.8M vertices, 68.9M
/// edges), the paper's dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphSpec {
    /// Vertex count.
    pub vertices: u64,
    /// Directed edge count.
    pub edges: u64,
}

impl Default for GraphSpec {
    fn default() -> Self {
        GraphSpec {
            vertices: 4_800_000,
            edges: 68_900_000,
        }
    }
}

impl GraphSpec {
    /// Edge-data pages on Flash (8 bytes per edge, 4KB pages).
    pub fn edge_pages(&self) -> u64 {
        (self.edges * 8).div_ceil(4096)
    }
}

/// The four benchmarks of Figure 7b.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphAlgo {
    /// Weakly connected components.
    Wcc,
    /// PageRank (fixed iteration count).
    PageRank,
    /// Breadth-first search.
    Bfs,
    /// Strongly connected components (forward + backward sweeps).
    Scc,
}

impl GraphAlgo {
    /// All four benchmarks in the paper's order.
    pub fn all() -> [GraphAlgo; 4] {
        [
            GraphAlgo::Wcc,
            GraphAlgo::PageRank,
            GraphAlgo::Bfs,
            GraphAlgo::Scc,
        ]
    }

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            GraphAlgo::Wcc => "WCC",
            GraphAlgo::PageRank => "PR",
            GraphAlgo::Bfs => "BFS",
            GraphAlgo::Scc => "SCC",
        }
    }
}

/// Each algorithm's phases as fractions of the edge pages, whether it
/// scans them in order, and its compute per page in µs.
fn shape(algo: GraphAlgo) -> (&'static [f64], bool, f64) {
    match algo {
        // 12 full edge scans; demand ≈ 4 threads / 51us = 78K pages/s.
        GraphAlgo::PageRank => (&[1.0; 12], true, 51.0),
        // Label propagation with a shrinking active set.
        GraphAlgo::Wcc => (&[1.0, 0.7, 0.35, 0.12, 0.05, 0.02, 0.008], true, 47.0),
        // Frontier-driven levels: random page fetches, demand ≈ 98K/s.
        GraphAlgo::Bfs => {
            let levels = &[0.001, 0.01, 0.08, 0.25, 0.35, 0.2, 0.08, 0.02, 0.008, 0.002];
            (levels, false, 41.0)
        }
        // Forward + backward sweeps (two WCC-like passes at BFS-like
        // compute intensity).
        GraphAlgo::Scc => {
            let sweeps = &[
                1.0, 0.6, 0.25, 0.08, 0.02, 0.005, 1.0, 0.6, 0.25, 0.08, 0.02, 0.005,
            ];
            (sweeps, false, 41.0)
        }
    }
}

/// Configuration of a FlashX run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashXConfig {
    /// Graph dimensions.
    pub graph: GraphSpec,
    /// Compute worker threads.
    pub threads: u32,
    /// Prefetch window (outstanding pages) per worker.
    pub prefetch: u32,
}

impl Default for FlashXConfig {
    fn default() -> Self {
        FlashXConfig {
            graph: GraphSpec::default(),
            threads: 4,
            prefetch: 8,
        }
    }
}

/// The app: one connection per prefetch slot, slot `c` on worker
/// `c / prefetch`.
#[derive(Debug)]
struct FlashX {
    /// Pages of each phase, and the one running (`phases.len()` once all
    /// are done).
    phases: Vec<u64>,
    phase: usize,
    sequential: bool,
    compute: SimDuration,
    prefetch: usize,
    /// Pages of the phase issued and computed on.
    issued: u64,
    computed: u64,
    /// When each worker is done computing on the pages it has.
    worker_busy: Vec<SimTime>,
    /// Whether each slot has a page to fetch or in flight.
    fetching: Vec<bool>,
    seq_cursor: u64,
    capacity: u64,
    rng: SimRng,
}

impl AppDriver for FlashX {
    fn next(&mut self, conn: usize, now: SimTime) -> Option<SimTime> {
        let worker = conn / self.prefetch;
        if std::mem::take(&mut self.fetching[conn]) {
            // The page arrived: its worker computes on it.
            let busy = &mut self.worker_busy[worker];
            *busy = now.max(*busy) + self.compute;
            self.computed += 1;
        }
        let pages = *self.phases.get(self.phase)?;
        if self.issued < pages {
            self.issued += 1;
            self.fetching[conn] = true;
            return Some(now.max(self.worker_busy[worker]));
        }
        if self.computed < pages {
            return None;
        }
        // The phase is over; the next starts when its last compute ends.
        let end = self.worker_busy.iter().max().copied().unwrap_or(now);
        self.phase += 1;
        (self.issued, self.computed, self.seq_cursor) = (0, 0, 0);
        self.worker_busy.fill(end);
        if self.phase == self.phases.len() {
            // Done then: `request` answers the instant with no page.
            return Some(end);
        }
        self.next(conn, now)
    }

    fn request(&mut self, conn: usize, _now: SimTime) -> Option<(bool, u64)> {
        if !self.fetching[conn] {
            return None;
        }
        let addr = if self.sequential {
            self.seq_cursor += 1;
            ((self.seq_cursor - 1) * 4096) % (self.capacity - 4096)
        } else {
            self.rng.below(self.capacity / 4096) * 4096
        };
        Some((true, addr))
    }
}

/// Runs `algo` on a workload of `tb`, its prefetch slots spread over the
/// client's I/O threads; returns the end-to-end execution time.
///
/// # Panics
///
/// Panics if the config has zero threads or prefetch.
pub fn run_flashx(
    algo: GraphAlgo,
    config: &FlashXConfig,
    tb: &mut Testbed,
    seed: u64,
) -> SimDuration {
    assert!(
        config.threads > 0 && config.prefetch > 0,
        "degenerate config"
    );
    let slots = config.threads * config.prefetch;
    let (fractions, sequential, compute_us) = shape(algo);
    let pages = config.graph.edge_pages();
    let app = FlashX {
        phases: (fractions.iter())
            .map(|f| ((pages as f64 * f) as u64).max(1))
            .collect(),
        phase: 0,
        sequential,
        compute: SimDuration::from_micros_f64(compute_us),
        prefetch: config.prefetch as usize,
        issued: 0,
        computed: 0,
        worker_busy: vec![SimTime::ZERO; config.threads as usize],
        fetching: vec![false; slots as usize],
        seq_cursor: 0,
        capacity: tb.world().device().profile().capacity_bytes,
        rng: SimRng::seed(seed),
    };
    run_app(tb, Box::new(app), (slots, IO_THREADS, 4096), None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_pages_math() {
        let g = GraphSpec::default();
        // 68.9M edges x 8B = 551.2MB -> ~134.6K pages.
        assert!((130_000..140_000).contains(&g.edge_pages()));
    }
}
