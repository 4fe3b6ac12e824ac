//! FlashX-style semi-external-memory graph analytics (paper Figure 7b).
//!
//! FlashGraph/FlashX keeps vertex state in RAM and streams edge lists from
//! Flash through the SAFS user-space filesystem. The I/O behaviour of each
//! algorithm is what matters for the local-vs-remote comparison, so the
//! model executes each algorithm as a sequence of *phases*: a number of
//! edge pages to fetch (sequentially for scan-style iterations, randomly
//! for frontier-driven ones) with per-page compute overlapped via a
//! bounded prefetch window per worker thread.
//!
//! Calibration: per-page compute costs are set so the algorithms' page
//! demand sits near the paper's operating points — PR just above the
//! iSCSI per-core ceiling (~15% slowdown), BFS/SCC well above it (~40%),
//! with ReFlex's remote bandwidth far above all demands (1–4% slowdowns).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use reflex_flash::IoType;
use reflex_sim::{SimDuration, SimRng, SimTime};

use crate::backend::Backend;

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

#[derive(Debug, Clone, Copy)]
struct Phase {
    pages: u64,
    sequential: bool,
    compute_per_page: SimDuration,
}

fn phases(algo: GraphAlgo, graph: &GraphSpec) -> Vec<Phase> {
    let p = graph.edge_pages();
    let frac = |f: f64| ((p as f64 * f) as u64).max(1);
    match algo {
        GraphAlgo::PageRank => {
            // 12 full edge scans; demand ≈ 4 threads / 51us = 78K pages/s.
            (0..12)
                .map(|_| Phase {
                    pages: p,
                    sequential: true,
                    compute_per_page: SimDuration::from_micros_f64(51.0),
                })
                .collect()
        }
        GraphAlgo::Wcc => {
            // Label propagation with a shrinking active set.
            [1.0, 0.7, 0.35, 0.12, 0.05, 0.02, 0.008]
                .iter()
                .map(|&f| Phase {
                    pages: frac(f),
                    sequential: true,
                    compute_per_page: SimDuration::from_micros_f64(47.0),
                })
                .collect()
        }
        GraphAlgo::Bfs => {
            // Frontier-driven levels: random page fetches, demand ≈ 98K/s.
            [0.001, 0.01, 0.08, 0.25, 0.35, 0.2, 0.08, 0.02, 0.008, 0.002]
                .iter()
                .map(|&f| Phase {
                    pages: frac(f),
                    sequential: false,
                    compute_per_page: SimDuration::from_micros_f64(41.0),
                })
                .collect()
        }
        GraphAlgo::Scc => {
            // Forward + backward sweeps (two WCC-like passes at BFS-like
            // compute intensity).
            let sweep = [1.0, 0.6, 0.25, 0.08, 0.02, 0.005];
            sweep
                .iter()
                .chain(sweep.iter())
                .map(|&f| Phase {
                    pages: frac(f),
                    sequential: false,
                    compute_per_page: SimDuration::from_micros_f64(41.0),
                })
                .collect()
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

/// Runs `algo` on `backend`; returns the end-to-end execution time.
///
/// # Panics
///
/// Panics if the config has zero threads or prefetch.
pub fn run_flashx(
    algo: GraphAlgo,
    config: &FlashXConfig,
    backend: &mut Backend,
    seed: u64,
) -> SimDuration {
    assert!(
        config.threads > 0 && config.prefetch > 0,
        "degenerate config"
    );
    let mut rng = SimRng::seed(seed);
    let phase_list = phases(algo, &config.graph);
    let mut now = SimTime::ZERO;
    let io_threads = backend.client_threads();
    let mut io_rr = 0usize;

    for phase in phase_list {
        // (completion, worker) heap; each worker keeps `prefetch` pages in
        // flight and serializes its per-page compute.
        let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
        let mut worker_busy = vec![now; config.threads as usize];
        let mut seq_cursor = 0u64;
        let mut issued = 0u64;
        let capacity = backend.capacity();
        let next_addr = |_rng: &mut SimRng, seq_cursor: &mut u64, backend: &mut Backend| {
            if phase.sequential {
                let addr = (*seq_cursor * 4096) % (capacity - 4096);
                *seq_cursor += 1;
                addr
            } else {
                backend.random_page_addr()
            }
        };

        for w in 0..config.threads as usize {
            for _ in 0..config.prefetch {
                if issued >= phase.pages {
                    break;
                }
                let addr = next_addr(&mut rng, &mut seq_cursor, backend);
                let io_th = io_rr % io_threads;
                io_rr += 1;
                let done = backend.submit(now, io_th, IoType::Read, addr, 4096);
                heap.push(Reverse((done, w)));
                issued += 1;
            }
        }
        let mut phase_end = now;
        while let Some(Reverse((done, w))) = heap.pop() {
            // Per-page compute on the worker that consumed the page.
            let ready = done.max(worker_busy[w]) + phase.compute_per_page;
            worker_busy[w] = ready;
            phase_end = phase_end.max(ready);
            if issued < phase.pages {
                let addr = next_addr(&mut rng, &mut seq_cursor, backend);
                let io_th = io_rr % io_threads;
                io_rr += 1;
                let next = backend.submit(ready, io_th, IoType::Read, addr, 4096);
                heap.push(Reverse((next, w)));
                issued += 1;
            }
        }
        now = phase_end;
    }
    now.saturating_since(SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendProfile;
    use reflex_flash::device_a;

    fn small() -> FlashXConfig {
        FlashXConfig {
            // A scaled-down graph keeps unit tests fast; the bench harness
            // runs the full SOC-LiveJournal1 dimensions.
            graph: GraphSpec {
                vertices: 480_000,
                edges: 6_890_000,
            },
            threads: 4,
            prefetch: 8,
        }
    }

    fn runtime(algo: GraphAlgo, profile: BackendProfile) -> f64 {
        let mut b = Backend::new(profile, device_a(), 6, 21);
        run_flashx(algo, &small(), &mut b, 9).as_secs_f64()
    }

    #[test]
    fn reflex_slowdown_is_small_for_all_algorithms() {
        for algo in GraphAlgo::all() {
            let local = runtime(algo, BackendProfile::local_nvme());
            let reflex = runtime(algo, BackendProfile::reflex_remote());
            let slowdown = reflex / local;
            assert!(
                (0.99..1.12).contains(&slowdown),
                "{}: reflex slowdown {slowdown:.3}",
                algo.name()
            );
        }
    }

    #[test]
    fn iscsi_hurts_bfs_and_scc_more_than_pr() {
        let slow = |algo| {
            let local = runtime(algo, BackendProfile::local_nvme());
            let iscsi = runtime(algo, BackendProfile::iscsi_remote());
            iscsi / local
        };
        let pr = slow(GraphAlgo::PageRank);
        let bfs = slow(GraphAlgo::Bfs);
        let scc = slow(GraphAlgo::Scc);
        assert!((1.05..1.30).contains(&pr), "PR iscsi slowdown {pr:.3}");
        assert!(
            bfs > pr + 0.08,
            "BFS ({bfs:.3}) must suffer more than PR ({pr:.3})"
        );
        assert!((1.2..1.7).contains(&bfs), "BFS iscsi slowdown {bfs:.3}");
        assert!((1.2..1.7).contains(&scc), "SCC iscsi slowdown {scc:.3}");
    }

    #[test]
    fn edge_pages_math() {
        let g = GraphSpec::default();
        // 68.9M edges x 8B = 551.2MB -> ~134.6K pages.
        assert!((130_000..140_000).contains(&g.edge_pages()));
    }

    #[test]
    fn deterministic_runtime() {
        let a = runtime(GraphAlgo::Wcc, BackendProfile::local_nvme());
        let b = runtime(GraphAlgo::Wcc, BackendProfile::local_nvme());
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
