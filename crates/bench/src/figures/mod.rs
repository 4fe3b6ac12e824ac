//! The figure registry: every table and figure harness, listed once.
//!
//! A figure is a module with a `build` that declares its sweep — the
//! curves and points, and the title, header and blank lines around them —
//! and, where the finished sweep needs more than printing (fitted
//! constants, rows assembled from metrics), a `render` of its own.
//! Everything else — knobs, thread count, the `BENCH_`/`TELEMETRY_`
//! artifacts, the claims a run is held to ([`crate::claims`]) and so every
//! exit code — is the driver's (`src/main.rs`).

use std::io::Write;

use crate::sweep::{Sweep, SweepResult};

pub(crate) mod ablations;
pub(crate) mod chaos;
pub(crate) mod ext_features;
pub(crate) mod fig1_interference;
pub(crate) mod fig3_cost_model;
pub(crate) mod fig4_throughput;
pub(crate) mod fig5_qos;
pub(crate) mod fig6a_core_scaling;
pub(crate) mod fig6b_tenant_scaling;
pub(crate) mod fig6c_conn_scaling;
pub(crate) mod fig7a_fio;
pub(crate) mod fig7b_flashx;
pub(crate) mod fig7c_rocksdb;
pub(crate) mod fig_cache;
pub(crate) mod fig_replication;
pub(crate) mod latency_breakdown;
pub(crate) mod tab2_unloaded_latency;

/// One figure harness.
#[derive(Debug)]
pub struct Figure {
    /// Name on the command line and stem of the artifacts
    /// (`BENCH_<name>.json`).
    pub name: &'static str,
    /// One line: what it regenerates.
    pub about: &'static str,
    /// Whether `--smoke` selects a reduced, CI-sized grid.
    pub smoke: bool,
    /// Whether `--all` runs it.
    pub in_all: bool,
    /// Declares the sweep: curves, points and the text around them.
    pub build: fn(&mut Sweep, bool),
    /// Writes the finished sweep's TSV.
    pub render: fn(&SweepResult, &mut dyn Write) -> std::io::Result<()>,
}

impl Figure {
    /// The figure's sweep, declared but not yet run; its points record
    /// telemetry if `telemetry` is set.
    pub fn sweep(&self, smoke: bool, telemetry: bool) -> Sweep {
        let mut sweep = Sweep::new(self.name).smoke(smoke);
        sweep.telemetry = telemetry;
        (self.build)(&mut sweep, smoke);
        sweep
    }
}

/// Writes the sweep's TSV as declared: what a figure without a `render`
/// of its own gets.
fn plain(result: &SweepResult, out: &mut dyn Write) -> std::io::Result<()> {
    out.write_all(result.tsv().as_bytes())
}

macro_rules! figures {
    ($($module:ident { smoke: $smoke:expr, in_all: $in_all:expr, render: $render:expr, $about:expr })*) => {
        /// Every figure; the `in_all` ones are in `--all`'s order.
        pub static FIGURES: &[Figure] = &[$(Figure {
            name: stringify!($module),
            about: $about,
            smoke: $smoke,
            in_all: $in_all,
            build: $module::build,
            render: $render,
        }),*];
    };
}

figures! {
    fig1_interference { smoke: false, in_all: true, render: plain, "Figure 1: p95 read latency vs total IOPS per read ratio" }
    fig3_cost_model { smoke: false, in_all: true, render: fig3_cost_model::render, "Figure 3: latency vs weighted IOPS for devices A/B/C" }
    tab2_unloaded_latency { smoke: false, in_all: true, render: plain, "Table 2: unloaded 4KB latency, six configurations" }
    fig4_throughput { smoke: false, in_all: true, render: plain, "Figure 4: latency vs 1KB IOPS, Local/ReFlex/libaio x 1-2 threads" }
    fig5_qos { smoke: false, in_all: true, render: plain, "Figure 5: four tenants, scheduler on/off, scenarios 1-2" }
    fig6a_core_scaling { smoke: false, in_all: true, render: plain, "Figure 6a: LC/BE IOPS and token rate vs cores" }
    fig6b_tenant_scaling { smoke: false, in_all: true, render: plain, "Figure 6b: IOPS vs tenant count per core" }
    fig6c_conn_scaling { smoke: false, in_all: true, render: plain, "Figure 6c: IOPS vs connections at 3 per-conn rates" }
    fig7a_fio { smoke: false, in_all: true, render: plain, "Figure 7a: FIO p95 latency vs throughput" }
    fig7b_flashx { smoke: false, in_all: true, render: plain, "Figure 7b: FlashX slowdowns (WCC/PR/BFS/SCC)" }
    fig7c_rocksdb { smoke: false, in_all: true, render: plain, "Figure 7c: RocksDB slowdowns (BL/RR/RwW)" }
    latency_breakdown { smoke: false, in_all: true, render: plain, "Figure 2 stages: where the unloaded remote read's microseconds go" }
    ablations { smoke: false, in_all: true, render: plain, "design-choice sweeps: NEG_LIMIT, cost model" }
    ext_features { smoke: false, in_all: true, render: ext_features::render, "extensions: UDP transport, sharded tenants" }
    fig_cache { smoke: true, in_all: true, render: plain, "DRAM cache tier: hit rate vs read tail, connection-pressure relief" }
    chaos { smoke: true, in_all: false, render: chaos::render, "recovery under escalating injected faults (--smoke gates CI)" }
    fig_replication { smoke: true, in_all: false, render: plain, "replication overlays (R=1/2/3), failover recovery, SLO violations" }
}

/// The figure named `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The `--list` table: one line per figure — name, `all` and `smoke`
/// marks, what it regenerates.
pub fn list() -> String {
    let mut out = String::new();
    for f in FIGURES {
        let all = if f.in_all { "all" } else { "" };
        let smoke = if f.smoke { "smoke" } else { "" };
        out.push_str(&format!(
            "{:<22} {all:<3} {smoke:<5}  {}\n",
            f.name, f.about
        ));
    }
    out
}
