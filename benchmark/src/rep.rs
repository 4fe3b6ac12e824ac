//! One repetition: build the testbed, warm it up, measure one window.
//! The `child` subcommand runs exactly this in a fresh single-threaded
//! process and prints the result as one JSON line; tests call it
//! in-process.

use std::time::Instant;

use crate::host;
use crate::json::Json;
use crate::spans::Recorder;
use crate::sut::{self, Rig, Window};
use crate::workloads::Scenario;

/// Equal `Testbed::run` calls the measured window is cut into. The
/// simulation is deterministic, so slice `i` is the same work in every
/// repetition of a seed — which is what lets the parent take the median
/// over repetitions slice by slice (see `bench::quiet_ns`).
pub const SLICES: u64 = 50;

/// How a repetition is instrumented. The two halves are separate only so
/// that tests can show each leaves the simulated result alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// `Testbed::enable_telemetry` before the workloads are admitted, and
    /// the engine-event counter read after every slice.
    pub telemetry: bool,
    pub slices: u64,
}

impl Mode {
    pub const UNTRACED: Mode = Mode {
        telemetry: false,
        slices: SLICES,
    };
    pub const TRACED: Mode = Mode {
        telemetry: true,
        slices: SLICES,
    };
}

/// Host time of one `Testbed::run` call, of the reference kernel run
/// right after it, the allocations inside the call and — in a traced
/// repetition — the engine events it dispatched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub host_ns: u64,
    pub reference_ns: u64,
    pub allocs: u64,
    pub events: Option<u64>,
}

#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds from `origin` to `begin_measurement`.
    pub setup_s: f64,
    pub slices: Vec<Slice>,
    pub window: Window,
}

impl Rep {
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("setup_s", Json::from(self.setup_s)),
            (
                "allocs",
                self.slices.iter().map(|s| s.allocs).sum::<u64>().into(),
            ),
            (
                "slice_ns",
                Json::nums(self.slices.iter().map(|s| s.host_ns as f64)),
            ),
            (
                "reference_ns",
                Json::nums(self.slices.iter().map(|s| s.reference_ns as f64)),
            ),
            ("window", self.window.to_json()),
        ];
        if let Some(events) = self
            .slices
            .iter()
            .map(|s| s.events.map(|e| e as f64))
            .collect::<Option<Vec<f64>>>()
        {
            pairs.push(("slice_events", Json::nums(events)));
        }
        Json::obj(pairs)
    }
}

/// Runs one repetition of `sc`. `origin` is when set-up is deemed to have
/// started (process start in a child). Nothing is timed that is not
/// counted: the window's IOs and events cover exactly the timed calls.
pub fn run(sc: &Scenario, seed: u64, mode: Mode, origin: Instant, rec: &mut Recorder) -> Rep {
    let mut rig = rec.span("setup", |rec| {
        let mut rig = rec.span("build_and_admit", |_| {
            (Rig::build(sc, seed, mode.telemetry), vec![])
        });
        rec.span("warm_up", |_| (rig.run(sc.warm_ms * 1_000_000), vec![]));
        rig.begin_measurement();
        (rig, vec![])
    });
    let setup_s = origin.elapsed().as_secs_f64();

    let n = mode.slices;
    let slice_ns = sc.measure_ms * 1_000_000 / n;
    assert_eq!(
        slice_ns * n,
        sc.measure_ms * 1_000_000,
        "window must cut evenly"
    );
    let slices = rec.span("measure", |rec| {
        let mut slices = Vec::with_capacity(n as usize);
        let mut events_before = 0;
        for _ in 0..n {
            let start_ns = rec.now_ns();
            let allocs_before = sut::allocations();
            let t = Instant::now();
            rig.run(slice_ns);
            let host_ns = t.elapsed().as_nanos() as u64;
            let allocs = sut::allocations() - allocs_before;
            let reference_ns = host::reference_kernel_ns();
            // Reading the counter builds a whole report, so only the
            // traced run does it, and between the timed calls.
            let events = mode.telemetry.then(|| {
                let now = rig.events();
                let delta = now - events_before;
                events_before = now;
                delta
            });
            rec.leaf(
                "run_slice",
                start_ns,
                start_ns + host_ns,
                events
                    .map(|e| ("engine_events".to_owned(), e as f64))
                    .into_iter()
                    .collect(),
            );
            slices.push(Slice {
                host_ns,
                reference_ns,
                allocs,
                events,
            });
        }
        let total: Option<u64> = slices.iter().map(|s| s.events).sum();
        let args = total.map(|e| ("engine_events".to_owned(), e as f64));
        (slices, args.into_iter().collect())
    });
    let window = rig.window();
    Rep {
        setup_s,
        slices,
        window,
    }
}
