//! The simulated result depends on the seed and on nothing the benchmark
//! does to observe it: not on telemetry, not on how many `Testbed::run`
//! calls the window is cut into. 20 ms windows keep this to seconds.

use std::time::Instant;

use reflex_benchmark::rep::{self, Mode};
use reflex_benchmark::spans::Recorder;
use reflex_benchmark::sut::Window;
use reflex_benchmark::workloads::{self, Scenario};

fn window(sc: &Scenario, seed: u64, mode: Mode) -> Window {
    let origin = Instant::now();
    rep::run(
        &sc.with_windows(20, 20),
        seed,
        mode,
        origin,
        &mut Recorder::new(origin),
    )
    .window
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    for sc in &workloads::ALL {
        let first = window(sc, 31, Mode::UNTRACED);
        assert_eq!(first, window(sc, 31, Mode::UNTRACED), "{}", sc.name);
        let other = window(sc, 32, Mode::UNTRACED);
        assert_ne!(
            first.digest, other.digest,
            "{}: the seed must matter",
            sc.name
        );
        assert!(first.completed > 0, "{}", sc.name);
    }
}

#[test]
fn fifty_slices_equal_one_run() {
    for sc in &workloads::ALL {
        let one_run = Mode {
            telemetry: false,
            slices: 1,
        };
        assert_eq!(Mode::UNTRACED.slices, 50);
        assert_eq!(
            window(sc, 31, one_run),
            window(sc, 31, Mode::UNTRACED),
            "{}",
            sc.name
        );
    }
}

#[test]
fn telemetry_leaves_every_sim_value_alone() {
    for sc in &workloads::ALL {
        let off = window(sc, 31, Mode::UNTRACED);
        let on = window(sc, 31, Mode::TRACED);
        assert_eq!(off.sim_identity(), on.sim_identity(), "{}", sc.name);
        assert_eq!(off.counters, on.counters, "{}", sc.name);
        assert!(on.stages.is_some() && off.stages.is_none());
    }
}
