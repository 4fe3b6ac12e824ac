//! An environment knob that is set but cannot be honoured — a removed
//! simulation-mode knob, a `REFLEX_BENCH_THREADS` that is not a thread
//! count — must stop the run: silently ignored, it would have someone
//! measuring something they did not ask for.

use std::process::Command;

/// Runs `reflex-bench <args>` with `knob=value` set and expects exit code
/// 2 and exactly one stderr line, naming the knob.
fn stops_the_run(args: &[&str], knob: &str, value: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_reflex-bench"))
        .args(args)
        .env("REFLEX_BENCH_THREADS", "1")
        .env(knob, value)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("reflex-bench runs");
    assert_eq!(out.status.code(), Some(2), "{args:?} with {knob}={value}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(knob) && stderr.lines().count() == 1,
        "{args:?} with {knob}={value}: expected one line naming the knob, got:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run before the refusal");
}

#[test]
fn removed_sim_knobs_are_refused() {
    for args in [
        &["tab2_unloaded_latency"][..],
        &["fig_replication", "--smoke"],
    ] {
        for knob in ["REFLEX_SIM_SHARDS", "REFLEX_SIM_SPLIT", "REFLEX_SIM_PIN"] {
            stops_the_run(args, knob, "1");
        }
    }
}

#[test]
fn a_thread_count_that_is_not_one_is_refused() {
    for value in ["0", "x", "", "-1", "2.5"] {
        stops_the_run(&["tab2_unloaded_latency"], "REFLEX_BENCH_THREADS", value);
    }
}
