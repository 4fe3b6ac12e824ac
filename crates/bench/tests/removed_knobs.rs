//! The simulation-mode knobs are gone; a script that still sets one must
//! hear about it instead of measuring something it did not ask for.

use std::process::Command;

#[test]
fn binaries_refuse_removed_sim_knobs() {
    let scratch = std::env::temp_dir();
    for bin in [
        env!("CARGO_BIN_EXE_tab2_unloaded_latency"),
        env!("CARGO_BIN_EXE_fig_replication"),
    ] {
        for knob in ["REFLEX_SIM_SHARDS", "REFLEX_SIM_SPLIT", "REFLEX_SIM_PIN"] {
            let out = Command::new(bin)
                .arg("--smoke")
                .env(knob, "1")
                .env("REFLEX_BENCH_THREADS", "1")
                .current_dir(&scratch)
                .output()
                .expect("figure binary runs");
            assert_eq!(out.status.code(), Some(2), "{bin} with {knob} set");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(knob) && stderr.lines().count() == 1,
                "{bin} with {knob}: expected one line naming the knob, got:\n{stderr}"
            );
        }
    }
}
