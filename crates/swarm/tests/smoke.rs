//! Smoke: a handful of generated seeds run the full oracle battery
//! end-to-end under plain `cargo test`. The real sweep depth lives in
//! CI (`cargo run -p reflex-swarm -- --seeds 100`); this catches a
//! runner/generator wiring break immediately in any local test run.

use reflex_swarm::{run_seed, FamilyStatus, OracleFamily, RunConfig};

#[test]
fn first_seeds_pass_all_oracles() {
    let cfg = RunConfig::default();
    for seed in 0..8 {
        let outcome = run_seed(seed, &cfg);
        assert!(
            outcome.violations.is_empty(),
            "seed {seed} violated: {:?}",
            outcome.violations
        );
        assert!(outcome.completed_ios > 0, "seed {seed} moved no IOs");
        // Every family reports a status — checked or vacuous-with-reason.
        for family in OracleFamily::ALL {
            assert!(
                outcome.families.iter().any(|(f, _)| *f == family),
                "seed {seed} reported no status for {family}"
            );
        }
        // IO conservation and identity apply to every case.
        for family in [OracleFamily::IoConservation, OracleFamily::RerunIdentity] {
            let status = outcome
                .families
                .iter()
                .find(|(f, _)| *f == family)
                .map(|(_, s)| *s);
            assert_eq!(
                status,
                Some(FamilyStatus::Checked),
                "{family} must never be vacuous"
            );
        }
    }
}
