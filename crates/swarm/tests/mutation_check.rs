//! The mutation check as a test: with the bucket-skim mutation flipped
//! on, the swarm's token-budget oracle MUST fail — a pass would mean the
//! oracle is vacuous and the whole family is decorative.
//!
//! Compiled only under `--features mutation` (CI runs it as a dedicated
//! step; see DESIGN.md §12). The skim switch is process-global, so this
//! file holds exactly one test.
#![cfg(feature = "mutation")]

use reflex_swarm::{run_seed, OracleFamily, RunConfig};

#[test]
fn bucket_skim_mutation_is_caught() {
    reflex_qos::mutation::set_bucket_skim(true);
    let cfg = RunConfig::default();
    // The sweep must catch the skim within the CI seed budget: the first
    // core case in which a best-effort tenant draws on the bucket fails.
    let mut caught = false;
    for seed in 0..20 {
        let outcome = run_seed(seed, &cfg);
        if outcome
            .violations
            .iter()
            .any(|v| v.family == OracleFamily::TokenBudget)
        {
            caught = true;
            break;
        }
    }
    reflex_qos::mutation::set_bucket_skim(false);
    assert!(
        caught,
        "bucket-skim mutation survived 20 seeds — the token-budget oracle \
         can no longer see a real accounting bug"
    );
}
