//! Replays the committed regression corpus under plain `cargo test`.
//!
//! `tests/corpus/seeds.txt` holds seeds (and shrunk case lines) that
//! either pin a regime the generator must keep covering or once caught
//! a real bug. Each entry runs through the full oracle battery; a
//! violation here means a previously-fixed bug is back.
//!
//! This harness has no counting global allocator, so the alloc-budget
//! family is vacuous here — the `reflex-swarm` binary (smoke-tested in
//! CI) covers it.

use reflex_swarm::{run_case, FamilyStatus, OracleFamily, RunConfig, SwarmCase};

const CORPUS: &str = include_str!("corpus/seeds.txt");

fn corpus_cases() -> Vec<(String, SwarmCase)> {
    CORPUS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let case = if let Ok(seed) = line.parse::<u64>() {
                SwarmCase::from_seed(seed)
            } else {
                line.parse::<SwarmCase>()
                    .unwrap_or_else(|e| panic!("corpus line does not parse: {e}\n  {line}"))
            };
            (line.to_string(), case)
        })
        .collect()
}

/// Every corpus entry passes the full oracle battery.
#[test]
fn corpus_replays_clean() {
    let cfg = RunConfig::default();
    let mut failures = Vec::new();
    for (line, case) in corpus_cases() {
        let outcome = run_case(&case, &cfg);
        for v in &outcome.violations {
            failures.push(format!("corpus entry `{line}`: {v}"));
        }
    }
    assert!(
        failures.is_empty(),
        "regression corpus found violations:\n{}",
        failures.join("\n")
    );
}

/// The corpus keeps all four sim-level families live (alloc-budget needs
/// the binary's global allocator, so it is asserted by the CI smoke run
/// instead): if a generator change makes one vacuous across the whole
/// corpus, the regression net has silently lost a family.
#[test]
fn corpus_exercises_families() {
    let cfg = RunConfig::default();
    let mut checked = std::collections::BTreeSet::new();
    for (_, case) in corpus_cases() {
        let outcome = run_case(&case, &cfg);
        for (family, status) in &outcome.families {
            if matches!(status, FamilyStatus::Checked) {
                checked.insert(*family);
            }
        }
    }
    for family in [
        OracleFamily::IoConservation,
        OracleFamily::TokenBudget,
        OracleFamily::QuorumEpoch,
        OracleFamily::RerunIdentity,
    ] {
        assert!(
            checked.contains(&family),
            "family {family} is vacuous on every corpus entry"
        );
    }
}
