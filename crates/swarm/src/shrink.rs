//! Greedy case minimization: when a seed fails, reduce it to the
//! smallest case that still trips the *same* oracle family.
//!
//! Deterministic: candidates are derived in a fixed order with no
//! randomness, so shrinking the same failure always lands on the same
//! minimal case. Re-runs are bounded; the shrinker returns the best
//! case found when the budget runs out. The result is generally not
//! derivable from any seed, so the repro is the case's one-line string
//! (`--repro '<case>'`), not a seed.

use crate::gen::{SwarmCase, Topology};
use crate::oracle::OracleFamily;
use crate::runner::{run_case, RunConfig};

/// Outcome of a shrink campaign.
#[derive(Debug)]
pub struct Shrunk {
    /// Smallest case still failing the family.
    pub case: SwarmCase,
    /// Re-runs spent.
    pub runs: usize,
}

/// Minimizes `original` (which fails `family`) under a re-run budget.
pub fn shrink(
    original: &SwarmCase,
    family: OracleFamily,
    cfg: &RunConfig,
    max_runs: usize,
) -> Shrunk {
    let mut best = original.clone();
    let mut runs = 0;
    'outer: loop {
        for cand in candidates(&best) {
            if runs >= max_runs {
                break 'outer;
            }
            runs += 1;
            let outcome = run_case(&cand, cfg);
            if outcome.violations.iter().any(|v| v.family == family) {
                best = cand;
                continue 'outer; // restart from the biggest cuts
            }
        }
        break; // no candidate still fails: fixed point
    }
    Shrunk { case: best, runs }
}

/// Reduction candidates, biggest cut first. Every candidate preserves
/// the generator's validity rules (≥1 tenant, fault targets in range,
/// replicated tenants keep their SLO).
fn candidates(case: &SwarmCase) -> Vec<SwarmCase> {
    let mut out = Vec::new();

    // Drop the whole fault schedule, then individual events. Events are
    // rebuilt through `with_event` so ids stay sequential — the repro
    // line's parse assigns ids in order, and an id keys the event's RNG
    // stream.
    if !case.faults.events.is_empty() {
        let mut c = case.clone();
        c.faults.events.clear();
        out.push(c);
        if case.faults.events.len() > 1 {
            for skip in 0..case.faults.events.len() {
                let mut plan = reflex_faults::FaultPlan::seeded(case.faults.seed);
                for (j, e) in case.faults.events.iter().enumerate() {
                    if j != skip {
                        plan = plan.with_event(e.at, e.kind);
                    }
                }
                let mut c = case.clone();
                c.faults = plan;
                out.push(c);
            }
        }
    }

    // Drop tenants (keep at least one).
    if case.tenants.len() > 1 {
        for i in (0..case.tenants.len()).rev() {
            let mut c = case.clone();
            c.tenants.remove(i);
            out.push(c);
        }
    }

    // Collapse the topology (the replicated one has nothing to collapse).
    if let Topology::Core {
        server_threads,
        clients,
        cache_mb,
    } = case.topology
    {
        // Turning the DRAM cache off isolates failures that only need
        // the plain flash path.
        if cache_mb > 0 {
            let mut c = case.clone();
            c.topology = Topology::Core {
                server_threads,
                clients,
                cache_mb: 0,
            };
            out.push(c);
        }
        // Fewer client machines, when no tenant or fault targets the
        // ones removed.
        if clients > 1 {
            let targets_last = case.tenants.iter().any(|t| t.client_machine >= clients - 1)
                || case.faults.events.iter().any(|e| {
                    matches!(e.kind,
                        reflex_faults::FaultKind::LinkFlap { client, .. } if client >= clients - 1)
                });
            if !targets_last {
                let mut c = case.clone();
                c.topology = Topology::Core {
                    server_threads,
                    clients: clients - 1,
                    cache_mb,
                };
                out.push(c);
            }
        }
    }

    // Shorter windows.
    if case.measure_ms >= 20 {
        let mut c = case.clone();
        c.measure_ms /= 2;
        out.push(c);
    }

    // Simplify tenants field by field.
    for (i, t) in case.tenants.iter().enumerate() {
        let mut push = |f: fn(&mut crate::gen::TenantSpec)| {
            let mut c = case.clone();
            f(&mut c.tenants[i]);
            if c != *case {
                out.push(c);
            }
        };
        if t.zipf_permille != 0 {
            push(|t| t.zipf_permille = 0);
        }
        if t.conns > 1 {
            push(|t| t.conns = 1);
        }
        if t.client_threads > 1 {
            push(|t| t.client_threads = 1);
        }
        if t.quorum_read {
            push(|t| t.quorum_read = false);
        }
        // Core tenants can lose their SLO; replicated ones need it.
        if t.lc.is_some() && matches!(case.topology, Topology::Core { .. }) {
            push(|t| t.lc = None);
        }
        // Retry interacts with timeout storms and backoff scheduling —
        // dropping it isolates whether a failure needs the retry path at
        // all (replicated workloads always retry, so core only).
        if t.retry && matches!(case.topology, Topology::Core { .. }) {
            push(|t| t.retry = false);
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_preserve_validity() {
        for seed in 0..64 {
            let case = SwarmCase::from_seed(seed);
            for cand in candidates(&case) {
                assert!(!cand.tenants.is_empty(), "seed {seed}");
                // Every candidate must still round-trip its repro line.
                let line = cand.to_string();
                let back: SwarmCase = line.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(back, cand);
                if let Topology::Core { clients, .. } = cand.topology {
                    for t in &cand.tenants {
                        assert!(t.client_machine < clients, "seed {seed}");
                    }
                }
            }
        }
    }
}
