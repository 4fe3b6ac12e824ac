//! The five invariant-oracle families — the spec the swarm holds every
//! run to.
//!
//! A family is *checked* when the case's configuration gives it
//! something to bite on, and *vacuous* (with a stated reason) when the
//! configuration makes it undefined — e.g. membership epochs only exist
//! on the replicated topology. The runner reports the
//! status of all five for every case, so a CI sweep can prove each
//! family actually fired within its seed budget.

use std::fmt;

use reflex_telemetry::TelemetrySnapshot;

/// The five families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OracleFamily {
    /// Per-tenant `submitted == completed + failed + retried` and zero
    /// open spans, after generators stop and queues drain.
    IoConservation,
    /// Tokens are only made by generation: what the schedulers generated
    /// equals what tenants hold and spent plus what the global bucket
    /// holds and discarded, and token spend stays within the device
    /// budget at the strictest admitted SLO.
    TokenBudget,
    /// Replication: membership epochs only ever increase, member sets
    /// stay well-formed, failovers and epoch bumps correspond.
    QuorumEpoch,
    /// Byte-identical reports between two runs of the same case.
    RerunIdentity,
    /// No hot-path allocations: steady-state allocs per completed IO
    /// under budget, measured with the counting allocator.
    AllocBudget,
}

impl OracleFamily {
    /// All five, in reporting order.
    pub const ALL: [OracleFamily; 5] = [
        OracleFamily::IoConservation,
        OracleFamily::TokenBudget,
        OracleFamily::QuorumEpoch,
        OracleFamily::RerunIdentity,
        OracleFamily::AllocBudget,
    ];

    /// Short stable name (CI artifact keys).
    pub fn name(self) -> &'static str {
        match self {
            OracleFamily::IoConservation => "io-conservation",
            OracleFamily::TokenBudget => "token-budget",
            OracleFamily::QuorumEpoch => "quorum-epoch",
            OracleFamily::RerunIdentity => "rerun-identity",
            OracleFamily::AllocBudget => "alloc-budget",
        }
    }
}

impl fmt::Display for OracleFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One broken invariant.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which family caught it.
    pub family: OracleFamily,
    /// Human-readable description with the offending numbers.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.family, self.detail)
    }
}

/// Per-case status of one family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyStatus {
    /// The family's invariants were asserted on this case.
    Checked,
    /// The case's configuration gives the family nothing to assert.
    Vacuous(&'static str),
}

/// Checks the IO-conservation family on a drained telemetry snapshot.
pub fn check_io_conservation(snapshot: &TelemetrySnapshot, out: &mut Vec<Violation>) {
    if snapshot.ios.is_empty() {
        out.push(Violation {
            family: OracleFamily::IoConservation,
            detail: "no IO counters recorded — the case carried no traffic".into(),
        });
        return;
    }
    let mut any_traffic = false;
    for (tenant, io) in &snapshot.ios {
        if io.submitted != io.completed + io.failed + io.retried {
            out.push(Violation {
                family: OracleFamily::IoConservation,
                detail: format!(
                    "tenant {tenant:?} leaked IOs after drain: submitted {} != completed {} \
                     + failed {} + retried {}",
                    io.submitted, io.completed, io.failed, io.retried
                ),
            });
        }
        // DRAM-cache hits are completions that never entered the flash
        // path; they must stay within the completed book, never beyond.
        if io.hits > io.completed {
            out.push(Violation {
                family: OracleFamily::IoConservation,
                detail: format!(
                    "tenant {tenant:?} recorded more cache hits ({}) than completions ({})",
                    io.hits, io.completed
                ),
            });
        }
        if io.open_spans != 0 {
            out.push(Violation {
                family: OracleFamily::IoConservation,
                detail: format!(
                    "tenant {tenant:?} left {} spans open after drain",
                    io.open_spans
                ),
            });
        }
        any_traffic |= io.submitted > 0;
    }
    if !any_traffic {
        out.push(Violation {
            family: OracleFamily::IoConservation,
            detail: "every tenant recorded zero submissions".into(),
        });
    }
}

/// Checks the conservation half of the token-budget family on the
/// server's books (millitokens).
pub fn check_token_books(generated: i64, accounted: i64, out: &mut Vec<Violation>) {
    if generated != accounted {
        out.push(Violation {
            family: OracleFamily::TokenBudget,
            detail: format!(
                "token books do not balance: generated {generated} != held + spent + \
                 bucket + discarded = {accounted} (drift {})",
                accounted - generated
            ),
        });
    }
}

/// Checks sampled replication epochs for monotonicity and fault
/// correspondence.
pub fn check_epochs(
    samples: &[Vec<u32>],
    recoveries: usize,
    faulty: bool,
    out: &mut Vec<Violation>,
) {
    for w_samples in transpose(samples) {
        for pair in w_samples.windows(2) {
            if pair[1] < pair[0] {
                out.push(Violation {
                    family: OracleFamily::QuorumEpoch,
                    detail: format!("epoch went backwards: {} -> {}", pair[0], pair[1]),
                });
            }
        }
        if let (Some(first), Some(last)) = (w_samples.first(), w_samples.last()) {
            if !faulty && last != first {
                out.push(Violation {
                    family: OracleFamily::QuorumEpoch,
                    detail: format!("epoch moved {first} -> {last} with no fault scheduled"),
                });
            }
            if last > first && recoveries == 0 {
                out.push(Violation {
                    family: OracleFamily::QuorumEpoch,
                    detail: format!("epoch bumped {first} -> {last} but no recovery was recorded"),
                });
            }
        }
    }
}

fn transpose(samples: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let width = samples.first().map_or(0, Vec::len);
    (0..width)
        .map(|w| samples.iter().map(|s| s[w]).collect())
        .collect()
}

/// Checks a replicated workload's final membership shape.
pub fn check_membership(
    members: &[usize],
    primary_slot: usize,
    replication: usize,
    faulty: bool,
    out: &mut Vec<Violation>,
) {
    let mut seen = std::collections::BTreeSet::new();
    for site in members {
        if !seen.insert(*site) {
            out.push(Violation {
                family: OracleFamily::QuorumEpoch,
                detail: format!("member set has duplicate site {site}: {members:?}"),
            });
        }
    }
    if primary_slot >= members.len() {
        out.push(Violation {
            family: OracleFamily::QuorumEpoch,
            detail: format!(
                "primary slot {primary_slot} outside member set of {}",
                members.len()
            ),
        });
    }
    // A healthy run keeps R members; a single death may degrade to R-1
    // until (or unless) a spare finishes re-sync.
    let floor = if faulty {
        replication.saturating_sub(1)
    } else {
        replication
    };
    if members.len() < floor {
        out.push(Violation {
            family: OracleFamily::QuorumEpoch,
            detail: format!(
                "member set shrank to {} (< {floor}) with replication {replication}",
                members.len()
            ),
        });
    }
}

/// Checks the re-run identity family.
pub fn check_identity(a: &str, b: &str, out: &mut Vec<Violation>) {
    if a != b {
        // Find the first divergent region so the report is readable.
        let split = a
            .bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.len().min(b.len()));
        let lo = split.saturating_sub(40);
        let window = |s: &str| s[lo..(split + 80).min(s.len())].to_string();
        out.push(Violation {
            family: OracleFamily::RerunIdentity,
            detail: format!(
                "two runs of one case diverged at byte {split}:\n  a: …{}…\n  b: …{}…",
                window(a),
                window(b)
            ),
        });
    }
}

/// Checks the allocation budget family.
pub fn check_alloc(allocs: u64, ios: u64, budget_per_io: f64, out: &mut Vec<Violation>) {
    if ios == 0 {
        out.push(Violation {
            family: OracleFamily::AllocBudget,
            detail: "alloc pass completed no IOs".into(),
        });
        return;
    }
    let rate = allocs as f64 / ios as f64;
    if rate >= budget_per_io {
        out.push(Violation {
            family: OracleFamily::AllocBudget,
            detail: format!(
                "hot path allocated: {allocs} allocations over {ios} IOs \
                 ({rate:.4}/IO, budget {budget_per_io}/IO)"
            ),
        });
    }
}
