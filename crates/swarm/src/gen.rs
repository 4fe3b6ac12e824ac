//! Seed → case derivation: one u64 describes one complete adversarial
//! scenario.
//!
//! [`SwarmCase::from_seed`] is a pure function of the seed (every draw
//! comes from one [`SwarmRng`] stream, consumed in a fixed order), so
//! `--seed N` is a total repro of a swarm run. Cases are **valid by
//! construction**: the generator only emits combinations the stack
//! defines semantics for — fault targets are bounded by the generated
//! topology, and every tenant of a faulty case carries a retry policy so
//! lost requests terminate instead of leaking open spans.
//! Latency-critical reservations are capped well under device capacity;
//! tenants the admission controller still rejects are dropped (rejection
//! is legitimate behavior, not a generator bug) and the first tenant is
//! always best-effort so every case carries traffic.
//!
//! A case also round-trips through a one-line string (`Display` /
//! `FromStr`) so shrunk cases — which are generally *not* derivable
//! from any seed — still get a one-line repro: `--repro '<case>'`.

use std::fmt;
use std::str::FromStr;

use reflex_faults::{FaultKind, FaultPlan};
use reflex_sim::{SimDuration, SimTime};

use crate::rng::SwarmRng;

/// The shape of the `Testbed` a case runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One server, plain workloads.
    Core {
        /// Server dataplane threads (1..=2).
        server_threads: usize,
        /// Client machines (1..=3).
        clients: usize,
        /// Per-thread DRAM cache capacity in MiB (0 = tier disabled).
        cache_mb: u64,
    },
    /// Several server sites, replicated workloads.
    Replicated {
        /// Server sites (3..=4).
        sites: usize,
        /// Replication factor (2..=3, ≤ sites).
        replication: usize,
    },
}

/// One tenant/workload of a case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Latency-critical SLO `(iops, read_pct, p95_us)`; `None` = best
    /// effort. On replicated topologies this is the (mandatory) SLO.
    pub lc: Option<(u64, u8, u64)>,
    /// Open-loop (true) or closed-loop (false) load.
    pub open_loop: bool,
    /// Offered IOPS for open-loop tenants.
    pub rate_iops: u64,
    /// Queue depth for closed-loop tenants.
    pub depth: u32,
    /// Read percentage of the generated traffic.
    pub read_pct: u8,
    /// Connections.
    pub conns: u32,
    /// Client threads.
    pub client_threads: u32,
    /// Index of the client machine issuing this tenant's load.
    pub client_machine: usize,
    /// IO size in bytes.
    pub io_size: u32,
    /// Whether the client retries failed/timed-out requests.
    pub retry: bool,
    /// Quorum reads (replicated topologies; ignored on core).
    pub quorum_read: bool,
    /// Zipfian hot-spot theta in permille; 0 = uniform addresses.
    pub zipf_permille: u32,
}

/// One complete, valid adversarial scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmCase {
    /// The seed this case was derived from (kept for reporting; shrunk
    /// cases retain their ancestor's seed).
    pub seed: u64,
    /// Testbed shape.
    pub topology: Topology,
    /// Tenants, in registration order. Never empty.
    pub tenants: Vec<TenantSpec>,
    /// Fault schedule (empty = healthy run).
    pub faults: FaultPlan,
    /// Warmup window, milliseconds.
    pub warmup_ms: u64,
    /// Measured window, milliseconds.
    pub measure_ms: u64,
}

/// Total latency-critical reservation cap (IOPS): leaves the admission
/// controller headroom on the calibrated device so most generated LC
/// tenants admit, while still probing the rejection boundary.
const LC_CAP_IOPS: u64 = 120_000;

impl SwarmCase {
    /// Derives the full case from one seed. Pure: same seed, same case.
    pub fn from_seed(seed: u64) -> SwarmCase {
        let mut rng = SwarmRng::new(seed);
        let warmup_ms = rng.range(10, 20);
        let measure_ms = rng.range(40, 80);
        if rng.chance(30) {
            Self::gen_replicated(seed, &mut rng, warmup_ms, measure_ms)
        } else {
            Self::gen_core(seed, &mut rng, warmup_ms, measure_ms)
        }
    }

    fn gen_core(seed: u64, rng: &mut SwarmRng, warmup_ms: u64, measure_ms: u64) -> SwarmCase {
        let server_threads = rng.range(1, 2) as usize;
        let clients = rng.range(1, 3) as usize;
        let faulty = rng.chance(40);
        let mut tenants = Vec::new();
        // Tenant 0 is always best-effort: admission can never reject it,
        // so every case carries traffic.
        tenants.push(TenantSpec {
            lc: None,
            open_loop: true,
            rate_iops: rng.range(10_000, 30_000),
            depth: 0,
            read_pct: rng.range(50, 100) as u8,
            conns: rng.range(1, 8) as u32,
            client_threads: rng.range(1, 4) as u32,
            client_machine: rng.below(clients as u64) as usize,
            io_size: rng.pick(&[512, 1024, 4096]),
            retry: faulty,
            quorum_read: false,
            zipf_permille: if rng.chance(20) {
                rng.range(900, 990) as u32
            } else {
                0
            },
        });
        let extra = rng.below(4);
        let mut lc_budget = LC_CAP_IOPS;
        for _ in 0..extra {
            let want_lc = rng.chance(40);
            let lc = if want_lc && lc_budget >= 10_000 {
                let iops = rng.range(10_000, lc_budget.min(50_000));
                lc_budget -= iops;
                Some((
                    iops,
                    rng.range(50, 100) as u8,
                    rng.pick(&[500u64, 1_000, 2_000]),
                ))
            } else {
                None
            };
            let open_loop = rng.chance(70);
            let rate_iops = match lc {
                // Offer slightly under the reservation so LC tenants run
                // inside their SLO.
                Some((iops, _, _)) => iops * 9 / 10,
                None => rng.range(5_000, 40_000),
            };
            tenants.push(TenantSpec {
                lc,
                open_loop,
                rate_iops,
                depth: rng.range(1, 8) as u32,
                read_pct: match lc {
                    Some((_, pct, _)) => pct,
                    None => rng.range(30, 100) as u8,
                },
                conns: rng.range(1, 8) as u32,
                client_threads: rng.range(1, 4) as u32,
                client_machine: rng.below(clients as u64) as usize,
                io_size: rng.pick(&[512, 1024, 4096]),
                retry: faulty || rng.chance(30),
                quorum_read: false,
                zipf_permille: if rng.chance(20) {
                    rng.range(900, 990) as u32
                } else {
                    0
                },
            });
        }

        let mut faults = FaultPlan::seeded(rng.next_u64());
        if faulty {
            let n_events = rng.range(1, 3);
            for _ in 0..n_events {
                let at = SimTime::ZERO
                    + SimDuration::from_millis(warmup_ms + rng.below(measure_ms * 3 / 4).max(1));
                let rate = rng.range(1, 20) as f64 / 100.0;
                let dur = SimDuration::from_millis(rng.range(1, 10));
                let kind = match rng.below(7) {
                    0 => FaultKind::TransientDeviceErrors {
                        rate,
                        duration: dur,
                    },
                    1 => FaultKind::GcStorm {
                        extra: SimDuration::from_micros(rng.range(50, 500)),
                        duration: dur,
                    },
                    2 => FaultKind::PacketLoss {
                        rate,
                        duration: dur,
                    },
                    3 => FaultKind::PacketDup {
                        rate,
                        duration: dur,
                    },
                    4 => FaultKind::LatencyStorm {
                        extra: SimDuration::from_micros(rng.range(50, 300)),
                        duration: dur,
                    },
                    5 => FaultKind::ThreadStall {
                        thread: rng.below(server_threads as u64) as usize,
                        stall: SimDuration::from_millis(rng.range(1, 3)),
                    },
                    _ => FaultKind::LinkFlap {
                        client: rng.below(clients as u64) as usize,
                        down_for: SimDuration::from_millis(rng.range(1, 5)),
                    },
                };
                faults = faults.with_event(at, kind);
            }
        }

        // DRAM cache dimension. The RNG draw order is append-only (these
        // draws come after every pre-existing one), but the biasing below
        // rewrites earlier tenant draws whenever cache_mb > 0, so a bare
        // seed may derive a different case than it did before this
        // dimension existed. That is fine: pinned repros are preserved by
        // the serialized `v2|…` corpus lines, not by seeds.
        let cache_mb = if rng.chance(40) {
            rng.pick(&[2u64, 8, 32])
        } else {
            0
        };
        if cache_mb > 0 {
            // Bias toward regimes where the tier actually bites: make one
            // tenant's address stream hot, and sometimes tilt another into
            // an invalidation-heavy write mix.
            if rng.chance(60) {
                let idx = rng.below(tenants.len() as u64) as usize;
                tenants[idx].zipf_permille = rng.range(850, 990) as u32;
            }
            if rng.chance(30) {
                let idx = rng.below(tenants.len() as u64) as usize;
                tenants[idx].read_pct = rng.range(20, 50) as u8;
            }
        }

        SwarmCase {
            seed,
            topology: Topology::Core {
                server_threads,
                clients,
                cache_mb,
            },
            tenants,
            faults,
            warmup_ms,
            measure_ms,
        }
    }

    fn gen_replicated(seed: u64, rng: &mut SwarmRng, warmup_ms: u64, measure_ms: u64) -> SwarmCase {
        let sites = rng.range(3, 4) as usize;
        let replication = rng.range(2, 3.min(sites as u64)) as usize;
        let faulty = rng.chance(60);
        let n_tenants = rng.range(1, 2);
        let mut tenants = Vec::new();
        for _ in 0..n_tenants {
            let rate_iops = rng.range(8_000, 30_000);
            let read_pct = rng.range(50, 95) as u8;
            tenants.push(TenantSpec {
                // Headroom: reserve 30% above offered load so a promoted
                // quorum anchor can drain the failover backlog (see
                // DESIGN §11).
                lc: Some((rate_iops * 13 / 10, read_pct, 800)),
                open_loop: true,
                rate_iops,
                depth: 0,
                read_pct,
                conns: 0, // spec default
                client_threads: 0,
                client_machine: 0,
                io_size: 4096,
                retry: true,
                quorum_read: rng.chance(50),
                zipf_permille: 0,
            });
        }
        let mut faults = FaultPlan::seeded(rng.next_u64());
        if faulty {
            let at = SimTime::ZERO
                + SimDuration::from_millis(warmup_ms + rng.below(measure_ms / 2).max(1));
            faults = faults.with_event(
                at,
                FaultKind::ServerDeath {
                    server: rng.below(sites as u64) as usize,
                },
            );
        }
        SwarmCase {
            seed,
            topology: Topology::Replicated { sites, replication },
            tenants,
            faults,
            warmup_ms,
            measure_ms,
        }
    }

    /// True when the case schedules at least one fault.
    pub(crate) fn faulty(&self) -> bool {
        !self.faults.is_empty()
    }
}

// ---------------------------------------------------------------------
// One-line case form: `v2|key=value|…`, fields split on `|`, values may
// contain anything but `|`. The fault plan rides along with newlines
// folded to `;`.

impl fmt::Display for SwarmCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "v2|seed={}|warmup={}|measure={}",
            self.seed, self.warmup_ms, self.measure_ms
        )?;
        match self.topology {
            Topology::Core {
                server_threads,
                clients,
                cache_mb,
            } => write!(f, "|topo=core:{server_threads}:{clients}:{cache_mb}")?,
            Topology::Replicated { sites, replication } => {
                write!(f, "|topo=repl:{sites}:{replication}")?;
            }
        }
        for t in &self.tenants {
            let class = match t.lc {
                Some((iops, pct, p95)) => format!("lc,{iops},{pct},{p95}"),
                None => "be".to_string(),
            };
            write!(
                f,
                "|tenant={class};{};{};{};{};{};{};{};{};{};{};{}",
                u8::from(t.open_loop),
                t.rate_iops,
                t.depth,
                t.read_pct,
                t.conns,
                t.client_threads,
                t.client_machine,
                t.io_size,
                u8::from(t.retry),
                u8::from(t.quorum_read),
                t.zipf_permille,
            )?;
        }
        if !self.faults.is_empty() || self.faults.seed != 0 {
            write!(f, "|faults={}", self.faults.to_string().replace('\n', ";"))?;
        }
        Ok(())
    }
}

fn parse_num<T: FromStr>(what: &str, s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: `{s}`"))
}

impl FromStr for SwarmCase {
    type Err = String;

    fn from_str(s: &str) -> Result<SwarmCase, String> {
        let mut fields = s.split('|');
        if fields.next() != Some("v2") {
            return Err("case string must start with `v2|`".into());
        }
        let mut seed = None;
        let mut warmup_ms = None;
        let mut measure_ms = None;
        let mut topology = None;
        let mut tenants = Vec::new();
        let mut faults = FaultPlan::none();
        for field in fields {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("field `{field}` is not key=value"))?;
            match key {
                "seed" => seed = Some(parse_num("seed", value)?),
                "warmup" => warmup_ms = Some(parse_num("warmup", value)?),
                "measure" => measure_ms = Some(parse_num("measure", value)?),
                "topo" => {
                    let parts: Vec<&str> = value.split(':').collect();
                    topology = Some(match parts.as_slice() {
                        ["core", t, c, mb] => Topology::Core {
                            server_threads: parse_num("threads", t)?,
                            clients: parse_num("clients", c)?,
                            cache_mb: parse_num("cache_mb", mb)?,
                        },
                        ["repl", s, r] => Topology::Replicated {
                            sites: parse_num("sites", s)?,
                            replication: parse_num("replication", r)?,
                        },
                        _ => return Err(format!("bad topo `{value}`")),
                    });
                }
                "tenant" => {
                    let parts: Vec<&str> = value.split(';').collect();
                    if parts.len() != 12 {
                        return Err(format!("tenant needs 12 fields, got {}", parts.len()));
                    }
                    let lc = if parts[0] == "be" {
                        None
                    } else {
                        let c: Vec<&str> = parts[0].split(',').collect();
                        match c.as_slice() {
                            ["lc", iops, pct, p95] => Some((
                                parse_num("lc iops", iops)?,
                                parse_num("lc read_pct", pct)?,
                                parse_num("lc p95", p95)?,
                            )),
                            _ => return Err(format!("bad tenant class `{}`", parts[0])),
                        }
                    };
                    tenants.push(TenantSpec {
                        lc,
                        open_loop: parts[1] == "1",
                        rate_iops: parse_num("rate", parts[2])?,
                        depth: parse_num("depth", parts[3])?,
                        read_pct: parse_num("read_pct", parts[4])?,
                        conns: parse_num("conns", parts[5])?,
                        client_threads: parse_num("client_threads", parts[6])?,
                        client_machine: parse_num("client_machine", parts[7])?,
                        io_size: parse_num("io_size", parts[8])?,
                        retry: parts[9] == "1",
                        quorum_read: parts[10] == "1",
                        zipf_permille: parse_num("zipf", parts[11])?,
                    });
                }
                "faults" => {
                    faults = FaultPlan::parse(&value.replace(';', "\n"))
                        .map_err(|e| format!("fault plan: {e}"))?;
                }
                other => return Err(format!("unknown field `{other}`")),
            }
        }
        if tenants.is_empty() {
            return Err("case has no tenants".into());
        }
        Ok(SwarmCase {
            seed: seed.ok_or("missing seed")?,
            topology: topology.ok_or("missing topo")?,
            tenants,
            faults,
            warmup_ms: warmup_ms.ok_or("missing warmup")?,
            measure_ms: measure_ms.ok_or("missing measure")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        for seed in 0..64 {
            assert_eq!(SwarmCase::from_seed(seed), SwarmCase::from_seed(seed));
        }
    }

    #[test]
    fn case_string_round_trips() {
        for seed in 0..256 {
            let case = SwarmCase::from_seed(seed);
            let line = case.to_string();
            let back: SwarmCase = line.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, case, "{line}");
        }
    }

    #[test]
    fn cases_are_valid_by_construction() {
        for seed in 0..512 {
            let case = SwarmCase::from_seed(seed);
            assert!(!case.tenants.is_empty());
            match case.topology {
                Topology::Core {
                    server_threads,
                    clients,
                    cache_mb,
                } => {
                    assert!((1..=2).contains(&server_threads));
                    assert!((1..=3).contains(&clients));
                    assert!(
                        matches!(cache_mb, 0 | 2 | 8 | 32),
                        "seed {seed}: cache_mb {cache_mb}"
                    );
                    if case.faulty() {
                        assert!(case.tenants.iter().all(|t| t.retry), "seed {seed}");
                    }
                    for e in &case.faults.events {
                        match e.kind {
                            FaultKind::ThreadStall { thread, .. } => {
                                assert!(thread < server_threads)
                            }
                            FaultKind::LinkFlap { client, .. } => assert!(client < clients),
                            FaultKind::ServerDeath { .. } | FaultKind::DeviceDeath => {
                                panic!("core cases never kill whole machines (seed {seed})")
                            }
                            _ => {}
                        }
                    }
                    for t in &case.tenants {
                        assert!(t.client_machine < clients);
                    }
                }
                Topology::Replicated { sites, replication } => {
                    assert!(replication <= sites);
                    assert!(replication >= 2);
                    for e in &case.faults.events {
                        match e.kind {
                            FaultKind::ServerDeath { server } => assert!(server < sites),
                            other => panic!("unexpected replicated fault {other:?}"),
                        }
                    }
                }
            }
            let lc_total: u64 = case.tenants.iter().filter_map(|t| t.lc).map(|l| l.0).sum();
            if matches!(case.topology, Topology::Core { .. }) {
                assert!(lc_total <= LC_CAP_IOPS, "seed {seed}: LC total {lc_total}");
            }
        }
    }

    #[test]
    fn seeds_cover_every_regime() {
        let mut faulty = 0;
        let mut replicated = 0;
        let mut cached = 0;
        let mut cached_writes = 0;
        for seed in 0..256 {
            let c = SwarmCase::from_seed(seed);
            if c.faulty() {
                faulty += 1;
            }
            match c.topology {
                Topology::Core { cache_mb, .. } => {
                    if cache_mb > 0 {
                        cached += 1;
                        if c.tenants.iter().any(|t| t.read_pct < 60) {
                            cached_writes += 1;
                        }
                    }
                }
                Topology::Replicated { .. } => replicated += 1,
            }
        }
        // The CI budget (≥100 seeds) must exercise every oracle family;
        // require each regime to appear often in any 256-seed window.
        assert!(faulty >= 40, "faulty cases too rare: {faulty}/256");
        assert!(
            replicated >= 40,
            "replicated cases too rare: {replicated}/256"
        );
        assert!(cached >= 25, "cached cases too rare: {cached}/256");
        assert!(
            cached_writes >= 5,
            "cache+invalidation-heavy cases too rare: {cached_writes}/256"
        );
    }
}
