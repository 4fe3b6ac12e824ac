//! # reflex-cache — per-thread DRAM read cache in front of remote flash
//!
//! A deterministic, set-associative read cache keyed by `(tenant, line)`.
//! Each dataplane thread owns a private instance, so there is no
//! cross-thread coherence traffic: the only inputs are the thread's own
//! rx/completion sequence.
//!
//! Policy, in one paragraph: reads that overlap only valid lines *hit*
//! and are served at DRAM cost without touching the flash SQ; reads that
//! don't are *misses* and fill on completion (only lines the response
//! fully covers are admitted). Writes go *around* the cache — they are
//! submitted to flash unchanged and invalidate any overlapped line — so
//! replication and failover semantics are untouched by the tier. A fill
//! racing a write is rejected by a per-set invalidation tick: the miss
//! captures the cache clock when it leaves for flash, and a fill whose
//! target set was invalidated after that instant is dropped as stale.
//! A fill racing a tenant teardown is rejected the same way: the miss
//! also captures the tenant's epoch, and a fill whose epoch no longer
//! matches (the tenant was unregistered or moved while the read sat at
//! the device) is dropped rather than admitted under the successor's
//! epoch.
//!
//! Discipline (PR 3 rules): all ways are allocated once at construction,
//! entries are generation-checked against a per-tenant epoch so a tenant
//! flush is O(1), and the lookup/fill/invalidate hot paths allocate
//! nothing.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::HashMap;

/// Associativity: entries per set.
const WAYS: u32 = 8;

/// Configuration for one per-thread DRAM cache instance.
///
/// Embedded in `DataplaneConfig` (which is `Copy`), so this stays a flat
/// `Copy` value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total data capacity in bytes per dataplane thread. Together with
    /// `line_bytes` and the 8-way associativity this fixes the set count
    /// at construction.
    pub capacity_bytes: u64,
    /// Cache-line size in bytes. Reads are admitted only when they fully
    /// cover a line, so benchmarks should match this to the workload's
    /// IO size (a 1KB-read workload never fills 4KB lines).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// A small default: 16 MiB per thread, 4KB lines.
    pub fn default_profile() -> Self {
        CacheConfig {
            capacity_bytes: 16 << 20,
            line_bytes: 4096,
        }
    }

    /// Same shape as `default_profile` but with an explicit capacity.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        CacheConfig {
            capacity_bytes,
            ..Self::default_profile()
        }
    }

    /// Number of sets this configuration yields.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.line_bytes as u64 * WAYS as u64)
    }

    /// Validates the configuration, returning a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes < 512 || !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "cache line_bytes must be a power of two >= 512, got {}",
                self.line_bytes
            ));
        }
        if self.sets() == 0 {
            return Err(format!(
                "cache capacity {}B holds zero sets of {} x {}B ways",
                self.capacity_bytes, WAYS, self.line_bytes
            ));
        }
        Ok(())
    }
}

/// Monotonic counters kept by the cache itself. The dataplane thread
/// mirrors the interesting ones into its `ThreadStats`, which puts them
/// inside the swarm's re-run identity fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served entirely from DRAM.
    pub hits: u64,
    /// Reads that overlapped at least one absent/stale line.
    pub misses: u64,
    /// Lines admitted by completed flash reads.
    pub fills: u64,
    /// Valid lines displaced to admit a fill.
    pub evictions: u64,
    /// Valid lines dropped by write-around invalidation or a tenant
    /// epoch bump.
    pub invalidations: u64,
    /// Fills dropped because their set was invalidated — or their
    /// tenant's epoch bumped — while the miss was in flight (the
    /// write-vs-fill and teardown-vs-fill race guards).
    pub stale_fill_skips: u64,
}

/// What a fill actually did, so the caller can update its own counters
/// without re-deriving cache internals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillOutcome {
    /// Lines newly admitted.
    pub filled: u64,
    /// Valid lines evicted to make room.
    pub evicted: u64,
    /// Lines rejected as stale by the invalidation-tick or tenant-epoch
    /// guard.
    pub stale: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tenant: u32,
    line: u64,
    tenant_gen: u32,
    valid: bool,
    last_use: u64,
}

const EMPTY: Entry = Entry {
    tenant: 0,
    line: 0,
    tenant_gen: 0,
    valid: false,
    last_use: 0,
};

/// The per-thread cache. All storage is allocated at construction; the
/// hot-path methods (`lookup`, `fill`, `invalidate_write`) never
/// allocate.
#[derive(Debug)]
pub struct DramCache {
    cfg: CacheConfig,
    sets: usize,
    ways: usize,
    line_shift: u32,
    entries: Vec<Entry>,
    /// Cache clock value at the last invalidation touching each set.
    set_inval_tick: Vec<u64>,
    /// Per-tenant epoch; entries stamped with an older epoch are stale.
    /// Absent tenants are at epoch 0. Only `invalidate_tenant` (a
    /// control-plane operation) inserts here.
    tenant_gens: HashMap<u32, u32>,
    /// Monotonic cache clock: bumped once per mutating operation, used
    /// for LRU ordering and the fill race guard.
    tick: u64,
    stats: CacheStats,
}

impl DramCache {
    /// Builds a cache from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails; dataplane config validation
    /// runs first, so reaching this with a bad config is a bug.
    pub fn new(cfg: CacheConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid cache config: {e}");
        }
        let sets = cfg.sets() as usize;
        let ways = WAYS as usize;
        DramCache {
            cfg,
            sets,
            ways,
            line_shift: cfg.line_bytes.trailing_zeros(),
            entries: vec![EMPTY; sets * ways],
            set_inval_tick: vec![0; sets],
            tenant_gens: HashMap::with_capacity(64),
            tick: 1,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Current value of the cache clock. A miss captures this before the
    /// flash read is issued and hands it back to [`DramCache::fill`] so
    /// fills racing a write-around invalidation can be rejected.
    pub fn clock(&self) -> u64 {
        self.tick
    }

    /// Current epoch of `tenant`. A miss captures this together with
    /// [`DramCache::clock`] when the flash read is issued; the fill on
    /// completion is rejected if the epoch has moved on since (the
    /// teardown-vs-fill race guard — see [`DramCache::fill`]).
    pub fn generation(&self, tenant: u32) -> u32 {
        self.gen_of(tenant)
    }

    /// Number of pages a request of `len` bytes spans at line
    /// granularity, for DRAM token costing (minimum one).
    pub fn pages(&self, len: u32) -> u64 {
        (len.div_ceil(self.cfg.line_bytes).max(1)) as u64
    }

    fn gen_of(&self, tenant: u32) -> u32 {
        // Only `invalidate_tenant` adds entries: until the first teardown
        // every probe skips the hash.
        if self.tenant_gens.is_empty() {
            return 0;
        }
        self.tenant_gens.get(&tenant).copied().unwrap_or(0)
    }

    /// Lines overlapped by `[addr, addr + len)`, inclusive range.
    fn overlapped(&self, addr: u64, len: u32) -> (u64, u64) {
        let first = addr >> self.line_shift;
        let last = (addr + len.max(1) as u64 - 1) >> self.line_shift;
        (first, last)
    }

    /// Lines fully covered by `[addr, addr + len)`, or `None`.
    fn covered(&self, addr: u64, len: u32) -> Option<(u64, u64)> {
        let line = self.cfg.line_bytes as u64;
        let first = addr.div_ceil(line);
        let end = (addr + len as u64) / line; // exclusive
        if end > first {
            Some((first, end - 1))
        } else {
            None
        }
    }

    fn set_of(&self, tenant: u32, line: u64) -> usize {
        // Fixed multiplicative hash (splitmix64 finalizer) so the
        // placement is deterministic across runs and platforms.
        let mut x = line ^ (tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % self.sets as u64) as usize
    }

    fn way_slice(&mut self, set: usize) -> &mut [Entry] {
        let base = set * self.ways;
        &mut self.entries[base..base + self.ways]
    }

    /// Probes the cache for a read of `len` bytes at `addr`. Returns
    /// `true` (a hit) iff every overlapped line is present, valid, and
    /// stamped with the tenant's current epoch; hits refresh LRU order.
    pub fn lookup(&mut self, tenant: u32, addr: u64, len: u32) -> bool {
        let generation = self.gen_of(tenant);
        let (first, last) = self.overlapped(addr, len);
        // Pass 1: check every line before touching LRU state, so a
        // partial overlap doesn't perturb recency deterministically
        // differently from a clean miss.
        for line in first..=last {
            let set = self.set_of(tenant, line);
            let found = self.way_slice(set).iter().any(|e| {
                e.valid && e.tenant == tenant && e.line == line && e.tenant_gen == generation
            });
            if !found {
                self.stats.misses += 1;
                return false;
            }
        }
        // Pass 2: all present — refresh recency.
        for line in first..=last {
            let set = self.set_of(tenant, line);
            let tick = self.tick;
            for e in self.way_slice(set).iter_mut() {
                if e.valid && e.tenant == tenant && e.line == line && e.tenant_gen == generation {
                    e.last_use = tick;
                }
            }
            self.tick += 1;
        }
        self.stats.hits += 1;
        true
    }

    /// Admits the lines fully covered by a completed flash read. The
    /// caller passes the cache clock and tenant epoch captured when the
    /// miss was issued ([`DramCache::clock`], [`DramCache::generation`]):
    /// any target set invalidated since then rejects its line as stale,
    /// and an epoch that has moved on since rejects the whole fill —
    /// entries are stamped with the epoch current at *fill* time, so
    /// without this guard a read in flight at the device across a tenant
    /// teardown would be admitted under the successor's epoch and become
    /// visible to a future tenant reusing the id.
    pub fn fill(
        &mut self,
        tenant: u32,
        addr: u64,
        len: u32,
        miss_clock: u64,
        miss_gen: u32,
    ) -> FillOutcome {
        let mut out = FillOutcome::default();
        let Some((first, last)) = self.covered(addr, len) else {
            return out;
        };
        let generation = self.gen_of(tenant);
        if miss_gen != generation {
            let stale = last - first + 1;
            out.stale = stale;
            self.stats.stale_fill_skips += stale;
            return out;
        }
        for line in first..=last {
            let set = self.set_of(tenant, line);
            if self.set_inval_tick[set] > miss_clock {
                out.stale += 1;
                self.stats.stale_fill_skips += 1;
                continue;
            }
            let tick = self.tick;
            let evicted = {
                let ways = self.way_slice(set);
                // Refresh in place if the line is already resident.
                if let Some(e) = ways.iter_mut().find(|e| {
                    e.valid && e.tenant == tenant && e.line == line && e.tenant_gen == generation
                }) {
                    e.last_use = tick;
                    None
                } else {
                    // Victim: first invalid way, else least-recently-used
                    // (ties broken by lowest way index — deterministic).
                    let victim = ways
                        .iter()
                        .enumerate()
                        .find(|(_, e)| !e.valid)
                        .map(|(i, _)| i)
                        .unwrap_or_else(|| {
                            ways.iter()
                                .enumerate()
                                .min_by_key(|(i, e)| (e.last_use, *i))
                                .map(|(i, _)| i)
                                .expect("ways >= 1 by construction")
                        });
                    let evicted = ways[victim].valid;
                    ways[victim] = Entry {
                        tenant,
                        line,
                        tenant_gen: generation,
                        valid: true,
                        last_use: tick,
                    };
                    Some(evicted)
                }
            };
            self.tick += 1;
            let Some(evicted) = evicted else { continue };
            if evicted {
                out.evicted += 1;
                self.stats.evictions += 1;
            }
            out.filled += 1;
            self.stats.fills += 1;
        }
        out
    }

    /// Write-around invalidation: drops every line overlapped by the
    /// write and stamps the touched sets with the current cache clock so
    /// in-flight fills into them are rejected. Returns the number of
    /// valid lines dropped.
    pub fn invalidate_write(&mut self, tenant: u32, addr: u64, len: u32) -> u64 {
        let (first, last) = self.overlapped(addr, len);
        let mut dropped = 0;
        for line in first..=last {
            let set = self.set_of(tenant, line);
            self.tick += 1;
            self.set_inval_tick[set] = self.tick;
            for e in self.way_slice(set).iter_mut() {
                if e.valid && e.tenant == tenant && e.line == line {
                    e.valid = false;
                    dropped += 1;
                }
            }
        }
        self.stats.invalidations += dropped;
        dropped
    }

    /// Flushes every line a tenant owns by bumping its epoch (the
    /// correctness mechanism: lookups require the current epoch, and
    /// [`DramCache::fill`] rejects fills whose miss predates the bump,
    /// so a later tenant reusing the id can never observe stale lines —
    /// not even via a read that was in flight at the device when the
    /// tenant was torn down) and eagerly dropping the now-stale
    /// residents. Control-plane only. Returns the number of valid lines
    /// dropped.
    pub fn invalidate_tenant(&mut self, tenant: u32) -> u64 {
        *self.tenant_gens.entry(tenant).or_insert(0) += 1;
        self.tick += 1;
        // The epoch bump is the correctness mechanism; the count below
        // keeps the invalidation counter honest for observability.
        let generation = self.gen_of(tenant);
        let mut dropped = 0;
        for e in &mut self.entries {
            if e.valid && e.tenant == tenant && e.tenant_gen != generation {
                e.valid = false;
                dropped += 1;
            }
        }
        self.stats.invalidations += dropped;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> DramCache {
        // 64 lines of 4KB, 8-way => 8 sets.
        DramCache::new(CacheConfig::with_capacity(64 * 4096))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert!(!c.lookup(1, 0, 4096));
        let clk = c.clock();
        let out = c.fill(1, 0, 4096, clk, 0);
        assert_eq!(out.filled, 1);
        assert!(c.lookup(1, 0, 4096));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn partial_line_reads_hit_but_do_not_fill() {
        let mut c = small();
        let clk = c.clock();
        // A 1KB read fully covers no 4KB line: no admission.
        assert_eq!(c.fill(1, 1024, 1024, clk, 0).filled, 0);
        assert!(!c.lookup(1, 1024, 1024));
        // After a full-line fill, the 1KB subrange hits.
        let clk = c.clock();
        c.fill(1, 0, 4096, clk, 0);
        assert!(c.lookup(1, 1024, 1024));
    }

    #[test]
    fn write_invalidates_overlapped_lines() {
        let mut c = small();
        let clk = c.clock();
        c.fill(1, 0, 2 * 4096, clk, 0);
        assert!(c.lookup(1, 0, 2 * 4096));
        // A 512B write into the first line drops only that line.
        assert_eq!(c.invalidate_write(1, 512, 512), 1);
        assert!(!c.lookup(1, 0, 4096));
        assert!(c.lookup(1, 4096, 4096));
    }

    #[test]
    fn racing_fill_is_rejected_as_stale() {
        let mut c = small();
        let miss_clock = c.clock(); // miss leaves for flash here
        c.invalidate_write(1, 0, 4096); // write lands while in flight
        let out = c.fill(1, 0, 4096, miss_clock, 0);
        assert_eq!(out.filled, 0);
        assert_eq!(out.stale, 1);
        assert!(!c.lookup(1, 0, 4096));
        // A fresh miss after the write fills normally.
        let clk = c.clock();
        assert_eq!(c.fill(1, 0, 4096, clk, 0).filled, 1);
    }

    #[test]
    fn fill_racing_tenant_teardown_is_rejected() {
        let mut c = small();
        // Miss leaves for flash here, carrying clock + epoch.
        let miss_clock = c.clock();
        let miss_gen = c.generation(1);
        // Tenant is unregistered (epoch bump) while the read is at the
        // device; the completion must not fill under the new epoch.
        c.invalidate_tenant(1);
        let out = c.fill(1, 0, 4096, miss_clock, miss_gen);
        assert_eq!(out.filled, 0);
        assert_eq!(out.stale, 1);
        // A tenant reusing the id starts cold.
        assert!(!c.lookup(1, 0, 4096));
        // A read accepted after the bump fills normally.
        let clk = c.clock();
        assert_eq!(c.fill(1, 0, 4096, clk, c.generation(1)).filled, 1);
        assert!(c.lookup(1, 0, 4096));
    }

    #[test]
    fn tenants_never_share_lines() {
        let mut c = small();
        let clk = c.clock();
        c.fill(1, 0, 4096, clk, 0);
        assert!(!c.lookup(2, 0, 4096));
        assert!(c.lookup(1, 0, 4096));
    }

    #[test]
    fn tenant_epoch_bump_flushes_everything_it_owns() {
        let mut c = small();
        let clk = c.clock();
        c.fill(1, 0, 4 * 4096, clk, 0);
        c.fill(2, 0, 4096, clk, 0);
        c.invalidate_tenant(1);
        for line in 0..4u64 {
            assert!(!c.lookup(1, line * 4096, 4096));
        }
        assert!(c.lookup(2, 0, 4096));
    }

    #[test]
    fn lru_evicts_the_coldest_way() {
        // One set only: 8 lines, 8-way.
        let mut c = DramCache::new(CacheConfig::with_capacity(8 * 4096));
        let clk = c.clock();
        for line in 0..8u64 {
            c.fill(1, line * 4096, 4096, clk, 0);
        }
        // Touch lines 1..8, leaving line 0 coldest.
        for line in 1..8u64 {
            assert!(c.lookup(1, line * 4096, 4096));
        }
        let clk = c.clock();
        let out = c.fill(1, 8 * 4096, 4096, clk, 0);
        assert_eq!(out.evicted, 1);
        assert!(!c.lookup(1, 0, 4096), "coldest line should be gone");
        assert!(c.lookup(1, 8 * 4096, 4096));
    }

    #[test]
    fn default_profile_validates() {
        assert!(CacheConfig::default_profile().validate().is_ok());
        assert!(CacheConfig::with_capacity(0).validate().is_err());
        let mut bad = CacheConfig::default_profile();
        bad.line_bytes = 3000;
        assert!(bad.validate().is_err());
    }

    proptest! {
        // The satellite invariant: the cache never aliases across
        // tenants or across stale generations. Mirror every operation
        // into a model map keyed by (tenant, epoch, line); a lookup may
        // hit only lines the *same tenant at its current epoch* filled
        // and that no later write dropped.
        fn never_aliases_tenants_or_stale_generations(
            ops in prop::collection::vec((0u8..5, 0u32..3, 0u64..32), 1..200)
        ) {
            // Tiny: 2 sets => constant eviction.
            let mut c = DramCache::new(CacheConfig::with_capacity(16 * 4096));
            let mut epochs: std::collections::HashMap<u32, u32> = Default::default();
            // (tenant, epoch, line) -> still legitimately fillable/visible
            let mut model: std::collections::HashSet<(u32, u32, u64)> = Default::default();
            for (op, tenant, line) in ops {
                let addr = line * 4096;
                let ep = *epochs.get(&tenant).unwrap_or(&0);
                match op {
                    0 => {
                        let clk = c.clock();
                        let g = c.generation(tenant);
                        if c.fill(tenant, addr, 4096, clk, g).filled == 1 {
                            model.insert((tenant, ep, line));
                        }
                    }
                    1 => {
                        c.invalidate_write(tenant, addr, 4096);
                        model.remove(&(tenant, ep, line));
                    }
                    2 => {
                        c.invalidate_tenant(tenant);
                        epochs.insert(tenant, ep + 1);
                    }
                    3 => {
                        // Teardown-vs-fill race: the miss captures the
                        // epoch, the tenant is torn down before the fill
                        // lands, and the fill must be rejected wholesale.
                        let clk = c.clock();
                        let g = c.generation(tenant);
                        c.invalidate_tenant(tenant);
                        epochs.insert(tenant, ep + 1);
                        prop_assert_eq!(c.fill(tenant, addr, 4096, clk, g).filled, 0);
                    }
                    _ => {
                        // A hit must be justified by the model: same
                        // tenant, current epoch, line not invalidated.
                        // (The converse doesn't hold — the real cache
                        // evicts under pressure — so misses are always
                        // allowed.)
                        if c.lookup(tenant, addr, 4096) {
                            prop_assert!(
                                model.contains(&(tenant, ep, line)),
                                "aliased hit: tenant {tenant} epoch {ep} line {line}"
                            );
                        }
                    }
                }
            }
        }
    }
}
