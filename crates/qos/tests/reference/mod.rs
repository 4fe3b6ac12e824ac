//! Test-only oracle: the map-based Algorithm 1 scheduler as it stood
//! before the dense-slot layout, every deciding line kept (telemetry and
//! the `lc_slo` accessor dropped) — `HashMap` per class plus an order
//! vector, `u128` token generation, `div_ceil` costs recomputed at every
//! pop. `properties.rs` drives it and [`reflex_qos::QosScheduler`]
//! through the same schedule and demands identical decisions. It visits
//! every tenant in every round, which makes it the oracle for the
//! scheduler's parked tenants too. Two lines differ from that scheduler:
//! the `POS_LIMIT` history is pushed, then trimmed (the pop-when-full
//! form grew for ever at zero rounds), and each tenant sums what it was
//! generated.
//!
//! It builds on the crate's public vocabulary types only ([`Tokens`],
//! [`TokenRate`], [`SloSpec`], [`GlobalBucket`], …); everything the dense
//! layout changed (generation, request cost, tenant state, rotation) is
//! re-derived here so the two sides share no arithmetic.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use reflex_flash::IoType;
use reflex_qos::{
    CostModel, CostedRequest, GlobalBucket, LoadMix, QosError, SchedulerParams, SloSpec, TenantId,
    TenantSchedStats, TokenRate, Tokens, DONATE_FRACTION,
};
use reflex_sim::{SimDuration, SimTime};

/// `rate × elapsed + carry` over 10⁹ in `u128`, the only formula the
/// scheduler had before the `u64` path.
fn generate_u128(carry: &mut u64, rate: TokenRate, elapsed: SimDuration) -> Tokens {
    let numer = rate.as_millitokens_per_sec() as u128 * elapsed.as_nanos() as u128 + *carry as u128;
    *carry = (numer % 1_000_000_000) as u64;
    Tokens::from_millitokens((numer / 1_000_000_000) as i64)
}

/// `ceil(len / page) × C(op, mix)` by division, never less than a page.
fn cost_div_ceil(model: &CostModel, op: IoType, len: u32, mix: LoadMix) -> Tokens {
    let pages = len.div_ceil(model.page_size()).max(1) as i64;
    let per_page = match op {
        IoType::Read => model.read_cost(mix),
        IoType::Write => model.write_cost(),
    };
    Tokens::from_millitokens(per_page.as_millitokens() * pages)
}

struct LcState<R> {
    rate: TokenRate,
    tokens: Tokens,
    generated: Tokens,
    carry: u64,
    recent_gen: VecDeque<Tokens>,
    queue: VecDeque<CostedRequest<R>>,
    stats: TenantSchedStats,
}

struct BeState<R> {
    tokens: Tokens,
    generated: Tokens,
    carry: u64,
    queue: VecDeque<CostedRequest<R>>,
    demand_mixed: Tokens,
    demand_ro: Tokens,
    stats: TenantSchedStats,
}

/// What one reference round decided (the fields of `ScheduleOutcome`).
#[derive(Debug)]
pub struct RefOutcome<R> {
    pub submitted: Vec<(TenantId, CostedRequest<R>)>,
    pub deficit_notifications: Vec<TenantId>,
    pub reset_bucket: bool,
}

pub struct RefScheduler<R> {
    thread_idx: u32,
    bucket: Arc<GlobalBucket>,
    model: CostModel,
    params: SchedulerParams,
    prev_sched_time: SimTime,
    lc: HashMap<TenantId, LcState<R>>,
    lc_order: Vec<TenantId>,
    be: HashMap<TenantId, BeState<R>>,
    be_order: Vec<TenantId>,
    be_cursor: usize,
    be_rate_per_tenant: TokenRate,
}

impl<R> RefScheduler<R> {
    pub fn new(
        thread_idx: u32,
        bucket: Arc<GlobalBucket>,
        model: CostModel,
        params: SchedulerParams,
        now: SimTime,
    ) -> Self {
        RefScheduler {
            thread_idx,
            bucket,
            model,
            params,
            prev_sched_time: now,
            lc: HashMap::new(),
            lc_order: Vec::new(),
            be: HashMap::new(),
            be_order: Vec::new(),
            be_cursor: 0,
            be_rate_per_tenant: TokenRate::ZERO,
        }
    }

    pub fn register_lc(
        &mut self,
        id: TenantId,
        slo: SloSpec,
        io_size: u32,
    ) -> Result<(), QosError> {
        if self.lc.contains_key(&id) || self.be.contains_key(&id) {
            return Err(QosError::DuplicateTenant(id));
        }
        self.lc.insert(
            id,
            LcState {
                rate: slo.token_rate(&self.model, io_size),
                tokens: Tokens::ZERO,
                generated: Tokens::ZERO,
                carry: 0,
                recent_gen: VecDeque::new(),
                queue: VecDeque::new(),
                stats: TenantSchedStats::default(),
            },
        );
        self.lc_order.push(id);
        Ok(())
    }

    pub fn register_be(&mut self, id: TenantId) -> Result<(), QosError> {
        if self.lc.contains_key(&id) || self.be.contains_key(&id) {
            return Err(QosError::DuplicateTenant(id));
        }
        self.be.insert(
            id,
            BeState {
                tokens: Tokens::ZERO,
                generated: Tokens::ZERO,
                carry: 0,
                queue: VecDeque::new(),
                demand_mixed: Tokens::ZERO,
                demand_ro: Tokens::ZERO,
                stats: TenantSchedStats::default(),
            },
        );
        self.be_order.push(id);
        Ok(())
    }

    pub fn unregister(&mut self, id: TenantId) -> Result<Vec<CostedRequest<R>>, QosError> {
        if let Some(state) = self.lc.remove(&id) {
            self.lc_order.retain(|t| *t != id);
            return Ok(state.queue.into());
        }
        if let Some(state) = self.be.remove(&id) {
            self.be_order.retain(|t| *t != id);
            if self.be_cursor >= self.be_order.len() {
                self.be_cursor = 0;
            }
            return Ok(state.queue.into());
        }
        Err(QosError::UnknownTenant(id))
    }

    pub fn set_be_rate(&mut self, rate: TokenRate) {
        self.be_rate_per_tenant = rate;
    }

    pub fn lc_rate(&self, id: TenantId) -> Option<TokenRate> {
        self.lc.get(&id).map(|s| s.rate)
    }

    pub fn renegotiate_lc(
        &mut self,
        id: TenantId,
        slo: SloSpec,
        io_size: u32,
    ) -> Result<(), QosError> {
        let s = self.lc.get_mut(&id).ok_or(QosError::UnknownTenant(id))?;
        s.rate = slo.token_rate(&self.model, io_size);
        Ok(())
    }

    pub fn enqueue(&mut self, id: TenantId, req: CostedRequest<R>) -> Result<(), QosError> {
        if let Some(s) = self.lc.get_mut(&id) {
            s.queue.push_back(req);
            return Ok(());
        }
        if let Some(s) = self.be.get_mut(&id) {
            s.demand_mixed += cost_div_ceil(&self.model, req.op, req.len, LoadMix::Mixed);
            s.demand_ro += cost_div_ceil(&self.model, req.op, req.len, LoadMix::ReadOnly);
            s.queue.push_back(req);
            return Ok(());
        }
        Err(QosError::UnknownTenant(id))
    }

    pub fn queued_requests(&self) -> usize {
        self.lc.values().map(|s| s.queue.len()).sum::<usize>()
            + self.be.values().map(|s| s.queue.len()).sum::<usize>()
    }

    pub fn queued_for(&self, id: TenantId) -> usize {
        self.lc
            .get(&id)
            .map(|s| s.queue.len())
            .or_else(|| self.be.get(&id).map(|s| s.queue.len()))
            .unwrap_or(0)
    }

    pub fn stats_for(&self, id: TenantId) -> Option<TenantSchedStats> {
        self.lc
            .get(&id)
            .map(|s| s.stats)
            .or_else(|| self.be.get(&id).map(|s| s.stats))
    }

    pub fn spend_dram_hit(&mut self, id: TenantId, cost: Tokens) -> Result<(), QosError> {
        let (tokens, stats) = if let Some(s) = self.lc.get_mut(&id) {
            (&mut s.tokens, &mut s.stats)
        } else if let Some(s) = self.be.get_mut(&id) {
            (&mut s.tokens, &mut s.stats)
        } else {
            return Err(QosError::UnknownTenant(id));
        };
        *tokens -= cost;
        stats.dram_hits += 1;
        stats.dram_spent_millitokens += cost.as_millitokens();
        Ok(())
    }

    pub fn tokens_of(&self, id: TenantId) -> Option<Tokens> {
        self.lc
            .get(&id)
            .map(|s| s.tokens)
            .or_else(|| self.be.get(&id).map(|s| s.tokens))
    }

    /// Every token generated for the tenants registered now, summed
    /// tenant by tenant: `QosScheduler::generated` less what it counted
    /// for tenants since unregistered.
    pub fn generated(&self) -> Tokens {
        let lc: Tokens = self.lc.values().map(|s| s.generated).sum();
        let be: Tokens = self.be.values().map(|s| s.generated).sum();
        lc + be
    }

    /// What one tenant was generated so far.
    pub fn generated_for(&self, id: TenantId) -> Option<Tokens> {
        self.lc
            .get(&id)
            .map(|s| s.generated)
            .or_else(|| self.be.get(&id).map(|s| s.generated))
    }

    pub fn schedule(&mut self, now: SimTime, mix: LoadMix) -> RefOutcome<R> {
        let elapsed = now.saturating_since(self.prev_sched_time);
        self.prev_sched_time = now;
        let mut out = RefOutcome {
            submitted: Vec::new(),
            deficit_notifications: Vec::new(),
            reset_bucket: false,
        };

        // --- Latency-critical tenants (Algorithm 1 lines 4-12) ---
        for &id in &self.lc_order {
            let s = self.lc.get_mut(&id).expect("lc_order tracks lc map");
            let generated = generate_u128(&mut s.carry, s.rate, elapsed);
            s.tokens += generated;
            s.generated += generated;
            // Push, then trim: a zero-round history keeps nothing (the
            // pop-when-full form never popped at zero and grew for ever).
            s.recent_gen.push_back(generated);
            if s.recent_gen.len() > self.params.pos_history_rounds {
                s.recent_gen.pop_front();
            }

            if s.tokens < self.params.neg_limit {
                s.stats.deficit_events += 1;
                out.deficit_notifications.push(id);
            }

            while !s.queue.is_empty() && s.tokens > self.params.neg_limit {
                let req = s.queue.pop_front().expect("checked non-empty");
                let cost = cost_div_ceil(&self.model, req.op, req.len, mix);
                s.tokens -= cost;
                s.stats.submitted += 1;
                s.stats.spent_millitokens += cost.as_millitokens();
                out.submitted.push((id, req));
            }

            let pos_limit: Tokens = s.recent_gen.iter().copied().sum();
            if s.tokens > pos_limit {
                let donation = s.tokens.mul_f64(DONATE_FRACTION);
                self.bucket.give(donation);
                s.tokens -= donation;
            }
        }

        // --- Best-effort tenants, round-robin (lines 13-21) ---
        let n_be = self.be_order.len();
        for k in 0..n_be {
            let idx = (self.be_cursor + k) % n_be;
            let id = self.be_order[idx];
            let s = self.be.get_mut(&id).expect("be_order tracks be map");
            let generated = generate_u128(&mut s.carry, self.be_rate_per_tenant, elapsed);
            s.generated += generated;
            s.tokens += generated;

            let demand = match mix {
                LoadMix::Mixed => s.demand_mixed,
                LoadMix::ReadOnly => s.demand_ro,
            };
            let deficit = demand - s.tokens;
            if deficit.is_positive() {
                s.tokens += self.bucket.take(deficit);
            }

            // Conditional submission: only while the tenant can pay in full.
            while let Some(front) = s.queue.front() {
                let cost = cost_div_ceil(&self.model, front.op, front.len, mix);
                if s.tokens < cost {
                    break;
                }
                let req = s.queue.pop_front().expect("checked non-empty");
                s.demand_mixed -= cost_div_ceil(&self.model, req.op, req.len, LoadMix::Mixed);
                s.demand_ro -= cost_div_ceil(&self.model, req.op, req.len, LoadMix::ReadOnly);
                s.tokens -= cost;
                s.stats.submitted += 1;
                s.stats.spent_millitokens += cost.as_millitokens();
                out.submitted.push((id, req));
            }

            // DRR rule: no token accumulation while idle.
            if s.tokens.is_positive() && s.queue.is_empty() {
                self.bucket.give(s.tokens);
                s.tokens = Tokens::ZERO;
            }
        }
        if n_be > 0 {
            self.be_cursor = (self.be_cursor + 1) % n_be;
        }

        out.reset_bucket = self.bucket.mark_round(self.thread_idx);
        out
    }
}
