//! Hook implementations that execute a [`FaultPlan`](crate::FaultPlan).
//!
//! Each hook holds a list of precomputed fault *windows* plus one private
//! [`SimRng`] stream per probabilistic window. The streams never touch
//! the component RNGs (device media-error draws, NIC jitter draws), so a
//! hook whose windows are all in the past — or a run with no hook at all
//! — produces byte-identical results.

use std::cell::Cell;
use std::rc::Rc;

use reflex_flash::{DeviceFaultAction, DeviceFaultHook, NvmeCommand};
use reflex_net::{MachineId, NetFaultAction, NetFaultHook};
use reflex_sim::{SimDuration, SimRng, SimTime};

use crate::stats::{count, FaultCounts};

#[derive(Debug)]
struct RateWindow {
    start: SimTime,
    end: SimTime,
    rate: f64,
    rng: SimRng,
}

impl RateWindow {
    fn new(start: SimTime, duration: SimDuration, rate: f64, seed: u64) -> Self {
        RateWindow {
            start,
            end: start + duration,
            rate,
            rng: SimRng::seed(seed),
        }
    }

    fn fires(&mut self, now: SimTime) -> bool {
        now >= self.start && now < self.end && self.rng.chance(self.rate)
    }
}

#[derive(Debug, Clone, Copy)]
struct DelayWindow {
    start: SimTime,
    end: SimTime,
    extra: SimDuration,
}

impl DelayWindow {
    fn active(&self, now: SimTime) -> Option<SimDuration> {
        (now >= self.start && now < self.end).then_some(self.extra)
    }
}

/// Executes the device-side schedule of a fault plan: transient error
/// windows, GC storms, and whole-device death.
#[derive(Debug)]
pub struct PlannedDeviceHook {
    transient: Vec<RateWindow>,
    gc: Vec<DelayWindow>,
    death_at: Option<SimTime>,
    counts: Rc<Cell<FaultCounts>>,
}

impl PlannedDeviceHook {
    /// An empty device schedule counting into `counts`.
    pub fn new(counts: Rc<Cell<FaultCounts>>) -> Self {
        PlannedDeviceHook {
            transient: Vec::new(),
            gc: Vec::new(),
            death_at: None,
            counts,
        }
    }

    /// Adds a transient-error window: commands in `[start, start+duration)`
    /// fail with probability `rate`, drawn from a stream seeded by `seed`.
    pub(crate) fn add_transient(
        &mut self,
        start: SimTime,
        duration: SimDuration,
        rate: f64,
        seed: u64,
    ) {
        self.transient
            .push(RateWindow::new(start, duration, rate, seed));
    }

    /// Adds a GC storm: commands in the window complete `extra` late.
    pub(crate) fn add_gc_storm(
        &mut self,
        start: SimTime,
        duration: SimDuration,
        extra: SimDuration,
    ) {
        self.gc.push(DelayWindow {
            start,
            end: start + duration,
            extra,
        });
    }

    /// Kills the device at `at` (earliest death wins if called twice).
    pub fn set_death(&mut self, at: SimTime) {
        self.death_at = Some(self.death_at.map_or(at, |t| t.min(at)));
    }

    /// True if any window or death is scheduled — an unarmed hook need
    /// not be installed at all.
    pub fn is_armed(&self) -> bool {
        !self.transient.is_empty() || !self.gc.is_empty() || self.death_at.is_some()
    }
}

impl DeviceFaultHook for PlannedDeviceHook {
    fn on_command(&mut self, now: SimTime, _cmd: &NvmeCommand) -> DeviceFaultAction {
        if self.death_at.is_some_and(|t| now >= t) {
            count(&self.counts, |c| c.dead_aborts += 1);
            return DeviceFaultAction::Dead;
        }
        for w in &mut self.transient {
            if w.fires(now) {
                count(&self.counts, |c| c.transient_errors += 1);
                return DeviceFaultAction::TransientError;
            }
        }
        // GC storms stack if windows overlap: each adds its own delay.
        let extra: u64 = self
            .gc
            .iter()
            .filter_map(|w| w.active(now))
            .map(SimDuration::as_nanos)
            .sum();
        if extra > 0 {
            count(&self.counts, |c| c.gc_delays += 1);
            return DeviceFaultAction::ExtraLatency(SimDuration::from_nanos(extra));
        }
        DeviceFaultAction::None
    }
}

/// Executes the network-side schedule of a fault plan: packet loss and
/// duplication windows, latency storms, and link-down blackouts.
#[derive(Debug)]
pub struct PlannedNetHook {
    loss: Vec<RateWindow>,
    dup: Vec<RateWindow>,
    storm: Vec<DelayWindow>,
    link_down: Vec<(SimTime, SimTime, MachineId)>,
    counts: Rc<Cell<FaultCounts>>,
}

impl PlannedNetHook {
    /// An empty network schedule counting into `counts`.
    pub fn new(counts: Rc<Cell<FaultCounts>>) -> Self {
        PlannedNetHook {
            loss: Vec::new(),
            dup: Vec::new(),
            storm: Vec::new(),
            link_down: Vec::new(),
            counts,
        }
    }

    /// Adds a loss window: messages in it are dropped with probability
    /// `rate`, drawn from a stream seeded by `seed`.
    pub(crate) fn add_loss(&mut self, start: SimTime, duration: SimDuration, rate: f64, seed: u64) {
        self.loss.push(RateWindow::new(start, duration, rate, seed));
    }

    /// Adds a duplication window: messages in it are duplicated with
    /// probability `rate`.
    pub(crate) fn add_dup(&mut self, start: SimTime, duration: SimDuration, rate: f64, seed: u64) {
        self.dup.push(RateWindow::new(start, duration, rate, seed));
    }

    /// Adds a latency storm: messages in the window arrive `extra` late.
    pub(crate) fn add_storm(&mut self, start: SimTime, duration: SimDuration, extra: SimDuration) {
        self.storm.push(DelayWindow {
            start,
            end: start + duration,
            extra,
        });
    }

    /// Adds a link blackout: every message to or from `machine` in the
    /// window is dropped.
    pub fn add_link_down(&mut self, start: SimTime, duration: SimDuration, machine: MachineId) {
        self.link_down.push((start, start + duration, machine));
    }

    /// True if any window is scheduled.
    pub fn is_armed(&self) -> bool {
        !self.loss.is_empty()
            || !self.dup.is_empty()
            || !self.storm.is_empty()
            || !self.link_down.is_empty()
    }
}

impl NetFaultHook for PlannedNetHook {
    fn on_send(
        &mut self,
        now: SimTime,
        from: MachineId,
        to: MachineId,
        _size: u32,
    ) -> NetFaultAction {
        for &(start, end, machine) in &self.link_down {
            if now >= start && now < end && (from == machine || to == machine) {
                count(&self.counts, |c| c.dropped += 1);
                return NetFaultAction::Drop;
            }
        }
        for w in &mut self.loss {
            if w.fires(now) {
                count(&self.counts, |c| c.dropped += 1);
                return NetFaultAction::Drop;
            }
        }
        for w in &mut self.dup {
            if w.fires(now) {
                count(&self.counts, |c| c.duplicated += 1);
                return NetFaultAction::Duplicate;
            }
        }
        let extra: u64 = self
            .storm
            .iter()
            .filter_map(|w| w.active(now))
            .map(SimDuration::as_nanos)
            .sum();
        if extra > 0 {
            count(&self.counts, |c| c.delayed += 1);
            return NetFaultAction::Delay(SimDuration::from_nanos(extra));
        }
        NetFaultAction::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reflex_flash::CmdId;

    fn cmd() -> NvmeCommand {
        NvmeCommand::read(CmdId(1), 0, 4096)
    }

    #[test]
    fn device_hook_death_overrides_everything() {
        let counts = Rc::new(Cell::new(FaultCounts::default()));
        let mut hook = PlannedDeviceHook::new(Rc::clone(&counts));
        hook.add_transient(SimTime::ZERO, SimDuration::from_secs(10), 1.0, 42);
        hook.set_death(SimTime::ZERO + SimDuration::from_millis(1));
        let before = SimTime::ZERO + SimDuration::from_micros(10);
        let after = SimTime::ZERO + SimDuration::from_millis(2);
        assert_eq!(
            hook.on_command(before, &cmd()),
            DeviceFaultAction::TransientError
        );
        assert_eq!(hook.on_command(after, &cmd()), DeviceFaultAction::Dead);
        let snap = counts.get();
        assert_eq!(snap.transient_errors, 1);
        assert_eq!(snap.dead_aborts, 1);
    }

    #[test]
    fn device_hook_windows_are_inactive_outside_their_span() {
        let counts = Rc::new(Cell::new(FaultCounts::default()));
        let mut hook = PlannedDeviceHook::new(counts);
        let start = SimTime::ZERO + SimDuration::from_millis(5);
        hook.add_transient(start, SimDuration::from_millis(1), 1.0, 9);
        hook.add_gc_storm(
            start,
            SimDuration::from_millis(1),
            SimDuration::from_micros(200),
        );
        assert_eq!(
            hook.on_command(SimTime::ZERO, &cmd()),
            DeviceFaultAction::None
        );
        assert_eq!(
            hook.on_command(start + SimDuration::from_millis(2), &cmd()),
            DeviceFaultAction::None
        );
    }

    #[test]
    fn net_hook_link_down_blackholes_both_directions() {
        let counts = Rc::new(Cell::new(FaultCounts::default()));
        let mut hook = PlannedNetHook::new(Rc::clone(&counts));
        let m = MachineId(3);
        hook.add_link_down(SimTime::ZERO, SimDuration::from_millis(1), m);
        let inside = SimTime::ZERO + SimDuration::from_micros(10);
        assert_eq!(
            hook.on_send(inside, m, MachineId(0), 64),
            NetFaultAction::Drop
        );
        assert_eq!(
            hook.on_send(inside, MachineId(0), m, 64),
            NetFaultAction::Drop
        );
        assert_eq!(
            hook.on_send(inside, MachineId(0), MachineId(1), 64),
            NetFaultAction::Deliver
        );
        let after = SimTime::ZERO + SimDuration::from_millis(2);
        assert_eq!(
            hook.on_send(after, m, MachineId(0), 64),
            NetFaultAction::Deliver
        );
        assert_eq!(counts.get().dropped, 2);
    }

    #[test]
    fn rate_windows_are_reproducible_across_hook_instances() {
        let mk = || {
            let counts = Rc::new(Cell::new(FaultCounts::default()));
            let mut h = PlannedNetHook::new(counts);
            h.add_loss(SimTime::ZERO, SimDuration::from_secs(1), 0.3, 77);
            h
        };
        let (mut a, mut b) = (mk(), mk());
        for i in 0..200u64 {
            let t = SimTime::ZERO + SimDuration::from_micros(i);
            assert_eq!(
                a.on_send(t, MachineId(0), MachineId(1), 64),
                b.on_send(t, MachineId(0), MachineId(1), 64)
            );
        }
    }
}
