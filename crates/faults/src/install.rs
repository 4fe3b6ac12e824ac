//! Wiring a [`FaultPlan`] into a live [`Testbed`].

use std::cell::Cell;
use std::rc::Rc;

use reflex_core::{ReflexServer, Testbed, World};
use reflex_sim::SimDuration;

use crate::hooks::{PlannedDeviceHook, PlannedNetHook};
use crate::plan::{FaultKind, FaultPlan};
use crate::stats::{count, FaultCounts};

/// Installs `plan` into `tb`: arms the device and fabric fault hooks for
/// the windowed faults and schedules the discrete ones (link flaps,
/// thread stalls, server deaths) as engine events. Device and thread
/// faults hit the first site; a [`FaultKind::ServerDeath`] names its
/// own. Returns the counts the hooks and events record into.
///
/// Installing [`FaultPlan::none`] (or any empty plan) arms nothing — the
/// run is byte-identical to one without fault injection.
///
/// # Panics
///
/// Panics if a [`FaultKind::LinkFlap`] names a client index outside
/// `tb.world().client_count()` or a [`FaultKind::ServerDeath`] a site
/// outside `tb.world().site_count()`. A [`FaultKind::ThreadStall`]
/// naming an inactive thread panics later, when the event fires.
pub fn install(plan: &FaultPlan, tb: &mut Testbed<ReflexServer>) -> Rc<Cell<FaultCounts>> {
    let counts = Rc::new(Cell::new(FaultCounts::default()));
    let add_downtime = |d: SimDuration| count(&counts, |c| c.downtime += d);
    let mut devs: Vec<PlannedDeviceHook> = (0..tb.world().site_count())
        .map(|_| PlannedDeviceHook::new(Rc::clone(&counts)))
        .collect();
    let mut net = PlannedNetHook::new(Rc::clone(&counts));
    for ev in &plan.events {
        let seed = plan.stream_seed(ev.id);
        match ev.kind {
            FaultKind::TransientDeviceErrors { rate, duration } => {
                devs[0].add_transient(ev.at, duration, rate, seed);
            }
            FaultKind::GcStorm { extra, duration } => {
                devs[0].add_gc_storm(ev.at, duration, extra);
            }
            FaultKind::DeviceDeath => devs[0].set_death(ev.at),
            FaultKind::PacketLoss { rate, duration } => {
                net.add_loss(ev.at, duration, rate, seed);
            }
            FaultKind::PacketDup { rate, duration } => {
                net.add_dup(ev.at, duration, rate, seed);
            }
            FaultKind::LatencyStorm { extra, duration } => {
                net.add_storm(ev.at, duration, extra);
            }
            FaultKind::LinkFlap { client, down_for } => {
                assert!(
                    client < tb.world().client_count(),
                    "LinkFlap names client {client} but the testbed has {}",
                    tb.world().client_count()
                );
                let machine = tb.world().client_machine(client);
                // Packets already in flight or sent during the outage are
                // black-holed by the fabric hook...
                net.add_link_down(ev.at, down_for, machine);
                add_downtime(down_for);
                // ...and the server tears the client's connections down,
                // re-registering them when the link returns.
                let c = Rc::clone(&counts);
                tb.schedule_at(ev.at, move |w: &mut World<ReflexServer>, _ctx| {
                    let sites = 0..w.site_count();
                    let torn: usize = sites
                        .map(|i| w.server_at_mut(i).on_link_down(machine))
                        .sum();
                    count(&c, |c| {
                        c.link_downs += 1;
                        c.conns_torn_down += torn as u64;
                    });
                });
                let c = Rc::clone(&counts);
                tb.schedule_at(
                    ev.at + down_for,
                    move |w: &mut World<ReflexServer>, _ctx| {
                        let sites = 0..w.site_count();
                        let rebound: usize = sites
                            .map(|i| w.server_at_mut(i).rebind_client(machine))
                            .sum();
                        count(&c, |c| c.conns_rebound += rebound as u64);
                    },
                );
            }
            FaultKind::ThreadStall { thread, stall } => {
                add_downtime(stall);
                let c = Rc::clone(&counts);
                tb.schedule_at(ev.at, move |w: &mut World<ReflexServer>, ctx| {
                    count(&c, |c| c.thread_stalls += 1);
                    let now = ctx.now();
                    w.server_mut().thread_mut(thread).inject_stall(now, stall);
                });
            }
            FaultKind::ServerDeath { server } => {
                // The site dies whole (the testbed checks it exists): the
                // coordinator fails its replica sets over one detection
                // delay later...
                add_downtime(tb.schedule_server_death(ev.at, server));
                // ...its device aborts every queued and future command,
                // and its links go dark for the rest of the run (messages
                // in either direction are black-holed at send time, so
                // they never count as submitted work).
                devs[server].set_death(ev.at);
                let machine = tb.world().server_at(server).machine();
                net.add_link_down(ev.at, SimDuration::from_secs_f64(3600.0), machine);
            }
        }
    }
    for (site, dev) in devs.into_iter().enumerate() {
        if dev.is_armed() {
            tb.world_mut()
                .device_at_mut(site)
                .set_fault_hook(Box::new(dev));
        }
    }
    if net.is_armed() {
        tb.world_mut().fabric_mut().set_fault_hook(Box::new(net));
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use reflex_sim::SimTime;

    #[test]
    fn empty_plan_installs_nothing() {
        let mut tb = Testbed::builder().server_threads(1).build();
        let counts = install(&FaultPlan::none(), &mut tb);
        assert!(tb.world_mut().device_at_mut(0).clear_fault_hook().is_none());
        assert!(tb.world_mut().fabric_mut().clear_fault_hook().is_none());
        assert_eq!(counts.get().injected(), 0);
    }

    #[test]
    fn windowed_faults_arm_the_hooks() {
        let mut tb = Testbed::builder().server_threads(1).build();
        let plan = FaultPlan::seeded(1)
            .with_event(
                SimTime::ZERO + SimDuration::from_millis(1),
                FaultKind::TransientDeviceErrors {
                    rate: 0.5,
                    duration: SimDuration::from_millis(2),
                },
            )
            .with_event(
                SimTime::ZERO + SimDuration::from_millis(1),
                FaultKind::PacketLoss {
                    rate: 0.1,
                    duration: SimDuration::from_millis(2),
                },
            );
        let _counts = install(&plan, &mut tb);
        assert!(tb.world_mut().device_at_mut(0).clear_fault_hook().is_some());
        assert!(tb.world_mut().fabric_mut().clear_fault_hook().is_some());
    }

    #[test]
    #[should_panic(expected = "LinkFlap names client")]
    fn link_flap_bounds_checked_at_install() {
        let mut tb = Testbed::builder().server_threads(1).build();
        let plan = FaultPlan::seeded(1).with_event(
            SimTime::ZERO,
            FaultKind::LinkFlap {
                client: 99,
                down_for: SimDuration::from_millis(1),
            },
        );
        let _ = install(&plan, &mut tb);
    }
}
