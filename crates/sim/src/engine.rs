//! The discrete-event engine.
//!
//! [`Engine`] owns a user-supplied *world* (the mutable simulation state) and
//! a time-ordered queue of events. An event is a plain value of the world's
//! [`TypedEvent`] type; dispatching it consumes the value with exclusive
//! access to the world plus a [`Ctx`] handle for scheduling follow-up
//! events. Events at the same instant run in FIFO scheduling order, which
//! makes runs fully deterministic.
//!
//! # Queue internals
//!
//! Events wait inline in one [`TimeHeap`] keyed by `(instant, seq)`, `seq`
//! from one counter, so ties at an instant leave in scheduling order. An
//! event, once queued, runs: what a simulation replaces is a party's next
//! poll, and that lives in a **wake slot** beside the heap (one per party,
//! indexed by the world). Arming a slot earlier rewrites it in place with
//! a fresh sequence number, and [`Ctx::take_due`] clears it, so no dead
//! event is left behind anywhere. A world that wants an open-ended cold
//! event says so in its own enum, with a variant that boxes a closure.
//!
//! # Examples
//!
//! ```
//! use reflex_sim::{Ctx, Engine, SimDuration, SimTime, TypedEvent};
//!
//! /// Adds `n` to the count, then chains `more` events of ten times that.
//! struct Add {
//!     n: u32,
//!     more: u32,
//! }
//!
//! impl TypedEvent<u32> for Add {
//!     fn dispatch(self, count: &mut u32, ctx: &mut Ctx<'_, u32, Self>) {
//!         *count += self.n;
//!         if let Some(more) = self.more.checked_sub(1) {
//!             // Chain a follow-up event 5us later.
//!             ctx.schedule_event_after(SimDuration::from_micros(5), Add { n: self.n * 10, more });
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::with_events(0u32);
//! engine.schedule_event_at(SimTime::from_micros(5), Add { n: 1, more: 1 });
//! engine.run_for(SimDuration::from_micros(100));
//! assert_eq!(*engine.world(), 11);
//! // The clock advances to the deadline once the queue drains.
//! assert_eq!(engine.now(), SimTime::from_micros(100));
//! ```

use std::marker::PhantomData;

use crate::heap::{time_key, TimeHeap};
use crate::time::{SimDuration, SimTime};

/// A plain-data event over world `W`.
///
/// Implement this on a cheap enum describing the events of a simulation,
/// then schedule values of it with [`Ctx::schedule_event_at`] and friends.
/// The value is stored inline in the queue — no per-event heap allocation.
pub trait TypedEvent<W>: 'static {
    /// Consumes the event, applying it to the world.
    fn dispatch(self, world: &mut W, ctx: &mut Ctx<'_, W, Self>)
    where
        Self: Sized;
}

/// Events the heap is built with room for (DESIGN §7.1).
const QUEUE_RESERVE: usize = 64;

/// A party's one pending wake, ordered like any event by `(at, seq)`.
/// `event` is taken when the wake dispatches; the slot then stays armed at
/// that instant until [`Ctx::take_due`] clears it, so the party cannot be
/// re-armed while its own wake runs.
struct Wake<E> {
    at: SimTime,
    seq: u64,
    event: Option<E>,
}

/// The event heap, plus the wake slots. `next_wake` is the earliest
/// queued wake's (time, seq, slot).
struct EventQueue<E> {
    heap: TimeHeap<E>,
    /// Monotonic tie-break so same-instant events run in schedule order.
    seq: u64,
    /// Wake slots, indexed by the world; grown on first arm.
    wakes: Vec<Option<Wake<E>>>,
    /// The earliest queued wake's (time, seq, slot), if any is queued.
    next_wake: Option<(SimTime, u64, usize)>,
}

impl<E> EventQueue<E> {
    fn new() -> Self {
        EventQueue {
            // Built for more than a world queues (a few events, about one
            // per open-loop tenant): a heap that first doubled late in a
            // run would do so at an instant only the seed decides.
            heap: TimeHeap::with_capacity(QUEUE_RESERVE),
            seq: 0,
            wakes: Vec::new(),
            next_wake: None,
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// Queues `event` at `at`, which must not be before `now`.
    fn insert(&mut self, now: SimTime, at: SimTime, event: E) {
        assert!(at >= now, "cannot schedule into the past ({at} < {now})");
        let seq = self.next_seq();
        self.heap.push(at, seq, event);
    }

    /// Arms wake slot `i` at `at` (no earlier than `now`). A wake already
    /// armed at or before `at` makes this a no-op (`None`); otherwise the
    /// slot is rewritten with a fresh seq, and `Some(replaced)` says
    /// whether a queued wake was superseded.
    fn arm(&mut self, now: SimTime, i: usize, at: SimTime, event: E) -> Option<bool> {
        let at = at.max(now);
        if i >= self.wakes.len() {
            self.wakes.resize_with(i + 1, || None);
        }
        let replaced = match &self.wakes[i] {
            Some(pending) if at >= pending.at => return None,
            pending => pending.is_some(),
        };
        let seq = self.next_seq();
        self.wakes[i] = Some(Wake {
            at,
            seq,
            event: Some(event),
        });
        if self.next_wake.is_none_or(|next| next > (at, seq, i)) {
            self.next_wake = Some((at, seq, i));
        }
        Some(replaced)
    }

    /// Clears slot `i` if it is armed at or before `now`: `Some(true)` if
    /// its wake was still queued, `Some(false)` if it is the one
    /// dispatching, `None` if it was not due.
    fn take_due(&mut self, now: SimTime, i: usize) -> Option<bool> {
        let slot = self.wakes.get_mut(i)?;
        let wake = slot.take_if(|w| w.at <= now)?;
        let queued = wake.event.is_some();
        if self.next_wake.is_some_and(|(.., next)| next == i) {
            self.refresh_next_wake();
        }
        Some(queued)
    }

    /// Finds the earliest queued wake: a scan, as a world has a handful of
    /// parties and a dispatch or take of the earliest is all that moves it.
    fn refresh_next_wake(&mut self) {
        self.next_wake = (self.wakes.iter().enumerate())
            .filter_map(|(i, w)| {
                w.as_ref()
                    .filter(|w| w.event.is_some())
                    .map(|w| (w.at, w.seq, i))
            })
            .min();
    }

    /// Removes and returns the earliest event at or before the deadline:
    /// the heap's head or the earliest queued wake, whichever is earlier
    /// by (time, seq).
    fn pop_next(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let head = self.heap.peek_key();
        match self.next_wake {
            Some((at, seq, i)) if head.is_none_or(|head| time_key(at, seq) < head) => {
                if at > deadline {
                    return None;
                }
                let event = (self.wakes[i].as_mut())
                    .and_then(|wake| wake.event.take())
                    .expect("next_wake names a queued wake");
                self.refresh_next_wake();
                Some((at, event))
            }
            _ => self.heap.pop_due(deadline),
        }
    }
}

/// Scheduling context passed to every event handler.
///
/// The context borrows the engine's event queue directly, so events
/// scheduled through it go straight into the heap with no
/// intermediate buffering; they may be at the current instant (they will
/// run after all previously-queued events for that instant) or in the future.
pub struct Ctx<'e, W, E> {
    now: SimTime,
    queue: &'e mut EventQueue<E>,
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E> std::fmt::Debug for Ctx<'_, W, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("queue", &self.queue.heap)
            .finish()
    }
}

impl<W, E> Ctx<'_, W, E> {
    /// The current simulation instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current instant.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) {
        self.queue.insert(self.now, at, event);
    }

    /// Schedules `event` to run `delay` after the current instant.
    pub fn schedule_event_after(&mut self, delay: SimDuration, event: E) {
        self.queue.insert(self.now, self.now + delay, event);
    }

    /// Arms wake slot `slot` (one per pollable party: a server thread, a
    /// client machine) with `event` at `at`, or now if `at` has passed. A
    /// wake already armed at or before that instant makes this a no-op
    /// (`None`); a later one is rewritten in place, ordered as if
    /// scheduled now, and `Some(replaced)` says whether one was queued.
    pub fn arm(&mut self, slot: usize, at: SimTime, event: E) -> Option<bool> {
        self.queue.arm(self.now, slot, at, event)
    }

    /// Clears `slot` if its wake is due, which services it now: `None` if
    /// it is not armed at or before now, `Some(true)` if its wake was still
    /// queued (a sibling services it), `Some(false)` if its wake is the
    /// event dispatching. Callers walk the slots ascending, so the service
    /// order at an instant depends only on the due set.
    pub fn take_due(&mut self, slot: usize) -> Option<bool> {
        self.queue.take_due(self.now, slot)
    }

    /// Whether `slot` has a wake armed (its own dispatch included, until
    /// [`take_due`](Self::take_due)).
    pub fn is_armed(&self, slot: usize) -> bool {
        self.queue.wakes.get(slot).is_some_and(Option::is_some)
    }
}

/// Outcome of a single [`Engine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// An event was dispatched at the contained instant.
    Ran(SimTime),
    /// The queue was empty; nothing ran.
    Idle,
}

/// A deterministic discrete-event engine over a world `W`.
///
/// See the module documentation for an example and a description of the
/// queue: one [`TimeHeap`] of events plus a wake slot per party.
pub struct Engine<W, E> {
    world: W,
    queue: EventQueue<E>,
    now: SimTime,
    dispatched: u64,
}

impl<W: std::fmt::Debug, E> std::fmt::Debug for Engine<W, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("queue", &self.queue.heap)
            .field("dispatched", &self.dispatched)
            .field("world", &self.world)
            .finish()
    }
}

impl<W, E: TypedEvent<W>> Engine<W, E> {
    /// Creates an engine at `t=0` wrapping `world`, dispatching events of type `E`.
    pub fn with_events(world: W) -> Self {
        Engine {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// The current simulation instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (for setup and inspection between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Schedules `event` at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current instant.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) {
        self.queue.insert(self.now, at, event);
    }

    /// Runs `f` with the world and a scheduling context at the current
    /// instant — what an event handler gets, with no event dispatched:
    /// [`dispatched`](Self::dispatched) does not move.
    pub fn with_ctx<R>(&mut self, f: impl FnOnce(&mut W, &mut Ctx<'_, W, E>) -> R) -> R {
        let mut ctx = Ctx {
            now: self.now,
            queue: &mut self.queue,
            _world: PhantomData,
        };
        f(&mut self.world, &mut ctx)
    }

    /// Dispatches the earliest event at or before `deadline`, if any,
    /// returning its instant.
    ///
    /// This is the single dispatch path shared by [`Engine::step`] and
    /// [`Engine::run_until`].
    fn dispatch_next(&mut self, deadline: SimTime) -> Option<SimTime> {
        let (at, event) = self.queue.pop_next(deadline)?;
        debug_assert!(at >= self.now, "event queue emitted a past event");
        self.now = at;
        self.dispatched += 1;
        let mut ctx = Ctx {
            now: at,
            queue: &mut self.queue,
            _world: PhantomData,
        };
        event.dispatch(&mut self.world, &mut ctx);
        Some(at)
    }

    /// Dispatches the single earliest event, if any, advancing the clock.
    pub fn step(&mut self) -> Step {
        match self.dispatch_next(SimTime::MAX) {
            Some(at) => Step::Ran(at),
            None => Step::Idle,
        }
    }

    /// Runs until the queue drains or the deadline passes, leaving the
    /// clock at `deadline`; events scheduled after it stay queued.
    pub(crate) fn run_until(&mut self, deadline: SimTime) {
        while self.dispatch_next(deadline).is_some() {}
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `span` of simulated time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    /// Runs until the event queue is completely drained, leaving the clock
    /// at the instant of the last dispatched event.
    pub fn run_to_completion(&mut self) {
        while let Step::Ran(_) = self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Events over a `Vec<u32>` log; every variant pushes its value first.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum TestEvent {
        Push(u32),
        /// Then schedules `Push(v + 100)` 1us later.
        Chain(u32),
        /// Then schedules `Then(v * 10, depth - 1)` 1us later while `depth > 0`.
        Then(u32, u32),
        /// Then schedules `Push(next)` after `delay`.
        Later(u32, SimDuration, u32),
    }
    use TestEvent::{Chain, Later, Push, Then};

    impl TypedEvent<Vec<u32>> for TestEvent {
        fn dispatch(self, world: &mut Vec<u32>, ctx: &mut Ctx<'_, Vec<u32>, Self>) {
            let us = SimDuration::from_micros(1);
            match self {
                Push(v) => world.push(v),
                Chain(v) => {
                    world.push(v);
                    ctx.schedule_event_after(us, Push(v + 100));
                }
                Then(v, depth) => {
                    world.push(v);
                    if depth > 0 {
                        ctx.schedule_event_after(us, Then(v * 10, depth - 1));
                    }
                }
                Later(v, delay, next) => {
                    world.push(v);
                    ctx.schedule_event_after(delay, Push(next));
                }
            }
        }
    }

    fn engine() -> Engine<Vec<u32>, TestEvent> {
        Engine::with_events(Vec::new())
    }

    #[test]
    fn events_run_in_time_order() {
        let mut e = engine();
        e.schedule_event_at(SimTime::from_micros(30), Push(3));
        e.schedule_event_at(SimTime::from_micros(10), Push(1));
        e.schedule_event_at(SimTime::from_micros(20), Push(2));
        e.run_until(SimTime::from_millis(1));
        assert_eq!(e.world(), &[1, 2, 3]);
    }

    #[test]
    fn same_instant_events_run_fifo() {
        let mut e = engine();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            e.schedule_event_at(t, Push(i));
        }
        e.run_until(t);
        assert_eq!(e.world(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut e = engine();
        e.schedule_event_at(SimTime::from_micros(1), Then(1, 2));
        e.run_until(SimTime::from_micros(10));
        assert_eq!(e.world(), &[1, 10, 100]);
        assert_eq!(e.dispatched(), 3);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut e = engine();
        e.schedule_event_at(SimTime::from_micros(5), Push(1));
        e.schedule_event_at(SimTime::from_micros(50), Push(2));
        e.run_until(SimTime::from_micros(10));
        assert_eq!(e.world(), &[1]);
        assert_eq!(e.now(), SimTime::from_micros(10));
        e.run_until(SimTime::from_micros(100));
        assert_eq!(e.world(), &[1, 2]);
        assert_eq!(e.step(), Step::Idle, "the later event ran once");
    }

    #[test]
    fn with_ctx_schedules_without_dispatching() {
        let mut e = engine();
        e.run_until(SimTime::from_micros(7));
        let now = e.with_ctx(|world, ctx| {
            world.push(0);
            ctx.schedule_event_after(SimDuration::from_micros(1), Push(1));
            ctx.now()
        });
        assert_eq!((now, e.dispatched()), (e.now(), 0));
        e.run_until(SimTime::from_micros(8));
        assert_eq!((e.world().as_slice(), e.dispatched()), (&[0, 1][..], 1));
        assert_eq!(e.step(), Step::Idle);
    }

    #[test]
    fn step_reports_idle_on_empty_queue() {
        let mut e = engine();
        assert_eq!(e.step(), Step::Idle);
        e.schedule_event_at(SimTime::from_micros(2), Push(0));
        assert_eq!(e.step(), Step::Ran(SimTime::from_micros(2)));
        assert_eq!(e.step(), Step::Idle);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut e = engine();
        e.schedule_event_at(SimTime::from_micros(10), Push(0));
        e.run_until(SimTime::from_micros(10));
        e.schedule_event_at(SimTime::from_micros(5), Push(0));
    }

    #[test]
    fn run_for_advances_relative_to_now() {
        let mut e = engine();
        e.schedule_event_at(SimTime::from_micros(5), Push(1));
        e.run_for(SimDuration::from_micros(3));
        assert_eq!(e.now(), SimTime::from_micros(3));
        assert!(e.world().is_empty());
        e.run_for(SimDuration::from_micros(3));
        assert_eq!(e.world(), &[1]);
        assert_eq!(e.now(), SimTime::from_micros(6));
    }

    #[test]
    fn heavy_interleaving_is_deterministic() {
        fn run() -> Vec<u32> {
            let mut e = engine();
            for i in 0..100u32 {
                let at = SimTime::from_nanos(u64::from(i * 37 % 500));
                if i % 3 == 0 {
                    let delay = SimDuration::from_nanos(u64::from(i % 7));
                    e.schedule_event_at(at, Later(i, delay, 1000 + i));
                } else {
                    e.schedule_event_at(at, Push(i));
                }
            }
            e.run_until(SimTime::from_micros(10));
            e.world().clone()
        }
        assert_eq!(run(), run());
        assert_eq!(run().len(), 134);
    }

    #[test]
    fn events_far_apart_run_in_order() {
        // From a microsecond to a second ahead, scheduled out of order.
        let mut e = engine();
        e.schedule_event_at(SimTime::from_millis(100), Push(4));
        e.schedule_event_at(SimTime::from_micros(1), Push(1));
        e.schedule_event_at(SimTime::from_millis(10), Push(3));
        e.schedule_event_at(SimTime::from_millis(2), Push(2));
        e.schedule_event_at(SimTime::from_secs(1), Push(5));
        e.run_until(SimTime::from_secs(2));
        assert_eq!(e.world(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_queued_event_runs_before_a_later_one_scheduled_after_it() {
        // An event queued from the start must still run before one
        // scheduled later, from a handler, for an instant after it.
        let mut e = engine();
        e.schedule_event_at(SimTime::from_millis(5), Push(2));
        // The follow-up is scheduled at 4ms, for 6ms: after the 5ms event.
        e.schedule_event_at(
            SimTime::from_millis(4),
            Later(1, SimDuration::from_millis(2), 3),
        );
        e.run_until(SimTime::from_millis(10));
        assert_eq!(e.world(), &[1, 2, 3]);
    }

    #[test]
    fn different_variants_interleave_in_fifo_order() {
        let mut e = engine();
        let t = SimTime::from_micros(5);
        e.schedule_event_at(t, Push(1));
        e.schedule_event_at(t, Chain(2));
        e.schedule_event_at(t, Push(3));
        e.run_until(SimTime::from_micros(10));
        assert_eq!(e.world(), &[1, 2, 3, 102]);
    }

    #[test]
    fn typed_events_chain_and_reschedule() {
        let mut e = engine();
        e.schedule_event_at(SimTime::from_micros(1), Chain(7));
        e.run_until(SimTime::from_micros(10));
        assert_eq!(e.world(), &[7, 107]);
        assert_eq!(e.dispatched(), 2);
    }

    #[test]
    fn typed_event_churn_runs_each_event_once() {
        #[derive(Clone, Copy)]
        struct Tick;
        impl TypedEvent<u64> for Tick {
            fn dispatch(self, world: &mut u64, _ctx: &mut Ctx<'_, u64, Self>) {
                *world += 1;
            }
        }
        let mut e: Engine<u64, Tick> = Engine::with_events(0);
        let mut at = SimTime::ZERO;
        for round in 0..1_000u64 {
            at += SimDuration::from_nanos(round % 97 + 1);
            e.schedule_event_at(at, Tick);
            e.run_to_completion();
            assert_eq!((e.now(), e.step()), (at, Step::Idle), "round {round}");
        }
        assert_eq!((*e.world(), e.dispatched()), (1_000, 1_000));
    }

    #[test]
    fn wake_slots_keep_one_wake_each_and_service_the_due_set() {
        struct World {
            serviced: Vec<(SimTime, usize)>,
            tallies: [u32; 3],
        }
        #[derive(Clone, Copy)]
        enum Ev {
            Arm(usize, SimTime),
            Wake,
        }
        impl TypedEvent<World> for Ev {
            fn dispatch(self, w: &mut World, ctx: &mut Ctx<'_, World, Self>) {
                match self {
                    Ev::Arm(i, at) => match ctx.arm(i, at, Ev::Wake) {
                        None => w.tallies[0] += 1,
                        Some(replaced) => w.tallies[1 + usize::from(replaced)] += 1,
                    },
                    Ev::Wake => {
                        for i in 0..3 {
                            if let Some(queued) = ctx.take_due(i) {
                                w.serviced.push((ctx.now(), i));
                                w.tallies[2] += u32::from(queued);
                            }
                        }
                    }
                }
            }
        }
        let us = SimTime::from_micros;
        let mut e = Engine::with_events(World {
            serviced: Vec::new(),
            tallies: [0; 3],
        });
        // Slot 0: armed at 10, a later request is a no-op, an earlier one
        // rewrites it. Slot 1 shares slot 0's instant; slot 2 is on its own.
        for (i, at) in [(0, 10), (0, 20), (0, 5), (1, 5), (2, 7)] {
            e.schedule_event_at(SimTime::ZERO, Ev::Arm(i, us(at)));
        }
        e.run_to_completion();
        // Slot 0's wake services slot 1 too, whose queued wake goes with it.
        assert_eq!(e.world().serviced, [(us(5), 0), (us(5), 1), (us(7), 2)]);
        // One no-op; four armed, one of them replacing; two superseded.
        assert_eq!(e.world().tallies, [1, 3, 1 + 1]);
        let armed = e.with_ctx(|_, ctx| (0..3).filter(|&i| ctx.is_armed(i)).count());
        assert_eq!(armed, 0, "all serviced");
        assert_eq!(e.dispatched(), 5 + 2);
    }

    #[test]
    fn a_wake_runs_in_its_seq_turn_among_same_instant_events() {
        #[derive(Clone, Copy)]
        enum Ev {
            Push(u32),
            Arm(SimTime),
            Wake,
        }
        impl TypedEvent<Vec<u32>> for Ev {
            fn dispatch(self, log: &mut Vec<u32>, ctx: &mut Ctx<'_, Vec<u32>, Self>) {
                match self {
                    Ev::Push(v) => log.push(v),
                    Ev::Arm(at) => {
                        ctx.arm(0, at, Ev::Wake);
                    }
                    Ev::Wake => {
                        // Its own slot stays armed until taken: no re-arm.
                        assert_eq!(ctx.arm(0, ctx.now(), Ev::Wake), None);
                        assert_eq!(ctx.take_due(0), Some(false));
                        log.push(99);
                    }
                }
            }
        }
        let mut e: Engine<Vec<u32>, Ev> = Engine::with_events(Vec::new());
        let (t, far) = (SimTime::from_micros(5), SimTime::from_millis(50));
        let arm = |e: &mut Engine<_, _>, at| e.with_ctx(|_, ctx| ctx.arm(0, at, Ev::Wake));
        e.schedule_event_at(t, Ev::Push(1));
        assert_eq!(arm(&mut e, far), Some(false));
        e.schedule_event_at(t, Ev::Push(2));
        // Re-armed earlier, at 49ms and then at `t` from an event at
        // 1us: the wake takes the seq of its last arm, after every push
        // (its first arm's seq sat between Push(1) and Push(2)).
        assert_eq!(arm(&mut e, far - SimDuration::from_millis(1)), Some(true));
        e.schedule_event_at(SimTime::from_micros(1), Ev::Arm(t));
        e.schedule_event_at(t, Ev::Push(3));
        e.run_until(SimTime::from_millis(100));
        assert_eq!(e.world(), &[1, 2, 3, 99]);
        assert!(
            !e.with_ctx(|_, ctx| ctx.is_armed(0)),
            "taken by its own wake"
        );
        assert_eq!(e.step(), Step::Idle);
    }
}
