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
//! The queue is a two-level hierarchical timer wheel rather than a binary
//! heap. Events land in one of three places based on how far ahead of the
//! wheel cursor they are:
//!
//! * a **current** min-heap for events inside the cursor's ~1&micro;s tick
//!   (this is where same-instant FIFO ordering is resolved),
//! * a **near wheel** of [`WHEEL_SLOTS`] buckets, one per tick, covering the
//!   next ~4ms — insert is O(1) here, and advancing the cursor
//!   is a bitmap scan,
//! * a **far** min-heap for everything beyond the wheel horizon, re-homed
//!   into the wheel in batches as the cursor advances.
//!
//! Events live inline in a slab with an intrusive free list, so steady-state
//! scheduling reuses nodes and bucket capacity instead of allocating. An
//! event, once queued, runs: what a simulation replaces is a party's next
//! poll, and that lives in a **wake slot** beside the wheel (one per
//! party, indexed by the world). Arming a slot earlier rewrites it in
//! place with a fresh sequence number, and [`Ctx::take_due`] clears it, so
//! no dead event is left behind anywhere. A world that wants an open-ended
//! cold event says so in its own enum, with a variant that boxes a closure.
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

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

use crate::time::{SimDuration, SimTime};

/// A plain-data event over world `W`.
///
/// Implement this on a cheap enum describing the events of a simulation,
/// then schedule values of it with [`Ctx::schedule_event_at`] and friends.
/// The value is stored inline in the queue's node slab — no per-event heap
/// allocation.
pub trait TypedEvent<W>: 'static {
    /// Consumes the event, applying it to the world.
    fn dispatch(self, world: &mut W, ctx: &mut Ctx<'_, W, Self>)
    where
        Self: Sized;
}

/// Nanoseconds per wheel tick, as a shift: 1024ns, or roughly 1us.
const TICK_SHIFT: u32 = 10;
/// Number of near-wheel buckets; the wheel spans `WHEEL_SLOTS << TICK_SHIFT`
/// nanoseconds (~4.2ms) ahead of the cursor.
const WHEEL_SLOTS: usize = 4096;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;
/// Entries each bucket is built for: a `Vec<u32>` grows 0 → 4 → 8 (DESIGN §7.1).
const BUCKET_CAP: usize = 8;
/// Sentinel for "no node" in the slab free list.
const NIL: u32 = u32::MAX;

#[inline]
fn tick_of(at: SimTime) -> u64 {
    at.as_nanos() >> TICK_SHIFT
}

/// Slab node holding one scheduled event.
struct Node<E> {
    at: SimTime,
    seq: u64,
    /// `None` while the node is on the free list.
    event: Option<E>,
    /// Free-list link, `NIL` while the node is live.
    next_free: u32,
}

/// A party's one pending wake, ordered like any event by `(at, seq)`.
/// `event` is taken when the wake dispatches; the slot then stays armed at
/// that instant until [`Ctx::take_due`] clears it, so the party cannot be
/// re-armed while its own wake runs.
struct Wake<E> {
    at: SimTime,
    seq: u64,
    event: Option<E>,
}

/// The two-level timer-wheel event queue, plus the wake slots.
///
/// Ordering invariants:
/// * every event in `current` is earlier than every event in a wheel bucket
///   (current holds ticks `<= base_tick`, the wheel holds ticks
///   `(base_tick, base_tick + WHEEL_SLOTS)`),
/// * every event in the wheel is earlier than every event in `far`
///   (`far` only holds ticks `>= base_tick + WHEEL_SLOTS`; `advance_to`
///   re-homes far events whenever `base_tick` moves forward),
/// * `next_wake` is the earliest queued wake's (time, seq, slot).
struct EventQueue<E> {
    nodes: Vec<Node<E>>,
    free_head: u32,
    /// Per-slot buckets of slab indexes; capacity is retained across drains.
    wheel: Vec<Vec<u32>>,
    /// One bit per slot: does the bucket contain any entry?
    occupancy: [u64; WHEEL_WORDS],
    /// Entries currently stored in wheel buckets.
    wheel_count: usize,
    /// Tick the wheel cursor is parked on.
    base_tick: u64,
    /// Events at or before the cursor tick, ordered by (time, seq).
    current: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Events beyond the wheel horizon, ordered by (time, seq).
    far: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Events in the slab (wakes not included).
    len: usize,
    /// Monotonic tie-break so same-instant events run in schedule order.
    seq: u64,
    /// Wake slots, indexed by the world; grown on first arm.
    wakes: Vec<Option<Wake<E>>>,
    /// The earliest queued wake's (time, seq, slot), if any is queued.
    next_wake: Option<(SimTime, u64, usize)>,
}

/// Outcome of asking the queue for its next event.
enum Pop<E> {
    /// The earliest event, removed from the queue.
    Event { at: SimTime, event: E },
    /// The earliest event is after the deadline; nothing was removed.
    Deadline,
    /// No events at all.
    Empty,
}

impl<E> EventQueue<E> {
    fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free_head: NIL,
            wheel: Vec::from_iter((0..WHEEL_SLOTS).map(|_| Vec::with_capacity(BUCKET_CAP))),
            occupancy: [0; WHEEL_WORDS],
            wheel_count: 0,
            base_tick: 0,
            // Built, like the buckets it drains, for more than a tick holds:
            // a heap that first doubled late in a run would do so at an
            // instant only the seed decides.
            current: BinaryHeap::with_capacity(4 * BUCKET_CAP),
            far: BinaryHeap::new(),
            len: 0,
            seq: 0,
            wakes: Vec::new(),
            next_wake: None,
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    fn alloc(&mut self, at: SimTime, seq: u64, event: E) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.nodes[idx as usize];
            self.free_head = node.next_free;
            node.at = at;
            node.seq = seq;
            node.event = Some(event);
            node.next_free = NIL;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("event slab exceeds u32 indexes");
            self.nodes.push(Node {
                at,
                seq,
                event: Some(event),
                next_free: NIL,
            });
            idx
        }
    }

    /// Takes node `idx`'s event and puts the node on the free list.
    fn take(&mut self, idx: u32) -> Option<E> {
        let node = &mut self.nodes[idx as usize];
        node.next_free = self.free_head;
        self.free_head = idx;
        self.len -= 1;
        node.event.take()
    }

    /// Files a live node into current/wheel/far based on its tick.
    fn place(&mut self, idx: u32) {
        let Node { at, seq, .. } = self.nodes[idx as usize];
        let tick = tick_of(at);
        if tick <= self.base_tick {
            self.current.push(Reverse((at, seq, idx)));
        } else if tick - self.base_tick < WHEEL_SLOTS as u64 {
            let slot = (tick as usize) & (WHEEL_SLOTS - 1);
            self.wheel[slot].push(idx);
            self.occupancy[slot >> 6] |= 1 << (slot & 63);
            self.wheel_count += 1;
        } else {
            self.far.push(Reverse((at, seq, idx)));
        }
    }

    /// Queues `event` at `at`, which must not be before `now`.
    fn insert(&mut self, now: SimTime, at: SimTime, event: E) {
        assert!(at >= now, "cannot schedule into the past ({at} < {now})");
        let seq = self.next_seq();
        let idx = self.alloc(at, seq, event);
        self.place(idx);
        self.len += 1;
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

    /// First occupied wheel slot at or after the cursor, with its tick.
    fn next_occupied_slot(&self) -> Option<(usize, u64)> {
        if self.wheel_count == 0 {
            return None;
        }
        let start = (self.base_tick as usize) & (WHEEL_SLOTS - 1);
        let start_word = start >> 6;
        let start_bit = start & 63;
        for step in 0..=WHEEL_WORDS {
            let word_idx = (start_word + step) % WHEEL_WORDS;
            let mut word = self.occupancy[word_idx];
            if step == 0 {
                word &= !0u64 << start_bit;
            } else if step == WHEEL_WORDS {
                word &= !(!0u64 << start_bit);
            }
            if word != 0 {
                let slot = (word_idx << 6) + word.trailing_zeros() as usize;
                let dist = (slot + WHEEL_SLOTS - start) & (WHEEL_SLOTS - 1);
                return Some((slot, self.base_tick + dist as u64));
            }
        }
        None
    }

    /// Moves the cursor to `tick`, draining that tick's bucket into
    /// `current` and re-homing far events that now fall inside the horizon.
    fn advance_to(&mut self, tick: u64, slot: usize) {
        self.base_tick = tick;
        let mut bucket = std::mem::take(&mut self.wheel[slot]);
        self.occupancy[slot >> 6] &= !(1 << (slot & 63));
        self.wheel_count -= bucket.len();
        for idx in bucket.drain(..) {
            let node = &self.nodes[idx as usize];
            self.current.push(Reverse((node.at, node.seq, idx)));
        }
        // Hand the (empty, but with retained capacity) Vec back to the slot.
        self.wheel[slot] = bucket;
        self.rehome_far();
    }

    /// Pulls far events whose tick is now inside the wheel horizon.
    ///
    /// Maintains the invariant that `far` only holds ticks
    /// `>= base_tick + WHEEL_SLOTS`, so the wheel's next occupied slot is
    /// always earlier than everything in `far`.
    fn rehome_far(&mut self) {
        let horizon = self.base_tick + WHEEL_SLOTS as u64;
        while let Some(&Reverse((at, _, idx))) = self.far.peek() {
            if tick_of(at) >= horizon {
                break;
            }
            self.far.pop();
            self.place(idx);
        }
    }

    /// Removes and returns the earliest event at or before the deadline:
    /// the head of current/wheel/far or the earliest queued wake, whichever
    /// is earlier by (time, seq).
    fn pop_next(&mut self, deadline: SimTime) -> Pop<E> {
        let wake = self.next_wake.map(|(at, seq, _)| (at, seq));
        loop {
            // 1. Drain the current-tick heap first: everything in it is
            //    earlier than anything in the wheel or far heap.
            if let Some(&Reverse((at, seq, idx))) = self.current.peek() {
                if wake.is_some_and(|w| w < (at, seq)) {
                    break;
                }
                if at > deadline {
                    return Pop::Deadline;
                }
                self.current.pop();
                let event = self.take(idx).expect("queued node lost its event");
                return Pop::Event { at, event };
            }
            // 2. Advance the cursor to the next occupied wheel slot and spill
            //    that bucket into `current`; with the wheel empty, jump it
            //    to the far heap's earliest tick.
            let (tick, slot) = if let Some((slot, tick)) = self.next_occupied_slot() {
                (tick, Some(slot))
            } else if let Some(&Reverse((at, ..))) = self.far.peek() {
                (tick_of(at), None)
            } else {
                break;
            };
            // Every event of a tick is at or after its first nanosecond: a
            // wake before it comes first, and a tick starting beyond the
            // deadline holds nothing due.
            let start = SimTime::from_nanos(tick << TICK_SHIFT);
            if wake.is_some_and(|(at, _)| at < start) {
                break;
            }
            if start > deadline {
                return Pop::Deadline;
            }
            match slot {
                Some(slot) => self.advance_to(tick, slot),
                None => {
                    self.base_tick = tick;
                    self.rehome_far();
                }
            }
        }
        let Some((at, _, i)) = self.next_wake else {
            return Pop::Empty;
        };
        if at > deadline {
            return Pop::Deadline;
        }
        let event = (self.wakes[i].as_mut())
            .and_then(|wake| wake.event.take())
            .expect("next_wake names a queued wake");
        self.refresh_next_wake();
        Pop::Event { at, event }
    }
}

/// Scheduling context passed to every event handler.
///
/// The context borrows the engine's event queue directly, so events
/// scheduled through it go straight into the timer wheel with no
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
            .field("queued", &self.queue.len)
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

/// What [`Engine::dispatch_next`] did.
enum Dispatched {
    /// Ran one event at the contained instant.
    Ran(SimTime),
    /// The next event is after the deadline.
    Deadline,
    /// The queue is empty.
    Idle,
}

/// A deterministic discrete-event engine over a world `W`.
///
/// See the module documentation for an example and a description of the
/// timer-wheel queue.
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
            .field("queued", &self.queue.len)
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

    /// Dispatches the earliest event at or before `deadline`, if any.
    ///
    /// This is the single dispatch path shared by [`Engine::step`] and
    /// [`Engine::run_until`].
    fn dispatch_next(&mut self, deadline: SimTime) -> Dispatched {
        match self.queue.pop_next(deadline) {
            Pop::Empty => Dispatched::Idle,
            Pop::Deadline => Dispatched::Deadline,
            Pop::Event { at, event } => {
                debug_assert!(at >= self.now, "event queue emitted a past event");
                self.now = at;
                self.dispatched += 1;
                let mut ctx = Ctx {
                    now: at,
                    queue: &mut self.queue,
                    _world: PhantomData,
                };
                event.dispatch(&mut self.world, &mut ctx);
                Dispatched::Ran(at)
            }
        }
    }

    /// Dispatches the single earliest event, if any, advancing the clock.
    pub fn step(&mut self) -> Step {
        match self.dispatch_next(SimTime::from_nanos(u64::MAX)) {
            Dispatched::Ran(at) => Step::Ran(at),
            Dispatched::Deadline | Dispatched::Idle => Step::Idle,
        }
    }

    /// Runs until the queue drains or the deadline passes, leaving the
    /// clock at `deadline`; events scheduled after it stay queued.
    pub(crate) fn run_until(&mut self, deadline: SimTime) {
        while let Dispatched::Ran(_) = self.dispatch_next(deadline) {}
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
        assert_eq!(e.queue.len, 1);
        e.run_until(SimTime::from_micros(100));
        assert_eq!(e.world(), &[1, 2]);
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
        assert_eq!((now, e.dispatched(), e.queue.len), (e.now(), 0, 1));
        e.run_until(SimTime::from_micros(8));
        assert_eq!((e.world().as_slice(), e.dispatched()), (&[0, 1][..], 1));
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
    fn events_beyond_wheel_horizon_run_in_order() {
        // Mix near-wheel and far-heap events; the far heap covers everything
        // past ~4.2ms.
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
    fn far_events_interleave_with_later_wheel_inserts() {
        // Regression shape: an event far beyond the horizon must still run
        // before a nearer event scheduled later from inside the wheel window.
        let mut e = engine();
        e.schedule_event_at(SimTime::from_millis(5), Push(2));
        // The follow-up is scheduled while the cursor sits at ~4ms: it lands
        // in the wheel, but after the 5ms far event above.
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
    fn typed_event_churn_reuses_slab_nodes() {
        #[derive(Clone, Copy)]
        struct Tick;
        impl TypedEvent<u64> for Tick {
            fn dispatch(self, world: &mut u64, _ctx: &mut Ctx<'_, u64, Self>) {
                *world += 1;
            }
        }
        let mut e: Engine<u64, Tick> = Engine::with_events(0);
        for round in 0..1_000u64 {
            e.schedule_event_at(e.now() + SimDuration::from_nanos(round % 97 + 1), Tick);
            e.run_to_completion();
        }
        assert_eq!(*e.world(), 1_000);
        assert!(
            e.queue.nodes.len() <= 2,
            "slab grew to {} nodes despite one-at-a-time churn",
            e.queue.nodes.len()
        );
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
        assert!(e.queue.wakes.iter().all(Option::is_none), "all serviced");
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
        // Re-armed earlier, beyond the wheel and then at `t` from an event
        // at 1us: the wake takes the seq of its last arm, after every push
        // (its first arm's seq sat between Push(1) and Push(2)).
        assert_eq!(arm(&mut e, far - SimDuration::from_millis(1)), Some(true));
        e.schedule_event_at(SimTime::from_micros(1), Ev::Arm(t));
        e.schedule_event_at(t, Ev::Push(3));
        e.run_until(SimTime::from_millis(100));
        assert_eq!(e.world(), &[1, 2, 3, 99]);
        assert_eq!(e.queue.next_wake, None);
    }
}
