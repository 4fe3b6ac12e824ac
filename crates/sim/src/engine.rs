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
//!   next ~4ms — insert and cancel are O(1) here, and advancing the cursor
//!   is a bitmap scan,
//! * a **far** min-heap for everything beyond the wheel horizon, re-homed
//!   into the wheel in batches as the cursor advances.
//!
//! Events live inline in a slab with an intrusive free list, so steady-state
//! scheduling reuses nodes and bucket capacity instead of allocating.
//! [`EventHandle`]s are generation-checked indexes into that slab, which
//! makes cancellation O(1) and ABA-safe. A world that wants an open-ended
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
//! engine.schedule_event_after(SimDuration::from_micros(5), Add { n: 1, more: 1 });
//! engine.run_until(SimTime::from_micros(100));
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

/// A cancellable reference to a scheduled event.
///
/// Returned by the `*_handle` scheduling methods. Handles are
/// generation-checked: once the event has run or been cancelled, the handle
/// goes stale and further [`Engine::cancel`]/[`Ctx::cancel`] calls return
/// `false`, even if the underlying slab slot has been reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    index: u32,
    gen: u32,
}

/// Where a live node's (time, seq, index) entry currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// In the `current` heap; cancellation is lazy (skipped on pop).
    Current,
    /// In a near-wheel bucket; cancellation eagerly removes the entry.
    Wheel,
    /// In the `far` heap; cancellation is lazy (skipped on pop/re-home).
    Far,
}

/// Slab node holding one scheduled event.
struct Node<E> {
    at: SimTime,
    seq: u64,
    /// Bumped every time the node is freed; stale handles mismatch.
    gen: u32,
    loc: Loc,
    /// `None` once dispatched or cancelled.
    event: Option<E>,
    /// Free-list link, `NIL` while the node is live.
    next_free: u32,
}

/// The two-level timer-wheel event queue.
///
/// Ordering invariants:
/// * every event in `current` is earlier than every event in a wheel bucket
///   (current holds ticks `<= base_tick`, the wheel holds ticks
///   `(base_tick, base_tick + WHEEL_SLOTS)`),
/// * every event in the wheel is earlier than every event in `far`
///   (`far` only holds ticks `>= base_tick + WHEEL_SLOTS`; `advance_to`
///   re-homes far events whenever `base_tick` moves forward).
struct EventQueue<E> {
    nodes: Vec<Node<E>>,
    free_head: u32,
    /// Per-slot buckets of slab indexes; capacity is retained across drains.
    wheel: Vec<Vec<u32>>,
    /// One bit per slot: does the bucket contain any entry?
    occupancy: [u64; WHEEL_WORDS],
    /// Live entries currently stored in wheel buckets.
    wheel_count: usize,
    /// Tick the wheel cursor is parked on.
    base_tick: u64,
    /// Events at or before the cursor tick, ordered by (time, seq).
    current: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Events beyond the wheel horizon, ordered by (time, seq).
    far: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Live (scheduled, not yet dispatched or cancelled) events.
    len: usize,
    /// Monotonic tie-break so same-instant events run in schedule order.
    seq: u64,
}

/// Outcome of asking the queue for its next event.
enum Pop<E> {
    /// The earliest live event, removed from the queue.
    Event { at: SimTime, event: E },
    /// The earliest live event is after the deadline; nothing was removed.
    Deadline,
    /// No live events at all.
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
        }
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
                gen: 0,
                loc: Loc::Current,
                event: Some(event),
                next_free: NIL,
            });
            idx
        }
    }

    fn free(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        node.gen = node.gen.wrapping_add(1);
        node.event = None;
        node.next_free = self.free_head;
        self.free_head = idx;
    }

    /// Files a live node into current/wheel/far based on its tick.
    fn place(&mut self, idx: u32) {
        let (at, seq) = {
            let node = &self.nodes[idx as usize];
            (node.at, node.seq)
        };
        let tick = tick_of(at);
        if tick <= self.base_tick {
            self.nodes[idx as usize].loc = Loc::Current;
            self.current.push(Reverse((at, seq, idx)));
        } else if tick - self.base_tick < WHEEL_SLOTS as u64 {
            let slot = (tick as usize) & (WHEEL_SLOTS - 1);
            self.nodes[idx as usize].loc = Loc::Wheel;
            self.wheel[slot].push(idx);
            self.occupancy[slot >> 6] |= 1 << (slot & 63);
            self.wheel_count += 1;
        } else {
            self.nodes[idx as usize].loc = Loc::Far;
            self.far.push(Reverse((at, seq, idx)));
        }
    }

    /// Queues `event` at `at`, which must not be before `now`.
    fn insert(&mut self, now: SimTime, at: SimTime, event: E) -> EventHandle {
        assert!(at >= now, "cannot schedule into the past ({at} < {now})");
        let seq = self.seq;
        self.seq += 1;
        let idx = self.alloc(at, seq, event);
        self.place(idx);
        self.len += 1;
        EventHandle {
            index: idx,
            gen: self.nodes[idx as usize].gen,
        }
    }

    fn cancel(&mut self, handle: EventHandle) -> bool {
        let Some(node) = self.nodes.get_mut(handle.index as usize) else {
            return false;
        };
        if node.gen != handle.gen || node.event.is_none() {
            return false;
        }
        node.event = None;
        self.len -= 1;
        if node.loc == Loc::Wheel {
            // Wheel entries are removed eagerly so wheel_count and the
            // occupancy bitmap stay exact; heap entries are skipped lazily.
            let slot = (tick_of(node.at) as usize) & (WHEEL_SLOTS - 1);
            let bucket = &mut self.wheel[slot];
            let pos = bucket
                .iter()
                .position(|&i| i == handle.index)
                .expect("wheel node missing from its bucket");
            bucket.swap_remove(pos);
            if bucket.is_empty() {
                self.occupancy[slot >> 6] &= !(1 << (slot & 63));
            }
            self.wheel_count -= 1;
            self.free(handle.index);
        }
        true
    }

    /// First occupied wheel slot at or after the cursor, with its tick.
    ///
    /// Caller must ensure `wheel_count > 0`.
    fn next_occupied_slot(&self) -> (usize, u64) {
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
                return (slot, self.base_tick + dist as u64);
            }
        }
        unreachable!("next_occupied_slot called on an empty wheel");
    }

    /// Moves the cursor to `tick`, draining that tick's bucket into
    /// `current` and re-homing far events that now fall inside the horizon.
    fn advance_to(&mut self, tick: u64, slot: usize) {
        self.base_tick = tick;
        let mut bucket = std::mem::take(&mut self.wheel[slot]);
        self.occupancy[slot >> 6] &= !(1 << (slot & 63));
        self.wheel_count -= bucket.len();
        for idx in bucket.drain(..) {
            let node = &mut self.nodes[idx as usize];
            node.loc = Loc::Current;
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
            if self.nodes[idx as usize].event.is_none() {
                self.free(idx);
            } else {
                self.place(idx);
            }
        }
    }

    /// Removes and returns the earliest live event at or before the
    /// deadline.
    fn pop_next(&mut self, deadline: SimTime) -> Pop<E> {
        let beyond = |at: SimTime| at > deadline;
        loop {
            // 1. Drain the current-tick heap first: everything in it is
            //    earlier than anything in the wheel or far heap.
            if let Some(&Reverse((at, _, idx))) = self.current.peek() {
                if self.nodes[idx as usize].event.is_none() {
                    self.current.pop();
                    self.free(idx);
                    continue;
                }
                if beyond(at) {
                    return Pop::Deadline;
                }
                self.current.pop();
                let event = self.nodes[idx as usize]
                    .event
                    .take()
                    .expect("live node lost its event");
                self.len -= 1;
                self.free(idx);
                return Pop::Event { at, event };
            }
            // 2. Advance the cursor to the next occupied wheel slot and spill
            //    that bucket into `current`.
            if self.wheel_count > 0 {
                let (slot, tick) = self.next_occupied_slot();
                // A slot starting beyond the deadline holds only events
                // beyond it (every event in a slot is at or after the
                // slot's first nanosecond); don't advance into it.
                if beyond(SimTime::from_nanos(tick << TICK_SHIFT)) {
                    return Pop::Deadline;
                }
                self.advance_to(tick, slot);
                continue;
            }
            // 3. Wheel empty: jump the cursor to the far heap's earliest tick.
            while let Some(&Reverse((at, _, idx))) = self.far.peek() {
                if self.nodes[idx as usize].event.is_none() {
                    self.far.pop();
                    self.free(idx);
                    continue;
                }
                if beyond(at) {
                    return Pop::Deadline;
                }
                self.base_tick = tick_of(at);
                self.rehome_far();
                break;
            }
            if self.current.is_empty() && self.wheel_count == 0 && self.far.is_empty() {
                return Pop::Empty;
            }
        }
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
    stop: bool,
    queue: &'e mut EventQueue<E>,
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E> std::fmt::Debug for Ctx<'_, W, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("stop", &self.stop)
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
        self.schedule_event_at_handle(at, event);
    }

    /// Schedules `event` to run `delay` after the current instant.
    pub fn schedule_event_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_event_at_handle(self.now + delay, event);
    }

    /// Schedules `event` at `at`, returning a cancellable handle.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current instant.
    pub fn schedule_event_at_handle(&mut self, at: SimTime, event: E) -> EventHandle {
        self.queue.insert(self.now, at, event)
    }

    /// Schedules `event` after `delay`, returning a cancellable handle.
    pub fn schedule_event_after_handle(&mut self, delay: SimDuration, event: E) -> EventHandle {
        self.schedule_event_at_handle(self.now + delay, event)
    }

    /// Cancels a scheduled event.
    ///
    /// Returns `true` if the event was still pending and is now cancelled;
    /// `false` if it already ran, was already cancelled, or the handle is
    /// stale.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// Requests that the engine stop after the current handler returns.
    ///
    /// Queued events are retained; a later `run_*` call resumes them.
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

/// One wake slot per pollable party (a server thread, a client machine): each
/// has at most one wake event queued, so re-arming leaves no dead event behind.
#[derive(Debug, Clone)]
pub struct WakeSlots {
    slots: Vec<Option<(SimTime, EventHandle)>>,
    /// Wakes scheduled so far.
    pub armed: u64,
    /// Wakes cancelled before dispatch: re-armed earlier, or serviced by a sibling's wake.
    pub cancelled: u64,
}

impl WakeSlots {
    /// `n` unarmed slots.
    pub fn new(n: usize) -> Self {
        WakeSlots {
            slots: vec![None; n],
            armed: 0,
            cancelled: 0,
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Whether slot `i` has a wake queued.
    pub fn is_armed(&self, i: usize) -> bool {
        self.slots[i].is_some()
    }

    /// Arms slot `i` with `event` at `at` (no earlier than now). An
    /// earlier-or-equal armed wake makes this a no-op; a later one is
    /// cancelled and replaced.
    pub fn arm<W, E>(&mut self, ctx: &mut Ctx<'_, W, E>, i: usize, at: SimTime, event: E) {
        let at = at.max(ctx.now());
        if self.slots[i].is_some_and(|(pending, _)| at >= pending) {
            return;
        }
        let handle = ctx.schedule_event_at_handle(at, event);
        self.armed += 1;
        if let Some((_, stale)) = self.slots[i].replace((at, handle)) {
            ctx.cancel(stale);
            self.cancelled += 1;
        }
    }

    /// Whether slot `i` is serviced now, which leaves it unarmed: it is
    /// `fired`, whose wake is dispatching (its handle is spent), or its wake
    /// is due and gets cancelled. Callers walk the slots ascending, so the
    /// service order at an instant depends only on the due set.
    pub fn take_due<W, E>(&mut self, ctx: &mut Ctx<'_, W, E>, i: usize, fired: bool) -> bool {
        let due = fired || self.slots[i].is_some_and(|(at, _)| at <= ctx.now());
        if due {
            if let Some((_, stale)) = self.slots[i].take().filter(|_| !fired) {
                ctx.cancel(stale);
                self.cancelled += 1;
            }
        }
        due
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
    /// Ran one event; `stop` is the handler's stop request.
    Ran { at: SimTime, stop: bool },
    /// The next event is after the deadline.
    Deadline,
    /// The queue is empty.
    Idle,
}

/// Passive observer of engine dispatches.
///
/// Probes let observability layers count events without the engine
/// depending on them (the telemetry crate sits above `reflex-sim`). A
/// probe must be purely passive: it sees the clock but cannot schedule,
/// mutate the world, or otherwise perturb the simulation.
pub trait EngineProbe: Send {
    /// Called once per dispatched event, after the clock advanced to `now`.
    fn on_dispatch(&mut self, now: SimTime);
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
    probe: Option<Box<dyn EngineProbe>>,
}

impl<W: std::fmt::Debug, E> std::fmt::Debug for Engine<W, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("queued", &self.queue.len)
            .field("dispatched", &self.dispatched)
            .field("probe", &self.probe.is_some())
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
            probe: None,
        }
    }

    /// Installs an observability probe invoked once per dispatched event.
    /// Replaces any previously installed probe. Leave unset on hot paths:
    /// the unprobed dispatch cost is a single branch.
    pub fn set_probe(&mut self, probe: Box<dyn EngineProbe>) {
        self.probe = Some(probe);
    }

    /// Removes the probe, returning it.
    pub fn clear_probe(&mut self) -> Option<Box<dyn EngineProbe>> {
        self.probe.take()
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

    /// Number of events currently queued (scheduled and not cancelled).
    pub fn queued(&self) -> usize {
        self.queue.len
    }

    /// Schedules `event` at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current instant.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) {
        self.schedule_event_at_handle(at, event);
    }

    /// Schedules `event` to run `delay` after the current instant.
    pub fn schedule_event_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_event_at(self.now + delay, event);
    }

    /// Schedules `event` at `at`, returning a cancellable handle.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current instant.
    pub fn schedule_event_at_handle(&mut self, at: SimTime, event: E) -> EventHandle {
        self.queue.insert(self.now, at, event)
    }

    /// Schedules `event` after `delay`, returning a cancellable handle.
    pub fn schedule_event_after_handle(&mut self, delay: SimDuration, event: E) -> EventHandle {
        self.schedule_event_at_handle(self.now + delay, event)
    }

    /// Cancels a scheduled event.
    ///
    /// Returns `true` if the event was still pending and is now cancelled;
    /// `false` if it already ran, was already cancelled, or the handle is
    /// stale.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// Runs `f` with the world and a scheduling context at the current
    /// instant — what an event handler gets, with no event dispatched:
    /// [`dispatched`](Self::dispatched) does not move.
    pub fn with_ctx<R>(&mut self, f: impl FnOnce(&mut W, &mut Ctx<'_, W, E>) -> R) -> R {
        let mut ctx = Ctx {
            now: self.now,
            stop: false,
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
                if let Some(probe) = self.probe.as_mut() {
                    probe.on_dispatch(at);
                }
                let mut ctx = Ctx {
                    now: at,
                    stop: false,
                    queue: &mut self.queue,
                    _world: PhantomData,
                };
                event.dispatch(&mut self.world, &mut ctx);
                let stop = ctx.stop;
                Dispatched::Ran { at, stop }
            }
        }
    }

    /// Dispatches the single earliest event, if any, advancing the clock.
    pub fn step(&mut self) -> Step {
        match self.dispatch_next(SimTime::from_nanos(u64::MAX)) {
            Dispatched::Ran { at, .. } => Step::Ran(at),
            Dispatched::Deadline | Dispatched::Idle => Step::Idle,
        }
    }

    /// Runs until the queue drains, the deadline passes, or a handler calls
    /// [`Ctx::stop`]. The clock is left at `min(deadline, last event time)`;
    /// events scheduled after `deadline` stay queued.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.dispatch_next(deadline) {
                Dispatched::Ran { stop: true, .. } => return,
                Dispatched::Ran { .. } => {}
                Dispatched::Deadline | Dispatched::Idle => break,
            }
        }
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
        /// Then stops the engine.
        Stop(u32),
        /// Then cancels the handle, which must still be pending.
        Cancel(u32, EventHandle),
    }
    use TestEvent::{Cancel, Chain, Later, Push, Stop, Then};

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
                Stop(v) => {
                    world.push(v);
                    ctx.stop();
                }
                Cancel(v, victim) => {
                    world.push(v);
                    assert!(ctx.cancel(victim));
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
        assert_eq!(e.queued(), 1);
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
        assert_eq!((now, e.dispatched(), e.queued()), (e.now(), 0, 1));
        e.run_until(SimTime::from_micros(8));
        assert_eq!((e.world().as_slice(), e.dispatched()), (&[0, 1][..], 1));
    }

    #[test]
    fn stop_pauses_and_resumes() {
        let mut e = engine();
        e.schedule_event_at(SimTime::from_micros(1), Stop(1));
        e.schedule_event_at(SimTime::from_micros(2), Push(2));
        e.run_until(SimTime::from_micros(10));
        assert_eq!(e.world(), &[1]);
        e.run_until(SimTime::from_micros(10));
        assert_eq!(e.world(), &[1, 2]);
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
    fn cancelled_events_do_not_run() {
        let mut e = engine();
        let near = e.schedule_event_at_handle(SimTime::from_micros(10), Push(1));
        let far = e.schedule_event_at_handle(SimTime::from_millis(50), Push(2));
        e.schedule_event_at(SimTime::from_micros(20), Push(3));
        assert_eq!(e.queued(), 3);
        assert!(e.cancel(near));
        assert!(e.cancel(far));
        assert!(!e.cancel(near), "double-cancel must report false");
        assert_eq!(e.queued(), 1);
        e.run_until(SimTime::from_millis(100));
        assert_eq!(e.world(), &[3]);
    }

    #[test]
    fn cancel_from_within_a_handler() {
        let mut e = engine();
        let victim = e.schedule_event_at_handle(SimTime::from_micros(10), Push(9));
        e.schedule_event_at(SimTime::from_micros(5), Cancel(1, victim));
        e.run_until(SimTime::from_micros(100));
        assert_eq!(e.world(), &[1]);
    }

    #[test]
    fn handles_go_stale_after_dispatch() {
        let mut e = engine();
        let h = e.schedule_event_at_handle(SimTime::from_micros(1), Push(1));
        e.run_until(SimTime::from_micros(2));
        assert_eq!(e.world(), &[1]);
        assert!(!e.cancel(h), "handle to a dispatched event must be stale");
        // Slab slot reuse must not resurrect the stale handle.
        let h2 = e.schedule_event_at_handle(SimTime::from_micros(5), Push(10));
        assert!(!e.cancel(h));
        assert!(e.cancel(h2));
        e.run_until(SimTime::from_micros(10));
        assert_eq!(e.world(), &[1]);
    }

    #[test]
    fn different_variants_interleave_in_fifo_order() {
        let mut e = engine();
        let t = SimTime::from_micros(5);
        e.schedule_event_at(t, Push(1));
        e.schedule_event_at(t, Stop(2));
        e.schedule_event_at(t, Push(3));
        e.run_until(SimTime::from_micros(10));
        assert_eq!(e.world(), &[1, 2]);
        e.run_until(SimTime::from_micros(10));
        assert_eq!(e.world(), &[1, 2, 3]);
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
    fn typed_events_are_cancellable() {
        let mut e = engine();
        let h = e.schedule_event_at_handle(SimTime::from_micros(5), Push(1));
        e.schedule_event_at(SimTime::from_micros(6), Push(2));
        assert!(e.cancel(h));
        assert!(!e.cancel(h));
        e.run_until(SimTime::from_micros(10));
        assert_eq!(e.world(), &[2]);
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
            e.schedule_event_after(SimDuration::from_nanos(round % 97 + 1), Tick);
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
    fn slab_reuses_nodes_across_cancel_churn() {
        // A near (wheel, eagerly freed) and a far (heap, lazily freed) event
        // are scheduled and cancelled every round; the slab must stay at the
        // high-water mark of pending events.
        let mut e = engine();
        for round in 0..1_000u32 {
            let near = e.schedule_event_after_handle(SimDuration::from_micros(50), Push(0));
            let far = e.schedule_event_after_handle(SimDuration::from_millis(50), Push(0));
            e.schedule_event_after(SimDuration::from_nanos(u64::from(round % 97 + 1)), Push(1));
            assert!(e.cancel(near) && e.cancel(far));
            e.run_to_completion();
        }
        assert_eq!(e.world().len(), 1_000);
        assert!(
            e.queue.nodes.len() <= 4,
            "slab grew to {} nodes despite bounded churn",
            e.queue.nodes.len()
        );
    }

    #[test]
    fn wake_slots_keep_one_wake_each_and_service_the_due_set() {
        struct World {
            wakes: WakeSlots,
            serviced: Vec<(SimTime, usize)>,
        }
        #[derive(Clone, Copy)]
        enum Ev {
            Arm(usize, SimTime),
            Wake(usize),
        }
        impl TypedEvent<World> for Ev {
            fn dispatch(self, w: &mut World, ctx: &mut Ctx<'_, World, Self>) {
                match self {
                    Ev::Arm(i, at) => w.wakes.arm(ctx, i, at, Ev::Wake(i)),
                    Ev::Wake(fired) => {
                        for i in 0..w.wakes.slots() {
                            if w.wakes.take_due(ctx, i, i == fired) {
                                w.serviced.push((ctx.now(), i));
                            }
                        }
                    }
                }
            }
        }
        let us = SimTime::from_micros;
        let mut e = Engine::with_events(World {
            wakes: WakeSlots::new(3),
            serviced: Vec::new(),
        });
        // Slot 0: armed at 10, a later request is a no-op, an earlier one
        // replaces it. Slot 1 shares slot 0's instant; slot 2 is on its own.
        for (i, at) in [(0, 10), (0, 20), (0, 5), (1, 5), (2, 7)] {
            e.schedule_event_at(SimTime::ZERO, Ev::Arm(i, us(at)));
        }
        e.run_to_completion();
        // Slot 0's wake services slot 1 too and cancels its queued event.
        assert_eq!(e.world().serviced, [(us(5), 0), (us(5), 1), (us(7), 2)]);
        assert_eq!(e.world().wakes.armed, 4);
        assert_eq!(e.world().wakes.cancelled, 2);
        assert!((0..3).all(|i| !e.world().wakes.is_armed(i)), "all serviced");
        assert_eq!(e.dispatched(), 5 + 2);
    }
}
