//! # reflex-sim — deterministic discrete-event simulation substrate
//!
//! The foundation of the ReFlex reproduction: every other crate in the
//! workspace models its component (Flash device, network fabric, dataplane
//! thread, …) as state advanced by events on the [`Engine`]'s virtual clock.
//!
//! The crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-granularity virtual time,
//! * [`Engine`] — a deterministic event queue over a user-defined world,
//! * [`TimeHeap`] — items ordered by `(instant, seq)`: the engine's events,
//!   NVMe completions, receive-queue stragglers,
//! * [`SimRng`] / [`Zipf`] — seeded randomness and workload distributions,
//! * [`Histogram`] — HDR-style latency histograms (p95 is the paper's
//!   headline metric),
//! * [`RateSeries`] — throughput and token-rate recorder,
//! * [`DenseTable`] — state per densely issued id, found by index.
//!
//! # Examples
//!
//! ```
//! use reflex_sim::{Ctx, Engine, Histogram, LogNormal, SimDuration, SimRng, SimTime, TypedEvent};
//!
//! struct World {
//!     rng: SimRng,
//!     lat: Histogram,
//! }
//!
//! enum Request {
//!     Arrive,
//!     Done(SimTime),
//! }
//!
//! impl TypedEvent<World> for Request {
//!     fn dispatch(self, w: &mut World, ctx: &mut Ctx<'_, World, Self>) {
//!         match self {
//!             Request::Arrive => {
//!                 let svc = w.rng.lognormal(LogNormal::new(SimDuration::from_micros(80), 0.1));
//!                 ctx.schedule_event_after(svc, Request::Done(ctx.now()));
//!             }
//!             Request::Done(started) => w.lat.record(ctx.now() - started),
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::with_events(World { rng: SimRng::seed(1), lat: Histogram::new() });
//! // Issue 1000 "requests" whose service time is lognormal around 80us.
//! for i in 0..1000u64 {
//!     engine.schedule_event_at(SimTime::from_nanos(i * 1_000), Request::Arrive);
//! }
//! engine.run_to_completion();
//! assert_eq!(engine.world().lat.count(), 1000);
//! let p95 = engine.world().lat.p95().as_micros_f64();
//! assert!(p95 > 80.0 && p95 < 120.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(feature = "alloc-count")]
pub mod alloc_count;
mod dense;
mod engine;
mod heap;
mod hist;
mod rng;
mod series;
mod slab;
mod time;
mod ziggurat;

pub use dense::{DenseId, DenseTable};
pub use engine::{Ctx, Engine, Step, TypedEvent};
pub use heap::{time_key, TimeHeap};
pub use hist::Histogram;
pub use rng::{Exponential, LogNormal, SimRng, Zipf};
pub use series::{RatePoint, RateSeries};
pub use slab::{PoolKey, SlabPool};
pub use time::{SimDuration, SimTime};
