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
//! * [`SimRng`] / [`Zipf`] — seeded randomness and workload distributions,
//! * [`Histogram`] — HDR-style latency histograms (p95 is the paper's
//!   headline metric),
//! * [`RateSeries`] / [`Counter`] — throughput and token-rate recorders.
//!
//! # Examples
//!
//! ```
//! use reflex_sim::{Engine, Histogram, SimDuration, SimRng, SimTime};
//!
//! struct World {
//!     rng: SimRng,
//!     lat: Histogram,
//! }
//!
//! let mut engine = Engine::new(World { rng: SimRng::seed(1), lat: Histogram::new() });
//! // Issue 1000 "requests" whose service time is lognormal around 80us.
//! for i in 0..1000u64 {
//!     let at = SimTime::from_nanos(i * 1_000);
//!     engine.schedule_at(at, move |w: &mut World, ctx| {
//!         let svc = w.rng.lognormal(SimDuration::from_micros(80), 0.1);
//!         let started = ctx.now();
//!         ctx.schedule_after(svc, move |w: &mut World, ctx| {
//!             w.lat.record(ctx.now() - started);
//!         });
//!     });
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
mod engine;
mod hist;
mod rng;
mod series;
mod slab;
mod time;

pub use engine::{Ctx, Engine, EngineProbe, EventFn, EventHandle, NoEvent, Step, TypedEvent};
pub use hist::Histogram;
pub use rng::{SimRng, Zipf};
pub use series::{Counter, RatePoint, RateSeries};
pub use slab::{PoolKey, SlabPool};
pub use time::{SimDuration, SimTime};
