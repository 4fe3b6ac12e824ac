//! # reflex-flash — simulated NVMe Flash devices
//!
//! A mechanistic model of NVMe Flash for the ReFlex reproduction. The
//! original paper measures real devices; here the device is simulated from
//! first principles — parallel channels, a DRAM write buffer, background
//! page programs, and garbage-collection erases — so that the crucial
//! emergent property holds: **tail read latency depends on total load and
//! on the read/write ratio** (paper Figure 1), with writes 10–20× as
//! expensive as reads (Figure 3).
//!
//! Three calibrated profiles, [`device_a`], [`device_b`] and [`device_c`],
//! correspond to the paper's devices A, B and C.
//!
//! # Examples
//!
//! ```
//! use reflex_flash::{device_a, CmdId, FlashDevice, NvmeCommand};
//! use reflex_sim::{SimRng, SimTime};
//!
//! let mut dev = FlashDevice::new(device_a(), SimRng::seed(7));
//! let qp = dev.create_queue_pair();
//! dev.submit(SimTime::ZERO, qp, NvmeCommand::read(CmdId(0), 4096, 4096))?;
//! let at = dev.next_completion_time(qp).expect("in flight");
//! let done = dev.poll_completions(at, qp, 16);
//! assert_eq!(done.len(), 1);
//! # Ok::<(), reflex_flash::SubmitError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod device;
mod profile;
mod types;

pub use device::{DeviceFaultAction, DeviceFaultHook, DeviceStats, FlashDevice, QpId};
pub use profile::{device_a, device_b, device_c, DeviceProfile};
pub use types::{CmdId, IoType, NvmeCommand, NvmeCompletion, NvmeStatus, SubmitError};
