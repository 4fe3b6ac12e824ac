//! The dataplane ↔ user-level server ABI (paper Table 1).
//!
//! ReFlex extends the IX dataplane with system calls to register tenants
//! and submit NVMe reads/writes, and event conditions for their
//! completions. Calls and events are batched over shared-memory arrays —
//! modelled here as bounded queues — so no interrupts or thread scheduling
//! are involved.

use reflex_qos::{SloSpec, TenantId};

/// Handle identifying a registered tenant to the dataplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantHandle(pub u32);

/// Opaque user-space correlation value carried through the dataplane and
/// returned in the matching event condition.
pub type Cookie = u64;

/// Handle to a pre-allocated zero-copy DMA buffer. The simulation tracks
/// buffer accounting but not contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufHandle(pub u32);

/// System calls the user-level server code issues to the dataplane
/// (paper Table 1, top half). Batched over a shared array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Syscall {
    /// Registers a tenant with an SLO (`None` ⇒ best-effort).
    Register {
        /// Proposed tenant id.
        id: TenantId,
        /// SLO for latency-critical tenants; `None` for best-effort.
        slo: Option<SloSpec>,
        /// Echoed in the `Registered` event.
        cookie: Cookie,
    },
    /// Unregisters a tenant.
    Unregister {
        /// Handle from a previous `Registered` event.
        handle: TenantHandle,
    },
    /// Reads `len` bytes at `addr` into `buf`.
    Read {
        /// Tenant issuing the I/O.
        handle: TenantHandle,
        /// Destination zero-copy buffer.
        buf: BufHandle,
        /// Device byte address.
        addr: u64,
        /// Length in bytes.
        len: u32,
        /// Echoed in the `Response` event.
        cookie: Cookie,
    },
    /// Writes `len` bytes at `addr` from `buf`.
    Write {
        /// Tenant issuing the I/O.
        handle: TenantHandle,
        /// Source zero-copy buffer.
        buf: BufHandle,
        /// Device byte address.
        addr: u64,
        /// Length in bytes.
        len: u32,
        /// Echoed in the `Written` event.
        cookie: Cookie,
    },
}

/// Completion status in an event condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbiStatus {
    /// Success.
    Ok,
    /// Tenant could not be admitted (SLO not satisfiable) or resources
    /// exhausted.
    OutOfResources,
    /// The I/O failed access-control checks.
    AccessDenied,
    /// The I/O addressed blocks beyond the namespace.
    OutOfRange,
}

/// Event conditions the dataplane delivers to the user-level server code
/// (paper Table 1, bottom half).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventCond {
    /// A `Register` syscall completed.
    Registered {
        /// Handle for subsequent I/O syscalls.
        handle: TenantHandle,
        /// Cookie from the `Register` call.
        cookie: Cookie,
        /// Admission outcome.
        status: AbiStatus,
    },
    /// An `Unregister` syscall completed.
    Unregistered {
        /// The now-invalid handle.
        handle: TenantHandle,
    },
    /// An NVMe read completed.
    Response {
        /// Cookie from the `Read` call.
        cookie: Cookie,
        /// I/O outcome.
        status: AbiStatus,
    },
    /// An NVMe write completed.
    Written {
        /// Cookie from the `Write` call.
        cookie: Cookie,
        /// I/O outcome.
        status: AbiStatus,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use reflex_sim::SimDuration;

    #[test]
    fn syscall_variants_are_constructible_and_distinct() {
        let slo = SloSpec::new(1_000, 90, SimDuration::from_micros(500));
        let calls = [
            Syscall::Register {
                id: TenantId(1),
                slo: Some(slo),
                cookie: 9,
            },
            Syscall::Register {
                id: TenantId(2),
                slo: None,
                cookie: 10,
            },
            Syscall::Read {
                handle: TenantHandle(1),
                buf: BufHandle(3),
                addr: 4096,
                len: 4096,
                cookie: 11,
            },
            Syscall::Write {
                handle: TenantHandle(1),
                buf: BufHandle(4),
                addr: 0,
                len: 1024,
                cookie: 12,
            },
            Syscall::Unregister {
                handle: TenantHandle(1),
            },
        ];
        let mut reprs: Vec<String> = calls.iter().map(|c| format!("{c:?}")).collect();
        reprs.sort();
        reprs.dedup();
        assert_eq!(reprs.len(), calls.len(), "variants must be distinct");
    }

    #[test]
    fn event_variants_carry_status() {
        let e = EventCond::Response {
            cookie: 1,
            status: AbiStatus::AccessDenied,
        };
        match e {
            EventCond::Response { status, .. } => assert_eq!(status, AbiStatus::AccessDenied),
            _ => unreachable!(),
        }
    }
}
