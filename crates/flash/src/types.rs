//! NVMe command, completion and error types.

use std::fmt;

use reflex_sim::SimTime;

/// Identifier assigned by the submitter to correlate completions with
/// commands (the paper's `cookie` travels alongside at a higher layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CmdId(pub u64);

impl fmt::Display for CmdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cmd#{}", self.0)
    }
}

/// I/O direction of an NVMe command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoType {
    /// A Flash page read.
    Read,
    /// A Flash page write (program).
    Write,
}

impl IoType {
    /// `true` for reads.
    pub fn is_read(self) -> bool {
        matches!(self, IoType::Read)
    }
}

impl fmt::Display for IoType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoType::Read => f.write_str("read"),
            IoType::Write => f.write_str("write"),
        }
    }
}

/// An NVMe read or write command for a range of logical blocks.
///
/// Addresses are in bytes on the device's logical address space; the device
/// internally operates at its page granularity (4KB on every profiled
/// device), so sub-page requests cost a full page, as in the paper's cost
/// model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmeCommand {
    /// Submitter-chosen correlation id.
    pub id: CmdId,
    /// Read or write.
    pub op: IoType,
    /// Byte offset of the first logical block.
    pub addr: u64,
    /// Transfer length in bytes (must be non-zero).
    pub len: u32,
}

impl NvmeCommand {
    /// Convenience constructor for a read command.
    pub fn read(id: CmdId, addr: u64, len: u32) -> Self {
        NvmeCommand {
            id,
            op: IoType::Read,
            addr,
            len,
        }
    }

    /// Convenience constructor for a write command.
    pub fn write(id: CmdId, addr: u64, len: u32) -> Self {
        NvmeCommand {
            id,
            op: IoType::Write,
            addr,
            len,
        }
    }

    /// Number of device pages this command touches, pages being
    /// `1 << page_shift` bytes.
    pub(crate) fn pages(&self, page_shift: u32) -> u32 {
        let page = 1u64 << page_shift;
        ((u64::from(self.len) + page - 1) >> page_shift).max(1) as u32
    }
}

/// Completion status of an NVMe command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmeStatus {
    /// Command completed successfully.
    Success,
    /// Addressed range is outside the device capacity.
    OutOfRange,
    /// Uncorrectable media error while reading (failure injection).
    MediaError,
    /// The device has died: every command aborts immediately (fault
    /// injection — whole-device death, see `reflex-faults`).
    DeviceUnavailable,
}

/// A completed NVMe command popped from a completion queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmeCompletion {
    /// The submitter's correlation id.
    pub id: CmdId,
    /// I/O direction of the completed command.
    pub op: IoType,
    /// Instant the device posted the completion.
    pub completed_at: SimTime,
    /// Outcome.
    pub status: NvmeStatus,
}

/// Error returned when a command cannot be accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The submission queue is full; retry after polling completions.
    QueueFull,
    /// Zero-length command.
    EmptyCommand,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("submission queue full"),
            SubmitError::EmptyCommand => f.write_str("zero-length command"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_rounds_up_and_never_zero() {
        let c = NvmeCommand::read(CmdId(1), 0, 1024);
        assert_eq!(c.pages(12), 1);
        let c = NvmeCommand::read(CmdId(1), 0, 4096);
        assert_eq!(c.pages(12), 1);
        let c = NvmeCommand::read(CmdId(1), 0, 4097);
        assert_eq!(c.pages(12), 2);
        let c = NvmeCommand::write(CmdId(1), 0, 32 * 1024);
        assert_eq!(c.pages(12), 8);
        let c = NvmeCommand::write(CmdId(1), 0, u32::MAX);
        assert_eq!(c.pages(12), u32::MAX.div_ceil(4096));
    }

    #[test]
    fn constructors_set_direction() {
        assert!(NvmeCommand::read(CmdId(0), 0, 1).op.is_read());
        assert!(!NvmeCommand::write(CmdId(0), 0, 1).op.is_read());
    }

    #[test]
    fn display_impls() {
        assert_eq!(CmdId(7).to_string(), "cmd#7");
        assert_eq!(IoType::Read.to_string(), "read");
        assert_eq!(SubmitError::QueueFull.to_string(), "submission queue full");
    }
}
