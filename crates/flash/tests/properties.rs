//! Property-based tests of the Flash device model's invariants, and of
//! its completion queues against the heap they replaced (`reference/`).

mod reference;

use std::collections::HashMap;

use proptest::prelude::*;
use reflex_flash::{
    device_a, CmdId, DeviceFaultAction, DeviceFaultHook, FlashDevice, NvmeCommand, NvmeCompletion,
    NvmeStatus, QpId, SubmitError,
};
use reflex_sim::{SimDuration, SimRng, SimTime};

use reference::ReferenceCqs;

fn arbitrary_cmd(i: u64, kind: u8, page: u64, pages: u32) -> NvmeCommand {
    let addr = (page % 1_000_000) * 4096;
    let len = pages.clamp(1, 64) * 4096;
    if kind == 0 {
        NvmeCommand::read(CmdId(i), addr, len)
    } else {
        NvmeCommand::write(CmdId(i), addr, len)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Completions never precede submissions, and polled completions come
    /// out in non-decreasing completion order.
    #[test]
    fn completions_causal_and_ordered(
        cmds in prop::collection::vec((0u8..2, 0u64..1_000_000, 1u32..8, 1u64..50_000), 1..200),
    ) {
        let mut dev = FlashDevice::new(device_a(), SimRng::seed(1));
        let qp = dev.create_queue_pair();
        let mut now = SimTime::ZERO;
        let mut submit_times = std::collections::HashMap::new();
        for (i, (kind, page, pages, gap_ns)) in cmds.iter().enumerate() {
            now += reflex_sim::SimDuration::from_nanos(*gap_ns);
            let cmd = arbitrary_cmd(i as u64, *kind, *page, *pages);
            submit_times.insert(cmd.id, now);
            dev.submit(now, qp, cmd).expect("sq deep enough");
        }
        let completions = dev.poll_completions(SimTime::from_secs(3_600), qp, usize::MAX);
        prop_assert_eq!(completions.len(), cmds.len());
        let mut prev = SimTime::ZERO;
        for c in &completions {
            prop_assert!(c.completed_at >= prev, "completion order violated");
            prev = c.completed_at;
            let submitted = submit_times[&c.id];
            prop_assert!(c.completed_at >= submitted, "completion before submission");
            prop_assert_eq!(c.status, NvmeStatus::Success);
        }
    }

    /// The completion instant returned by submit matches what the CQ
    /// later reports.
    #[test]
    fn predicted_completion_matches_cq(
        cmds in prop::collection::vec((0u8..2, 0u64..100_000, 1u32..4), 1..100),
    ) {
        let mut dev = FlashDevice::new(device_a(), SimRng::seed(2));
        let qp = dev.create_queue_pair();
        let mut predicted = std::collections::HashMap::new();
        let mut now = SimTime::ZERO;
        for (i, (kind, page, pages)) in cmds.iter().enumerate() {
            now += reflex_sim::SimDuration::from_micros(3);
            let cmd = arbitrary_cmd(i as u64, *kind, *page, *pages);
            let at = dev.submit(now, qp, cmd).expect("deep sq");
            predicted.insert(cmd.id, at);
        }
        for c in dev.poll_completions(SimTime::from_secs(3_600), qp, usize::MAX) {
            prop_assert_eq!(predicted[&c.id], c.completed_at);
        }
    }

    /// Out-of-range commands always complete with OutOfRange and never
    /// touch channel state (subsequent latencies are unaffected).
    #[test]
    fn out_of_range_is_isolated(offsets in prop::collection::vec(0u64..1_000_000, 1..20)) {
        let mut dev = FlashDevice::new(device_a(), SimRng::seed(3));
        let qp = dev.create_queue_pair();
        let cap = dev.profile().capacity_bytes;
        for (i, off) in offsets.iter().enumerate() {
            dev.submit(
                SimTime::ZERO,
                qp,
                NvmeCommand::read(CmdId(i as u64), cap + off * 4096, 4096),
            )
            .expect("accepted");
        }
        let cs = dev.poll_completions(SimTime::from_secs(1), qp, usize::MAX);
        for c in &cs {
            prop_assert_eq!(c.status, NvmeStatus::OutOfRange);
        }
        // A clean read afterwards sees unloaded latency.
        let t = SimTime::from_secs(2);
        let done = dev.submit(t, qp, NvmeCommand::read(CmdId(999), 0, 4096)).unwrap();
        let lat_us = done.saturating_since(t).as_micros_f64();
        prop_assert!(lat_us < 150.0, "clean read after errors took {lat_us}us");
    }

    /// Device statistics count exactly what was submitted.
    #[test]
    fn stats_count_submissions(
        reads in 0u32..50,
        writes in 0u32..50,
    ) {
        let mut dev = FlashDevice::new(device_a(), SimRng::seed(4));
        let qp = dev.create_queue_pair();
        let mut id = 0u64;
        for _ in 0..reads {
            dev.submit(SimTime::ZERO, qp, NvmeCommand::read(CmdId(id), 0, 4096)).unwrap();
            id += 1;
        }
        for _ in 0..writes {
            dev.submit(SimTime::ZERO, qp, NvmeCommand::write(CmdId(id), 4096, 4096)).unwrap();
            id += 1;
        }
        let stats = dev.stats();
        prop_assert_eq!(stats.reads, reads as u64);
        prop_assert_eq!(stats.writes, writes as u64);
        prop_assert_eq!(stats.read_pages, reads as u64);
        prop_assert_eq!(stats.write_pages, writes as u64);
    }

    /// Queue-pair isolation: traffic on one QP never produces completions
    /// on another.
    #[test]
    fn qp_isolation(n in 1u32..100) {
        let mut dev = FlashDevice::new(device_a(), SimRng::seed(5));
        let qp0 = dev.create_queue_pair();
        let qp1 = dev.create_queue_pair();
        for i in 0..n {
            dev.submit(SimTime::ZERO, qp0, NvmeCommand::read(CmdId(i as u64), 0, 4096)).unwrap();
        }
        prop_assert!(dev.poll_completions(SimTime::from_secs(10), qp1, usize::MAX).is_empty());
        prop_assert_eq!(
            dev.poll_completions(SimTime::from_secs(10), qp0, usize::MAX).len(),
            n as usize
        );
    }
}

/// A scripted fault per command id.
struct Scripted(HashMap<CmdId, DeviceFaultAction>);

impl DeviceFaultHook for Scripted {
    fn on_command(&mut self, _now: SimTime, cmd: &NvmeCommand) -> DeviceFaultAction {
        self.0
            .get(&cmd.id)
            .copied()
            .unwrap_or(DeviceFaultAction::None)
    }
}

const QPS: usize = 3;
const SQ_DEPTH: u32 = 12;

/// One step of a script: a submission or a poll, decoded from four
/// words.
#[derive(Debug, Clone, Copy)]
enum Step {
    Submit {
        qp: usize,
        /// Nanoseconds before (negative) or after the last poll's instant.
        offset: i64,
        cmd: NvmeCommand,
        fault: DeviceFaultAction,
    },
    Poll {
        qp: usize,
        advance: SimDuration,
        max: usize,
    },
}

/// Decodes a script. Command ids fall as the script goes, so that an
/// order by id is the reverse of submission order. A quarter of the
/// submissions land at the last poll's instant and a quarter before it;
/// a tenth address past the device's end; faults add latency, kill the
/// command or fail it.
fn script(words: &[(u8, u64, u64, u64)], capacity: u64) -> Vec<Step> {
    (words.iter().enumerate())
        .map(|(i, &(kind, x, y, z))| {
            let qp = (x % QPS as u64) as usize;
            if kind >= 6 {
                let max = [1, 2, 3, usize::MAX][(y % 4) as usize];
                let advance =
                    SimDuration::from_nanos([0, 1_000, 40_000, 150_000][(z % 4) as usize]);
                return Step::Poll { qp, advance, max };
            }
            let offset = match y % 4 {
                0 => 0,
                1 => -(((y >> 8) % 60_000) as i64),
                _ => ((y >> 8) % 90_000) as i64,
            };
            let page = (z >> 4) % 512;
            let addr = if z % 10 == 0 {
                capacity - 4096 + page * 4096
            } else {
                page * 4096
            };
            let len = [512, 4096, 8192, 12288][((z >> 16) % 4) as usize];
            let id = CmdId(u64::MAX - i as u64);
            let cmd = if (z >> 20) % 3 == 0 {
                NvmeCommand::write(id, addr, len)
            } else {
                NvmeCommand::read(id, addr, len)
            };
            let fault = match (z >> 24) % 8 {
                0 => DeviceFaultAction::ExtraLatency(SimDuration::from_nanos((z >> 32) % 300_000)),
                1 => DeviceFaultAction::Dead,
                2 => DeviceFaultAction::TransientError,
                _ => DeviceFaultAction::None,
            };
            Step::Submit {
                qp,
                offset,
                cmd,
                fault,
            }
        })
        .collect()
}

/// The status the device must post for `cmd` under `fault`.
fn expected_status(cmd: &NvmeCommand, fault: DeviceFaultAction, capacity: u64) -> NvmeStatus {
    if cmd.addr + u64::from(cmd.len) > capacity {
        NvmeStatus::OutOfRange
    } else if fault == DeviceFaultAction::Dead {
        NvmeStatus::DeviceUnavailable
    } else if fault == DeviceFaultAction::TransientError {
        NvmeStatus::MediaError
    } else {
        NvmeStatus::Success
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The device's completion queues and the parent's heap, driven by
    /// one script: every submission accepted or refused alike, every poll
    /// returning the same completions in the same order, and the same
    /// next completion instant on every queue pair after every step.
    #[test]
    fn completions_match_reference_heap(
        words in prop::collection::vec((0u8..10, any::<u64>(), any::<u64>(), any::<u64>()), 1..300),
    ) {
        let mut profile = device_a();
        profile.sq_depth = SQ_DEPTH;
        let capacity = profile.capacity_bytes;
        let steps = script(&words, capacity);
        let faults = steps.iter().filter_map(|s| match *s {
            Step::Submit { cmd, fault, .. } => Some((cmd.id, fault)),
            Step::Poll { .. } => None,
        });
        let mut dev = FlashDevice::new(profile, SimRng::seed(words.len() as u64));
        dev.set_fault_hook(Box::new(Scripted(faults.collect())));
        let qps: Vec<QpId> = (0..QPS).map(|_| dev.create_queue_pair()).collect();
        let mut reference = ReferenceCqs::new(QPS);
        let mut last_poll = SimTime::from_millis(1);
        for step in steps {
            match step {
                Step::Submit { qp, offset, cmd, fault } => {
                    let now = SimTime::from_nanos(last_poll.as_nanos().saturating_add_signed(offset));
                    let got = dev.submit(now, qps[qp], cmd);
                    if reference.outstanding(qp) >= SQ_DEPTH as usize {
                        prop_assert_eq!(got, Err(SubmitError::QueueFull));
                        continue;
                    }
                    let at = got.expect("room in the submission queue");
                    prop_assert!(at >= now);
                    let status = expected_status(&cmd, fault, capacity);
                    let completion = NvmeCompletion { id: cmd.id, op: cmd.op, completed_at: at, status };
                    reference.post(qp, completion);
                }
                Step::Poll { qp, advance, max } => {
                    last_poll += advance;
                    let got = dev.poll_completions(last_poll, qps[qp], max);
                    prop_assert_eq!(got, reference.poll(last_poll, qp, max));
                }
            }
            for (i, &qp) in qps.iter().enumerate() {
                prop_assert_eq!(dev.next_completion_time(qp), reference.next_completion_time(i));
            }
        }
        for (i, &qp) in qps.iter().enumerate() {
            let end = SimTime::from_secs(3_600);
            prop_assert_eq!(dev.poll_completions(end, qp, usize::MAX), reference.poll(end, i, usize::MAX));
        }
    }
}
