//! The completion queues `FlashDevice` kept until each became a heap of
//! packed `u128` keys: a `BinaryHeap<Reverse<CqEntry>>` per queue pair,
//! entries of 40 bytes compared as `(at, seq)` tuples, `seq` counted
//! across the whole device. Kept verbatim as the oracle `properties.rs`
//! drives beside the device, and that the `flash_cq` microbench times the
//! new queue against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use reflex_flash::NvmeCompletion;
use reflex_sim::SimTime;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CqEntry {
    pub at: SimTime,
    pub seq: u64,
    pub completion: NvmeCompletion,
}

impl PartialOrd for CqEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CqEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One device's completion queues, one per queue pair.
#[derive(Debug, Default)]
pub struct ReferenceCqs {
    qps: Vec<BinaryHeap<Reverse<CqEntry>>>,
    seq: u64,
}

impl ReferenceCqs {
    pub fn new(qps: usize) -> Self {
        ReferenceCqs {
            qps: vec![BinaryHeap::new(); qps],
            seq: 0,
        }
    }

    /// Commands posted to `qp` and not yet polled.
    pub fn outstanding(&self, qp: usize) -> usize {
        self.qps[qp].len()
    }

    pub fn post(&mut self, qp: usize, completion: NvmeCompletion) {
        let seq = self.seq;
        self.seq += 1;
        self.qps[qp].push(Reverse(CqEntry {
            at: completion.completed_at,
            seq,
            completion,
        }));
    }

    pub fn poll(&mut self, now: SimTime, qp: usize, max: usize) -> Vec<NvmeCompletion> {
        let mut out = Vec::new();
        self.poll_into(now, qp, max, &mut out);
        out
    }

    pub fn poll_into(
        &mut self,
        now: SimTime,
        qp: usize,
        max: usize,
        out: &mut Vec<NvmeCompletion>,
    ) {
        out.clear();
        let q = &mut self.qps[qp];
        while out.len() < max {
            match q.peek() {
                Some(Reverse(e)) if e.at <= now => {
                    out.push(q.pop().expect("peeked entry must pop").0.completion);
                }
                _ => break,
            }
        }
    }

    pub fn next_completion_time(&self, qp: usize) -> Option<SimTime> {
        self.qps[qp].peek().map(|Reverse(e)| e.at)
    }
}
