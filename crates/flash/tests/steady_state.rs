//! Steady-state behaviours of the device model: the sustained-write cliff
//! (bursts absorb into the DRAM buffer; sustained load settles at the
//! program-bandwidth floor) and wear-driven slowdown.

use reflex_flash::{device_a, CmdId, FlashDevice, NvmeCommand};
use reflex_sim::{SimDuration, SimRng, SimTime};

fn write_burst_latency_us(
    dev: &mut FlashDevice,
    qp: reflex_flash::QpId,
    start: SimTime,
    n: u64,
) -> (f64, SimTime) {
    let mut t = start;
    let mut total = 0.0;
    for i in 0..n {
        t += SimDuration::from_micros(5); // 200K writes/s offered
        let addr = dev.random_page_addr();
        let done = dev
            .submit(
                t,
                qp,
                NvmeCommand::write(CmdId(i + start.as_nanos()), addr, 4096),
            )
            .expect("deep sq");
        total += done.saturating_since(t).as_micros_f64();
    }
    (total / n as f64, t)
}

#[test]
fn write_burst_fast_then_sustained_cliff() {
    let mut profile = device_a();
    profile.sq_depth = 1 << 20;
    let mut dev = FlashDevice::new(profile, SimRng::seed(9));
    dev.precondition();
    let qp = dev.create_queue_pair();

    // A short burst rides the DRAM buffer (~4ms of program backlog fits):
    // ~10us writes while it lasts.
    let (burst_avg, t) = write_burst_latency_us(&mut dev, qp, SimTime::ZERO, 100);
    assert!(burst_avg < 40.0, "early burst writes {burst_avg}us");

    // Sustained 200K writes/s is 3x the ~65K-page/s program bandwidth:
    // the backlog exceeds the buffer allowance and writes stall hard.
    let (_, t2) = write_burst_latency_us(&mut dev, qp, t, 30_000);
    let (sustained_avg, _) = write_burst_latency_us(&mut dev, qp, t2, 2_000);
    assert!(
        sustained_avg > 20_000.0,
        "sustained overload writes should hit the cliff: {sustained_avg}us"
    );
}

#[test]
fn sustained_write_throughput_matches_program_bandwidth() {
    let mut profile = device_a();
    profile.sq_depth = 1 << 20;
    let mut dev = FlashDevice::new(profile.clone(), SimRng::seed(10));
    dev.precondition();
    let qp = dev.create_queue_pair();
    // Closed-loop writes at QD 64 for 2 simulated seconds.
    let mut heap = std::collections::BinaryHeap::new();
    for i in 0..64u64 {
        let addr = dev.random_page_addr();
        let done = dev
            .submit(SimTime::ZERO, qp, NvmeCommand::write(CmdId(i), addr, 4096))
            .unwrap();
        heap.push(std::cmp::Reverse(done));
    }
    let mut id = 64u64;
    let mut completed = 0u64;
    let end = SimTime::from_secs(2);
    while let Some(std::cmp::Reverse(done)) = heap.pop() {
        if done > end {
            break;
        }
        completed += 1;
        let addr = dev.random_page_addr();
        let next = dev
            .submit(done, qp, NvmeCommand::write(CmdId(id), addr, 4096))
            .unwrap();
        id += 1;
        heap.push(std::cmp::Reverse(next));
    }
    let rate = completed as f64 / 2.0;
    // Program bandwidth: 32 channels / (430us + 500us/8 GC) = ~65K pages/s.
    assert!(
        (52_000.0..78_000.0).contains(&rate),
        "sustained write rate {rate} pages/s"
    );
}

#[test]
fn worn_device_sustains_less_write_throughput() {
    let run = |wear: f64| {
        let mut profile = device_a();
        profile.sq_depth = 1 << 20;
        profile.program_occupancy = profile.program_occupancy.mul_f64(wear);
        let mut dev = FlashDevice::new(profile, SimRng::seed(11));
        dev.precondition();
        let qp = dev.create_queue_pair();
        let mut heap = std::collections::BinaryHeap::new();
        for i in 0..32u64 {
            let addr = dev.random_page_addr();
            let done = dev
                .submit(SimTime::ZERO, qp, NvmeCommand::write(CmdId(i), addr, 4096))
                .unwrap();
            heap.push(std::cmp::Reverse(done));
        }
        let mut id = 32u64;
        let mut completed = 0u64;
        let end = SimTime::from_secs(1);
        while let Some(std::cmp::Reverse(done)) = heap.pop() {
            if done > end {
                break;
            }
            completed += 1;
            let addr = dev.random_page_addr();
            let next = dev
                .submit(done, qp, NvmeCommand::write(CmdId(id), addr, 4096))
                .unwrap();
            id += 1;
            heap.push(std::cmp::Reverse(next));
        }
        completed as f64
    };
    let fresh = run(1.0);
    let worn = run(2.0);
    assert!(
        worn < fresh * 0.65,
        "2x wear should roughly halve write bandwidth: {fresh} -> {worn}"
    );
}
