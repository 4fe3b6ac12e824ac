//! Validates the device model's latency-vs-load surface — the substrate for
//! the paper's Figure 1 (tail read latency depends on total IOPS *and* the
//! read/write ratio) and Figure 3 (curves collapse under token weighting).

use reflex_flash::{device_a, CmdId, DeviceProfile, FlashDevice, IoType, NvmeCommand};
use reflex_sim::{Exponential, Histogram, SimDuration, SimRng, SimTime};

/// Open-loop Poisson sweep at `total_iops` with `read_pct` reads; returns
/// p95 read latency in microseconds. Requests are 4KB, uniformly random.
fn p95_read_at(mut profile: DeviceProfile, total_iops: f64, read_pct: u32, seed: u64) -> f64 {
    // The open-loop sweep keeps issuing past saturation by design; a huge SQ
    // lets the backlog (and thus the measured tail) grow unbounded.
    profile.sq_depth = 1 << 20;
    let mut dev = FlashDevice::new(profile, SimRng::seed(seed));
    dev.precondition();
    let qp = dev.create_queue_pair();
    let mut rng = SimRng::seed(seed ^ 0xabcd);
    let mut hist = Histogram::new();
    let mean_gap = Exponential::new(SimDuration::from_secs_f64(1.0 / total_iops));
    let mut now = SimTime::ZERO;
    let warmup = SimTime::from_millis(100);
    let end = SimTime::from_millis(400);
    let mut issued: Vec<(CmdId, SimTime, IoType)> = Vec::new();
    let mut id = 0u64;
    while now < end {
        now += rng.exponential(mean_gap);
        let addr = dev.random_page_addr();
        let is_read = rng.below(100) < read_pct as u64;
        let cmd = if is_read {
            NvmeCommand::read(CmdId(id), addr, 4096)
        } else {
            NvmeCommand::write(CmdId(id), addr, 4096)
        };
        issued.push((CmdId(id), now, cmd.op));
        id += 1;
        // Drain completions opportunistically to bound queue memory.
        let _ = dev.poll_completions(now, qp, usize::MAX);
        dev.submit(now, qp, cmd)
            .expect("sq depth generous for sweep");
    }
    let done = dev.poll_completions(SimTime::from_secs(30), qp, usize::MAX);
    let mut completion_of = std::collections::HashMap::new();
    for c in done {
        completion_of.insert(c.id, c.completed_at);
    }
    for (cid, at, op) in issued {
        if op != IoType::Read || at < warmup {
            continue;
        }
        if let Some(&fin) = completion_of.get(&cid) {
            hist.record(fin.saturating_since(at));
        }
    }
    hist.p95().as_micros_f64()
}

#[test]
fn read_only_load_has_low_tail_at_half_capacity() {
    let p95 = p95_read_at(device_a(), 500_000.0, 100, 1);
    assert!(p95 < 400.0, "p95 at 500K read-only IOPS was {p95}us");
}

#[test]
fn tail_latency_grows_with_load() {
    let low = p95_read_at(device_a(), 100_000.0, 100, 2);
    let high = p95_read_at(device_a(), 900_000.0, 100, 2);
    assert!(high > low, "p95 must grow with load: low={low} high={high}");
}

#[test]
fn writes_drag_read_tails_at_equal_total_iops() {
    let pure = p95_read_at(device_a(), 200_000.0, 100, 3);
    let mixed = p95_read_at(device_a(), 200_000.0, 75, 3);
    assert!(
        mixed > 2.0 * pure,
        "75% read load should have much worse read tail: pure={pure}us mixed={mixed}us"
    );
}

#[test]
fn knee_positions_follow_the_cost_model() {
    // At ~65% of the weighted token capacity the device should still be
    // comfortable for any ratio; near 100% it should be heavily degraded.
    let profile = device_a();
    let tokens = profile.token_rate(); // ~650K tokens/s
    let wc = profile.write_cost_tokens(); // ~10

    for read_pct in [90u32, 75] {
        let r = read_pct as f64 / 100.0;
        let cost_per_io = r + (1.0 - r) * wc;
        let comfortable = 0.6 * tokens / cost_per_io;
        let saturated = 1.15 * tokens / cost_per_io;
        let ok = p95_read_at(profile.clone(), comfortable, read_pct, 4);
        let bad = p95_read_at(profile.clone(), saturated, read_pct, 4);
        assert!(
            ok < 1_000.0,
            "r={read_pct}%: comfortable load p95 {ok}us too high"
        );
        assert!(
            bad > 1_500.0,
            "r={read_pct}%: saturated load p95 {bad}us too low"
        );
        assert!(
            bad > 3.0 * ok,
            "r={read_pct}%: knee not sharp: {ok} -> {bad}"
        );
    }
}

/// Diagnostic, not an assertion: prints the Figure-1 surface. Run with
/// `cargo test -p reflex-flash --test latency_surface -- --ignored --nocapture`.
#[test]
#[ignore = "diagnostic sweep; prints the latency surface"]
fn print_figure1_surface() {
    println!("read_pct\tkIOPS\tp95_read_us");
    for read_pct in [100u32, 99, 95, 90, 75, 50] {
        for kiops in [
            50u64, 100, 150, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1100,
        ] {
            let p95 = p95_read_at(device_a(), kiops as f64 * 1e3, read_pct, 7);
            println!("{read_pct}\t{kiops}\t{p95:.0}");
            if p95 > 4000.0 {
                break;
            }
        }
    }
}
