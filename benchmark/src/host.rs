//! What the numbers were measured on: a host fingerprint, a calibration
//! loop to compare hosts (and to notice a noisy one), and the process's
//! peak resident set.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use crate::json::Json;

/// Host nanoseconds for a fixed 10^8-step splitmix64 loop. Timed before
/// and after a run; the two differing by more than [`NOISY`] flags it.
pub fn calibrate_ns() -> u64 {
    let t = Instant::now();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..100_000_000u64 {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc ^= z ^ (z >> 31);
    }
    black_box(acc);
    t.elapsed().as_nanos() as u64
}

pub const NOISY: f64 = 0.10;

/// Host nanoseconds for a fixed quarter-millisecond kernel: four
/// independent ALU chains fed by loads from a 16 KiB table. It is timed
/// next to every measured slice because the reference container's host
/// slows *everything* by 1.3–2x for tens of seconds at a time (a busy
/// sibling hyperthread, by the look of it): this kernel slows with the
/// simulator (r = 0.75–0.95 over repetitions), a dependent multiply chain
/// does not, so it is this one that `bench::quiet_ns` divides out.
pub fn reference_kernel_ns() -> u64 {
    let mut table = [0u64; 2048];
    for (i, slot) in table.iter_mut().enumerate() {
        *slot = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7;
    }
    let table = black_box(table);
    let t = Instant::now();
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..150_000usize {
        a = a.wrapping_add(table[i & 2047]) ^ (a >> 3);
        b = b.wrapping_mul(3).wrapping_add(table[(i + 7) & 2047]);
        c = (c ^ table[(i + 13) & 2047]).rotate_left(5);
        d = d.wrapping_add(c & 1).wrapping_add(table[(i + 29) & 2047]);
    }
    black_box((a, b, c, d));
    t.elapsed().as_nanos() as u64
}

pub fn calibration(before: u64, after: u64) -> Json {
    let (lo, hi) = (before.min(after) as f64, before.max(after) as f64);
    Json::obj([
        ("before_ns", Json::from(before)),
        ("after_ns", after.into()),
        ("noisy", (hi / lo - 1.0 > NOISY).into()),
    ])
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc`
/// does not say.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The `[profile.release]` table of this package's manifest, which is
/// kept equal to the root manifest's (a test compares them).
pub fn release_profile() -> String {
    manifest_table(include_str!("../Cargo.toml"), "[profile.release]")
}

/// The `key = value` lines under `header`, up to the next table.
pub fn manifest_table(manifest: &str, header: &str) -> String {
    manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect::<Vec<_>>()
        .join("; ")
}

pub fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj([
        ("cpu", Json::from(cpu)),
        ("nproc", nproc.into()),
        ("rustc", command_line("rustc", &["--version"]).into()),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).into(),
        ),
        ("release_profile", release_profile().into()),
    ])
}
