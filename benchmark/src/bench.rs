//! The parent side of a run: repeat one workload in fresh child
//! processes until the time budget is spent, reduce the repetitions to
//! medians, check the simulated outputs, and — in a traced run — probe
//! the layers and build the per-layer ledger.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::spans::Recorder;
use crate::stats::{median, quartiles};
use crate::sut::probes::{self, ProbeTimes, Shape};
use crate::workloads::{Check, Scenario};

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("host_ns_per_io", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("allocs_per_io", "count"),
    ("sim_p95_read_us", "us"),
    ("sim_kiops", "kIOPS"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sim.events_per_io", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.slice_growth", "ratio"),
    ("sim.dispatch_ns", "ns"),
    ("sim.hist_record_ns", "ns"),
    ("sim.share", "ratio"),
    ("net.msgs_per_io", "count"),
    ("net.send_poll_ns", "ns"),
    ("net.wire_codec_ns", "ns"),
    ("net.fabric_p95_us", "us"),
    ("net.nicq_p95_us", "us"),
    ("net.share", "ratio"),
    ("dataplane.rx_per_round", "count"),
    ("dataplane.busy_frac", "ratio"),
    ("dataplane.sq_full_retries", "count"),
    ("dataplane.pump_self_ns", "ns"),
    ("dataplane.stage_p95_us", "us"),
    ("dataplane.share", "ratio"),
    ("qos.rounds_per_io", "count"),
    ("qos.tenants_per_thread", "count"),
    ("qos.round_ns", "ns"),
    ("qos.sched_frac", "ratio"),
    ("qos.tokens_per_s", "tokens/s"),
    ("qos.share", "ratio"),
    ("flash.cmds_per_io", "count"),
    ("flash.write_frac", "ratio"),
    ("flash.gc_erases", "count"),
    ("flash.submit_poll_ns", "ns"),
    ("flash.sq_p95_us", "us"),
    ("flash.channel_p95_us", "us"),
    ("flash.share", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.fills_per_io", "count"),
    ("cache.evictions_per_io", "count"),
    ("cache.lookup_fill_ns", "ns"),
    ("cache.share", "ratio"),
    ("telemetry.overhead_frac", "ratio"),
    ("telemetry.span_ns", "ns"),
    ("core.retries", "count"),
    ("core.unfinished_frac", "ratio"),
    ("core.residual_share", "ratio"),
];

/// Default `--seconds`; equals `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;
pub const DEFAULT_SEED: u64 = 31;

/// Fewest repetitions a run reduces (per mode), however short the budget.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 30;
/// Budget a traced run keeps back for the layer probes.
const PROBE_SECONDS: f64 = 1.5;

#[derive(Debug, Clone)]
pub struct Options {
    /// The benchmark binary, re-executed as `child`.
    pub exe: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Where `trace_<workload>.json` goes.
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Median over repetitions — for `host_ns_per_io` taken slice by
    /// slice on quiet-host times (see `quiet_ns`).
    pub value: f64,
    /// Quartiles over repetitions (of whole windows for `host_ns_per_io`).
    pub q1: f64,
    pub q3: f64,
    pub reps: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    pub metrics: Vec<Metric>,
    pub checks: Vec<CheckResult>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The one JSON object the driver reads from the last line of stdout.
    pub fn driver_line(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::from(m.value)), ("unit", m.unit.into())]),
                    )
                })),
            ),
        ])
    }

    /// This outcome's part of `results.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("digest", self.digest.as_str().into()),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::from(c.name.as_str())),
                                ("ok", c.ok.into()),
                                ("detail", c.detail.as_str().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([
                            ("unit", Json::from(m.unit)),
                            ("value", m.value.into()),
                            ("q1", m.q1.into()),
                            ("q3", m.q3.into()),
                            ("reps", (m.reps as u64).into()),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// Runs one repetition in a fresh process and returns what it printed.
/// The child's spans are adopted under the caller's open span.
fn spawn_rep(
    opts: &Options,
    sc: &Scenario,
    traced: bool,
    rec: &mut Recorder,
) -> Result<Json, String> {
    let spawned_ns = rec.now_ns();
    let output = Command::new(&opts.exe)
        .arg("child")
        .args(["--workload", sc.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .args(["--warm-ms", &sc.warm_ms.to_string()])
        .args(["--measure-ms", &sc.measure_ms.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", opts.exe.display()))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let rep = Json::parse(line).map_err(|e| format!("child output: {e}"))?;
    if let Some(spans) = rep.get("spans") {
        rec.adopt(&Recorder::spans_from_json(spans), spawned_ns);
    }
    Ok(rep)
}

fn window_num(rep: &Json, key: &str) -> f64 {
    rep.get("window")
        .unwrap_or_else(|| panic!("child output has no window"))
        .num(key)
}

fn nums(rep: &Json, key: &str) -> Vec<f64> {
    rep.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("child output has no {key}"))
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// The fastest reference-kernel sample of the run: what the kernel costs
/// when the host is quiet.
fn quiet_reference_ns(reps: &[&Json]) -> f64 {
    reps.iter()
        .flat_map(|r| nums(r, "reference_ns"))
        .fold(f64::INFINITY, f64::min)
}

/// One repetition's slices as a quiet host would have timed them: each
/// slice scaled by how much slower than `quiet` the reference kernel ran
/// right after it.
fn quiet_slices(rep: &Json, quiet: f64) -> Vec<f64> {
    nums(rep, "slice_ns")
        .iter()
        .zip(nums(rep, "reference_ns"))
        .map(|(ns, reference)| ns * quiet / reference)
        .collect()
}

/// Host ns of each slice of the window: the median over repetitions of
/// its quiet-host time. Slice `i` is identical work in every repetition
/// of a seed, so the median is taken slice by slice, where one disturbed
/// repetition cannot drag the whole window. Without the reference kernel
/// the median over whole repetitions spreads 14–18 % between runs of one
/// commit on the reference container; with it, 1–5 %.
fn quiet_ns(reps: &[Json], quiet: f64) -> Vec<f64> {
    let per_rep: Vec<Vec<f64>> = reps.iter().map(|r| quiet_slices(r, quiet)).collect();
    (0..per_rep[0].len())
        .map(|i| median(&per_rep.iter().map(|s| s[i]).collect::<Vec<f64>>()))
        .collect()
}

fn quiet_ns_per_io(reps: &[Json], quiet: f64) -> f64 {
    quiet_ns(reps, quiet).iter().sum::<f64>() / window_num(&reps[0], "completed")
}

fn metric(name: &'static str, values: &[f64]) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"))
        .1;
    let (q1, q3) = quartiles(values);
    Metric {
        name,
        unit,
        value: median(values),
        q1,
        q3,
        reps: values.len(),
    }
}

fn check(name: &str, ok: bool, detail: String) -> CheckResult {
    CheckResult {
        name: name.to_owned(),
        ok,
        detail,
    }
}

/// The invariants every measured window must satisfy.
fn check_window(sc: &Scenario, rep: &Json) -> Vec<CheckResult> {
    let w = |key| window_num(rep, key);
    let mut out = vec![check(
        "no_failed_ios",
        w("errors") + w("exhausted") == 0.0,
        format!(
            "{} error responses, {} retry-exhausted",
            w("errors"),
            w("exhausted")
        ),
    )];
    let offered_kiops = sc.offered_iops() / 1e3;
    out.push(match sc.check {
        Check::Keeps { min_share, p95_us } => check(
            "keeps_up_below_the_knee",
            w("kiops") >= min_share * offered_kiops && w("p95_read_us") < p95_us,
            format!(
                "{:.1} of {offered_kiops:.1} kIOPS offered, p95 {:.1} us (limit {p95_us})",
                w("kiops"),
                w("p95_read_us")
            ),
        ),
        Check::Saturates { kiops, tolerance } => check(
            "saturates_at_the_plateau",
            (w("kiops") / kiops - 1.0).abs() <= tolerance,
            format!("{:.1} kIOPS against {kiops} ± {tolerance}", w("kiops")),
        ),
        Check::SloHeld {
            min_share,
            cap_slack,
        } => {
            let lc = rep
                .get("window")
                .and_then(|w| w.get("lc"))
                .and_then(Json::as_arr)
                .unwrap_or_default();
            let missed = lc
                .iter()
                .filter(|t| {
                    t.num("p95_read_us") >= t.num("slo_p95_us")
                        || t.num("iops") < min_share * t.num("slo_iops")
                })
                .count();
            let cap = w("token_cap_per_s");
            check(
                "slos_held_under_the_token_cap",
                !lc.is_empty() && missed == 0 && w("tokens_per_s") <= cap_slack * cap,
                format!(
                    "{missed} of {} LC tenants missed; {:.0} tokens/s against a cap of {cap:.0}",
                    lc.len(),
                    w("tokens_per_s")
                ),
            )
        }
        Check::HitRatio { lo, hi } => check(
            "cache_hit_ratio_in_range",
            (lo..=hi).contains(&w("hit_ratio")),
            format!("hit ratio {:.3} against [{lo}, {hi}]", w("hit_ratio")),
        ),
    });
    out
}

/// Untraced and traced repetitions of one seed must report one digest.
fn check_digests(reps: &[&Json]) -> (String, CheckResult) {
    let digest = |r: &Json| {
        r.get("window")
            .and_then(|w| w.get("digest"))
            .and_then(Json::as_str)
            .unwrap_or("missing")
            .to_owned()
    };
    let distinct: BTreeSet<String> = reps.iter().map(|r| digest(r)).collect();
    let result = check(
        "one_digest_per_seed",
        distinct.len() == 1,
        format!("{} repetitions, digests {distinct:?}", reps.len()),
    );
    (digest(reps[0]), result)
}

/// `completed + failed + retried ≤ submitted ≤ … + open_spans`: the window
/// is not drained, so commands still at the device sit in open spans.
fn check_conservation(traced: &Json) -> CheckResult {
    let Some(s) = traced.get("window").and_then(|w| w.get("stages")) else {
        return check(
            "telemetry_conservation",
            false,
            "no telemetry snapshot".into(),
        );
    };
    let done = s.num("completed") + s.num("failed") + s.num("retried");
    let submitted = s.num("submitted");
    check(
        "telemetry_conservation",
        done <= submitted && submitted <= done + s.num("open_spans"),
        format!(
            "submitted {submitted}, completed+failed+retried {done}, open spans {}",
            s.num("open_spans")
        ),
    )
}

/// Messages a dataplane thread receives between two scheduling rounds.
fn rx_per_round(rep: &Json) -> f64 {
    window_num(rep, "rx_msgs") / window_num(rep, "sched_rounds").max(1.0)
}

fn shape(sc: &Scenario, traced: &Json) -> Shape {
    let w = |key| window_num(traced, key);
    let threads = sc.server_threads;
    let lc: u32 = sc
        .groups
        .iter()
        .filter(|g| g.slo.is_some())
        .map(|g| g.count)
        .sum();
    let conns: u32 = sc.groups.iter().map(|g| g.count * g.conns).sum();
    let reads: f64 = sc
        .groups
        .iter()
        .map(|g| g.offered_iops * f64::from(g.count) * f64::from(g.read_pct))
        .sum();
    Shape {
        inflight: (w("kiops") * 1e3 * w("mean_read_us") * 1e-6).ceil() as u64,
        rx_per_round: rx_per_round(traced).round().clamp(1.0, 64.0) as u32,
        forty_gbe: sc.forty_gbe,
        io_size: sc.io_size,
        read_pct: (reads / sc.offered_iops()).round() as u8,
        lc_per_thread: lc.div_ceil(threads),
        be_per_thread: (sc.tenants() - lc).div_ceil(threads),
        slo: sc.groups.iter().find_map(|g| g.slo),
        conns_per_thread: conns.div_ceil(threads),
        cache: sc.cache,
        zipf: sc.zipf,
    }
}

fn ns_per_op(ns: f64) -> Vec<(String, f64)> {
    vec![("ns_per_op".to_owned(), ns)]
}

/// Runs `probe` inside a span that carries its ns/op.
fn timed(rec: &mut Recorder, name: &str, probe: impl FnOnce() -> f64) -> f64 {
    rec.span(name, |_| {
        let ns = probe();
        (ns, ns_per_op(ns))
    })
}

fn run_probes(shape: &Shape, quiet: f64, rec: &mut Recorder) -> ProbeTimes {
    let t = &probes::Timer {
        quiet_reference_ns: quiet,
    };
    ProbeTimes {
        dispatch_ns: timed(rec, "probe.sim.dispatch", || probes::dispatch(shape, t)),
        hist_record_ns: timed(rec, "probe.sim.hist_record", || probes::hist_record(t)),
        send_poll_ns: timed(rec, "probe.net.send_poll", || probes::send_poll(shape, t)),
        wire_codec_ns: timed(rec, "probe.net.wire_codec", || probes::wire_codec(shape, t)),
        round_ns: timed(rec, "probe.qos.round", || probes::qos_round(shape, t)),
        submit_poll_ns: timed(rec, "probe.flash.submit_poll", || {
            probes::submit_poll(shape, t)
        }),
        lookup_fill_ns: timed(rec, "probe.cache.lookup_fill", || {
            probes::lookup_fill(shape, t)
        }),
        pump: rec.span("probe.dataplane.pump", |_| {
            let cost = probes::pump(shape, t);
            (cost, ns_per_op(cost.ns))
        }),
        span_ns: timed(rec, "probe.telemetry.span", || probes::telemetry_span(t)),
    }
}

/// Quiet-host ns/event of the last tenth of the slices over the first.
fn slice_growth(traced: &[Json], quiet: f64) -> f64 {
    let events = nums(&traced[0], "slice_events");
    let per_event: Vec<f64> = quiet_ns(traced, quiet)
        .iter()
        .zip(&events)
        .map(|(ns, e)| ns / e.max(1.0))
        .collect();
    let tenth = (per_event.len() / 10).max(1);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    mean(&per_event[per_event.len() - tenth..]) / mean(&per_event[..tenth])
}

/// The per-layer ledger: counts from the traced window's public counters,
/// ns/op from the probes, shares against the untraced host time per IO.
fn ledger(
    sc: &Scenario,
    untraced_ns_per_io: f64,
    traced: &[Json],
    quiet: f64,
    probe: &ProbeTimes,
) -> Vec<Metric> {
    let first = &traced[0];
    let w = |key| window_num(first, key);
    let stage = |key| {
        first
            .get("window")
            .and_then(|w| w.get("stages"))
            .map_or(0.0, |s| s.num(key))
    };
    let ios = w("completed");
    let events_per_io = w("engine_events") / ios;
    let msgs_per_io = (w("rx_msgs") + w("tx_msgs")) / ios;
    let rounds_per_io = w("sched_rounds") / ios;
    let cmds = w("flash_reads") + w("flash_writes");
    let cmds_per_io = cmds / ios;
    let lookups_per_io = (w("cache_hits") + w("cache_misses")) / ios;

    // Host ns per IO each layer's probe accounts for.
    let sim_ns = events_per_io * probe.dispatch_ns + probe.hist_record_ns;
    let net_ns = msgs_per_io * (probe.send_poll_ns + probe.wire_codec_ns);
    let qos_ns = rounds_per_io * probe.round_ns;
    let flash_ns = cmds_per_io * probe.submit_poll_ns;
    let cache_ns = lookups_per_io * probe.lookup_fill_ns;
    // The pump probe carries one request and one response through the
    // fabric (with three of the four codec halves) and counts its own
    // calls into qos, flash and cache; what is left is the dataplane's.
    let pump_self_ns = (probe.pump.ns
        - 2.0 * probe.send_poll_ns
        - 1.5 * probe.wire_codec_ns
        - probe.pump.rounds * probe.round_ns
        - probe.pump.flash_cmds * probe.submit_poll_ns
        - probe.pump.cache_lookups * probe.lookup_fill_ns)
        .max(0.0);
    let share = |ns: f64| ns / untraced_ns_per_io;
    let shares = [sim_ns, net_ns, pump_self_ns, qos_ns, flash_ns, cache_ns].map(share);

    let values: [(&'static str, f64); 41] = [
        ("sim.events_per_io", events_per_io),
        ("sim.ns_per_event", untraced_ns_per_io / events_per_io),
        ("sim.slice_growth", slice_growth(traced, quiet)),
        ("sim.dispatch_ns", probe.dispatch_ns),
        ("sim.hist_record_ns", probe.hist_record_ns),
        ("sim.share", shares[0]),
        ("net.msgs_per_io", msgs_per_io),
        ("net.send_poll_ns", probe.send_poll_ns),
        ("net.wire_codec_ns", probe.wire_codec_ns),
        ("net.fabric_p95_us", stage("fabric_p95_us")),
        ("net.nicq_p95_us", stage("nic_queue_p95_us")),
        ("net.share", shares[1]),
        ("dataplane.rx_per_round", rx_per_round(first)),
        ("dataplane.busy_frac", w("busy_frac")),
        ("dataplane.sq_full_retries", w("sq_full_retries")),
        ("dataplane.pump_self_ns", pump_self_ns),
        ("dataplane.stage_p95_us", stage("dataplane_p95_us")),
        ("dataplane.share", shares[2]),
        ("qos.rounds_per_io", rounds_per_io),
        (
            "qos.tenants_per_thread",
            f64::from(sc.tenants()) / f64::from(sc.server_threads),
        ),
        ("qos.round_ns", probe.round_ns),
        ("qos.sched_frac", w("sched_frac")),
        ("qos.tokens_per_s", w("tokens_per_s")),
        ("qos.share", shares[3]),
        ("flash.cmds_per_io", cmds_per_io),
        ("flash.write_frac", w("flash_writes") / cmds.max(1.0)),
        ("flash.gc_erases", w("gc_erases")),
        ("flash.submit_poll_ns", probe.submit_poll_ns),
        ("flash.sq_p95_us", stage("flash_sq_p95_us")),
        ("flash.channel_p95_us", stage("channel_p95_us")),
        ("flash.share", shares[4]),
        ("cache.hit_ratio", w("hit_ratio")),
        ("cache.fills_per_io", w("cache_fills") / ios),
        ("cache.evictions_per_io", w("cache_evictions") / ios),
        ("cache.lookup_fill_ns", probe.lookup_fill_ns),
        ("cache.share", shares[5]),
        (
            "telemetry.overhead_frac",
            quiet_ns_per_io(traced, quiet) / untraced_ns_per_io - 1.0,
        ),
        ("telemetry.span_ns", probe.span_ns),
        ("core.retries", w("retries")),
        (
            "core.unfinished_frac",
            (w("issued") - ios).max(0.0) / w("issued"),
        ),
        ("core.residual_share", 1.0 - shares.iter().sum::<f64>()),
    ];
    values.iter().map(|&(name, v)| metric(name, &[v])).collect()
}

/// Runs one workload in one mode. Untraced: repetitions until `seconds`
/// of child time are spent, reduced to the end-to-end metrics. Traced:
/// untraced and traced repetitions alternate, then the layer probes run,
/// and the result is the per-layer ledger plus `trace_<workload>.json`.
pub fn run_workload(sc: &Scenario, traced: bool, opts: &Options) -> Result<Outcome, String> {
    let mut rec = Recorder::new(Instant::now());
    let budget = if traced {
        (opts.seconds - PROBE_SECONDS).max(0.0)
    } else {
        opts.seconds
    };
    let (mut plain, mut with_trace): (Vec<Json>, Vec<Json>) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let fewest = if traced {
            plain.len().min(with_trace.len())
        } else {
            plain.len()
        };
        let spent = started.elapsed().as_secs_f64();
        if fewest >= MAX_REPS || (fewest >= MIN_REPS && spent >= budget) {
            break;
        }
        // Alternate so that drift of the host hits both modes alike.
        let this_traced = traced && with_trace.len() < plain.len();
        let name = if this_traced {
            "rep.traced"
        } else {
            "rep.untraced"
        };
        let rep = rec.span(name, |rec| (spawn_rep(opts, sc, this_traced, rec), vec![]))?;
        if this_traced {
            with_trace.push(rep);
        } else {
            plain.push(rep);
        }
    }

    let all: Vec<&Json> = plain.iter().chain(&with_trace).collect();
    let (digest, digest_check) = check_digests(&all);
    let mut checks = check_window(sc, &plain[0]);
    checks.push(digest_check);
    let per_rep = |f: &dyn Fn(&Json) -> f64| plain.iter().map(f).collect::<Vec<f64>>();
    let quiet = quiet_reference_ns(&all);
    let host_ns_per_io = quiet_ns_per_io(&plain, quiet);

    let metrics = if traced {
        checks.push(check_conservation(&with_trace[0]));
        let probe = run_probes(&shape(sc, &with_trace[0]), quiet, &mut rec);
        let metrics = ledger(sc, host_ns_per_io, &with_trace, quiet, &probe);
        let path = opts.out_dir.join(format!("trace_{}.json", sc.name));
        write_file(&path, &rec.chrome_trace(sc.name).to_string())?;
        metrics
    } else {
        vec![
            // The value is the sum of per-slice medians; the quartiles
            // are of whole repetitions as timed, to show how far the host
            // pushed them apart.
            Metric {
                value: host_ns_per_io,
                ..metric(
                    "host_ns_per_io",
                    &per_rep(&|r| {
                        nums(r, "slice_ns").iter().sum::<f64>() / window_num(r, "completed")
                    }),
                )
            },
            metric("setup_s", &per_rep(&|r| r.num("setup_s"))),
            metric("peak_rss_mb", &per_rep(&|r| r.num("rss_mib"))),
            metric(
                "allocs_per_io",
                &per_rep(&|r| r.num("allocs") / window_num(r, "completed")),
            ),
            metric(
                "sim_p95_read_us",
                &per_rep(&|r| window_num(r, "p95_read_us")),
            ),
            metric("sim_kiops", &per_rep(&|r| window_num(r, "kiops"))),
        ]
    };

    let attempted: f64 = all.iter().map(|r| window_num(r, "issued")).sum();
    let errors: f64 = all
        .iter()
        .map(|r| window_num(r, "errors") + window_num(r, "exhausted"))
        .sum();
    let mut outcome = Outcome {
        workload: sc.name,
        traced,
        attempted: attempted as u64,
        failed: errors as u64,
        digest,
        metrics,
        checks,
    };
    if !outcome.correct() {
        // A failed check voids every operation of the run.
        outcome.failed = outcome.attempted;
    }
    Ok(outcome)
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `results.json`: the host, the calibration loop and every outcome of
/// this invocation, end-to-end and per-layer metrics under their workload.
pub fn results_json(opts: &Options, host: Json, calibration: Json, outcomes: &[Outcome]) -> Json {
    let mut workloads: BTreeMap<String, BTreeMap<String, Json>> = BTreeMap::new();
    for o in outcomes {
        let key = if o.traced { "per_layer" } else { "end_to_end" };
        workloads
            .entry(o.workload.to_owned())
            .or_default()
            .insert(key.to_owned(), o.to_json());
    }
    for (name, entry) in &mut workloads {
        if let Some(sc) = crate::workloads::find(name) {
            entry.insert("why".to_owned(), sc.why.into());
        }
    }
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", opts.seed.into()),
        ("seconds", opts.seconds.into()),
        ("host", host),
        ("calibration", calibration),
        (
            "workloads",
            Json::Obj(
                workloads
                    .into_iter()
                    .map(|(k, v)| (k, Json::Obj(v)))
                    .collect(),
            ),
        ),
    ])
}
