//! Parallel sweep runner for the experiment harnesses.
//!
//! Every figure is a set of *curves* (a configuration) each swept over
//! *load points*. Points are independent, deterministic simulations,
//! so the [`Sweep`] fans them out across OS threads and re-assembles the
//! results in declaration order — output is byte-identical to a serial
//! run, only faster.
//!
//! The serial harnesses stopped a curve early once its p95 blew past a
//! cutoff (`if p95 > cutoff { break }` after printing the breaching
//! point). The parallel runner keeps that output rule by running all
//! points speculatively and discarding everything after the first breach
//! ([`Curve::cutoff_p95_us`]); a single-threaded run short-circuits
//! instead — points past a breach are never executed, exactly like the
//! old harness loops. Either way the kept points, and therefore the TSV,
//! are identical.
//!
//! The driver picks the thread count (`REFLEX_BENCH_THREADS`, default all
//! cores). Besides the figure's TSV on stdout, [`SweepResult::write_json`]
//! drops a machine-readable `BENCH_<name>.json` with per-point metrics and wall
//! time, the sweep's wall-clock time and the engine event throughput —
//! taken over the points that dispatched engine events, so curves that
//! drive no engine do not dilute it.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use reflex_core::TestbedReport;

/// One measured load point.
///
/// Built by the point's job closure: `p95_us` drives the curve's
/// early-exit cutoff, `rows` are the pre-rendered TSV lines the binary
/// prints for this point, and `metrics` land in `BENCH_<name>.json`.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The cutoff metric, typically the worst p95 read latency in µs.
    pub p95_us: f64,
    /// Pre-rendered TSV rows (no trailing newline), printed in order.
    pub rows: Vec<String>,
    /// Named metrics for the JSON artifact, in insertion order.
    pub metrics: Vec<(String, f64)>,
    /// How the point's simulation executed.
    pub execution: Execution,
    /// Host wall-clock time the point's job took (set by the runner).
    pub wall: Duration,
}

/// How a point's simulation executed: host-side counts, none of them
/// simulated. From a [`TestbedReport`], or from a bare event count where
/// there is no such report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Execution {
    /// Engine events dispatched while producing the point.
    pub engine_events: u64,
    /// IOs completed in the point's measured window (0 when not recorded).
    pub ios: f64,
    /// Scheduling rounds its server threads slept through (see
    /// `reflex_core::WakeStats`).
    pub rounds_elided: u64,
    /// Settle passes that found such a round.
    pub settle_calls: u64,
    /// Responses its client machines absorbed with no wake of their own.
    pub client_absorbed: u64,
}

impl From<u64> for Execution {
    fn from(engine_events: u64) -> Self {
        Execution {
            engine_events,
            ..Execution::default()
        }
    }
}

impl From<&TestbedReport> for Execution {
    fn from(report: &TestbedReport) -> Self {
        let secs = report.window.as_secs_f64();
        Execution {
            engine_events: report.engine_events,
            ios: report.workloads.iter().map(|w| w.iops * secs).sum(),
            rounds_elided: report.wakes.rounds_elided,
            settle_calls: report.wakes.settle_calls,
            client_absorbed: report.wakes.client_absorbed,
        }
    }
}

impl PointOutcome {
    /// A point whose cutoff metric is `p95_us`.
    pub fn new(p95_us: f64) -> Self {
        PointOutcome {
            p95_us,
            rows: Vec::new(),
            metrics: Vec::new(),
            execution: Execution::default(),
            wall: Duration::ZERO,
        }
    }

    /// Appends a TSV row.
    #[must_use]
    pub fn with_row(mut self, row: impl Into<String>) -> Self {
        self.rows.push(row.into());
        self
    }

    /// Appends a named metric for the JSON artifact.
    #[must_use]
    pub fn with_metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Records how the point's simulation executed: its engine events
    /// and, given the testbed's report, the IOs they served and the
    /// rounds its threads slept through.
    #[must_use]
    pub fn with_events(mut self, execution: impl Into<Execution>) -> Self {
        self.execution = execution.into();
        self
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

type Job = Box<dyn FnOnce() -> PointOutcome + Send>;

fn run_timed(job: Job) -> PointOutcome {
    let start = Instant::now();
    let mut outcome = job();
    outcome.wall = start.elapsed();
    outcome
}

/// Summed wall of the points that dispatched engine events.
fn event_wall<'a>(points: impl IntoIterator<Item = &'a PointOutcome>) -> Duration {
    points
        .into_iter()
        .filter(|p| p.execution.engine_events > 0)
        .map(|p| p.wall)
        .sum()
}

/// A named curve: an ordered list of point jobs plus an optional cutoff.
pub struct Curve {
    label: String,
    cutoff: Option<f64>,
    jobs: Vec<Job>,
}

impl std::fmt::Debug for Curve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Curve")
            .field("label", &self.label)
            .field("cutoff", &self.cutoff)
            .field("points", &self.jobs.len())
            .finish()
    }
}

impl Curve {
    /// Discard points after the first whose `p95_us` exceeds `cutoff`
    /// (the breaching point itself is kept, matching the serial harnesses'
    /// print-then-break behavior).
    pub fn cutoff_p95_us(&mut self, cutoff: f64) -> &mut Self {
        self.cutoff = Some(cutoff);
        self
    }

    /// Adds the next load point. `job` must be a pure function of its
    /// captures — it runs on an arbitrary thread at an arbitrary time.
    pub fn point<F>(&mut self, job: F) -> &mut Self
    where
        F: FnOnce() -> PointOutcome + Send + 'static,
    {
        self.jobs.push(Box::new(job));
        self
    }
}

/// A declarative sweep: curves × points, executed in parallel.
#[derive(Debug)]
pub struct Sweep {
    name: String,
    smoke: bool,
    curves: Vec<Curve>,
    texts: Vec<(usize, String)>,
}

impl Sweep {
    /// Starts a sweep named `name` (the JSON artifact is
    /// `BENCH_<name>.json`).
    pub fn new(name: impl Into<String>) -> Self {
        Sweep {
            name: name.into(),
            smoke: false,
            curves: Vec::new(),
            texts: Vec::new(),
        }
    }

    /// Marks a reduced-grid smoke run: its artifacts are named
    /// `<name>_smoke`, so it never overwrites a full run's.
    #[must_use]
    pub fn smoke(mut self, smoke: bool) -> Self {
        if smoke {
            self.name.push_str("_smoke");
        }
        self.smoke = smoke;
        self
    }

    /// Adds literal TSV text — a title, a column header, a blank line
    /// between panels — printed where it is declared among the curves.
    pub fn text(&mut self, text: impl Into<String>) {
        self.texts.push((self.curves.len(), text.into()));
    }

    /// Opens a new curve; add points to the returned handle.
    pub fn curve(&mut self, label: impl Into<String>) -> &mut Curve {
        self.curves.push(Curve {
            label: label.into(),
            cutoff: None,
            jobs: Vec::new(),
        });
        self.curves.last_mut().expect("just pushed")
    }

    /// Runs every point on exactly `threads` threads (1 = fully serial).
    ///
    /// Kept points — and therefore the TSV — are identical for any thread
    /// count; only wall clock (and whether discarded points actually ran)
    /// varies.
    pub fn run_with_threads(self, threads: usize) -> SweepResult {
        let start = Instant::now();
        let sizes: Vec<usize> = self.curves.iter().map(|c| c.jobs.len()).collect();
        let mut jobs: Vec<Option<Job>> = Vec::new();
        let mut specs = Vec::new();
        for curve in self.curves {
            jobs.extend(curve.jobs.into_iter().map(Some));
            specs.push((curve.label, curve.cutoff));
        }
        let n = jobs.len();
        let workers = threads.max(1).min(n.max(1));

        if workers <= 1 {
            // True early exit, exactly like the old serial harness loops:
            // once a curve breaches its cutoff, its remaining points are
            // never executed (but still counted as discarded).
            let mut jobs = jobs.into_iter();
            let mut curves = Vec::new();
            let mut engine_events = 0u64;
            for ((label, cutoff), size) in specs.into_iter().zip(sizes) {
                let mut points = Vec::new();
                let mut discarded = 0usize;
                for job in jobs.by_ref().take(size) {
                    let breached = cutoff.is_some_and(|c| {
                        points.last().is_some_and(|p: &PointOutcome| p.p95_us > c)
                    });
                    if breached {
                        discarded += 1;
                        continue;
                    }
                    let outcome = run_timed(job.expect("job present"));
                    engine_events += outcome.execution.engine_events;
                    points.push(outcome);
                }
                curves.push(CurveResult {
                    label,
                    points,
                    discarded,
                });
            }
            let wall = start.elapsed();
            let event_wall = event_wall(curves.iter().flat_map(|c| &c.points));
            return SweepResult {
                name: self.name,
                smoke: self.smoke,
                texts: self.texts,
                threads: 1,
                wall,
                engine_events,
                event_wall,
                curves,
            };
        }

        let outcomes: Vec<PointOutcome> = {
            let work = Mutex::new((0usize, jobs));
            let slots: Vec<Mutex<Option<PointOutcome>>> =
                (0..n).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let (i, job) = {
                            let mut guard = work.lock().expect("sweep worker poisoned");
                            let i = guard.0;
                            if i >= n {
                                break;
                            }
                            guard.0 += 1;
                            (i, guard.1[i].take().expect("job claimed once"))
                        };
                        let outcome = run_timed(job);
                        *slots[i].lock().expect("slot poisoned") = Some(outcome);
                    });
                }
            });
            slots
                .into_iter()
                .map(|m| m.into_inner().expect("slot poisoned").expect("job ran"))
                .collect()
        };

        let wall = start.elapsed();
        let engine_events: u64 = outcomes.iter().map(|o| o.execution.engine_events).sum();
        let event_wall = event_wall(&outcomes);
        let mut it = outcomes.into_iter();
        let mut curves = Vec::new();
        for ((label, cutoff), size) in specs.into_iter().zip(sizes) {
            let all: Vec<PointOutcome> = it.by_ref().take(size).collect();
            let kept = match cutoff {
                // Keep everything up to and including the first breach.
                Some(c) => {
                    let breach = all.iter().position(|p| p.p95_us > c);
                    breach.map_or(all.len(), |i| i + 1)
                }
                None => all.len(),
            };
            let discarded = all.len() - kept;
            let mut points = all;
            points.truncate(kept);
            curves.push(CurveResult {
                label,
                points,
                discarded,
            });
        }
        SweepResult {
            name: self.name,
            smoke: self.smoke,
            texts: self.texts,
            threads: workers,
            wall,
            engine_events,
            event_wall,
            curves,
        }
    }
}

/// Fault-injection totals for a chaos sweep — emitted as the optional
/// `faults` section of `BENCH_<name>.json` (see [`SweepResult::faults`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultsSummary {
    /// Individual faults injected (failed/delayed commands, dropped or
    /// duplicated messages, thread stalls).
    pub injected: u64,
    /// Requests that succeeded after at least one retry.
    pub recovered: u64,
    /// Requests abandoned with all retry attempts spent.
    pub unrecovered: u64,
    /// Total scheduled unavailability (link outages + stalls), seconds
    /// of simulated time.
    pub downtime_secs: f64,
}

/// A curve's kept points after cutoff truncation.
#[derive(Debug)]
pub struct CurveResult {
    /// The curve's label, as declared.
    pub label: String,
    /// Kept points, in declaration order.
    pub points: Vec<PointOutcome>,
    /// Points dropped past the cutoff. Parallel runs executed them
    /// speculatively; serial runs never executed them at all.
    pub discarded: usize,
}

/// Results of a [`Sweep::run_with_threads`], in declaration order.
#[derive(Debug)]
pub struct SweepResult {
    /// Sweep name (JSON artifact stem).
    pub name: String,
    /// Whether this was a reduced-grid smoke run (see [`Sweep::smoke`]).
    pub smoke: bool,
    /// Literal text (see [`Sweep::text`]), each with the index of the curve
    /// it precedes.
    texts: Vec<(usize, String)>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock time for the whole sweep.
    pub wall: Duration,
    /// Engine events dispatched across all executed points (parallel runs
    /// include speculatively-run discarded points; serial runs do not).
    pub engine_events: u64,
    /// Summed wall of the executed points that dispatched engine events —
    /// the denominator of [`events_per_sec`](Self::events_per_sec). Points
    /// that drive no engine (fig4's `Local-*` curves) count toward `wall`
    /// only. Point walls add up across workers, so on a parallel run this
    /// can exceed `wall`.
    pub event_wall: Duration,
    /// One entry per declared curve.
    pub curves: Vec<CurveResult>,
}

impl SweepResult {
    /// The curve with the given label.
    ///
    /// # Panics
    ///
    /// Panics if no curve has that label.
    pub fn curve(&self, label: &str) -> &CurveResult {
        self.curves
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("no curve labelled {label}"))
    }

    /// Fault totals summed over the points' `injected`, `recovered`,
    /// `unrecovered` and `downtime_s` metrics; `None` unless some point
    /// carries an `injected` metric (chaos sweeps do). `BENCH_<name>.json`
    /// gains a `faults` section when present.
    pub fn faults(&self) -> Option<FaultsSummary> {
        let mut s = FaultsSummary::default();
        let mut any = false;
        for p in self.curves.iter().flat_map(|c| &c.points) {
            any |= p.metric("injected").is_some();
            s.injected += p.metric("injected").unwrap_or(0.0) as u64;
            s.recovered += p.metric("recovered").unwrap_or(0.0) as u64;
            s.unrecovered += p.metric("unrecovered").unwrap_or(0.0) as u64;
            s.downtime_secs += p.metric("downtime_s").unwrap_or(0.0);
        }
        any.then_some(s)
    }

    /// The figure's TSV: all kept rows, curve by curve, newline-terminated,
    /// with the declared [text](Sweep::text) in between.
    pub fn tsv(&self) -> String {
        let mut out = String::new();
        let mut texts = self.texts.iter().peekable();
        for (i, c) in self.curves.iter().enumerate() {
            while let Some((_, text)) = texts.next_if(|(at, _)| *at <= i) {
                out.push_str(text);
            }
            for r in c.points.iter().flat_map(|p| &p.rows) {
                out.push_str(r);
                out.push('\n');
            }
        }
        for (_, text) in texts {
            out.push_str(text);
        }
        out
    }

    /// Engine events per second of [`event_wall`](Self::event_wall): the
    /// rate one worker sustains while it is running an engine.
    pub fn events_per_sec(&self) -> f64 {
        self.engine_events as f64 / self.event_wall.as_secs_f64().max(1e-9)
    }

    /// Writes `BENCH_<name>.json` into the current directory and returns
    /// its path. The sweep stays usable; call after printing the TSV.
    /// `peak_rss_mib` is the process's peak resident set when the file is
    /// written (`null` off Linux): under `--all` it covers every figure
    /// run before this one too.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating or writing the file.
    pub fn write_json(&self) -> std::io::Result<PathBuf> {
        let path = PathBuf::from(format!("BENCH_{}.json", self.name));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "{{")?;
        writeln!(f, "  \"bench\": {},", json_str(&self.name))?;
        writeln!(f, "  \"threads\": {},", self.threads)?;
        writeln!(f, "  \"wall_secs\": {},", json_num(self.wall.as_secs_f64()))?;
        writeln!(f, "  \"engine_events\": {},", self.engine_events)?;
        writeln!(
            f,
            "  \"event_wall_secs\": {},",
            json_num(self.event_wall.as_secs_f64())
        )?;
        writeln!(
            f,
            "  \"engine_events_per_sec\": {},",
            json_num(self.events_per_sec())
        )?;
        let peak = peak_rss_mib().unwrap_or(f64::NAN);
        writeln!(f, "  \"peak_rss_mib\": {},", json_num(peak))?;
        // Over the kept points that recorded their IOs: warm-up events
        // included, IOs of the measured window only.
        let points = self.curves.iter().flat_map(|c| &c.points);
        let with_ios: Vec<Execution> = points
            .map(|p| p.execution)
            .filter(|e| e.ios > 0.0)
            .collect();
        if !with_ios.is_empty() {
            let events: u64 = with_ios.iter().map(|e| e.engine_events).sum();
            let ios: f64 = with_ios.iter().map(|e| e.ios).sum();
            let elided: u64 = with_ios.iter().map(|e| e.rounds_elided).sum();
            let settles: u64 = with_ios.iter().map(|e| e.settle_calls).sum();
            let absorbed: u64 = with_ios.iter().map(|e| e.client_absorbed).sum();
            writeln!(f, "  \"events_per_io\": {},", json_num(events as f64 / ios))?;
            writeln!(f, "  \"rounds_elided\": {elided},")?;
            writeln!(f, "  \"settle_calls\": {settles},")?;
            writeln!(f, "  \"client_absorbed\": {absorbed},")?;
        }
        if let Some(fs) = self.faults() {
            writeln!(
                f,
                "  \"faults\": {{\"injected\": {}, \"recovered\": {}, \"unrecovered\": {}, \"downtime_secs\": {}}},",
                fs.injected,
                fs.recovered,
                fs.unrecovered,
                json_num(fs.downtime_secs)
            )?;
        }
        writeln!(f, "  \"curves\": [")?;
        for (ci, c) in self.curves.iter().enumerate() {
            writeln!(f, "    {{")?;
            writeln!(f, "      \"label\": {},", json_str(&c.label))?;
            writeln!(f, "      \"discarded\": {},", c.discarded)?;
            writeln!(f, "      \"points\": [")?;
            for (pi, p) in c.points.iter().enumerate() {
                write!(
                    f,
                    "        {{\"p95_us\": {}, \"wall_secs\": {}",
                    json_num(p.p95_us),
                    json_num(p.wall.as_secs_f64())
                )?;
                let e = p.execution;
                if e.engine_events > 0 {
                    write!(f, ", \"engine_events\": {}", e.engine_events)?;
                }
                if e.ios > 0.0 {
                    write!(
                        f,
                        ", \"events_per_io\": {}, \"rounds_elided\": {}, \"settle_calls\": {}, \"client_absorbed\": {}",
                        json_num(e.engine_events as f64 / e.ios),
                        e.rounds_elided,
                        e.settle_calls,
                        e.client_absorbed
                    )?;
                }
                for (name, value) in &p.metrics {
                    write!(f, ", {}: {}", json_str(name), json_num(*value))?;
                }
                writeln!(f, "}}{}", if pi + 1 < c.points.len() { "," } else { "" })?;
            }
            writeln!(f, "      ]")?;
            writeln!(
                f,
                "    }}{}",
                if ci + 1 < self.curves.len() { "," } else { "" }
            )?;
        }
        writeln!(f, "  ]")?;
        writeln!(f, "}}")?;
        f.flush()?;
        Ok(path)
    }

    /// [`write_json`](Self::write_json), reporting failure on stderr
    /// instead of returning it (the driver treats the artifact as
    /// best-effort).
    pub fn write_json_or_warn(&self) {
        match self.write_json() {
            Ok(path) => eprintln!(
                "[{}] {} threads, {:.2}s wall, {:.2}M engine events/s -> {}",
                self.name,
                self.threads,
                self.wall.as_secs_f64(),
                self.events_per_sec() / 1e6,
                path.display()
            ),
            Err(e) => eprintln!("[{}] could not write JSON artifact: {e}", self.name),
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The process's peak resident set so far (`VmHWM` in `/proc/self/status`)
/// in MiB; `None` where that file does not exist.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = kib.trim().strip_suffix("kB")?.trim_end().parse().ok()?;
    Some(kib / 1024.0)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_sweep() -> Sweep {
        let mut sweep = Sweep::new("demo");
        for curve_idx in 0..3u64 {
            let c = sweep.curve(format!("curve{curve_idx}"));
            c.cutoff_p95_us(500.0);
            for point_idx in 0..6u64 {
                c.point(move || {
                    // Deterministic pseudo-latency ramp per curve.
                    let p95 = (point_idx * 150 + curve_idx * 37) as f64;
                    PointOutcome::new(p95)
                        .with_row(format!("{curve_idx}\t{point_idx}\t{p95:.0}"))
                        .with_metric("p", p95)
                        .with_events(100)
                });
            }
        }
        sweep
    }

    #[test]
    fn serial_and_parallel_agree_byte_for_byte() {
        let serial = demo_sweep().run_with_threads(1);
        let parallel = demo_sweep().run_with_threads(4);
        assert_eq!(serial.tsv(), parallel.tsv());
        // Serial skips discarded points entirely, so it dispatches fewer
        // (or equal) engine events than the speculative parallel run.
        assert!(serial.engine_events <= parallel.engine_events);
        // curve0/curve1 keep 5 points, curve2 breaches earlier and keeps 4;
        // only kept points ran, 100 events each.
        assert_eq!(serial.engine_events, (5 + 5 + 4) * 100);
        assert_eq!(serial.curves.len(), parallel.curves.len());
        for (s, p) in serial.curves.iter().zip(&parallel.curves) {
            assert_eq!(s.points.len(), p.points.len());
            assert_eq!(s.discarded, p.discarded);
        }
    }

    #[test]
    fn events_per_sec_covers_only_points_that_report_events() {
        for threads in [1, 2] {
            let mut sweep = Sweep::new("mixed");
            sweep.curve("engine").point(|| {
                std::thread::sleep(Duration::from_millis(5));
                PointOutcome::new(1.0).with_events(1_000)
            });
            sweep.curve("no-engine").point(|| {
                std::thread::sleep(Duration::from_millis(40));
                PointOutcome::new(1.0)
            });
            let result = sweep.run_with_threads(threads);
            let engine = &result.curve("engine").points[0];
            assert!(engine.wall >= Duration::from_millis(5));
            assert_eq!(result.event_wall, engine.wall);
            // The slow engine-less point is in the sweep's wall, not in
            // the rate's denominator.
            assert!(result.wall >= Duration::from_millis(40));
            assert_eq!(result.events_per_sec(), 1_000.0 / engine.wall.as_secs_f64());
        }
    }

    #[test]
    fn cutoff_keeps_first_breaching_point() {
        let result = demo_sweep().run_with_threads(2);
        // curve0: p95 = 0,150,300,450,600,750 -> first breach at index 4.
        let c = result.curve("curve0");
        assert_eq!(c.points.len(), 5);
        assert_eq!(c.discarded, 1);
        assert!(c.points[4].p95_us > 500.0);
        assert!(c.points[3].p95_us <= 500.0);
        // Discarded points still count toward engine events (they ran).
        assert_eq!(result.engine_events, 3 * 6 * 100);
    }

    #[test]
    fn no_cutoff_keeps_everything() {
        let mut sweep = Sweep::new("nocut");
        let c = sweep.curve("only");
        for i in 0..4 {
            c.point(move || PointOutcome::new(i as f64 * 1e6).with_row(format!("{i}")));
        }
        let result = sweep.run_with_threads(3);
        assert_eq!(result.curve("only").points.len(), 4);
        assert_eq!(result.tsv(), "0\n1\n2\n3\n");
    }

    #[test]
    fn text_prints_where_it_is_declared_and_smoke_renames() {
        let mut sweep = Sweep::new("fig").smoke(true);
        sweep.text("# title\ncols\n");
        for label in ["a", "b"] {
            let c = sweep.curve(label);
            c.point(move || PointOutcome::new(0.0).with_row(format!("{label}1")));
            c.point(move || PointOutcome::new(0.0).with_row(format!("{label}2")));
            sweep.text("\n");
        }
        sweep.text("# end\n");
        let result = sweep.run_with_threads(2);
        assert_eq!(result.tsv(), "# title\ncols\na1\na2\n\nb1\nb2\n\n# end\n");
        assert_eq!(result.name, "fig_smoke");
        assert!(result.smoke && result.faults().is_none());
    }

    #[test]
    fn json_escaping_and_numbers() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
    }
}
