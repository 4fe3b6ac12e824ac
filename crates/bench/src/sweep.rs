//! Parallel sweep runner for the experiment harnesses.
//!
//! Every figure is a set of *curves* (a configuration) each swept over
//! *load points*. Points are independent, deterministic simulations,
//! so the [`Sweep`] fans them out across OS threads and re-assembles the
//! results in declaration order — output is byte-identical to a serial
//! run, only faster.
//!
//! A curve may stop early once its p95 blows past a cutoff
//! (`Curve::cutoff_p95_us`): the breaching point is kept, the points
//! after it are discarded. One pool runs every sweep, at any thread
//! count: its workers claim jobs in declaration order and skip a job once
//! an earlier point of its curve is known to have breached. With one
//! worker that is a serial loop's early exit, so no point past a breach
//! runs; with more, a point may run speculatively before the breach ahead
//! of it is known, and is then discarded. Either way the kept points —
//! their TSV rows, metrics and telemetry — are identical.
//!
//! The driver picks the thread count (`REFLEX_BENCH_THREADS`, default all
//! cores) and whether points record telemetry (`REFLEX_TELEMETRY`, set on
//! the sweep before its figure declares it). Besides the figure's TSV on
//! stdout, [`SweepResult::write_artifacts`] drops a machine-readable
//! `BENCH_<name>.json` with per-point metrics and wall time, the sweep's
//! wall-clock time and the engine event throughput — taken over the
//! points that dispatched engine events, so curves that drive no engine
//! do not dilute it — and, when points recorded telemetry,
//! `TELEMETRY_<name>.{json,tsv}`: the kept points' snapshots merged in
//! declaration order, so a discarded point contributes nothing and the
//! files are the same at any thread count.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use reflex_core::TestbedReport;
use reflex_telemetry::TelemetrySnapshot;

/// One measured load point.
///
/// Built by the point's job closure: `p95_us`, when the point reports a
/// latency, drives the curve's early-exit cutoff, `rows` are the
/// pre-rendered TSV lines the binary prints for this point, `metrics`
/// land in `BENCH_<name>.json` and `telemetry` in `TELEMETRY_<name>.*`.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The cutoff metric, typically the worst p95 read latency in µs;
    /// `None` for a point that reports no latency, which never breaches.
    pub p95_us: Option<f64>,
    /// Pre-rendered TSV rows (no trailing newline), printed in order.
    pub rows: Vec<String>,
    /// Named metrics for the JSON artifact, in insertion order.
    pub metrics: Vec<(String, f64)>,
    /// How the point's simulation executed.
    pub execution: Execution,
    /// What the point's testbeds recorded, merged in the order they ran
    /// (`None` unless the sweep records telemetry), until the sweep folds
    /// it into [`SweepResult::telemetry`].
    pub(crate) telemetry: Option<TelemetrySnapshot>,
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
    /// A point whose cutoff metric is `p95_us` (`None`: no latency).
    pub(crate) fn new(p95_us: impl Into<Option<f64>>) -> Self {
        PointOutcome {
            p95_us: p95_us.into(),
            rows: Vec::new(),
            metrics: Vec::new(),
            execution: Execution::default(),
            telemetry: None,
            wall: Duration::ZERO,
        }
    }

    /// Appends a TSV row.
    #[must_use]
    pub(crate) fn with_row(mut self, row: impl Into<String>) -> Self {
        self.rows.push(row.into());
        self
    }

    /// Appends a named metric for the JSON artifact.
    #[must_use]
    pub(crate) fn with_metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Adds how a testbed of the point executed to the point's: its
    /// engine events and, given the testbed's report, the IOs they served
    /// and the rounds its threads slept through.
    #[must_use]
    pub(crate) fn with_events(mut self, execution: impl Into<Execution>) -> Self {
        let (mine, e) = (&mut self.execution, execution.into());
        mine.engine_events += e.engine_events;
        mine.ios += e.ios;
        mine.rounds_elided += e.rounds_elided;
        mine.settle_calls += e.settle_calls;
        mine.client_absorbed += e.client_absorbed;
        self
    }

    /// Merges a testbed's telemetry snapshot (`None`: nothing recorded)
    /// into the point's.
    #[must_use]
    pub(crate) fn with_telemetry(mut self, snapshot: Option<TelemetrySnapshot>) -> Self {
        match (&mut self.telemetry, snapshot) {
            (Some(mine), Some(s)) => mine.merge(&s),
            (mine, s @ Some(_)) => *mine = s,
            (_, None) => {}
        }
        self
    }

    /// Whether the point's latency is past `cutoff`; one with none never is.
    fn breaches(&self, cutoff: f64) -> bool {
        self.p95_us.is_some_and(|p95| p95 > cutoff)
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

/// A named curve: an ordered list of point jobs plus an optional cutoff.
pub struct Curve {
    label: String,
    cutoff: Option<f64>,
    jobs: Vec<Job>,
}

impl Curve {
    /// Discard points after the first whose `p95_us` exceeds `cutoff`
    /// (the breaching point itself is kept, matching the serial harnesses'
    /// print-then-break behavior).
    pub(crate) fn cutoff_p95_us(&mut self, cutoff: f64) -> &mut Self {
        self.cutoff = Some(cutoff);
        self
    }

    /// Adds the next load point. `job` must be a pure function of its
    /// captures — it runs on an arbitrary thread at an arbitrary time.
    pub(crate) fn point<F>(&mut self, job: F) -> &mut Self
    where
        F: FnOnce() -> PointOutcome + Send + 'static,
    {
        self.jobs.push(Box::new(job));
        self
    }
}

/// A declarative sweep: curves × points, executed in parallel.
pub struct Sweep {
    name: String,
    /// Whether the points record telemetry: the figures' jobs read it
    /// when they are declared, and hand their snapshots back in
    /// [`PointOutcome::telemetry`].
    pub(crate) telemetry: bool,
    curves: Vec<Curve>,
    texts: Vec<(usize, String)>,
}

impl Sweep {
    /// Starts a sweep named `name` (the JSON artifact is
    /// `BENCH_<name>.json`).
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Sweep {
            name: name.into(),
            telemetry: false,
            curves: Vec::new(),
            texts: Vec::new(),
        }
    }

    /// Marks a reduced-grid smoke run: its artifacts are named
    /// `<name>_smoke`, so it never overwrites a full run's.
    #[must_use]
    pub(crate) fn smoke(mut self, smoke: bool) -> Self {
        if smoke {
            self.name.push_str("_smoke");
        }
        self
    }

    /// Adds literal TSV text — a title, a column header, a blank line
    /// between panels — printed where it is declared among the curves.
    pub(crate) fn text(&mut self, text: impl Into<String>) {
        self.texts.push((self.curves.len(), text.into()));
    }

    /// Opens a new curve; add points to the returned handle.
    pub(crate) fn curve(&mut self, label: impl Into<String>) -> &mut Curve {
        self.curves.push(Curve {
            label: label.into(),
            cutoff: None,
            jobs: Vec::new(),
        });
        self.curves.last_mut().expect("just pushed")
    }

    /// Runs every point on `threads` threads (the calling one included):
    /// one pool at any count, 1 being a serial run.
    ///
    /// Kept points — and therefore the TSV and the telemetry — are
    /// identical for any thread count; only wall clock, and which
    /// discarded points ran before their curve's breach was known, vary.
    pub fn run_with_threads(self, threads: usize) -> SweepResult {
        let start = Instant::now();
        let mut jobs = Vec::new();
        let mut pool = Pool::default();
        for (c, curve) in self.curves.into_iter().enumerate() {
            pool.place.extend((0..curve.jobs.len()).map(|at| (c, at)));
            pool.cutoffs.push(curve.cutoff);
            pool.breach.push(usize::MAX);
            pool.curves.push(CurveResult {
                label: curve.label,
                points: Vec::new(),
                discarded: 0,
            });
            jobs.extend(curve.jobs);
        }
        pool.resolved.resize_with(jobs.len(), || None);
        let workers = threads.clamp(1, jobs.len().max(1));
        pool.jobs = jobs.into_iter().enumerate();
        let pool = Mutex::new(pool);
        let work = || loop {
            let claimed = pool.lock().expect(POISONED).claim();
            let Some((i, job)) = claimed else { break };
            let outcome = run_timed(job);
            pool.lock().expect(POISONED).finish(i, outcome);
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(work);
            }
            work();
        });
        let mut pool = pool.into_inner().expect(POISONED);
        pool.settle();
        SweepResult {
            name: self.name,
            texts: self.texts,
            threads: workers,
            wall: start.elapsed(),
            engine_events: pool.engine_events,
            event_wall: pool.event_wall,
            curves: pool.curves,
            telemetry: pool.telemetry,
        }
    }
}

const POISONED: &str = "a sweep worker panicked";

/// A running sweep, shared by its workers.
#[derive(Default)]
struct Pool {
    /// The unclaimed jobs, by index in declaration order.
    jobs: std::iter::Enumerate<std::vec::IntoIter<Job>>,
    /// Each job's curve and its place on the curve.
    place: Vec<(usize, usize)>,
    /// Each job once it is resolved: what it returned, or `None` when it
    /// was skipped or its outcome was settled.
    resolved: Vec<Option<Option<PointOutcome>>>,
    /// How many jobs, in declaration order, are settled.
    settled: usize,
    /// Each curve's cutoff.
    cutoffs: Vec<Option<f64>>,
    /// Each curve's earliest breaching point so far (`usize::MAX`: none).
    breach: Vec<usize>,
    /// Engine events of every job that ran.
    engine_events: u64,
    /// Summed wall of the jobs that ran and dispatched engine events.
    event_wall: Duration,
    /// The settled curves and the fold of their kept points' telemetry.
    curves: Vec<CurveResult>,
    telemetry: Option<TelemetrySnapshot>,
}

impl Pool {
    /// The next job in declaration order that no earlier point of its
    /// curve is known to have breached ahead of; those it passes are
    /// skipped.
    fn claim(&mut self) -> Option<(usize, Job)> {
        for (i, job) in self.jobs.by_ref() {
            let (c, at) = self.place[i];
            if at <= self.breach[c] {
                return Some((i, job));
            }
            self.resolved[i] = Some(None);
        }
        None
    }

    /// Records job `i`'s outcome, and its curve's breach if it is one.
    fn finish(&mut self, i: usize, outcome: PointOutcome) {
        let (c, at) = self.place[i];
        if self.cutoffs[c].is_some_and(|cutoff| outcome.breaches(cutoff)) {
            self.breach[c] = self.breach[c].min(at);
        }
        self.engine_events += outcome.execution.engine_events;
        if outcome.execution.engine_events > 0 {
            self.event_wall += outcome.wall;
        }
        self.resolved[i] = Some(Some(outcome));
        self.settle();
    }

    /// Settles the resolved jobs that follow the settled ones, in
    /// declaration order. Every earlier point of a job's curve is settled
    /// by then, so its curve's breach is known: a point at or before it is
    /// kept, its telemetry folded in, and any other is discarded.
    fn settle(&mut self) {
        while let Some(Some(resolved)) = self.resolved.get_mut(self.settled) {
            let (c, at) = self.place[self.settled];
            self.settled += 1;
            match resolved.take() {
                Some(mut point) if at <= self.breach[c] => {
                    if let Some(snapshot) = point.telemetry.take() {
                        self.telemetry
                            .get_or_insert_with(TelemetrySnapshot::default)
                            .merge(&snapshot);
                    }
                    self.curves[c].points.push(point);
                }
                _ => self.curves[c].discarded += 1,
            }
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
    /// Points dropped past the cutoff. A serial run never executes them;
    /// a parallel one may have run some speculatively, before the breach
    /// was known.
    pub discarded: usize,
}

/// Results of a [`Sweep::run_with_threads`], in declaration order.
#[derive(Debug)]
pub struct SweepResult {
    /// Sweep name (JSON artifact stem), `_smoke` appended for a
    /// reduced-grid smoke run (see `Sweep::smoke`).
    pub name: String,
    /// Literal text (see [`Sweep::text`]), each with the index of the curve
    /// it precedes.
    texts: Vec<(usize, String)>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock time for the whole sweep.
    pub wall: Duration,
    /// Engine events dispatched across all executed points: discarded
    /// points that ran speculatively count, so this, unlike the kept
    /// points, may vary with the thread count.
    pub engine_events: u64,
    /// Summed wall of the executed points that dispatched engine events —
    /// the denominator of the JSON's `engine_events_per_sec`. Points
    /// that drive no engine (fig1's and fig3's device sweeps) count toward `wall`
    /// only. Point walls add up across workers, so on a parallel run this
    /// can exceed `wall`.
    pub event_wall: Duration,
    /// One entry per declared curve.
    pub curves: Vec<CurveResult>,
    /// The kept points' telemetry snapshots merged in declaration order;
    /// `None` when no kept point recorded any.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl SweepResult {
    /// The curve with the given label.
    ///
    /// # Panics
    ///
    /// Panics if no curve has that label.
    pub fn curve(&self, label: &str) -> &CurveResult {
        self.find(label)
            .unwrap_or_else(|| panic!("no curve labelled {label}"))
    }

    /// The curve with the given label, if there is one.
    pub(crate) fn find(&self, label: &str) -> Option<&CurveResult> {
        self.curves.iter().find(|c| c.label == label)
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
    /// with the declared text (`Sweep::text`) in between.
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
    pub(crate) fn events_per_sec(&self) -> f64 {
        self.engine_events as f64 / self.event_wall.as_secs_f64().max(1e-9)
    }

    /// Renders the `BENCH_<name>.json` document into `f`, with the mean
    /// absolute relative error of the figure's claims when it has any.
    fn json_into(
        &self,
        claims_mare: Option<f64>,
        f: &mut impl std::io::Write,
    ) -> std::io::Result<()> {
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
        if let Some(mare) = claims_mare {
            writeln!(f, "  \"claims_mare\": {},", json_num(mare))?;
        }
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
                    p.p95_us.map_or_else(|| "null".to_string(), json_num),
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
        writeln!(f, "}}")
    }

    /// Writes `BENCH_<name>.json` and, when kept points recorded
    /// telemetry, `TELEMETRY_<name>.json` and `.tsv` into the current
    /// directory, reporting each file or its failure on stderr: the
    /// artifacts are best-effort. `peak_rss_mib` is the process's peak
    /// resident set when the file is written (`null` off Linux): under
    /// `--all` it covers every figure run before this one too.
    /// `claims_mare` is the figure's claims error (see
    /// [`crate::claims::Verdict::mare`]).
    pub fn write_artifacts(&self, claims_mare: Option<f64>) {
        let name = &self.name;
        let path = PathBuf::from(format!("BENCH_{name}.json"));
        let written = std::fs::File::create(&path).and_then(|file| {
            let mut f = std::io::BufWriter::new(file);
            self.json_into(claims_mare, &mut f)?;
            f.flush()
        });
        match written {
            Ok(()) => eprintln!(
                "[{name}] {} threads, {:.2}s wall, {:.2}M engine events/s -> {}",
                self.threads,
                self.wall.as_secs_f64(),
                self.events_per_sec() / 1e6,
                path.display()
            ),
            Err(e) => eprintln!("[{name}] could not write JSON artifact: {e}"),
        }
        let Some(snapshot) = self.telemetry.as_ref().filter(|t| !t.is_empty()) else {
            return;
        };
        for (ext, body) in [("json", snapshot.to_json()), ("tsv", snapshot.to_tsv())] {
            let path = PathBuf::from(format!("TELEMETRY_{name}.{ext}"));
            match std::fs::write(&path, body) {
                Ok(()) => eprintln!("[{name}] telemetry -> {}", path.display()),
                Err(e) => eprintln!("[{name}] could not write {}: {e}", path.display()),
            }
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
impl Sweep {
    /// The declared curves' labels; nothing runs.
    pub(crate) fn labels(&self) -> impl Iterator<Item = &str> {
        self.curves.iter().map(|c| c.label.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Arc;

    fn demo_sweep() -> Sweep {
        counted_demo_sweep(&Arc::default())
    }

    /// [`demo_sweep`], each point counting its run in `runs`.
    fn counted_demo_sweep(runs: &Arc<AtomicUsize>) -> Sweep {
        let mut sweep = Sweep::new("demo");
        for curve_idx in 0..3u64 {
            let c = sweep.curve(format!("curve{curve_idx}"));
            c.cutoff_p95_us(500.0);
            for point_idx in 0..6u64 {
                let runs = Arc::clone(runs);
                c.point(move || {
                    runs.fetch_add(1, Relaxed);
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
        let runs = Arc::default();
        let result = counted_demo_sweep(&runs).run_with_threads(2);
        // curve0: p95 = 0,150,300,450,600,750 -> first breach at index 4.
        let c = result.curve("curve0");
        assert_eq!(c.points.len(), 5);
        assert_eq!(c.discarded, 1);
        assert!(c.points[4].breaches(500.0));
        assert!(!c.points[3].breaches(500.0));
        // Every point that ran counts toward engine events, discarded
        // ones that ran speculatively included.
        let runs = runs.load(Relaxed);
        assert!((5 + 5 + 4..=3 * 6).contains(&runs), "{runs} points ran");
        assert_eq!(result.engine_events, runs as u64 * 100);
    }

    #[test]
    fn one_thread_runs_no_point_past_a_breach() {
        let runs = Arc::default();
        let result = counted_demo_sweep(&runs).run_with_threads(1);
        // curve0/curve1 breach at their fifth point, curve2 at its fourth.
        assert_eq!(runs.load(Relaxed), 5 + 5 + 4);
        let discarded: Vec<usize> = result.curves.iter().map(|c| c.discarded).collect();
        assert_eq!(discarded, [1, 1, 2]);
    }

    /// A curve whose points record telemetry, counter `p<i>` in point
    /// `i`'s snapshot, each counting its run in `runs`. Point 2 breaches,
    /// and slowly, so with more than one thread point 3 runs before the
    /// breach is known. Then a curve without a cutoff.
    fn telemetry_sweep(runs: &Arc<AtomicUsize>) -> Sweep {
        let mut sweep = Sweep::new("telemetry");
        let record = |name: String| {
            let mut snapshot = TelemetrySnapshot::default();
            snapshot.counters.insert(name, 1);
            Some(snapshot)
        };
        let c = sweep.curve("cut");
        c.cutoff_p95_us(500.0);
        for (i, p95) in [100.0, 200.0, 600.0, 300.0].into_iter().enumerate() {
            let runs = Arc::clone(runs);
            c.point(move || {
                runs.fetch_add(1, Relaxed);
                if p95 > 500.0 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                PointOutcome::new(p95).with_telemetry(record(format!("p{i}")))
            });
        }
        sweep
            .curve("uncut")
            .point(move || PointOutcome::new(None).with_telemetry(record("q0".into())));
        sweep
    }

    #[test]
    fn telemetry_folds_kept_points_alike_at_any_thread_count() {
        let (serial_runs, parallel_runs) = (Arc::default(), Arc::default());
        let serial = telemetry_sweep(&serial_runs).run_with_threads(1);
        let parallel = telemetry_sweep(&parallel_runs).run_with_threads(4);
        // The discarded point ran speculatively on four threads only.
        assert_eq!(serial_runs.load(Relaxed), 3);
        assert_eq!(parallel_runs.load(Relaxed), 4);
        let folded = |r: &SweepResult| {
            let snapshot = r.telemetry.as_ref().expect("points recorded telemetry");
            (
                snapshot.counters.keys().cloned().collect::<Vec<_>>(),
                snapshot.to_json(),
            )
        };
        let (names, json) = folded(&serial);
        assert_eq!(names, ["p0", "p1", "p2", "q0"]);
        assert_eq!(folded(&parallel), (names, json));
        assert_eq!(parallel.curve("cut").discarded, 1);
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
            c.point(move || PointOutcome::new(None).with_row(format!("{label}1")));
            c.point(move || PointOutcome::new(None).with_row(format!("{label}2")));
            sweep.text("\n");
        }
        sweep.text("# end\n");
        let result = sweep.run_with_threads(2);
        assert_eq!(result.tsv(), "# title\ncols\na1\na2\n\nb1\nb2\n\n# end\n");
        assert_eq!(result.name, "fig_smoke");
        assert!(result.faults().is_none());
    }

    #[test]
    fn a_point_without_latency_never_breaches_and_writes_null() {
        let build = || {
            let mut sweep = Sweep::new("nolatency");
            let c = sweep.curve("only");
            c.cutoff_p95_us(500.0);
            for p95 in [None, Some(100.0), None, Some(600.0), None] {
                c.point(move || PointOutcome::new(p95).with_row("x"));
            }
            sweep
        };
        for threads in [1, 2] {
            let result = build().run_with_threads(threads);
            // The breach is the first point past 500 us: the `None` points
            // before it are kept, the one after it discarded.
            let only = result.curve("only");
            let kept: Vec<Option<f64>> = only.points.iter().map(|p| p.p95_us).collect();
            assert_eq!(kept, [None, Some(100.0), None, Some(600.0)]);
            assert_eq!(only.discarded, 1);
            let mut json = Vec::new();
            result.json_into(None, &mut json).unwrap();
            let json = String::from_utf8(json).unwrap();
            assert_eq!(json.matches("{\"p95_us\": null,").count(), 2, "{json}");
            assert_eq!(json.matches("{\"p95_us\": 100,").count(), 1, "{json}");
        }
    }

    #[test]
    fn json_escaping_and_numbers() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
    }
}
