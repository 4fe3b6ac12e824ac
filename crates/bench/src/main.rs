//! `reflex-bench` — the one figure driver.
//!
//! ```text
//! reflex-bench <figure>... [--smoke]   run the named figures, TSV to stdout
//! reflex-bench --all                   every `all` figure: the experiments_output.txt transcript
//! reflex-bench --list                  the figure table
//! ```
//!
//! Each figure run also writes `BENCH_<name>.json` (and, under
//! `REFLEX_TELEMETRY=1`, `TELEMETRY_<name>.{json,tsv}`) into the current
//! directory; a smoke run's artifacts are named `<name>_smoke`. Exit codes:
//! 0 ok, 1 a figure's gate failed, 2 bad command line or environment knob.

use std::io::Write;
use std::process::ExitCode;

use reflex_bench::{figure, figures, telemetry, Figure, FIGURES};

/// Sweep parallelism from `REFLEX_BENCH_THREADS` (default: all cores),
/// after refusing the removed simulation-mode knobs. A knob that is set
/// but cannot be honoured is an error, never a fallback: silently ignored,
/// it would invalidate a measurement.
fn knobs() -> Result<usize, String> {
    for knob in ["REFLEX_SIM_SHARDS", "REFLEX_SIM_SPLIT", "REFLEX_SIM_PIN"] {
        if std::env::var_os(knob).is_some() {
            return Err(format!(
                "{knob} is set but no longer exists (the simulator has one execution mode); \
                 unset it"
            ));
        }
    }
    match std::env::var_os("REFLEX_BENCH_THREADS") {
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
        Some(raw) => raw
            .to_str()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .ok_or_else(|| {
                format!(
                    "REFLEX_BENCH_THREADS={raw:?} is not a thread count (an integer >= 1); \
                     unset it to use all cores"
                )
            }),
    }
}

/// What the command line asked for.
#[derive(Default)]
struct Request {
    figures: Vec<&'static Figure>,
    smoke: bool,
    all: bool,
    list: bool,
}

fn parse_args() -> Result<Request, String> {
    let mut req = Request::default();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => req.smoke = true,
            "--all" => req.all = true,
            "--list" => req.list = true,
            name => match figure(name) {
                Some(f) => req.figures.push(f),
                None => return Err(format!("no figure or flag named {name:?} (see --list)")),
            },
        }
    }
    if req.all {
        if !req.figures.is_empty() {
            return Err("--all takes no figure names".into());
        }
        req.figures = FIGURES.iter().filter(|f| f.in_all).collect();
    }
    if req.figures.is_empty() && !req.list {
        return Err("nothing to run: name a figure, or pass --all or --list".into());
    }
    match req.figures.iter().find(|f| !f.smoke) {
        Some(f) if req.smoke => Err(format!("{} has no --smoke grid", f.name)),
        _ => Ok(req),
    }
}

fn run(req: &Request, threads: usize, out: &mut dyn Write) -> std::io::Result<ExitCode> {
    if req.list {
        out.write_all(figures::list().as_bytes())?;
    }
    for fig in &req.figures {
        if req.all {
            let rule = "================================================================";
            writeln!(out, "\n{rule}\n== {}\n{rule}", fig.name)?;
            out.flush()?;
        }
        let result = fig.sweep(req.smoke).run_with_threads(threads);
        let code = (fig.render)(&result, out)?;
        out.flush()?;
        result.write_json_or_warn();
        telemetry::flush(&result.name);
        if code != ExitCode::SUCCESS {
            eprintln!("reflex-bench: {} failed its gate", fig.name);
            return Ok(code);
        }
    }
    if req.all {
        writeln!(out, "\nAll {} harnesses completed.", req.figures.len())?;
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let (threads, req) = match knobs().and_then(|t| Ok((t, parse_args()?))) {
        Ok(ok) => ok,
        Err(note) => {
            eprintln!("reflex-bench: {note}");
            return ExitCode::from(2);
        }
    };
    run(&req, threads, &mut std::io::stdout().lock()).unwrap_or_else(|e| {
        eprintln!("reflex-bench: writing stdout: {e}");
        ExitCode::FAILURE
    })
}
