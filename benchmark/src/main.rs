//! Command line of the benchmark. `run` is what `run.sh` execs after
//! building; `child` is one repetition in a fresh process; `compare` backs
//! `repeat.sh`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use reflex_benchmark::bench::{self, Options};
use reflex_benchmark::json::Json;
use reflex_benchmark::spans::Recorder;
use reflex_benchmark::{compare, host, rep, workloads};

// Always installed, so `allocs_per_io` counts in every run and the
// allocator is the same one in traced and untraced runs.
#[global_allocator]
static ALLOC: reflex_benchmark::sut::CountingAlloc = reflex_benchmark::sut::CountingAlloc;

const USAGE: &str = "usage:
  reflex-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
  reflex-benchmark child --workload NAME --seed N --traced 0|1 --warm-ms MS --measure-ms MS
  reflex-benchmark compare FIRST.json SECOND.json BENCHMARK.json";

/// `--key value` pairs after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("bad value for {key}: {v:?}")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.parsed(key)?.ok_or(format!("missing {key}"))
    }

    fn flag01(&self, key: &str) -> Result<Option<bool>, String> {
        match self.get(key) {
            None => Ok(None),
            Some("0") => Ok(Some(false)),
            Some("1") => Ok(Some(true)),
            Some(v) => Err(format!("{key} takes 0 or 1, not {v:?}")),
        }
    }

    fn scenario(&self) -> Result<Option<&'static workloads::Scenario>, String> {
        self.get("--workload")
            .map(|name| workloads::find(name).ok_or(format!("no workload named {name:?}")))
            .transpose()
    }
}

fn child(args: &Args, origin: Instant) -> Result<(), String> {
    let sc = args.scenario()?.ok_or("missing --workload")?;
    let sc = sc.with_windows(args.required("--warm-ms")?, args.required("--measure-ms")?);
    let mode = match args.flag01("--traced")?.ok_or("missing --traced")? {
        true => rep::Mode::TRACED,
        false => rep::Mode::UNTRACED,
    };
    let mut rec = Recorder::new(origin);
    let rep = rep::run(&sc, args.required("--seed")?, mode, origin, &mut rec);
    let Json::Obj(mut out) = rep.to_json() else {
        unreachable!("a repetition serialises to an object");
    };
    out.insert("rss_mib".to_owned(), host::peak_rss_mib().into());
    out.insert("spans".to_owned(), rec.to_json());
    println!("{}", Json::Obj(out));
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let opts = Options {
        exe: std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?,
        seed: args.parsed("--seed")?.unwrap_or(bench::DEFAULT_SEED),
        seconds: args.parsed("--seconds")?.unwrap_or(bench::RUN_SECONDS),
        out_dir: PathBuf::from(args.get("--out-dir").unwrap_or("benchmark/out")),
    };
    let scenarios: Vec<&workloads::Scenario> = match args.scenario()? {
        Some(sc) => vec![sc],
        None => workloads::ALL.iter().collect(),
    };
    let modes: &[bool] = match args.flag01("--trace")? {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let calib_before = host::calibrate_ns();
    let mut outcomes = Vec::new();
    for sc in scenarios {
        for &traced in modes {
            let outcome = bench::run_workload(sc, traced, &opts)?;
            for m in &outcome.metrics {
                println!("{} {} {} {}", sc.name, m.name, m.unit, m.value);
            }
            for c in &outcome.checks {
                let verdict = if c.ok { "ok" } else { "FAILED" };
                eprintln!("{} check {} {verdict}: {}", sc.name, c.name, c.detail);
            }
            outcomes.push(outcome);
        }
    }
    let calibration = host::calibration(calib_before, host::calibrate_ns());
    println!("host calib_ns ns {}", calibration.num("before_ns"));
    let results = bench::results_json(&opts, host::fingerprint(), calibration, &outcomes);
    bench::write_file(&opts.out_dir.join("results.json"), &results.to_string())?;
    // The driver reads the last line of stdout: one object per run.
    for outcome in &outcomes {
        println!("{}", outcome.driver_line());
    }
    Ok(outcomes.iter().all(bench::Outcome::correct))
}

fn compare_files(paths: &[String]) -> Result<bool, String> {
    let [first, second, benchmark] = paths else {
        return Err(USAGE.to_owned());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let misses = compare::compare(&load(first)?, &load(second)?, &load(benchmark)?)?;
    Ok(misses == 0)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let rest: Vec<String> = argv.collect();
    let result = match command.as_str() {
        "child" => child(&Args(rest), origin).map(|()| true),
        "run" => run(&Args(rest)),
        "compare" => compare_files(&rest),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
