//! The swarm CLI.
//!
//! ```text
//! reflex-swarm --seeds 100            # sweep seeds 0..100
//! reflex-swarm --seeds 100 --start 7  # sweep seeds 7..107
//! reflex-swarm --seed 42              # one seed, verbose
//! reflex-swarm --repro '<case line>'  # replay a shrunk case
//! reflex-swarm --corpus <file>        # replay a seed-per-line corpus
//! ```
//!
//! Exit code 0 = every case passed; 1 = at least one oracle violation
//! (after printing shrunk repro lines); 2 = usage error.
//!
//! The binary installs the counting allocator, so the alloc-budget
//! family is live here (it is vacuous under harnesses that don't).

use std::collections::BTreeMap;
use std::process::ExitCode;

use reflex_swarm::{run_case, shrink, FamilyStatus, OracleFamily, RunConfig, SwarmCase};

#[global_allocator]
static ALLOC: reflex_sim::alloc_count::CountingAlloc = reflex_sim::alloc_count::CountingAlloc;

/// Re-runs spent minimizing one failing case.
const SHRINK_BUDGET: usize = 24;

struct Args {
    seeds: Option<u64>,
    start: u64,
    seed: Option<u64>,
    repro: Option<String>,
    corpus: Option<String>,
    require_all_families: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: None,
        start: 0,
        seed: None,
        repro: None,
        corpus: None,
        require_all_families: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--seeds" => {
                args.seeds = Some(
                    value("--seeds")?
                        .parse()
                        .map_err(|e| format!("--seeds: {e}"))?,
                )
            }
            "--start" => {
                args.start = value("--start")?
                    .parse()
                    .map_err(|e| format!("--start: {e}"))?
            }
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--repro" => args.repro = Some(value("--repro")?),
            "--corpus" => args.corpus = Some(value("--corpus")?),
            "--require-all-families" => args.require_all_families = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seeds.is_none() && args.seed.is_none() && args.repro.is_none() && args.corpus.is_none()
    {
        return Err("one of --seeds / --seed / --repro / --corpus is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("reflex-swarm: {e}");
            return ExitCode::from(2);
        }
    };

    let cfg = RunConfig {
        alloc_counter: Some(reflex_sim::alloc_count::allocations),
    };

    // Assemble the case list.
    let mut cases: Vec<(String, SwarmCase)> = Vec::new();
    if let Some(n) = args.seeds {
        for seed in args.start..args.start + n {
            cases.push((format!("seed {seed}"), SwarmCase::from_seed(seed)));
        }
    }
    if let Some(seed) = args.seed {
        cases.push((format!("seed {seed}"), SwarmCase::from_seed(seed)));
    }
    if let Some(line) = &args.repro {
        match line.parse::<SwarmCase>() {
            Ok(case) => cases.push(("repro".into(), case)),
            Err(e) => {
                eprintln!("reflex-swarm: bad --repro case: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = &args.corpus {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("reflex-swarm: cannot read corpus {path}: {e}");
                return ExitCode::from(2);
            }
        };
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match line.parse::<u64>() {
                Ok(seed) => cases.push((format!("corpus seed {seed}"), SwarmCase::from_seed(seed))),
                Err(_) => match line.parse::<SwarmCase>() {
                    Ok(case) => cases.push((format!("corpus case ({line})"), case)),
                    Err(e) => {
                        eprintln!("reflex-swarm: corpus line is neither seed nor case: {e}");
                        return ExitCode::from(2);
                    }
                },
            }
        }
    }

    let total = cases.len();
    let verbose = total <= 2;
    let mut failures = 0usize;
    let mut checked: BTreeMap<OracleFamily, usize> = BTreeMap::new();
    for (i, (label, case)) in cases.iter().enumerate() {
        let outcome = run_case(case, &cfg);
        for (family, status) in &outcome.families {
            if *status == FamilyStatus::Checked {
                *checked.entry(*family).or_default() += 1;
            }
        }
        if verbose {
            println!("{label}: {}", case);
            for (family, status) in &outcome.families {
                match status {
                    FamilyStatus::Checked => println!("  {family}: checked"),
                    FamilyStatus::Vacuous(why) => println!("  {family}: vacuous ({why})"),
                }
            }
            for note in &outcome.notes {
                println!("  note: {note}");
            }
            println!("  completed IOs: {}", outcome.completed_ios);
        } else if (i + 1) % 25 == 0 || i + 1 == total {
            println!("[{}/{total}] {failures} failure(s) so far", i + 1);
        }
        if outcome.violations.is_empty() {
            continue;
        }
        failures += 1;
        eprintln!("FAIL {label}");
        for v in &outcome.violations {
            eprintln!("  {v}");
        }
        let family = outcome.violations[0].family;
        let shrunk = shrink(case, family, &cfg, SHRINK_BUDGET);
        eprintln!("  shrunk ({} re-runs) to: {}", shrunk.runs, shrunk.case);
        eprintln!(
            "  repro: cargo run -p reflex-swarm --release -- --repro '{}'",
            shrunk.case
        );
        if label.starts_with("seed") {
            eprintln!(
                "  original: cargo run -p reflex-swarm --release -- --seed {}",
                case.seed
            );
        }
    }

    println!("\n{total} case(s), {failures} failure(s)");
    println!("family coverage (checked / total):");
    let mut missing = Vec::new();
    for family in OracleFamily::ALL {
        let n = checked.get(&family).copied().unwrap_or(0);
        println!("  {family}: {n}/{total}");
        if n == 0 {
            missing.push(family);
        }
    }
    if args.require_all_families && !missing.is_empty() {
        eprintln!(
            "reflex-swarm: families never exercised in this sweep: {}",
            missing
                .iter()
                .map(|f| f.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(1);
    }
    if failures > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
