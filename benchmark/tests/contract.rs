//! `BENCHMARK.json`, the binary's metric tables and what a run actually
//! reports must name the same things.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use reflex_benchmark::bench::{self, Options, Outcome};
use reflex_benchmark::json::Json;
use reflex_benchmark::{host, workloads};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repo")
        .to_owned()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs, or `(name, why)` for workloads, of one list.
fn declared(doc: &Json, list: &str, second: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
        .iter()
        .map(|entry| {
            let field = |key| entry.get(key).and_then(Json::as_str).expect(key).to_owned();
            (field("name"), field(second))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(a, b)| ((*a).to_owned(), (*b).to_owned()))
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_matches_the_binary() {
    let doc = benchmark_json();
    assert_eq!(
        declared(&doc, "end_to_end", "unit"),
        owned(&bench::END_TO_END)
    );
    assert_eq!(
        declared(&doc, "per_layer", "unit"),
        owned(&bench::PER_LAYER)
    );
    let scenarios: Vec<_> = workloads::ALL.iter().map(|s| (s.name, s.why)).collect();
    assert_eq!(declared(&doc, "workloads", "why"), owned(&scenarios));
    assert_eq!(doc.num("run_seconds"), bench::RUN_SECONDS);

    let mut seen = BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for entry in doc.get(list).and_then(Json::as_arr).expect("a list") {
            let name = entry.get("name").and_then(Json::as_str).expect("a name");
            assert!(well_formed(name), "{name:?} breaks the naming rule");
            assert!(seen.insert(name.to_owned()), "{name:?} is used twice");
        }
    }
    let setup = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .and_then(|m| {
            m.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        })
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}

#[test]
fn release_profile_is_the_root_manifests() {
    let root = std::fs::read_to_string(repo_root().join("Cargo.toml")).expect("readable");
    assert_eq!(
        host::release_profile(),
        host::manifest_table(&root, "[profile.release]")
    );
    assert!(!host::release_profile().is_empty());
}

fn metric_names(results: &Json, workload: &str, section: &str) -> Vec<String> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(section))
        .and_then(|s| s.get("metrics"))
        .and_then(Json::as_obj)
        .unwrap_or_else(|| panic!("results.json lacks {workload}.{section}.metrics"))
        .keys()
        .cloned()
        .collect()
}

/// A real run of every workload in both modes, over 20 ms windows so it
/// takes seconds: `results.json` and the driver's line name exactly the
/// metrics `BENCHMARK.json` declares, both ways.
#[test]
fn results_name_what_benchmark_json_declares() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract_out");
    let opts = Options {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_reflex-benchmark")),
        seed: bench::DEFAULT_SEED,
        seconds: 0.0,
        out_dir: out_dir.clone(),
    };
    let mut outcomes: Vec<Outcome> = Vec::new();
    for sc in &workloads::ALL {
        let sc = sc.with_windows(20, 20);
        for traced in [false, true] {
            outcomes.push(bench::run_workload(&sc, traced, &opts).expect("the run completes"));
        }
    }
    let results = bench::results_json(&opts, host::fingerprint(), Json::Null, &outcomes);
    let results = Json::parse(&results.to_string()).expect("results.json parses");

    let doc = benchmark_json();
    let sorted = |list: &str| {
        let mut names: Vec<String> = declared(&doc, list, "unit")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        names.sort();
        names
    };
    let declared_workloads: BTreeSet<String> = declared(&doc, "workloads", "why")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let reported: BTreeSet<String> = results
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads")
        .keys()
        .cloned()
        .collect();
    assert_eq!(reported, declared_workloads);
    for workload in &declared_workloads {
        assert_eq!(
            metric_names(&results, workload, "end_to_end"),
            sorted("end_to_end")
        );
        assert_eq!(
            metric_names(&results, workload, "per_layer"),
            sorted("per_layer")
        );
    }

    for outcome in &outcomes {
        let line = outcome.driver_line();
        let keys: Vec<&str> = line
            .as_obj()
            .expect("an object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert!(line.num("attempted") >= 1.0);
        let list = if outcome.traced {
            "per_layer"
        } else {
            "end_to_end"
        };
        let names: Vec<String> = line
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics")
            .keys()
            .cloned()
            .collect();
        assert_eq!(
            names,
            sorted(list),
            "{} traced={}",
            outcome.workload,
            outcome.traced
        );
        if outcome.traced {
            let trace = out_dir.join(format!("trace_{}.json", outcome.workload));
            let trace = Json::parse(&std::fs::read_to_string(trace).expect("trace written"))
                .expect("trace parses");
            let events = trace
                .get("traceEvents")
                .and_then(Json::as_arr)
                .expect("events");
            assert!(events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some("run_slice")));
        }
    }
}
