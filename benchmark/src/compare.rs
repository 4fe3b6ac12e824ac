//! `compare`: two `results.json` files of one commit against the bounds
//! in `BENCHMARK.json`. Host-time values must agree within their bound;
//! simulated values and allocation counts must be equal.

use crate::json::Json;

/// Metrics that must repeat exactly for one seed and one commit.
fn exact(name: &str) -> bool {
    name.starts_with("sim_") || name == "allocs_per_io"
}

fn value_of(results: &Json, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Prints one row per workload and end-to-end metric; returns how many
/// rows missed their bound.
pub fn compare(first: &Json, second: &Json, benchmark: &Json) -> Result<usize, String> {
    let names = |key: &str| -> Result<Vec<&Json>, String> {
        Ok(benchmark
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key}"))?
            .iter()
            .collect())
    };
    let mut misses = 0;
    println!("workload metric first second distance bound verdict");
    for w in names("workloads")? {
        let workload = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without name")?;
        for m in names("end_to_end")? {
            let metric = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m.num("bound");
            let (Some(a), Some(b)) = (
                value_of(first, workload, metric),
                value_of(second, workload, metric),
            ) else {
                println!("{workload} {metric} missing");
                misses += 1;
                continue;
            };
            let distance = (b - a).abs() / a.abs();
            let ok = if exact(metric) {
                a == b
            } else {
                distance <= bound
            };
            if !ok {
                misses += 1;
            }
            let rule = if exact(metric) {
                "exact".to_owned()
            } else {
                bound.to_string()
            };
            let verdict = if ok { "ok" } else { "MISS" };
            println!("{workload} {metric} {a} {b} {distance:.4} {rule} {verdict}");
        }
    }
    Ok(misses)
}
