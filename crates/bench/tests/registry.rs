//! The figure registry is the one list: `--all` runs exactly the fifteen
//! figures the `experiments_output.txt` transcript holds, in its order,
//! and the table in the crate docs and the README is `--list`'s output.

use std::process::Command;

use reflex_bench::FIGURES;

#[test]
fn figure_names_are_unique() {
    let mut names: Vec<_> = FIGURES.iter().map(|f| f.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), FIGURES.len());
}

#[test]
fn all_is_the_transcripts_fifteen_in_order() {
    let transcript = include_str!("../../../experiments_output.txt");
    let in_transcript: Vec<&str> = transcript
        .lines()
        .filter_map(|l| l.strip_prefix("== "))
        .collect();
    let in_all: Vec<&str> = FIGURES
        .iter()
        .filter(|f| f.in_all)
        .map(|f| f.name)
        .collect();
    assert_eq!(in_all.len(), 15);
    assert_eq!(in_all, in_transcript);
    assert!(transcript.ends_with("\nAll 15 harnesses completed.\n"));
}

/// The body of the first ```` ```text ```` fence after `marker`, with
/// `prefix` stripped from every line.
fn fenced_after(doc: &str, marker: &str, prefix: &str) -> String {
    let tail = &doc[doc.find(marker).expect("marker present")..];
    let mut lines = tail.lines().map(|l| l.strip_prefix(prefix).unwrap_or(l));
    lines
        .by_ref()
        .find(|l| *l == "```text")
        .expect("a text fence");
    lines
        .take_while(|l| *l != "```")
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn list_is_the_table_in_the_docs() {
    let out = Command::new(env!("CARGO_BIN_EXE_reflex-bench"))
        .arg("--list")
        .env_remove("REFLEX_BENCH_THREADS")
        .output()
        .expect("reflex-bench runs");
    assert!(out.status.success());
    let list = String::from_utf8(out.stdout).expect("UTF-8");
    assert_eq!(list, reflex_bench::figures::list());
    assert_eq!(list.lines().count(), FIGURES.len());
    let lib = include_str!("../src/lib.rs");
    assert_eq!(
        list,
        fenced_after(lib, "`--list` prints this table", "//! ")
    );
    let readme = include_str!("../../../README.md");
    assert_eq!(list, fenced_after(readme, "`reflex-bench --list`", ""));
}
