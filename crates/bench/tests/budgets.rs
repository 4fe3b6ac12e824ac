//! Line budgets in the tree (ROADMAP 5(a)): every crate under `crates/`
//! stays within its row of the checked-in `budgets.tsv` — non-test lines
//! (those before the first `#[cfg(test)]` of each `src/**/*.rs`) and the
//! `pub fn`s among them. A PR that grows a crate raises its row in the
//! same diff and says why; one that shrinks it lowers the row.
//! `benchmark/` is its own package and is not counted.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("a readable source directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Non-test lines and `pub fn`s of one crate's `src/`.
fn measure(krate: &Path) -> (usize, usize) {
    let mut files = Vec::new();
    rs_files(&krate.join("src"), &mut files);
    files.iter().fold((0, 0), |(lines, pub_fns), file| {
        let text = fs::read_to_string(file).expect("a readable source file");
        let body = text
            .lines()
            .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"));
        let (n, fns) = body.fold((0, 0), |(n, fns), l| {
            (
                n + 1,
                fns + usize::from(l.trim_start().starts_with("pub fn ")),
            )
        });
        (lines + n, pub_fns + fns)
    })
}

/// `budgets.tsv`: `crate <TAB> non-test lines <TAB> pub fn`, `#` comments.
fn budgets() -> BTreeMap<String, (usize, usize)> {
    let tsv = fs::read_to_string(repo().join("budgets.tsv")).expect("budgets.tsv at the repo root");
    let rows = tsv
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty());
    rows.map(|row| {
        let cells: Vec<&str> = row.split('\t').collect();
        let num = |i: usize| -> usize {
            let cell = cells.get(i).unwrap_or_else(|| panic!("short row {row:?}"));
            cell.parse()
                .unwrap_or_else(|_| panic!("bad number in {row:?}"))
        };
        (cells[0].to_owned(), (num(1), num(2)))
    })
    .collect()
}

#[test]
fn every_crate_is_within_its_budget() {
    let mut budgets = budgets();
    let mut crates: Vec<PathBuf> = fs::read_dir(repo().join("crates"))
        .expect("crates/")
        .map(|e| e.expect("a directory entry").path())
        .collect();
    crates.sort();
    let mut over = Vec::new();
    for krate in crates {
        let name = krate.file_name().expect("a crate dir").to_string_lossy();
        let (lines, fns) = measure(&krate);
        match budgets.remove(name.as_ref()) {
            None => over.push(format!("{name}: no row ({lines} lines, {fns} pub fn)")),
            Some((max_lines, max_fns)) => {
                if lines > max_lines {
                    over.push(format!(
                        "{name}: {lines} non-test lines, budget {max_lines}"
                    ));
                }
                if fns > max_fns {
                    over.push(format!("{name}: {fns} pub fn, budget {max_fns}"));
                }
            }
        }
    }
    over.extend(
        budgets
            .keys()
            .map(|name| format!("{name}: row for no crate")),
    );
    assert!(over.is_empty(), "budgets.tsv:\n{}", over.join("\n"));
}
