//! Budgets in the tree (ROADMAP 5(a)): every crate under `crates/` stays
//! within its row of the checked-in `budgets.tsv` — non-test lines (those
//! before the first `#[cfg(test)]` of each `src/**/*.rs`), the `pub fn`s
//! among them and the panic sites on them — and each budgeted document
//! within its byte count. A PR that grows a crate raises its row in the
//! same diff and says why; one that shrinks it lowers the row. Panic
//! sites and document bytes only fall. `benchmark/` is its own package
//! and is not counted. Each new `CHANGES.md` line is capped in bytes.

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

/// What can abort a run, as written: a panic site on a code line.
const PANICS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Non-test lines, the `pub fn`s among them and the panic sites on those
/// that are not comments, of one crate's `src/`.
fn measure(krate: &Path) -> [usize; 3] {
    let mut files = Vec::new();
    rs_files(&krate.join("src"), &mut files);
    let mut counts = [0; 3];
    for file in files {
        let text = fs::read_to_string(file).expect("a readable source file");
        let body = text
            .lines()
            .map(str::trim_start)
            .take_while(|l| !l.starts_with("#[cfg(test)]"));
        for l in body {
            counts[0] += 1;
            counts[1] += usize::from(l.starts_with("pub fn "));
            if !l.starts_with("//") {
                counts[2] += PANICS.iter().map(|p| l.matches(p).count()).sum::<usize>();
            }
        }
    }
    counts
}

/// `budgets.tsv`, `#` comments: `crate <TAB> non-test lines <TAB> pub fn
/// <TAB> panics` rows, and `file.md <TAB> bytes` rows for documents.
fn budgets() -> BTreeMap<String, Vec<usize>> {
    let tsv = fs::read_to_string(repo().join("budgets.tsv")).expect("budgets.tsv at the repo root");
    let rows = tsv
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty());
    rows.map(|row| {
        let mut cells = row.split('\t');
        let name = cells.next().expect("a name").to_owned();
        let nums: Vec<usize> = cells
            .map(|cell| {
                cell.parse()
                    .unwrap_or_else(|_| panic!("bad number in {row:?}"))
            })
            .collect();
        let width = if name.ends_with(".md") { 1 } else { 3 };
        assert_eq!(nums.len(), width, "row {row:?}");
        (name, nums)
    })
    .collect()
}

#[test]
fn every_crate_is_within_its_budget() {
    let mut budgets = budgets();
    let docs: Vec<String> = budgets
        .keys()
        .filter(|k| k.ends_with(".md"))
        .cloned()
        .collect();
    let mut over = Vec::new();
    for doc in docs {
        let bytes = fs::metadata(repo().join(&doc))
            .expect("a budgeted document")
            .len();
        let max = budgets.remove(&doc).expect("listed")[0];
        if bytes as usize > max {
            over.push(format!("{doc}: {bytes} bytes, budget {max}"));
        }
    }
    let mut crates: Vec<PathBuf> = fs::read_dir(repo().join("crates"))
        .expect("crates/")
        .map(|e| e.expect("a directory entry").path())
        .collect();
    crates.sort();
    for krate in crates {
        let name = krate.file_name().expect("a crate dir").to_string_lossy();
        let seen = measure(&krate);
        let Some(max) = budgets.remove(name.as_ref()) else {
            over.push(format!("{name}: no row ({seen:?})"));
            continue;
        };
        let columns = ["non-test lines", "pub fn", "panics"];
        for ((column, seen), max) in columns.iter().zip(seen).zip(max) {
            if seen > max {
                over.push(format!("{name}: {seen} {column}, budget {max}"));
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

/// The most bytes a `CHANGES.md` line may take: what its PR did, for a
/// reader who needs the detail to find it in the PR (ROADMAP 7(b)).
const CHANGES_LINE_BYTES: usize = 600;

/// Lines of PRs up to this one were written before the cap and stay as
/// they are.
const LAST_UNCAPPED_PR: u32 = 30;

#[test]
fn changes_lines_are_capped() {
    let changes =
        fs::read_to_string(repo().join("CHANGES.md")).expect("CHANGES.md at the repo root");
    let pr = |line: &str| -> Option<u32> {
        let digits = line.strip_prefix("PR ")?;
        let end = digits.find(|c: char| !c.is_ascii_digit())?;
        digits[..end].parse().ok()
    };
    let long: Vec<String> = changes
        .lines()
        .enumerate()
        .filter(|(_, l)| l.len() > CHANGES_LINE_BYTES)
        .filter(|(_, l)| pr(l).is_none_or(|n| n > LAST_UNCAPPED_PR))
        .map(|(i, l)| format!("line {}: {} bytes", i + 1, l.len()))
        .collect();
    assert!(
        long.is_empty(),
        "CHANGES.md lines over {CHANGES_LINE_BYTES} bytes:\n{}",
        long.join("\n")
    );
}
