//! Inventory of the workspace's `PF_*` environment knobs.
//!
//! Collects every `"PF_…"` string literal in the production and bench
//! sources (`crates/*/src`, `crates/*/benches`, `src/`) and requires the
//! set to equal [`KNOBS`], and every knob to be documented in README.md.
//! Adding or retiring a knob therefore means updating this list and the
//! README in the same change. The `PF_TEST_*` names that `pf-common`'s
//! own env-parsing unit tests set are not knobs and are left out.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The knobs a user or CI job may set.
const KNOBS: [&str; 18] = [
    "PF_ADMIT_BURST",
    "PF_ADMIT_CONCURRENCY",
    "PF_ADMIT_QUEUE",
    "PF_ADMIT_RATE",
    "PF_BENCH_BUDGET_MS",
    "PF_BENCH_ENFORCE",
    "PF_BENCH_QUICK",
    "PF_CHAOS_SEED",
    "PF_DEADLINE_MS",
    "PF_FAULT_ERROR_RATE",
    "PF_FAULT_RATE",
    "PF_FAULT_SEED",
    "PF_FEEDBACK_DIR",
    "PF_JOBS",
    "PF_MEM_BUDGET",
    "PF_MORSEL",
    "PF_ROWS",
    "PF_STALL_BUDGET_MS",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively (none if `dir` is absent).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `PF_[A-Z0-9_]+` names that appear as whole string literals.
fn knob_literals(source: &str, found: &mut BTreeSet<String>) {
    for (start, _) in source.match_indices("\"PF_") {
        let rest = &source[start + 1..];
        let len = rest
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(rest.len());
        if rest[len..].starts_with('"') {
            found.insert(rest[..len].to_string());
        }
    }
}

fn collected_knobs() -> BTreeSet<String> {
    let root = root();
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let krate = krate.expect("readable crate entry").path();
        rust_files(&krate.join("src"), &mut files);
        rust_files(&krate.join("benches"), &mut files);
    }
    assert!(
        !files.is_empty(),
        "no sources found under {}",
        root.display()
    );
    let mut found = BTreeSet::new();
    for file in &files {
        let source = fs::read_to_string(file).expect("readable source");
        knob_literals(&source, &mut found);
    }
    found.retain(|name| !name.starts_with("PF_TEST_"));
    found
}

#[test]
fn knob_set_matches_allow_list() {
    let want: BTreeSet<String> = KNOBS.iter().map(|s| s.to_string()).collect();
    let found = collected_knobs();
    let added: Vec<_> = found.difference(&want).collect();
    let retired: Vec<_> = want.difference(&found).collect();
    assert!(
        added.is_empty() && retired.is_empty(),
        "knobs in the sources but not in KNOBS: {added:?}; in KNOBS but not in the sources: {retired:?}"
    );
}

#[test]
fn every_knob_is_documented_in_readme() {
    let readme = fs::read_to_string(root().join("README.md")).expect("README.md exists");
    let missing: Vec<_> = KNOBS.iter().filter(|k| !readme.contains(*k)).collect();
    assert!(
        missing.is_empty(),
        "knobs missing from README.md: {missing:?}"
    );
}

#[test]
fn literal_scanner_finds_whole_names_only() {
    let mut found = BTreeSet::new();
    knob_literals(r#"env("PF_A_1"); "PF_B" x; "PF_lower"; "PF_C"#, &mut found);
    let found: Vec<_> = found.into_iter().collect();
    assert_eq!(found, ["PF_A_1", "PF_B"]);
}
