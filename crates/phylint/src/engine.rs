//! The workspace walker: discovers crates, lexes every `.rs` source
//! file, runs the rules, and assembles the [`Report`].

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::analysis::{FileAnalysis, FileKind};
use crate::callgraph::CallGraph;
use crate::model::{self, FileModel, Workspace};
use crate::report::Report;
use crate::{rules, semantic};

/// Directory names never descended into: build output, VCS metadata,
/// vendored third-party shims (not held to PHY invariants), and the
/// lint's own deliberately-dirty test fixtures.
const SKIP_DIRS: [&str; 5] = ["target", ".git", "shims", "fixtures", "node_modules"];

/// Run phylint over the workspace rooted at `root`.
///
/// `root` must contain a `Cargo.toml`. Every `.rs` file reachable
/// outside the skip list (`target/`, `.git/`, `shims/`, `fixtures/`)
/// is lexed and checked.
pub fn run(root: &Path) -> io::Result<Report> {
    if !root.join("Cargo.toml").is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} has no Cargo.toml", root.display()),
        ));
    }

    let mut crates: BTreeSet<PathBuf> = BTreeSet::new();
    let mut rs_files: Vec<PathBuf> = Vec::new();
    walk(root, &mut crates, &mut rs_files)?;
    rs_files.sort();

    let mut report = Report::default();

    // Lex and marker-parse every file up front: the semantic phase
    // needs the whole workspace before any cross-file rule can run.
    let mut fas: Vec<FileAnalysis> = Vec::new();
    for abs in &rs_files {
        let Ok(src) = fs::read_to_string(abs) else {
            continue; // non-UTF-8 or vanished mid-scan: not lintable
        };
        let rel = abs.strip_prefix(root).unwrap_or(abs).to_path_buf();
        let kind = file_kind(&owning_crate(root, abs, &crates), abs);
        fas.push(FileAnalysis::new(rel, src, kind));
    }

    // Phase 1a: per-file token rules.
    for fa in &fas {
        rules::unsafe_safety(fa, &mut report.findings);
        report.findings.extend(fa.marker_findings.iter().cloned());
    }

    // Phase 1b: item model over crate source (tests/benches/examples
    // are not resolution targets — they may allocate freely and must
    // not pull production fns into the hot closure). Examples and
    // benches get a model of their own: the product roots of the
    // test-only-API audit.
    let mut models: Vec<FileModel> = Vec::new();
    let mut root_models: Vec<FileModel> = Vec::new();
    for (i, fa) in fas.iter().enumerate() {
        match fa.kind {
            FileKind::CrateSrc => models.push(model::extract(fa, i)),
            FileKind::Example | FileKind::Bench => root_models.push(model::extract(fa, i)),
            FileKind::Test => {}
        }
    }
    let ws = Workspace::assemble(models);
    let roots = Workspace::assemble(root_models);

    // Phase 2: semantic rules over the call graph.
    let cg = CallGraph::new(&ws);
    semantic::check(&ws, &roots, &cg, &fas, &mut report.findings);

    // Suppression accounting runs last so semantic findings can mark
    // their suppressions used before stale ones are flagged.
    for fa in &fas {
        fa.unused_suppression_findings(&mut report.findings);
        report.suppressions_used += fa
            .suppressions
            .iter()
            .filter(|s| s.used.get())
            .count();
        report.files_scanned += 1;
    }

    report.sort();
    Ok(report)
}

/// Recursive directory walk collecting crate directories (those
/// holding a `Cargo.toml`) and `.rs` files.
fn walk(
    dir: &Path,
    crates: &mut BTreeSet<PathBuf>,
    rs_files: &mut Vec<PathBuf>,
) -> io::Result<()> {
    if dir.join("Cargo.toml").is_file() {
        crates.insert(dir.to_path_buf());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, crates, rs_files)?;
        } else if name.ends_with(".rs") {
            rs_files.push(path);
        }
    }
    Ok(())
}

/// Deepest ancestor directory of `file` holding a `Cargo.toml`.
fn owning_crate(root: &Path, file: &Path, crates: &BTreeSet<PathBuf>) -> PathBuf {
    let mut dir = file.parent();
    while let Some(d) = dir {
        if crates.contains(d) {
            return d.to_path_buf();
        }
        if d == root {
            break;
        }
        dir = d.parent();
    }
    root.to_path_buf()
}

/// Classify a file by its first path component under the owning
/// crate.
fn file_kind(crate_dir: &Path, file: &Path) -> FileKind {
    let rel = file.strip_prefix(crate_dir).unwrap_or(file);
    match rel.components().next() {
        Some(c) => match c.as_os_str().to_string_lossy().as_ref() {
            "tests" => FileKind::Test,
            "benches" => FileKind::Bench,
            "examples" => FileKind::Example,
            _ => FileKind::CrateSrc,
        },
        None => FileKind::CrateSrc,
    }
}
