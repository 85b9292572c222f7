//! Stamps the binary with the compiler version, the build profile and,
//! when the sources sit in a git checkout, the commit they were built
//! from ("unknown" otherwise).

use std::path::Path;
use std::process::Command;

fn run(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let git_dir = Path::new(&manifest).join("..").join(".git");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = run(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    // An explicit --git-dir keeps git from walking up into an enclosing
    // repository when the sources are a plain copy.
    let commit = if git_dir.exists() {
        run(Command::new("git").arg("--git-dir").arg(&git_dir).args([
            "rev-parse",
            "--short=12",
            "HEAD",
        ]))
    } else {
        None
    }
    .unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());

    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
    let head_log = git_dir.join("logs").join("HEAD");
    if head_log.exists() {
        println!("cargo:rerun-if-changed={}", head_log.display());
    }
}
