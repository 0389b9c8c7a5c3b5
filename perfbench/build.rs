//! Records the build half of the machine-and-build stamp that every
//! benchmark result carries: compiler version, profile, features and the
//! git revision when the tree is a git checkout.

use std::fs;
use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    let opt_level = std::env::var("OPT_LEVEL").unwrap_or_else(|_| "unknown".to_string());
    let mut features: Vec<String> = std::env::vars()
        .filter_map(|(k, _)| k.strip_prefix("CARGO_FEATURE_").map(str::to_lowercase))
        .collect();
    features.sort();

    let root = Path::new("..");
    println!("cargo:rustc-env=BENCH_RUSTC={version}");
    println!("cargo:rustc-env=BENCH_PROFILE={profile} opt-level={opt_level}");
    println!("cargo:rustc-env=BENCH_FEATURES={}", features.join(","));
    println!("cargo:rustc-env=BENCH_GIT_REV={}", git_rev(root));
    println!("cargo:rerun-if-changed=build.rs");
    // Only existing paths: a missing one would re-run this script on
    // every build.
    for path in [".git/HEAD", ".git/refs", ".git/packed-refs"] {
        if root.join(path).exists() {
            println!("cargo:rerun-if-changed=../{path}");
        }
    }
}

/// The commit `HEAD` names, read from `.git` directly so the script never
/// looks outside the tree; `none` when the tree is not a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "none".to_string())
}
