//! Tier-1 gate: the workspace passes clippy with warnings denied, the same
//! command CI's `check` job runs.
//!
//! The workspace's own invariants are clippy configuration and lint
//! attributes: `clippy.toml` bans hash-ordered collections, wall-clock
//! reads and TLB flushes outside the consistency layer, `mitosis-trace`
//! denies truncating casts, and the replay pool's dispatch code denies
//! panics.  Every known-sound exception is an
//! `#[expect(<lint>, reason = "...")]`, which fails in turn once it no
//! longer suppresses anything.

use std::process::Command;

#[test]
fn workspace_is_lint_clean() {
    let output = Command::new(env!("CARGO"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["clippy", "--offline", "--workspace", "--all-targets"])
        .args(["--", "-D", "warnings"])
        .output()
        .expect("cargo runs");
    assert!(
        output.status.success(),
        "cargo clippy found problems:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
