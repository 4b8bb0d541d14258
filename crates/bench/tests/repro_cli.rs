//! Usage errors of the compiled `repro` binary: bad option values exit
//! with status 2 and a message naming the option, before any experiment
//! runs.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_repro");

#[test]
fn zero_threads_is_a_usage_error() {
    let out = Command::new(BIN)
        .args(["--threads", "0", "tab2"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--threads needs a positive integer"),
        "{stderr}"
    );
}
