//! Command-line error paths: an unknown kernel name is a usage error
//! (exit status 2, the valid names and the usage line on stderr), never
//! a panic.

use std::process::{Command, Output};

fn assert_usage_error(out: &Output, name: &str, usage: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("unknown PolyBench kernel \"{name}\"")),
        "{stderr}"
    );
    assert!(stderr.contains("valid: atax, bicg,"), "{stderr}");
    assert!(stderr.contains(usage), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn lisa_map_rejects_unknown_kernels_with_a_usage_error() {
    for (spec, name) in [("nosuchkernel", "nosuchkernel"), ("core:nosuch", "nosuch")] {
        let out = Command::new(env!("CARGO_BIN_EXE_lisa-map"))
            .args([spec, "--arch", "4x4", "--mapper", "sa"])
            .output()
            .expect("lisa-map runs");
        assert_usage_error(&out, name, "usage: lisa-map");
    }
}

#[test]
fn lisa_serve_client_rejects_unknown_kernels_before_connecting() {
    // Nothing listens on the discard port; the kernel check comes first.
    let out = Command::new(env!("CARGO_BIN_EXE_lisa-serve"))
        .args(["client", "--connect", "127.0.0.1:9", "--kernel", "nosuch"])
        .output()
        .expect("lisa-serve runs");
    assert_usage_error(&out, "nosuch", "usage: lisa-serve");
}
