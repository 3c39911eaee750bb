//! Experiment binaries reject a malformed `SMT_EXP_CYCLES` before
//! simulating anything, instead of running at the full default length.

use std::process::Command;

#[test]
fn invalid_exp_cycles_exits_2() {
    for bad in ["16k", "0", "-5"] {
        let out = Command::new(env!("CARGO_BIN_EXE_figure2"))
            .env("SMT_EXP_CYCLES", bad)
            .env("SMT_JOBS", "1")
            .output()
            .expect("figure2 binary runs");
        assert_eq!(out.status.code(), Some(2), "SMT_EXP_CYCLES={bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("SMT_EXP_CYCLES"), "{stderr}");
        assert!(out.stdout.is_empty(), "simulated despite the bad value");
    }
}
