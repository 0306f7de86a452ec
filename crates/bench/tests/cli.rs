//! Command-line strictness of the experiment driver and the soaks: any
//! malformed invocation exits with status 2 and a usage line, before a
//! single session runs.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn rp_exp_rejects_malformed_invocations() {
    for args in [
        &[][..],
        &["nope"],
        &["srun", "--frobnicate"],
        &["srun", "--jobs", "x"],
        &["srun", "--lineage_dir", "out/"],
        &["srun", "--fault-seed", "x"],
        &["srun", "--serving-seed", "x"],
        &["srun", "--faults"],
        &["srun", "--seeds", "2"],
    ] {
        let (code, stderr) = exit_code(env!("CARGO_BIN_EXE_rp-exp"), args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: rp-exp"), "{args:?}: {stderr}");
    }
}

#[test]
fn soaks_reject_malformed_seeds() {
    for bin in [
        env!("CARGO_BIN_EXE_chaos_soak"),
        env!("CARGO_BIN_EXE_serving_soak"),
    ] {
        for args in [
            &["--seeds", "x"][..],
            &["--seeds"],
            &["--jobs", "2"],
            &["3"],
        ] {
            let (code, stderr) = exit_code(bin, args);
            assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        }
    }
}
