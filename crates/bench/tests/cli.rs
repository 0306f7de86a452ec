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

#[test]
fn rp_exp_fails_on_unwritable_artifact_dirs() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-unwritable");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join("notadir"), "a regular file").expect("blocker file");
    for flag in [
        "--profile-dir",
        "--metrics-dir",
        "--telemetry-dir",
        "--lineage-dir",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rp-exp"))
            .args(["srun", "--quick", flag, "notadir/p"])
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(stderr.contains("notadir/p/"), "{flag}: {stderr}");
    }
}
