//! `skyward exp run` writes side artifacts where it is told: into
//! `--out DIR`, never into the checkout the binary was built from.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn exp_run_writes_artifacts_into_out_dir() {
    let checked_in =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_engine.json");
    let before = std::fs::read(&checked_in).expect("results/BENCH_engine.json is checked in");

    let scratch = std::env::temp_dir().join(format!("skyward-artifacts-{}", std::process::id()));
    let cwd = scratch.join("cwd");
    let out = scratch.join("out");
    std::fs::create_dir_all(&cwd).expect("create working directory");

    let run = Command::new(env!("CARGO_BIN_EXE_skyward"))
        .args(["exp", "run", "bench_engine", "--scale", "quick", "--out"])
        .arg(&out)
        .current_dir(&cwd)
        .output()
        .expect("skyward runs");
    assert!(
        run.status.success(),
        "skyward exp run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    assert!(
        out.join("BENCH_engine.json").is_file(),
        "artifact missing from --out"
    );
    assert!(
        out.join("bench_engine.txt").is_file(),
        "report missing from --out"
    );
    assert!(
        !cwd.join("BENCH_engine.json").exists(),
        "artifact leaked into the working directory"
    );
    let after = std::fs::read(&checked_in).expect("results/BENCH_engine.json still readable");
    assert!(
        before == after,
        "the checked-in BENCH_engine.json was overwritten"
    );

    std::fs::remove_dir_all(&scratch).expect("remove scratch directory");
}
