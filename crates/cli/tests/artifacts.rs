//! The `skyward exp run` surface: with `--out DIR` the report goes into
//! `DIR` and nowhere else, and without `--out` it goes to stdout
//! byte-for-byte.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn exp_run_writes_only_into_out_dir() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/exp/fig3_sleep_sweep_quick.txt");
    let expected = std::fs::read(&golden).expect("fig3_sleep_sweep golden is checked in");

    let scratch = std::env::temp_dir().join(format!("skyward-out-dir-{}", std::process::id()));
    let cwd = scratch.join("cwd");
    let out = scratch.join("out");
    std::fs::create_dir_all(&cwd).expect("create working directory");

    let run = Command::new(env!("CARGO_BIN_EXE_skyward"))
        .args([
            "exp",
            "run",
            "fig3_sleep_sweep",
            "--scale",
            "quick",
            "--out",
        ])
        .arg(&out)
        .current_dir(&cwd)
        .output()
        .expect("skyward runs");
    assert!(
        run.status.success(),
        "skyward exp run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    let written = std::fs::read(out.join("fig3_sleep_sweep.txt")).expect("report in --out");
    assert!(
        written == expected,
        "report differs from {}",
        golden.display()
    );
    assert!(
        run.stdout.is_empty(),
        "stdout not empty with --out: {}",
        String::from_utf8_lossy(&run.stdout)
    );
    let leaked: Vec<_> = std::fs::read_dir(&cwd)
        .expect("working directory readable")
        .map(|entry| entry.expect("directory entry").file_name())
        .collect();
    assert!(
        leaked.is_empty(),
        "files leaked into the working directory: {leaked:?}"
    );

    std::fs::remove_dir_all(&scratch).expect("remove scratch directory");
}

#[test]
fn fig_faults_runs_through_the_registry_only() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/exp/fig_faults_quick.txt");
    let expected = std::fs::read_to_string(&golden).expect("fig_faults golden is checked in");

    let run = Command::new(env!("CARGO_BIN_EXE_skyward"))
        .args([
            "exp",
            "run",
            "fig_faults",
            "--scale",
            "quick",
            "--jobs",
            "2",
        ])
        .output()
        .expect("skyward runs");
    assert!(
        run.status.success(),
        "skyward exp run fig_faults failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        String::from_utf8_lossy(&run.stdout) == expected,
        "stdout differs from {}",
        golden.display()
    );

    let removed = Command::new(env!("CARGO_BIN_EXE_skyward"))
        .arg("faults")
        .output()
        .expect("skyward runs");
    assert_eq!(removed.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&removed.stderr).contains("unknown command"),
        "stderr: {}",
        String::from_utf8_lossy(&removed.stderr)
    );
}
