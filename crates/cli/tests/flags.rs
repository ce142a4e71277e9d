//! Every `skyward` command reads a fixed set of flags (plus `--seed`);
//! a misspelled flag is an error, never a silent fall back to defaults.

use std::process::Command;

#[test]
fn misspelled_flags_exit_2_and_name_the_flag() {
    for (argv, flag) in [
        (&["world", "--sed", "7"][..], "--sed"),
        (
            &["exp", "run", "fig3_sleep_sweep", "--scael", "quick"][..],
            "--scael",
        ),
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_skyward"))
            .args(argv)
            .output()
            .expect("skyward runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{argv:?}: stderr {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{argv:?}: stderr {stderr}"
        );
        assert!(run.stdout.is_empty(), "{argv:?} printed a report");
    }
}
