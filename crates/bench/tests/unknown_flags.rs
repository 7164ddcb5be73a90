//! `run_all_experiments` without `--only=` rewrites `EXPERIMENTS.md`, so a
//! flag it does not know — `--help`, a typo — must stop it before any
//! report is written, not be skipped.

use std::process::Command;

#[test]
fn unknown_flags_exit_2_and_write_nothing() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("unknown_flags");
    for (i, args) in [
        &["--help"][..],
        &["--smal"],
        &["-h"],
        &["--small", "out.md", "--bogus"],
    ]
    .into_iter()
    .enumerate()
    {
        let dir = root.join(i.to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the scratch dir");
        let out = Command::new(env!("CARGO_BIN_EXE_run_all_experiments"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run the binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--per-cluster"), "{args:?}: {stderr}");
        let written = std::fs::read_dir(&dir)
            .expect("list the scratch dir")
            .count();
        assert_eq!(written, 0, "{args:?} wrote a file");
    }
}
