//! `run_all_experiments` without `--only=` rewrites `EXPERIMENTS.md`, so a
//! flag it does not know — `--help`, a typo, the retired `--per-cluster`
//! — or a malformed flag value must stop it before any report is
//! written, not be skipped; and a well-formed flag value must not be
//! mistaken for the output path.

use std::process::Command;

#[test]
fn unknown_flags_exit_2_and_write_nothing() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("unknown_flags");
    for (i, args) in [
        &["--help"][..],
        &["--smal"],
        &["-h"],
        &["--small", "out.md", "--bogus"],
        &["--per-cluster"],
        &["--small", "--threads"],
        &["--threads", "lots"],
        &["--threads=lots", "out.md"],
        &["--only", "fig4"],
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
        for flag in ["--small", "--only=NAME[,NAME]", "--threads N"] {
            assert!(stderr.contains(flag), "{args:?}: {stderr}");
        }
        let written = std::fs::read_dir(&dir)
            .expect("list the scratch dir")
            .count();
        assert_eq!(written, 0, "{args:?} wrote a file");
    }
}

/// Both accepted `--threads` forms consume their value, so the report
/// lands in the named output path and not in a file called `1`.
#[test]
fn threads_value_is_not_taken_for_the_output_path() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("threads_forms");
    for (i, args) in [
        &["--threads", "1", "--only=table2", "out.md"][..],
        &["--threads=1", "--only=table2", "out.md"],
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
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let mut written: Vec<_> = std::fs::read_dir(&dir)
            .expect("list the scratch dir")
            .map(|e| e.expect("read a dir entry").file_name())
            .collect();
        written.sort();
        assert_eq!(written, ["out.md"], "{args:?}");
        let md = std::fs::read_to_string(dir.join("out.md")).expect("read out.md");
        assert!(md.contains("Table II"), "{args:?}: {md}");
    }
}
