//! What the harness reads from the host: the shape it ran on, its own
//! peak memory, the commit it measured and scratch directories.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `benchmark/` in the checkout this binary was built from.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`, where results, traces and scratch stores go.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// `BENCHMARK.json` at the root of the checkout.
pub fn benchmark_json_path() -> PathBuf {
    package_dir().join("..").join("BENCHMARK.json")
}

/// What `std::thread::available_parallelism` reports (1 if it cannot
/// tell).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The thread cap `T = min(available_parallelism, 4)`: closed-loop
/// client count, server pool size and sweep pool size, so runnable
/// threads never exceed the cores a small runner has.
pub fn thread_cap() -> usize {
    available_parallelism().min(4)
}

/// Peak resident set (`VmHWM`) of this process in MiB, or 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(package_dir())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The HEAD commit of the checkout, or `unknown` outside a git
/// repository (the driver's checkout is one such place).
pub fn git_commit() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version`, or `unknown`.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string())
}

/// A scratch directory under `benchmark/out/tmp/`, removed on drop. It
/// lives inside the checkout because the benchmark may read and write
/// nowhere else.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh, empty directory.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created: no workload can run
    /// without its store.
    pub fn new(label: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir()
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create scratch directory {}: {e}", path.display()));
        TempDir { path }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and
        // harmless, a panic in drop is neither.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
