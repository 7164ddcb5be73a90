//! Lint scopes: which files each pass reads.
//!
//! * **Curated crate lists** (units, float determinism): widening these
//!   is a semantic decision — the circuit crate, for instance,
//!   legitimately computes on raw capacitance/voltage magnitudes, so
//!   widening `raw_unit_math` to every member would force allows onto
//!   code whose job is raw math. `tests/workspace_clean.rs` checks that
//!   every listed crate exists, so a renamed crate fails loudly instead
//!   of lingering as a dead prefix.
//! * **A fixed file set** inside one crate: the tick path
//!   ([`tick_path`], phase discipline).
//!
//! The rules that cover every member, determinism and the decode
//! files' panic discipline, are clippy's (the root `clippy.toml` and
//! the `#![deny]` list of each decode module).

/// Crates whose code must keep unit arithmetic inside the
/// `gpusimpow_tech::units` newtypes.
pub const UNIT_CRATES: &[&str] = &["crates/power", "crates/trace"];

/// Crates whose float arithmetic feeds bit-compared results.
pub const FLOAT_CRATES: &[&str] = &["crates/sim", "crates/power", "crates/pm"];

/// The directory holding the SIMT core's per-stage modules.
const SIM_CORE_DIR: &str = "crates/sim/src/core/";

/// Whether `rel_path` is under the `src/` of one of `crates`.
fn in_src_of(crates: &[&str], rel_path: &str) -> bool {
    crates.iter().any(|c| {
        rel_path
            .strip_prefix(c)
            .is_some_and(|rest| rest.starts_with("/src/"))
    })
}

/// Whether `rel_path` is in raw-unit-math scope.
pub fn units(rel_path: &str) -> bool {
    in_src_of(UNIT_CRATES, rel_path)
}

/// Whether `rel_path` is in float-determinism scope.
pub fn floats(rel_path: &str) -> bool {
    in_src_of(FLOAT_CRATES, rel_path)
}

/// The files the per-cycle tick path runs through: everything under
/// `crates/sim/src/core/` plus `crates/sim/src/{func,ldst,wheel}.rs`.
/// The phase pass walks the tick call graph across them. The core
/// directory matches as a *prefix*, not as a file list, so a further
/// split of the core cannot drop a file out of scope.
pub fn tick_path(rel_path: &str) -> bool {
    rel_path.starts_with(SIM_CORE_DIR)
        || matches!(
            rel_path,
            "crates/sim/src/func.rs" | "crates/sim/src/ldst.rs" | "crates/sim/src/wheel.rs"
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_path_follows_the_core_directory_not_a_file_list() {
        for file in [
            "mod.rs",
            "issue.rs",
            "execute.rs",
            "mem.rs",
            "not_split_yet.rs",
        ] {
            let path = format!("{SIM_CORE_DIR}{file}");
            assert!(tick_path(&path), "{path}");
        }
        // The pre-split single file is gone; nothing may still match it.
        assert!(!tick_path("crates/sim/src/core.rs"));
    }

    #[test]
    fn curated_scopes_cover_src_of_the_listed_crates_only() {
        assert!(units("crates/trace/src/codec.rs"));
        assert!(!units("crates/measure/src/fixture.rs"));
        assert!(!units("crates/power/tests/fixture.rs"));
        assert!(!units("crates/powerline/src/lib.rs"));
        assert!(floats("crates/pm/src/governor.rs"));
        assert!(!floats("crates/serve/src/job.rs"));
    }
}
