//! The `--only=` path of `run_all_experiments` and the full report are
//! the same table of sections: rendering every `in_report` row by name
//! and concatenating them after the preamble reproduces
//! `report::generate`, every row — in the report or not — renders at
//! full size, and names outside the table are rejected.

use gpusimpow_bench::report::{self, Ctx, SECTIONS};
use gpusimpow_sim::SimPool;

#[test]
fn sections_rendered_by_name_reassemble_the_report() {
    let pool = SimPool::new(2);
    let ctx = Ctx {
        small: true,
        pool: &pool,
    };
    let mut md = report::preamble(true);
    for section in SECTIONS.iter().filter(|s| s.in_report) {
        md += &report::generate_only(section.name, &ctx).expect("table names are valid");
    }
    assert_eq!(md, report::generate(true, &pool));
}

#[test]
fn every_section_renders_by_name_at_full_size() {
    let pool = SimPool::new(2);
    let ctx = Ctx {
        small: false,
        pool: &pool,
    };
    for section in &SECTIONS {
        let md = report::generate_only(section.name, &ctx).expect("table names are valid");
        assert!(!md.trim().is_empty(), "{} rendered nothing", section.name);
    }
}

#[test]
fn unknown_and_empty_names_are_rejected_before_anything_runs() {
    let pool = SimPool::new(1);
    let ctx = Ctx {
        small: true,
        pool: &pool,
    };
    for bad in ["", "nope", "fig4,", "fig6,nope", "Fig4"] {
        let err = report::generate_only(bad, &ctx).expect_err(bad);
        for section in &SECTIONS {
            assert!(
                err.contains(section.name),
                "{err} should list {}",
                section.name
            );
        }
    }
}
