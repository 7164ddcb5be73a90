//! `EXPERIMENTS.md` is the committed `--small` report: every table and
//! figure of the paper this reproduction regenerates. Rendering it again
//! must give the same bytes, at any `SimPool` width, so a change that
//! moves any counter the power model prices fails here, in the root
//! package's tests. A deliberate change regenerates the file
//! (`run_all_experiments --small`) and commits it in the same diff.

use gpusimpow_bench::report;
use gpusimpow_sim::SimPool;

const COMMITTED: &str = include_str!("../EXPERIMENTS.md");

/// How many lines of each side a mismatch report shows.
const CONTEXT: usize = 6;

/// The first line where `got` departs from `want`, shown under the `##`
/// section heading it falls in; `None` when the two are equal.
fn first_difference(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let (w, g): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let at = w
        .iter()
        .zip(&g)
        .position(|(a, b)| a != b)
        .unwrap_or(w.len().min(g.len()));
    let heading = w[..at.min(w.len())]
        .iter()
        .rev()
        .find(|line| line.starts_with("## "))
        .unwrap_or(&"(preamble)");
    let show = |lines: &[&str]| {
        let end = lines.len().min(at + CONTEXT);
        lines.get(at..end).unwrap_or_default().join("\n")
    };
    Some(format!(
        "first difference at line {} in section `{heading}` \
         ({} committed lines, {} rendered; line endings or a trailing \
         newline count too):\n--- committed\n{}\n+++ rendered\n{}",
        at + 1,
        w.len(),
        g.len(),
        show(&w),
        show(&g)
    ))
}

fn assert_report_matches(threads: usize) {
    let rendered = report::generate(true, &SimPool::new(threads));
    if let Some(diff) = first_difference(COMMITTED, &rendered) {
        panic!("EXPERIMENTS.md differs from the report rendered on {threads} thread(s): {diff}");
    }
}

#[test]
fn committed_report_renders_on_one_thread() {
    assert_report_matches(1);
}

#[test]
fn committed_report_renders_on_two_threads() {
    assert_report_matches(2);
}

#[test]
fn a_difference_is_reported_under_its_section() {
    let want = "# T\n## A\nx\n## B\ny\nz\n";
    let diff = first_difference(want, "# T\n## A\nx\n## B\ny\nq\n").expect("differs");
    assert!(diff.contains("line 6 in section `## B`"), "{diff}");
    assert!(diff.contains("--- committed\nz\n+++ rendered\nq"), "{diff}");
    assert!(first_difference(want, want).is_none());
    let short = first_difference(want, "# T\n## A\nx\n").expect("truncated");
    assert!(short.contains("line 4 in section `## A`"), "{short}");
}
