// Fixture: justified suppressions — above the line with a wrapped
// reason, and trailing on the same line.
fn run() {
    // simlint: allow(undocumented_unsafe): fixture demo; the invariant
    // is the caller's, so this wrapped reason names it there.
    let a = unsafe { read() };
    let b = unsafe { read() }; // simlint: allow(undocumented_unsafe): fixture demo of trailing markers
    let _ = (a, b);
}
