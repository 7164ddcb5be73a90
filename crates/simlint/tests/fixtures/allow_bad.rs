// Fixture: rotten suppressions. A reasonless marker does not suppress
// (and is itself a finding); a marker naming a made-up, a deleted or a
// moved lint is flagged.
fn run(n: usize) {
    // simlint: allow(nondeterministic_collection)
    let m: HashMap<u32, u32> = make();
    // simlint: allow(hash_maps_are_fine): because I said so
    let s: HashSet<u32> = make();
    // simlint: allow(lane_loop_alloc): one register file per warp
    let regs = vec![0; n];
    // simlint: allow(nondeterministic_collection): now the root clippy.toml's
    let keyed: HashMap<u32, u32> = make();
    // simlint: allow(panic_path): now the decode modules' #![deny] list
    let first = regs[0];
    // simlint: allow(undocumented_unsafe)
    let p = unsafe { read() };
    // simlint: allow(phase_mut_memory): now rustc's and the cross-core store test's
    let _ = (m, s, regs, keyed, first, p);
}
