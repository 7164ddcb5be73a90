// Fixture: rotten suppressions. A reasonless marker does not suppress
// (and is itself a finding); a marker naming a made-up or a deleted lint
// is flagged.
fn run(n: usize) {
    // simlint: allow(nondeterministic_collection)
    let m: HashMap<u32, u32> = make();
    // simlint: allow(hash_maps_are_fine): because I said so
    let s: HashSet<u32> = make();
    // simlint: allow(lane_loop_alloc): one register file per warp
    let regs = vec![0; n];
    let _ = (m, s, regs);
}
