//! Per-warp reconvergence stack (paper §III-C1, Fig. 2 bottom).
//!
//! Divergent branches are handled with the classic stack of tokens, each
//! holding an execution PC, a reconvergence PC and an active mask (Coon &
//! Lindholm, paper reference \[17\]). On a divergent branch the top-of-stack
//! entry is retargeted to the reconvergence point and one entry per
//! distinct outgoing path is pushed; when the executing entry reaches its
//! reconvergence PC it is popped and the threads resume together.

use gpusimpow_isa::Pc;

/// A thread-participation bitmask (bit `i` = lane `i` active).
pub type LaneMask = u64;

/// The mask with the low `n` lanes set (`n` is clamped to the mask
/// width): the full mask of an `n`-lane warp.
#[inline]
pub(crate) fn low_lanes(n: usize) -> LaneMask {
    if n >= 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

/// The set lanes of `mask`, in ascending lane order.
#[inline]
pub(crate) fn lanes(mask: LaneMask) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            lane
        })
    })
}

/// One token on the reconvergence stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackEntry {
    /// Next PC to execute for this token.
    pub pc: Pc,
    /// PC at which this token's threads reconverge with their siblings.
    pub reconv_pc: Pc,
    /// Lanes executing under this token.
    pub mask: LaneMask,
}

/// Events of interest to the activity statistics, returned by the
/// mutating operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackActivity {
    /// Entries pushed.
    pub pushes: u64,
    /// Entries popped.
    pub pops: u64,
    /// Whether a branch diverged.
    pub diverged: bool,
}

/// The per-warp SIMT reconvergence stack.
///
/// # Examples
///
/// ```
/// use gpusimpow_sim::simt_stack::SimtStack;
///
/// let mut stack = SimtStack::new(0, 0xF); // 4 lanes at pc 0
/// // Lanes 0-1 take a branch to 10, lanes 2-3 fall through; ipdom = 20.
/// stack.branch(10, 20, 0b0011, 1);
/// assert_eq!(stack.current().unwrap().pc, 10); // taken path first
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimtStack {
    entries: Vec<StackEntry>,
    /// Lanes that executed `Exit`.
    exited: LaneMask,
    /// Lanes the warp started with.
    initial: LaneMask,
}

/// Sentinel reconvergence PC of the bottom entry (never reached).
const NO_RECONV: Pc = Pc::MAX;

impl SimtStack {
    /// Creates a stack for a warp starting at `entry_pc` with the given
    /// active lanes.
    ///
    /// # Panics
    ///
    /// Panics if `initial_mask` is empty.
    pub fn new(entry_pc: Pc, initial_mask: LaneMask) -> Self {
        assert!(initial_mask != 0, "a warp needs at least one active lane");
        SimtStack {
            entries: vec![StackEntry {
                pc: entry_pc,
                reconv_pc: NO_RECONV,
                mask: initial_mask,
            }],
            exited: 0,
            initial: initial_mask,
        }
    }

    /// The executing token, or `None` once every lane has exited.
    pub fn current(&self) -> Option<StackEntry> {
        self.entries.last().copied().filter(|e| e.mask != 0)
    }

    /// Current stack depth.
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// `true` once all initial lanes have exited.
    pub fn finished(&self) -> bool {
        self.entries.is_empty() || self.exited == self.initial
    }

    /// Lanes that have exited.
    pub fn exited_mask(&self) -> LaneMask {
        self.exited
    }

    /// Advances past a non-control-flow instruction at the top of stack.
    pub fn advance(&mut self, next_pc: Pc) -> StackActivity {
        let mut act = StackActivity::default();
        if let Some(top) = self.entries.last_mut() {
            top.pc = next_pc;
            act.pops += self.pop_reconverged();
        }
        act
    }

    /// Applies a (possibly divergent) branch executed by the top token.
    ///
    /// `taken_mask` must be a subset of the current mask; lanes outside it
    /// fall through to `fallthrough_pc`. Returns the stack activity,
    /// including whether divergence occurred.
    ///
    /// # Panics
    ///
    /// Panics if `taken_mask` contains lanes not in the current mask, or
    /// if the stack is finished.
    pub fn branch(
        &mut self,
        target: Pc,
        reconv: Pc,
        taken_mask: LaneMask,
        fallthrough_pc: Pc,
    ) -> StackActivity {
        let mut act = StackActivity::default();
        let top = *self.entries.last().expect("branch on finished stack");
        assert!(
            taken_mask & !top.mask == 0,
            "taken lanes must be active lanes"
        );
        let not_taken = top.mask & !taken_mask;
        if not_taken == 0 {
            // Uniform taken.
            self.entries.last_mut().expect("non-empty").pc = target;
        } else if taken_mask == 0 {
            // Uniform not-taken.
            self.entries.last_mut().expect("non-empty").pc = fallthrough_pc;
        } else {
            act.diverged = true;
            // Retarget the current token to the reconvergence point; it
            // becomes the "join" entry holding the union mask.
            self.entries.last_mut().expect("non-empty").pc = reconv;
            // Push one token per outgoing path, skipping paths that jump
            // straight to the reconvergence point (loop exits).
            if fallthrough_pc != reconv {
                self.entries.push(StackEntry {
                    pc: fallthrough_pc,
                    reconv_pc: reconv,
                    mask: not_taken,
                });
                act.pushes += 1;
            }
            if target != reconv {
                self.entries.push(StackEntry {
                    pc: target,
                    reconv_pc: reconv,
                    mask: taken_mask,
                });
                act.pushes += 1;
            }
        }
        act.pops += self.pop_reconverged();
        act
    }

    /// Retargets the top token (unconditional jump).
    pub fn jump(&mut self, target: Pc) -> StackActivity {
        self.advance(target)
    }

    /// Marks the top token's lanes as exited and removes them from every
    /// entry.
    pub fn exit_lanes(&mut self) -> StackActivity {
        let mut act = StackActivity::default();
        let top = *self.entries.last().expect("exit on finished stack");
        self.exited |= top.mask;
        for e in &mut self.entries {
            e.mask &= !top.mask;
        }
        // Drop emptied entries from the top.
        while let Some(e) = self.entries.last() {
            if e.mask == 0 {
                self.entries.pop();
                act.pops += 1;
            } else {
                break;
            }
        }
        act.pops += self.pop_reconverged();
        act
    }

    fn pop_reconverged(&mut self) -> u64 {
        let mut pops = 0;
        while self.entries.len() > 1 {
            let top = self.entries[self.entries.len() - 1];
            if top.pc == top.reconv_pc || top.mask == 0 {
                self.entries.pop();
                pops += 1;
            } else {
                break;
            }
        }
        pops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_branches_do_not_push() {
        let mut s = SimtStack::new(0, 0xF);
        let act = s.branch(10, 20, 0xF, 1);
        assert!(!act.diverged);
        assert_eq!(act.pushes, 0);
        assert_eq!(s.current().unwrap().pc, 10);
        assert_eq!(s.depth(), 1);

        let act = s.branch(30, 40, 0, 11);
        assert!(!act.diverged);
        assert_eq!(s.current().unwrap().pc, 11);
    }

    #[test]
    fn divergent_branch_executes_taken_then_fallthrough_then_joins() {
        let mut s = SimtStack::new(5, 0xF);
        let act = s.branch(10, 20, 0b0011, 6);
        assert!(act.diverged);
        assert_eq!(act.pushes, 2);
        // Taken path first.
        let top = s.current().unwrap();
        assert_eq!((top.pc, top.mask), (10, 0b0011));
        // Simulate the taken path reaching the join.
        let act = s.advance(20);
        assert_eq!(act.pops, 1);
        let top = s.current().unwrap();
        assert_eq!((top.pc, top.mask), (6, 0b1100));
        // Fallthrough path reaches the join: full mask resumes at 20.
        let act = s.advance(20);
        assert_eq!(act.pops, 1);
        let top = s.current().unwrap();
        assert_eq!((top.pc, top.mask), (20, 0xF));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn loop_exit_branch_parks_exiting_lanes_at_reconv() {
        // Branch: taken = continue looping (pc 2), fallthrough... here we
        // model the common shape `bra.z cond -> exit` where the *taken*
        // path is the loop exit == reconv.
        let mut s = SimtStack::new(4, 0b111);
        // Lane 2 exits the loop (jumps to reconv 9), lanes 0-1 continue at 5.
        let act = s.branch(9, 9, 0b100, 5);
        assert!(act.diverged);
        // Only the continuing path is pushed; exiting lanes wait in the
        // retargeted join entry.
        assert_eq!(act.pushes, 1);
        let top = s.current().unwrap();
        assert_eq!((top.pc, top.mask), (5, 0b011));
        // Continuing lanes eventually exit the loop uniformly.
        let act = s.branch(9, 9, 0b011, 6);
        assert!(!act.diverged);
        assert_eq!(act.pops, 1, "token reached its reconvergence pc");
        let top = s.current().unwrap();
        assert_eq!((top.pc, top.mask), (9, 0b111));
    }

    #[test]
    fn nested_divergence() {
        let mut s = SimtStack::new(0, 0xFF);
        s.branch(10, 40, 0x0F, 1); // outer: lanes 0-3 to 10
        assert_eq!(s.current().unwrap().pc, 10);
        s.branch(20, 30, 0x03, 11); // inner at 10: lanes 0-1 to 20
                                    // bottom + outer-join/fallthrough/taken + inner fallthrough/taken,
                                    // with the outer taken entry retargeted to the inner join: 5 deep.
        assert_eq!(s.depth(), 5);
        let top = s.current().unwrap();
        assert_eq!((top.pc, top.mask), (20, 0x03));
        // Inner taken reaches 30.
        s.advance(30);
        assert_eq!(s.current().unwrap().mask, 0x0C);
        // Inner fallthrough reaches 30: inner join pops, outer taken
        // resumes with 0x0F at 30.
        s.advance(30);
        let top = s.current().unwrap();
        assert_eq!((top.pc, top.mask), (30, 0x0F));
    }

    #[test]
    fn exit_removes_lanes_everywhere() {
        let mut s = SimtStack::new(0, 0b1111);
        s.branch(10, 20, 0b0011, 1);
        // Taken lanes exit inside the divergent region.
        let act = s.exit_lanes();
        assert_eq!(act.pops, 1);
        assert_eq!(s.exited_mask(), 0b0011);
        assert!(!s.finished());
        let top = s.current().unwrap();
        assert_eq!((top.pc, top.mask), (1, 0b1100));
        // Remaining lanes reach the join and then exit.
        s.advance(20);
        s.exit_lanes();
        assert!(s.finished());
    }

    #[test]
    fn finished_when_all_exit_immediately() {
        let mut s = SimtStack::new(0, 0x1);
        s.exit_lanes();
        assert!(s.finished());
        assert!(s.current().is_none());
    }

    #[test]
    #[should_panic(expected = "taken lanes")]
    fn taken_outside_active_mask_panics() {
        let mut s = SimtStack::new(0, 0b0001);
        let _ = s.branch(5, 6, 0b0010, 1);
    }

    #[test]
    #[should_panic(expected = "at least one active lane")]
    fn empty_initial_mask_panics() {
        let _ = SimtStack::new(0, 0);
    }

    #[test]
    #[allow(clippy::needless_range_loop, reason = "lanes index a fixed array")]
    fn while_loop_full_execution_shape() {
        // Code: 0: header, 1: bra.z -> 4 (reconv 4), 2: body, 3: jmp 0, 4: exit
        // 3 lanes run 1, 2 and 3 iterations respectively.
        let mut s = SimtStack::new(0, 0b111);
        let mut remaining = [1u32, 2, 3];
        let mut iterations = 0;
        while let Some(top) = s.current() {
            match top.pc {
                0 => {
                    s.advance(1);
                }
                1 => {
                    // Lanes with remaining == 0 take the exit branch.
                    let mut exit_mask = 0;
                    for lane in 0..3 {
                        if top.mask & (1 << lane) != 0 && remaining[lane] == 0 {
                            exit_mask |= 1 << lane;
                        }
                    }
                    s.branch(4, 4, exit_mask, 2);
                }
                2 => {
                    for lane in 0..3 {
                        if top.mask & (1 << lane) != 0 {
                            remaining[lane] -= 1;
                        }
                    }
                    iterations += 1;
                    s.advance(3);
                }
                3 => {
                    s.jump(0);
                }
                4 => {
                    assert_eq!(top.mask, 0b111, "all lanes reconverge at exit");
                    s.exit_lanes();
                }
                other => panic!("unexpected pc {other}"),
            }
        }
        assert!(s.finished());
        assert_eq!(iterations, 3, "loop body runs max(remaining) times");
        assert_eq!(remaining, [0, 0, 0]);
    }
}
