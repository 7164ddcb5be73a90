//! Compute-phase contract violations reached from `tick` — each must fire.

use std::sync::atomic::{AtomicU64, Ordering};

pub struct GpuMemory;

static FAST_PATH: AtomicU64 = AtomicU64::new(0);

pub struct Core {
    dirty: bool,
}

impl Core {
    pub fn tick(&mut self, mem: &mut GpuMemory) {
        self.execute(mem);
        self.commit_stores(mem);
    }

    fn execute(&mut self, mem: &mut GpuMemory) {
        FAST_PATH.fetch_add(1, Ordering::Relaxed);
        lane_kernel();
        let _ = mem;
        self.dirty = true;
    }

    pub fn commit_stores(&mut self, mem: &mut GpuMemory) {
        let _ = mem;
        self.dirty = false;
    }
}
