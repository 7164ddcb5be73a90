//! Global-memory backing store and host-side allocation interface.
//!
//! The functional side of the simulator needs actual data; this module
//! provides the flat GDDR address space with a bump allocator, plus typed
//! read/write helpers used by the benchmark host code (the stand-in for
//! `cudaMalloc`/`cudaMemcpy`).

use std::fmt;

/// A device pointer: a byte address in simulated global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DevicePtr(pub u32);

impl DevicePtr {
    /// The raw byte address.
    pub fn addr(self) -> u32 {
        self.0
    }

    /// Pointer `bytes` past this one.
    ///
    /// # Panics
    ///
    /// Panics when the result leaves the 32-bit address space.
    pub fn offset(self, bytes: u32) -> DevicePtr {
        let addr = self.0.checked_add(bytes);
        DevicePtr(addr.expect("device pointer offset wraps the 32-bit address space"))
    }
}

impl fmt::Display for DevicePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:08x}", self.0)
    }
}

/// Simulated global (GDDR) memory with a bump allocator.
///
/// # Examples
///
/// ```
/// use gpusimpow_sim::mem::GpuMemory;
///
/// let mut mem = GpuMemory::new(1 << 20);
/// let buf = mem.alloc_f32(4);
/// mem.write_f32_slice(buf, &[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(mem.read_f32(buf.offset(8)), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct GpuMemory {
    data: Vec<u8>,
    next: u32,
}

impl GpuMemory {
    /// Creates a memory of `capacity_bytes` (zero-initialized).
    ///
    /// # Panics
    ///
    /// Panics if the capacity exceeds 1 GiB (the 32-bit simulated address
    /// space keeps workloads honest).
    pub fn new(capacity_bytes: usize) -> Self {
        assert!(
            capacity_bytes <= 1 << 30,
            "simulated memory capped at 1 GiB"
        );
        GpuMemory {
            data: vec![0; capacity_bytes],
            // Address 0 is kept unmapped so that a zero pointer faults
            // loudly in kernels.
            next: 256,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Allocates `bytes`, 256-byte aligned (mirrors `cudaMalloc`).
    ///
    /// # Panics
    ///
    /// Panics when the capacity is exhausted.
    pub fn alloc(&mut self, bytes: u32) -> DevicePtr {
        self.alloc_bytes(bytes as u64)
    }

    /// The bump allocator, in `u64` so no request size can wrap.
    fn alloc_bytes(&mut self, bytes: u64) -> DevicePtr {
        let base = (self.next + 255) & !255;
        let end = base as u64 + bytes;
        assert!(
            end <= self.data.len() as u64,
            "simulated memory exhausted: need {end} of {}",
            self.data.len()
        );
        self.next = end as u32;
        DevicePtr(base)
    }

    /// Allocates space for `count` f32/u32 words.
    ///
    /// # Panics
    ///
    /// Panics when the capacity is exhausted.
    pub fn alloc_f32(&mut self, count: u32) -> DevicePtr {
        self.alloc_bytes(count as u64 * 4)
    }

    /// Reads one 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range or unaligned address.
    pub fn read_u32(&self, ptr: DevicePtr) -> u32 {
        let a = ptr.0 as usize;
        assert!(a.is_multiple_of(4), "unaligned 32-bit read at {ptr}");
        u32::from_le_bytes(self.data[a..a + 4].try_into().expect("range checked"))
    }

    /// Writes one 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range or unaligned address.
    pub fn write_u32(&mut self, ptr: DevicePtr, value: u32) {
        let a = ptr.0 as usize;
        assert!(a.is_multiple_of(4), "unaligned 32-bit write at {ptr}");
        self.data[a..a + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads one f32.
    pub fn read_f32(&self, ptr: DevicePtr) -> f32 {
        f32::from_bits(self.read_u32(ptr))
    }

    /// Writes one f32.
    pub fn write_f32(&mut self, ptr: DevicePtr, value: f32) {
        self.write_u32(ptr, value.to_bits());
    }

    /// Copies a host slice into device memory (`cudaMemcpy` H2D).
    pub fn write_u32_slice(&mut self, ptr: DevicePtr, values: &[u32]) {
        for (i, v) in values.iter().enumerate() {
            self.write_u32(ptr.offset((i * 4) as u32), *v);
        }
    }

    /// Copies a host f32 slice into device memory.
    pub fn write_f32_slice(&mut self, ptr: DevicePtr, values: &[f32]) {
        for (i, v) in values.iter().enumerate() {
            self.write_f32(ptr.offset((i * 4) as u32), *v);
        }
    }

    /// Reads `count` u32 words back to the host (`cudaMemcpy` D2H).
    pub fn read_u32_slice(&self, ptr: DevicePtr, count: usize) -> Vec<u32> {
        (0..count)
            .map(|i| self.read_u32(ptr.offset((i * 4) as u32)))
            .collect()
    }

    /// Reads `count` f32 words back to the host.
    pub fn read_f32_slice(&self, ptr: DevicePtr, count: usize) -> Vec<f32> {
        (0..count)
            .map(|i| self.read_f32(ptr.offset((i * 4) as u32)))
            .collect()
    }

    /// Word access used by the simulator's load path (byte address).
    pub(crate) fn load_word(&self, addr: u32) -> u32 {
        let a = (addr & !3) as usize;
        if a + 4 > self.data.len() {
            panic!("kernel read past end of simulated memory: 0x{addr:08x}");
        }
        u32::from_le_bytes(self.data[a..a + 4].try_into().expect("range checked"))
    }

    /// Word write used by the simulator's store path (byte address).
    pub(crate) fn store_word(&mut self, addr: u32, value: u32) {
        let a = (addr & !3) as usize;
        if a + 4 > self.data.len() {
            panic!("kernel write past end of simulated memory: 0x{addr:08x}");
        }
        self.data[a..a + 4].copy_from_slice(&value.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_monotonic() {
        let mut mem = GpuMemory::new(1 << 16);
        let a = mem.alloc(100);
        let b = mem.alloc(4);
        assert_eq!(a.addr() % 256, 0);
        assert_eq!(b.addr() % 256, 0);
        assert!(b.addr() >= a.addr() + 100);
    }

    #[test]
    fn zero_page_is_never_handed_out() {
        let mut mem = GpuMemory::new(1 << 16);
        assert!(mem.alloc(4).addr() > 0);
    }

    #[test]
    fn u32_and_f32_roundtrip() {
        let mut mem = GpuMemory::new(1 << 16);
        let p = mem.alloc_f32(8);
        mem.write_f32_slice(p, &[0.5, -2.0, 3.25]);
        assert_eq!(mem.read_f32_slice(p, 3), vec![0.5, -2.0, 3.25]);
        mem.write_u32(p, 0xdeadbeef);
        assert_eq!(mem.read_u32(p), 0xdeadbeef);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_host_read_panics() {
        let mem = GpuMemory::new(1 << 12);
        let _ = mem.read_u32(DevicePtr(2));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut mem = GpuMemory::new(1 << 12);
        let _ = mem.alloc(1 << 13);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn word_count_that_wraps_u32_bytes_panics() {
        // 2^30 words are 2^32 bytes: zero after a wrapping `* 4`.
        let mut mem = GpuMemory::new(1 << 12);
        let _ = mem.alloc_f32(1 << 30);
    }

    #[test]
    #[should_panic(expected = "wraps")]
    fn pointer_offset_past_the_address_space_panics() {
        let _ = DevicePtr(u32::MAX - 3).offset(4);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn kernel_oob_access_panics() {
        let mem = GpuMemory::new(1 << 12);
        let _ = mem.load_word(1 << 20);
    }

    #[test]
    fn load_word_masks_to_word_boundary() {
        let mut mem = GpuMemory::new(1 << 12);
        let p = mem.alloc(8);
        mem.write_u32(p, 0x11223344);
        assert_eq!(mem.load_word(p.addr() + 3), 0x11223344);
    }
}
