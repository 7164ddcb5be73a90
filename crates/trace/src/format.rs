//! The `v1` kernel-trace container: header, body, digest footer.
//!
//! Layout (all multi-byte scalars varint unless noted):
//!
//! ```text
//! "GSPT"                magic, 4 raw bytes
//! version               u16 little-endian (= 1)
//! name                  varint length + UTF-8
//! num_regs              u8
//! smem_bytes            varint
//! grid_x grid_y         varint x2
//! block_x block_y       varint x2
//! warp_size             varint
//! h2d_bytes d2h_bytes   varint x2   (PCIe attribution of the launch)
//! const_words           varint count + varint words
//! code                  varint count + instruction records (codec.rs)
//! streams               varint count + per-warp records:
//!     block_x block_y warp      varint x3
//!     pcs                       varint count + varint PCs
//!     branch_taken              varint count + varint 64-bit masks
//!     mem_addrs                 varint count + varint byte addresses
//! digest                16 raw bytes over everything above
//! ```
//!
//! The per-warp records deliberately reference the instruction table by
//! PC instead of repeating opcode metadata per dynamic instruction:
//! the table carries the opcode class and operand/bank information
//! once, and the streams stay compact (a straight-line warp costs ~1–2
//! bytes per issued instruction). `branch_taken` holds one lane mask
//! per executed `Bra`, `mem_addrs` one byte address per active lane of
//! each executed `Ld`/`St` (active lanes ascending, accesses in issue
//! order).
//!
//! Versioning policy: any change to this layout bumps
//! [`TRACE_VERSION`]; readers reject other versions with
//! [`TraceError::UnsupportedVersion`] rather than guessing. The golden
//! digests in `tests/` pin the v1 byte stream against accidental
//! drift.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation
)]
// `assert!` and friends too (clippy.toml `disallowed-macros`), outside tests.
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]

use gpusimpow_isa::{Dim2, Instr, Kernel, LaunchConfig};

use crate::codec::{get_instr, put_instr};
use crate::wire::{Reader, Writer};
use crate::{TraceDigest, TraceError};

/// Leading magic of every encoded trace.
pub const TRACE_MAGIC: [u8; 4] = *b"GSPT";
/// Current (and only) format version.
pub const TRACE_VERSION: u16 = 1;

/// Caps the decoder enforces before allocating. Generous for real
/// workloads, small enough that a hostile count cannot balloon memory.
const MAX_NAME_BYTES: usize = 256;
const MAX_CODE: usize = 1 << 20;
const MAX_CONST_WORDS: usize = 16 * 1024;
const MAX_STREAMS: usize = 1 << 20;
const MAX_EVENTS_PER_WARP: usize = 1 << 26;
/// Architectural limits mirrored from the simulator's launch checks.
const MAX_BLOCK_THREADS: u64 = 1024;
const MAX_GRID_BLOCKS: u64 = 1 << 22;
const MAX_WARP_SIZE: u32 = 64;

/// The recorded instruction/memory stream of one warp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpStream {
    /// Block x-coordinate of the owning CTA.
    pub block_x: u32,
    /// Block y-coordinate of the owning CTA.
    pub block_y: u32,
    /// Warp index within the CTA.
    pub warp: u32,
    /// Every issued PC, in issue order (indexes the kernel's code).
    pub pcs: Vec<u32>,
    /// One taken-lane mask per executed `Bra`, in issue order.
    pub branch_taken: Vec<u64>,
    /// One byte address per active lane of each executed `Ld`/`St`
    /// (active lanes ascending, accesses in issue order). Constant
    /// addresses are relative to the constant bank base.
    pub mem_addrs: Vec<u32>,
}

/// A complete captured (or synthesised) kernel launch: the static
/// kernel image plus per-warp dynamic streams.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTrace {
    /// Kernel name (reports, file names).
    pub name: String,
    /// The instruction table the PCs index.
    pub code: Vec<Instr>,
    /// Per-thread register demand.
    pub num_regs: u8,
    /// Per-CTA shared-memory demand in bytes.
    pub smem_bytes: u32,
    /// Constant-bank contents.
    pub const_words: Vec<u32>,
    /// Grid extent in blocks (x, y).
    pub grid_x: u32,
    /// Grid extent in blocks, y component.
    pub grid_y: u32,
    /// Block extent in threads, x component.
    pub block_x: u32,
    /// Block extent in threads, y component.
    pub block_y: u32,
    /// Warp width the streams were recorded under; replay requires the
    /// same width (lane masks are not portable across widths).
    pub warp_size: u32,
    /// Host-to-device bytes attributed to this launch.
    pub h2d_bytes: u64,
    /// Device-to-host bytes attributed to this launch.
    pub d2h_bytes: u64,
    /// Per-warp streams, sorted by (block_y, block_x, warp).
    pub streams: Vec<WarpStream>,
}

impl KernelTrace {
    /// Encodes the trace into the v1 byte format, digest footer
    /// included.
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes = self.encode_body();
        let digest = TraceDigest::compute(&bytes);
        bytes.extend_from_slice(&digest.0);
        bytes
    }

    /// Everything [`Self::encode`] writes before the digest footer.
    fn encode_body(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_header(&TRACE_MAGIC, TRACE_VERSION);
        w.put_varint(self.name.len() as u64);
        w.put_raw(self.name.as_bytes());
        w.put_u8(self.num_regs);
        w.put_varint(self.smem_bytes as u64);
        w.put_varint(self.grid_x as u64);
        w.put_varint(self.grid_y as u64);
        w.put_varint(self.block_x as u64);
        w.put_varint(self.block_y as u64);
        w.put_varint(self.warp_size as u64);
        w.put_varint(self.h2d_bytes);
        w.put_varint(self.d2h_bytes);
        w.put_varint(self.const_words.len() as u64);
        for &word in &self.const_words {
            w.put_varint(word as u64);
        }
        w.put_varint(self.code.len() as u64);
        for &instr in &self.code {
            put_instr(&mut w, instr);
        }
        w.put_varint(self.streams.len() as u64);
        for s in &self.streams {
            w.put_varint(s.block_x as u64);
            w.put_varint(s.block_y as u64);
            w.put_varint(s.warp as u64);
            w.put_varint(s.pcs.len() as u64);
            for &pc in &s.pcs {
                w.put_varint(pc as u64);
            }
            w.put_varint(s.branch_taken.len() as u64);
            for &mask in &s.branch_taken {
                w.put_varint(mask);
            }
            w.put_varint(s.mem_addrs.len() as u64);
            for &addr in &s.mem_addrs {
                w.put_varint(addr as u64);
            }
        }
        w.into_bytes()
    }

    /// Decodes and validates a v1 trace. Hostile input — truncation,
    /// flipped bits, absurd counts, inconsistent geometry — yields a
    /// typed [`TraceError`]; no partially-decoded value escapes.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut r = Reader::new(bytes);
        r.header(&TRACE_MAGIC, TRACE_VERSION)?;
        // Verify the footer digest before decoding the body: a bit
        // flip then fails here even when it would also parse.
        let no_footer = || TraceError::Truncated {
            what: "digest footer",
        };
        let body_len = r.remaining().checked_sub(16).ok_or_else(no_footer)?;
        let mut body = Reader::new(r.take(body_len, "trace body")?);
        let covered = bytes.get(..r.consumed()).ok_or_else(no_footer)?;
        if TraceDigest::compute(covered) != TraceDigest(r.array("digest footer")?) {
            return Err(TraceError::DigestMismatch);
        }
        let r = &mut body;

        let name_len = r.count(MAX_NAME_BYTES, 1, "kernel name")?;
        let name = r.utf8(name_len, "kernel name")?;
        let num_regs = r.u8("register count")?;
        let smem_bytes = r.varint_u32("shared-memory bytes")?;
        let grid_x = r.varint_u32("grid x")?;
        let grid_y = r.varint_u32("grid y")?;
        let block_x = r.varint_u32("block x")?;
        let block_y = r.varint_u32("block y")?;
        let warp_size = r.varint_u32("warp size")?;
        let h2d_bytes = r.varint("h2d bytes")?;
        let d2h_bytes = r.varint("d2h bytes")?;
        let n_const = r.count(MAX_CONST_WORDS, 1, "constant words")?;
        let mut const_words = Vec::with_capacity(n_const);
        for _ in 0..n_const {
            const_words.push(r.varint_u32("constant word")?);
        }
        let n_code = r.count(MAX_CODE, 1, "code")?;
        let mut code = Vec::with_capacity(n_code);
        for _ in 0..n_code {
            code.push(get_instr(r)?);
        }
        let n_streams = r.count(MAX_STREAMS, 1, "streams")?;
        let mut streams = Vec::with_capacity(n_streams);
        for _ in 0..n_streams {
            let s_block_x = r.varint_u32("stream block x")?;
            let s_block_y = r.varint_u32("stream block y")?;
            let warp = r.varint_u32("stream warp index")?;
            let n_pcs = r.count(MAX_EVENTS_PER_WARP, 1, "stream pcs")?;
            let mut pcs = Vec::with_capacity(n_pcs);
            for _ in 0..n_pcs {
                pcs.push(r.varint_u32("pc")?);
            }
            let n_bra = r.count(MAX_EVENTS_PER_WARP, 1, "branch masks")?;
            let mut branch_taken = Vec::with_capacity(n_bra);
            for _ in 0..n_bra {
                branch_taken.push(r.varint("branch mask")?);
            }
            let n_mem = r.count(MAX_EVENTS_PER_WARP, 1, "memory addresses")?;
            let mut mem_addrs = Vec::with_capacity(n_mem);
            for _ in 0..n_mem {
                mem_addrs.push(r.varint_u32("memory address")?);
            }
            streams.push(WarpStream {
                block_x: s_block_x,
                block_y: s_block_y,
                warp,
                pcs,
                branch_taken,
                mem_addrs,
            });
        }
        r.finish("trace body")?;
        let trace = KernelTrace {
            name,
            code,
            num_regs,
            smem_bytes,
            const_words,
            grid_x,
            grid_y,
            block_x,
            block_y,
            warp_size,
            h2d_bytes,
            d2h_bytes,
            streams,
        };
        trace.validate()?;
        Ok(trace)
    }

    /// Structural invariants beyond what parsing enforces: sane
    /// geometry (the simulator's `LaunchConfig` constructor panics on
    /// bad dimensions, so they must be rejected here) and streams that
    /// actually belong to the launch.
    pub fn validate(&self) -> Result<(), TraceError> {
        let block_threads = u64::from(self.block_x).saturating_mul(u64::from(self.block_y));
        if block_threads == 0 || block_threads > MAX_BLOCK_THREADS {
            return Err(TraceError::Malformed(format!(
                "block ({}, {}) outside 1..={MAX_BLOCK_THREADS} threads",
                self.block_x, self.block_y
            )));
        }
        let grid_blocks = u64::from(self.grid_x).saturating_mul(u64::from(self.grid_y));
        if grid_blocks == 0 || grid_blocks > MAX_GRID_BLOCKS {
            return Err(TraceError::Malformed(format!(
                "grid ({}, {}) outside 1..={MAX_GRID_BLOCKS} blocks",
                self.grid_x, self.grid_y
            )));
        }
        if self.warp_size == 0 || self.warp_size > MAX_WARP_SIZE {
            return Err(TraceError::Malformed(format!(
                "warp size {} outside 1..={MAX_WARP_SIZE}",
                self.warp_size
            )));
        }
        let warps_per_block = block_threads.div_ceil(u64::from(self.warp_size));
        let mut seen = std::collections::BTreeSet::new();
        for s in &self.streams {
            if s.block_x >= self.grid_x || s.block_y >= self.grid_y {
                return Err(TraceError::Malformed(format!(
                    "stream block ({}, {}) outside grid ({}, {})",
                    s.block_x, s.block_y, self.grid_x, self.grid_y
                )));
            }
            if u64::from(s.warp) >= warps_per_block {
                return Err(TraceError::Malformed(format!(
                    "stream warp {} outside the block's {} warps",
                    s.warp, warps_per_block
                )));
            }
            if !seen.insert((s.block_y, s.block_x, s.warp)) {
                return Err(TraceError::Malformed(format!(
                    "duplicate stream for block ({}, {}) warp {}",
                    s.block_x, s.block_y, s.warp
                )));
            }
        }
        Ok(())
    }

    /// Reconstructs the kernel image for replay. Runs the ISA crate's
    /// full static validation (register ranges, branch targets, exit
    /// reachability), so a hostile trace cannot smuggle an ill-formed
    /// kernel into the pipeline.
    pub fn to_kernel(&self) -> Result<Kernel, TraceError> {
        Kernel::new(
            self.name.clone(),
            self.code.clone(),
            self.num_regs,
            self.smem_bytes,
            self.const_words.clone(),
        )
        .map_err(|e| TraceError::Malformed(format!("kernel image invalid: {e}")))
    }

    /// The launch geometry. Safe to call only after [`Self::validate`]
    /// (decode always validates); the dimensions are then within the
    /// constructor's asserted limits.
    pub fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(
            Dim2::xy(self.grid_x, self.grid_y),
            Dim2::xy(self.block_x, self.block_y),
        )
    }

    /// Total issued warp instructions across all streams.
    pub fn warp_instructions(&self) -> u64 {
        self.streams.iter().map(|s| s.pcs.len() as u64).sum()
    }

    /// The footer digest of this trace's encoding (its content
    /// address).
    pub fn content_digest(&self) -> TraceDigest {
        TraceDigest::compute(&self.encode_body())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    #[test]
    fn roundtrip_synth_families() {
        for trace in [
            synth::stride_family(2, 2, 4, 3),
            synth::occupancy_family(3, 4, 8),
            synth::conflict_family(1, 2, 8, 2),
            synth::divergence_family(2, 1, 13),
        ] {
            let bytes = trace.encode();
            let back = KernelTrace::decode(&bytes).expect("roundtrip decodes");
            assert_eq!(back, trace);
        }
    }

    #[test]
    fn truncation_at_every_length_is_typed() {
        let bytes = synth::divergence_family(1, 1, 5).encode();
        for len in 0..bytes.len() {
            match KernelTrace::decode(&bytes[..len]) {
                Err(_) => {}
                Ok(_) => panic!("prefix of length {len} decoded as a full trace"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = synth::stride_family(1, 1, 1, 1).encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    KernelTrace::decode(&bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut bytes = synth::occupancy_family(1, 1, 1).encode();
        bytes[4] = 2;
        bytes[5] = 0;
        assert_eq!(
            KernelTrace::decode(&bytes),
            Err(TraceError::UnsupportedVersion(2))
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = synth::occupancy_family(1, 1, 1).encode();
        bytes[0] = b'X';
        assert_eq!(KernelTrace::decode(&bytes), Err(TraceError::BadMagic));
    }

    #[test]
    fn geometry_is_validated() {
        let mut trace = synth::stride_family(1, 1, 1, 1);
        trace.block_x = 2048; // over the 1024-thread architectural limit
        assert!(matches!(trace.validate(), Err(TraceError::Malformed(_))));
        let mut trace = synth::stride_family(1, 1, 1, 1);
        trace.grid_x = 0;
        assert!(matches!(trace.validate(), Err(TraceError::Malformed(_))));
        let mut trace = synth::stride_family(1, 1, 1, 1);
        trace.warp_size = 0;
        assert!(matches!(trace.validate(), Err(TraceError::Malformed(_))));
    }

    #[test]
    fn duplicate_streams_are_rejected() {
        let mut trace = synth::stride_family(1, 2, 1, 1);
        let dup = trace.streams[0].clone();
        trace.streams.push(dup);
        assert!(matches!(trace.validate(), Err(TraceError::Malformed(_))));
    }

    #[test]
    fn kernel_reconstruction_validates_the_image() {
        let mut trace = synth::stride_family(1, 1, 1, 1);
        trace.num_regs = 0; // every register reference is now out of range
        assert!(matches!(trace.to_kernel(), Err(TraceError::Malformed(_))));
    }
}
