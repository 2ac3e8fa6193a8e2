//! Stable content hashing for kernel IR, schedules and scheduling
//! parameters.
//!
//! The simulator caches compiled kernel tapes and modulo schedules across
//! invocations and sweep points. Cache keys must be *content* hashes —
//! stable across processes and independent of allocation addresses — so
//! two structurally identical kernels built by different sweep workers hit
//! the same entry. `std::hash::Hash` offers no such stability guarantee
//! (and the default hasher is randomly seeded), so this module hashes an
//! explicit byte encoding of each structure with two fixed-seed mixers and
//! returns the 128-bit concatenation, making accidental collisions
//! negligible.
//!
//! Diagnostic-only fields (kernel name, source lines) are excluded: they
//! do not affect scheduling or execution, so kernels differing only there
//! share cache entries.

use crate::graph::LatencyModel;
use crate::ir::{Kernel, Opcode, Operand};
use crate::sched::{SchedParams, Schedule};

/// Accumulates a byte stream into two independently-seeded 64-bit states.
///
/// State `a` is FNV-1a; state `b` is a multiply-rotate mixer with a
/// different seed. Both are fixed constants, so the final
/// [`StableHasher::finish128`] value depends only on the bytes written.
#[derive(Debug, Clone)]
pub struct StableHasher {
    a: u64,
    b: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A hasher with the fixed seeds.
    pub fn new() -> Self {
        StableHasher {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x9e37_79b9_7f4a_7c15,
        }
    }

    #[inline]
    fn byte(&mut self, v: u8) {
        self.a = (self.a ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3);
        self.b = (self.b ^ u64::from(v))
            .wrapping_mul(0xff51_afd7_ed55_8ccd)
            .rotate_left(23);
    }

    /// Write one `u8`.
    pub fn write_u8(&mut self, v: u8) {
        self.byte(v);
    }

    /// Write a `u32` (little-endian byte order).
    pub fn write_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Write a `u64` (little-endian byte order).
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Write a `usize` widened to `u64`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// The 128-bit digest of everything written so far.
    pub fn finish128(&self) -> u128 {
        // A final avalanche keeps short inputs from leaving the seeds
        // nearly intact.
        let mut a = self.a;
        let mut b = self.b;
        a ^= a >> 33;
        a = a.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        a ^= a >> 29;
        b ^= b >> 31;
        b = b.wrapping_mul(0xff51_afd7_ed55_8ccd);
        b ^= b >> 33;
        (u128::from(a) << 64) | u128::from(b)
    }
}

fn hash_operand(h: &mut StableHasher, o: &Operand) {
    h.write_u32(o.value.0);
    h.write_u32(o.distance);
    h.write_u32(o.init);
}

fn hash_opcode(h: &mut StableHasher, opc: Opcode) {
    use Opcode::*;
    // Explicit stable tags: never reordered, independent of the Rust
    // discriminant layout.
    let (tag, payload): (u8, u32) = match opc {
        Const(w) => (0, w),
        LaneId => (1, 0),
        LaneCount => (2, 0),
        IterId => (3, 0),
        Mov => (4, 0),
        Not => (5, 0),
        Neg => (6, 0),
        FNeg => (7, 0),
        IToF => (8, 0),
        FToI => (9, 0),
        Add => (10, 0),
        Sub => (11, 0),
        Mul => (12, 0),
        Div => (13, 0),
        Rem => (14, 0),
        And => (15, 0),
        Or => (16, 0),
        Xor => (17, 0),
        Shl => (18, 0),
        Shr => (19, 0),
        Sra => (20, 0),
        Lt => (21, 0),
        Le => (22, 0),
        Eq => (23, 0),
        Ne => (24, 0),
        ULt => (25, 0),
        Min => (26, 0),
        Max => (27, 0),
        FAdd => (28, 0),
        FSub => (29, 0),
        FMul => (30, 0),
        FDiv => (31, 0),
        FLt => (32, 0),
        FLe => (33, 0),
        FEq => (34, 0),
        FMin => (35, 0),
        FMax => (36, 0),
        Select => (37, 0),
        SeqRead(s) => (38, u32::from(s.0)),
        SeqWrite(s) => (39, u32::from(s.0)),
        CondRead(s) => (40, u32::from(s.0)),
        CondLaneRead(s) => (41, u32::from(s.0)),
        CondWrite(s) => (42, u32::from(s.0)),
        IdxAddr(s) => (43, u32::from(s.0)),
        IdxRead(s) => (44, u32::from(s.0)),
        IdxWrite(s) => (45, u32::from(s.0)),
        ScratchRead => (46, 0),
        ScratchWrite => (47, 0),
        Comm { rotate } => (48, rotate as u32),
        CommXor { mask } => (49, mask),
    };
    h.write_u8(tag);
    h.write_u32(payload);
}

/// Content hash of a kernel: stream kinds and the full op list (opcodes
/// and operands). The name and source lines are diagnostic and excluded.
pub fn kernel_hash(k: &Kernel) -> u128 {
    let mut h = StableHasher::new();
    h.write_u8(b'K');
    h.write_usize(k.streams.len());
    for s in &k.streams {
        h.write_u8(match s.kind {
            crate::ir::StreamKind::SeqIn => 0,
            crate::ir::StreamKind::SeqOut => 1,
            crate::ir::StreamKind::CondIn => 2,
            crate::ir::StreamKind::CondLaneIn => 3,
            crate::ir::StreamKind::CondOut => 4,
            crate::ir::StreamKind::IdxInRead => 5,
            crate::ir::StreamKind::IdxInWrite => 6,
            crate::ir::StreamKind::IdxCrossRead => 7,
        });
    }
    h.write_usize(k.ops.len());
    for op in &k.ops {
        hash_opcode(&mut h, op.opcode);
        h.write_usize(op.operands.len());
        for o in &op.operands {
            hash_operand(&mut h, o);
        }
    }
    h.finish128()
}

/// Content hash of a modulo schedule (II, per-op slots, span, completion).
pub fn schedule_hash(s: &Schedule) -> u128 {
    let mut h = StableHasher::new();
    h.write_u8(b'S');
    h.write_u32(s.ii);
    h.write_usize(s.slots.len());
    for &slot in &s.slots {
        h.write_u32(slot);
    }
    h.write_u32(s.span);
    h.write_u32(s.completion);
    h.finish128()
}

fn hash_latency_model(h: &mut StableHasher, m: &LatencyModel) {
    let l = &m.ops;
    for v in [
        l.int_alu,
        l.int_mul,
        l.fp_add,
        l.fp_mul,
        l.divide,
        l.select,
        l.scratch,
        l.sb_access,
    ] {
        h.write_u32(v);
    }
    h.write_u32(m.comm_latency);
    h.write_u32(m.inlane_separation);
    h.write_u32(m.crosslane_separation);
}

/// Content hash of scheduling parameters (resources, latency model,
/// separations, II bound) — together with [`kernel_hash`] this keys the
/// schedule memo in [`crate::sched::schedule_cached`].
pub fn sched_params_hash(p: &SchedParams) -> u128 {
    let mut h = StableHasher::new();
    h.write_u8(b'P');
    h.write_usize(p.fu_count);
    h.write_usize(p.divider_count);
    hash_latency_model(&mut h, &p.model);
    h.write_u32(p.max_ii);
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{KernelBuilder, StreamKind};
    use crate::sched::{schedule, SchedParams};
    use isrf_core::config::{ConfigName, MachineConfig};

    fn sample(name: &str, c: u32) -> Kernel {
        let mut b = KernelBuilder::new(name);
        let i = b.stream("in", StreamKind::SeqIn);
        let o = b.stream("out", StreamKind::SeqOut);
        let x = b.seq_read(i);
        let k = b.constant(c);
        let y = b.mul(x, k);
        b.seq_write(o, y);
        b.build().unwrap()
    }

    #[test]
    fn name_is_excluded_but_content_matters() {
        let a = sample("a", 3);
        let b = sample("b", 3);
        let c = sample("a", 4);
        assert_eq!(kernel_hash(&a), kernel_hash(&b));
        assert_ne!(kernel_hash(&a), kernel_hash(&c));
    }

    #[test]
    fn schedule_and_params_hashes_are_stable_and_distinguish() {
        let k = sample("k", 3);
        let p = SchedParams::from_machine(&MachineConfig::preset(ConfigName::Base));
        let s = schedule(&k, &p).unwrap();
        assert_eq!(schedule_hash(&s), schedule_hash(&s.clone()));
        assert_eq!(sched_params_hash(&p), sched_params_hash(&p.clone()));
        let p2 = p.clone().with_separations(9, 21);
        assert_ne!(sched_params_hash(&p), sched_params_hash(&p2));
        let mut s2 = s.clone();
        s2.ii += 1;
        assert_ne!(schedule_hash(&s), schedule_hash(&s2));
    }

    #[test]
    fn hasher_distinguishes_write_boundaries() {
        let mut a = StableHasher::new();
        a.write_u32(1);
        a.write_u32(2);
        let mut b = StableHasher::new();
        b.write_u64(1 | (2 << 32));
        // Same bytes -> same digest (the encoding is the byte stream)...
        assert_eq!(a.finish128(), b.finish128());
        // ...and different bytes -> different digest.
        let mut c = StableHasher::new();
        c.write_u64(2 | (1 << 32));
        assert_ne!(a.finish128(), c.finish128());
    }
}
