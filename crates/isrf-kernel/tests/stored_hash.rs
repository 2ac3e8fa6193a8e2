//! The content hash a kernel stores when it is built, against the walk
//! that computed it on every read before it was stored.
//!
//! `mod reference` is that walk as it stood: the stream kinds and every
//! op's opcode and operands through one `StableHasher`. Every app kernel, at
//! both profiles on all four presets, must store exactly what it returns,
//! so every memo key and every pinned hash (`frontend_pins.rs` in
//! `isrf-lang`) stays where it was.

use isrf_apps::{prepare_app, Profile, APPS};
use isrf_core::config::ConfigName;
use isrf_kernel::hash::kernel_hash;
use isrf_sim::ProgOp;

mod reference {
    use isrf_kernel::ir::{Kernel, Opcode, StreamKind};
    use isrf_kernel::StableHasher;

    fn opcode(h: &mut StableHasher, opc: Opcode) {
        use Opcode::*;
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

    pub fn kernel_hash(k: &Kernel) -> u128 {
        let mut h = StableHasher::new();
        h.write_u8(b'K');
        h.write_usize(k.streams.len());
        for s in &k.streams {
            h.write_u8(match s.kind {
                StreamKind::SeqIn => 0,
                StreamKind::SeqOut => 1,
                StreamKind::CondIn => 2,
                StreamKind::CondLaneIn => 3,
                StreamKind::CondOut => 4,
                StreamKind::IdxInRead => 5,
                StreamKind::IdxInWrite => 6,
                StreamKind::IdxCrossRead => 7,
            });
        }
        h.write_usize(k.ops.len());
        for op in &k.ops {
            opcode(&mut h, op.opcode);
            h.write_usize(op.operands.len());
            for o in &op.operands {
                h.write_u32(o.value.0);
                h.write_u32(o.distance);
                h.write_u32(o.init);
            }
        }
        h.finish128()
    }
}

#[test]
fn every_app_kernel_stores_the_hash_the_walk_computes() {
    let mut kernels = 0;
    for app in APPS {
        for profile in [Profile::Small, Profile::Paper] {
            for config in ConfigName::ALL {
                let prepared = prepare_app(app, config, profile);
                for i in 0..prepared.program.len() {
                    let (ProgOp::Kernel { kernel, .. }, _) = prepared.program.node(i) else {
                        continue;
                    };
                    let what = format!("{app}/{config}/{profile:?} kernel `{}`", kernel.name);
                    assert_eq!(
                        kernel_hash(kernel),
                        reference::kernel_hash(kernel),
                        "{what}"
                    );
                    #[cfg(debug_assertions)]
                    assert_eq!(kernel.hash_walks(), 1, "{what}: built once, walked once");
                    kernels += 1;
                }
            }
        }
    }
    assert!(kernels > 1000, "{kernels} kernel invocations");
}
