//! The Rijndael (AES-128) benchmark — Section 5.2.
//!
//! The optimized implementation performs large numbers of lookups into
//! pre-computed tables (4 round tables `Te0..Te3` plus the S-box): 160
//! word lookups per 16-byte block. Both versions run CBC mode with each
//! cluster encrypting independent data streams (e.g. network flows); a
//! zero IV starts each stream.
//!
//! * **ISRF** (`ISRF1`/`ISRF4`): tables are replicated per lane in the SRF
//!   and every lookup is an in-lane indexed access inside a single
//!   ten-round kernel. Table indices sit on the CBC loop-carried
//!   dependence, which is why this kernel's schedule length tracks the
//!   address/data separation in Figure 14.
//! * **Base**/`Cache`: table lookups become memory gathers. The cipher is
//!   split into 11 kernels (initial AddRoundKey, 9 rounds, final round);
//!   each kernel emits the next round's lookup addresses as a stream and a
//!   data-dependent gather fetches the table words — ~40 bytes of memory
//!   traffic per plaintext byte. On `Cache` the gathers are cacheable and
//!   hit once the 4 KB of tables are resident; traffic collapses but
//!   bandwidth and serialization still limit performance.
//!
//! Every run is validated block-for-block against the FIPS-197-checked
//! reference in [`crate::aes`].

use std::sync::Arc;

use isrf_core::config::MachineConfig;
use isrf_core::Word;
use isrf_kernel::ir::{Kernel, KernelBuilder, Operand, StreamKind, StreamSlot, ValueId};
use isrf_mem::AddrPattern;
use isrf_sim::{Machine, StreamBinding, StreamProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::aes;
use crate::common::{machine, replicated_table_pattern, schedule_for, Plan};

/// Benchmark sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RijndaelParams {
    /// Independent CBC chains per cluster (the loop-carried distance of
    /// the ISRF kernel).
    pub chains_per_lane: u32,
    /// Blocks per chain per strip.
    pub waves: u32,
    /// Strips (independent batches, pipelined back to back).
    pub strips: u32,
    /// RNG seed for plaintext generation.
    pub seed: u64,
}

impl Default for RijndaelParams {
    fn default() -> Self {
        RijndaelParams {
            chains_per_lane: 8,
            waves: 4,
            strips: 4,
            seed: 0x5eed_0001,
        }
    }
}

impl RijndaelParams {
    /// Blocks per strip.
    pub fn blocks_per_strip(&self) -> u32 {
        8 * self.chains_per_lane * self.waves
    }

    /// Total blocks encrypted.
    pub fn total_blocks(&self) -> u32 {
        self.blocks_per_strip() * self.strips
    }
}

/// Extract byte `pos` (3 = most significant) of `s`.
fn extract_byte(b: &mut KernelBuilder, s: ValueId, pos: u32) -> ValueId {
    let mask = b.constant(0xff);
    match pos {
        3 => {
            let c = b.constant(24);
            b.shr(s, c)
        }
        0 => b.and(s, mask),
        _ => {
            let c = b.constant(8 * pos);
            let sh = b.shr(s, c);
            b.and(sh, mask)
        }
    }
}

/// Build the single-kernel ISRF cipher. `chains_per_lane` is the carried
/// distance of the CBC feedback (1 = the Figure 14 study kernel).
pub fn build_isrf_kernel(rk: &[u32; 44], chains_per_lane: u32) -> Kernel {
    let mut b = KernelBuilder::new("rijndael");
    let pt = b.stream("pt", StreamKind::SeqIn);
    let ct = b.stream("ct", StreamKind::SeqOut);
    let te: Vec<StreamSlot> = (0..4)
        .map(|i| b.stream(format!("te{i}"), StreamKind::IdxInRead))
        .collect();
    let sbox = b.stream("sbox", StreamKind::IdxInRead);

    // CBC feedback placeholders, patched to the final cipher words below.
    let dist = chains_per_lane.max(1);
    let zero = b.constant(0);
    let prev: Vec<ValueId> = (0..4).map(|_| b.mov(zero)).collect();

    // Initial AddRoundKey (plus the CBC xor).
    let mut s: Vec<ValueId> = (0..4)
        .map(|i| {
            let p = b.seq_read(pt);
            let x = b.xor(p, prev[i]);
            let k = b.constant(rk[i]);
            b.xor(x, k)
        })
        .collect();

    // Nine table-lookup rounds.
    for round in 1..10 {
        // All sixteen byte extracts of the current state.
        let bytes: Vec<[ValueId; 4]> = s
            .iter()
            .map(|&w| [0, 1, 2, 3].map(|pos| extract_byte(&mut b, w, pos)))
            .collect();
        s = (0..4)
            .map(|i| {
                let v0 = b.idx_load(te[0], bytes[i][3]);
                let v1 = b.idx_load(te[1], bytes[(i + 1) % 4][2]);
                let v2 = b.idx_load(te[2], bytes[(i + 2) % 4][1]);
                let v3 = b.idx_load(te[3], bytes[(i + 3) % 4][0]);
                let x01 = b.xor(v0, v1);
                let x23 = b.xor(v2, v3);
                let x = b.xor(x01, x23);
                let k = b.constant(rk[4 * round + i]);
                b.xor(x, k)
            })
            .collect();
    }

    // Final round: S-box lookups, byte assembly, last AddRoundKey.
    let bytes: Vec<[ValueId; 4]> = s
        .iter()
        .map(|&w| [0, 1, 2, 3].map(|pos| extract_byte(&mut b, w, pos)))
        .collect();
    let out: Vec<ValueId> = (0..4)
        .map(|i| {
            let s0 = b.idx_load(sbox, bytes[i][3]);
            let s1 = b.idx_load(sbox, bytes[(i + 1) % 4][2]);
            let s2 = b.idx_load(sbox, bytes[(i + 2) % 4][1]);
            let s3 = b.idx_load(sbox, bytes[(i + 3) % 4][0]);
            let c24 = b.constant(24);
            let c16 = b.constant(16);
            let c8 = b.constant(8);
            let h0 = b.shl(s0, c24);
            let h1 = b.shl(s1, c16);
            let h2 = b.shl(s2, c8);
            let o01 = b.or(h0, h1);
            let o23 = b.or(h2, s3);
            let o = b.or(o01, o23);
            let k = b.constant(rk[40 + i]);
            b.xor(o, k)
        })
        .collect();
    for &w in &out {
        b.seq_write(ct, w);
    }
    // Patch the CBC feedback: prev_i = out_i from `dist` iterations ago.
    for i in 0..4 {
        b.set_operand(prev[i], 0, Operand::carried(out[i], dist, 0));
    }
    b.build().expect("rijndael ISRF kernel is well-formed")
}

/// Build the Base round kernels. `stage` 0 is the initial AddRoundKey
/// (reads plaintext + chain state, emits round-1 lookup addresses);
/// 1..=9 are table rounds (read 16 gathered words, emit next addresses);
/// 10 is the final round (reads 16 gathered S-box words, writes
/// ciphertext). `bases` are the memory word addresses of Te0..Te3 and the
/// S-box table.
pub fn build_base_kernel(rk: &[u32; 44], stage: u32, bases: &[u32; 5]) -> Kernel {
    let mut b = KernelBuilder::new(format!("rijndael_base_r{stage}"));
    match stage {
        0 => {
            let pt = b.stream("pt", StreamKind::SeqIn);
            let chain = b.stream("chain", StreamKind::SeqIn);
            let idx = b.stream("idx", StreamKind::SeqOut);
            let s: Vec<ValueId> = (0..4)
                .map(|i| {
                    let p = b.seq_read(pt);
                    let c = b.seq_read(chain);
                    let x = b.xor(p, c);
                    let k = b.constant(rk[i]);
                    b.xor(x, k)
                })
                .collect();
            emit_round_addrs(&mut b, idx, &s, bases, false);
        }
        1..=8 => {
            let lut = b.stream("lut", StreamKind::SeqIn);
            let idx = b.stream("idx", StreamKind::SeqOut);
            let s = absorb_round(&mut b, lut, rk, stage);
            emit_round_addrs(&mut b, idx, &s, bases, false);
        }
        9 => {
            let lut = b.stream("lut", StreamKind::SeqIn);
            let idx = b.stream("idx", StreamKind::SeqOut);
            let s = absorb_round(&mut b, lut, rk, stage);
            emit_round_addrs(&mut b, idx, &s, bases, true);
        }
        10 => {
            let lut = b.stream("lut", StreamKind::SeqIn);
            let ct = b.stream("ct", StreamKind::SeqOut);
            // 16 S-box bytes arrive in assembly order.
            let v: Vec<ValueId> = (0..16).map(|_| b.seq_read(lut)).collect();
            for i in 0..4 {
                let c24 = b.constant(24);
                let c16 = b.constant(16);
                let c8 = b.constant(8);
                let h0 = b.shl(v[4 * i], c24);
                let h1 = b.shl(v[4 * i + 1], c16);
                let h2 = b.shl(v[4 * i + 2], c8);
                let o01 = b.or(h0, h1);
                let o23 = b.or(h2, v[4 * i + 3]);
                let o = b.or(o01, o23);
                let k = b.constant(rk[40 + i]);
                let w = b.xor(o, k);
                b.seq_write(ct, w);
            }
        }
        _ => panic!("stage out of range"),
    }
    b.build().expect("rijndael base kernel is well-formed")
}

/// Read 16 gathered table words and produce the round output state.
fn absorb_round(
    b: &mut KernelBuilder,
    lut: StreamSlot,
    rk: &[u32; 44],
    round: u32,
) -> Vec<ValueId> {
    let v: Vec<ValueId> = (0..16).map(|_| b.seq_read(lut)).collect();
    (0..4)
        .map(|i| {
            let x01 = b.xor(v[4 * i], v[4 * i + 1]);
            let x23 = b.xor(v[4 * i + 2], v[4 * i + 3]);
            let x = b.xor(x01, x23);
            let k = b.constant(rk[(4 * round + i as u32) as usize]);
            b.xor(x, k)
        })
        .collect()
}

/// Emit 16 memory word addresses for the next round's gather. For a table
/// round: `Te_k[byte]`; for the final round (`sbox = true`): `S[byte]` in
/// assembly order.
fn emit_round_addrs(
    b: &mut KernelBuilder,
    idx: StreamSlot,
    s: &[ValueId],
    bases: &[u32; 5],
    sbox: bool,
) {
    for i in 0..4 {
        let positions = [
            (i, 3u32, 0usize),
            ((i + 1) % 4, 2, 1),
            ((i + 2) % 4, 1, 2),
            ((i + 3) % 4, 0, 3),
        ];
        for (word, pos, table) in positions {
            let byte = extract_byte(b, s[word], pos);
            let base = b.constant(if sbox { bases[4] } else { bases[table] });
            let addr = b.add(base, byte);
            b.seq_write(idx, addr);
        }
    }
}

/// Memory layout constants for the benchmark.
struct Layout {
    te_bases: [u32; 5],
    pt_base: u32,
    ct_base: u32,
}

const TABLE_BASE: u32 = 0x10_0000;

/// The fixed memory layout (independent of machine state).
fn layout() -> Layout {
    Layout {
        te_bases: [
            TABLE_BASE,
            TABLE_BASE + 256,
            TABLE_BASE + 512,
            TABLE_BASE + 768,
            TABLE_BASE + 1024,
        ],
        pt_base: 0,
        ct_base: 0x40_0000,
    }
}

/// What the load does after laying out memory, excluded from measurement.
enum Setup {
    /// Run the ISRF version's table-loading program.
    Program(StreamProgram),
    /// Zero the Base version's IV streams.
    ZeroIvs(Vec<StreamBinding>),
}

/// The load stage: tables and the seeded plaintext in memory, then the
/// `setup`.
fn load_and_set_up(m: &mut Machine, params: &RijndaelParams, setup: &Setup) {
    let l = layout();
    let te = aes::te_tables();
    for (t, &base) in te.iter().zip(&l.te_bases) {
        m.mem_mut().memory_mut().write_block(base, t);
    }
    let sbox_words: Vec<Word> = aes::SBOX.iter().map(|&x| x as u32).collect();
    m.mem_mut()
        .memory_mut()
        .write_block(l.te_bases[4], &sbox_words);

    // Plaintext: random blocks, contiguous per strip.
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let total_words = params.total_blocks() * 4;
    let pt: Vec<Word> = (0..total_words).map(|_| rng.gen()).collect();
    m.mem_mut().memory_mut().write_block(l.pt_base, &pt);
    match setup {
        Setup::Program(p) => {
            m.run(p);
            m.reset_stats();
        }
        Setup::ZeroIvs(ivs) => {
            for iv in ivs {
                m.write_stream(iv, &vec![0; iv.words() as usize]);
            }
        }
    }
}

/// Expected ciphertext for the whole run, using the reference cipher.
///
/// Chain (strip, cluster `c`, slot `k`) encrypts blocks whose record index
/// within the strip is `c + 8*k + 8*L*w` for wave `w` (with `L` chains per
/// lane), CBC-chained with a zero IV.
fn expected_ciphertext(m: &Machine, params: &RijndaelParams, layout: &Layout) -> Vec<Word> {
    let rk = aes::key_expansion(&aes::FIPS_KEY);
    let strip_blocks = params.blocks_per_strip();
    let mut ct = vec![0u32; (params.total_blocks() * 4) as usize];
    for s in 0..params.strips {
        for c in 0..8u32 {
            for k in 0..params.chains_per_lane {
                let blocks: Vec<[u32; 4]> = (0..params.waves)
                    .map(|w| {
                        let rec = s * strip_blocks + c + 8 * k + 8 * params.chains_per_lane * w;
                        let a = layout.pt_base + rec * 4;
                        [
                            m.mem().memory().read(a),
                            m.mem().memory().read(a + 1),
                            m.mem().memory().read(a + 2),
                            m.mem().memory().read(a + 3),
                        ]
                    })
                    .collect();
                for (w, cblk) in aes::encrypt_cbc(&rk, &blocks).iter().enumerate() {
                    let rec = s * strip_blocks + c + 8 * k + 8 * params.chains_per_lane * w as u32;
                    for (j, &word) in cblk.iter().enumerate() {
                        ct[(rec * 4) as usize + j] = word;
                    }
                }
            }
        }
    }
    ct
}

/// The host check: the FIPS-checked reference cipher over the plaintext,
/// which survives untouched in memory.
fn verify(m: &Machine, params: &RijndaelParams) {
    let l = layout();
    let expect = expected_ciphertext(m, params, &l);
    for (i, &e) in expect.iter().enumerate() {
        let got = m.mem().memory().read(l.ct_base + i as u32);
        assert_eq!(
            got, e,
            "ciphertext word {i} mismatch: got {got:#010x}, want {e:#010x}"
        );
    }
}

/// The plan of either version: `m` holds the allocation, `p` is the
/// measured program; the load lays out memory, then does `setup`.
fn planned(m: Machine, p: StreamProgram, params: &RijndaelParams, setup: Setup) -> Plan {
    let params = *params;
    let outputs = vec![(layout().ct_base, params.total_blocks() * 4)];
    let load = move |m: &mut Machine| load_and_set_up(m, &params, &setup);
    Plan::new(m, p, outputs, load, move |m| verify(m, &params))
}

/// Plan the ISRF version (valid on `Isrf1`/`Isrf4`).
fn plan_isrf(cfg: &MachineConfig, params: &RijndaelParams) -> Plan {
    let mut m = machine(cfg);
    let layout = layout();
    let rk = aes::key_expansion(&aes::FIPS_KEY);
    let kernel = Arc::new(build_isrf_kernel(&rk, params.chains_per_lane));
    let sched = schedule_for(&m, &kernel);

    let lanes = m.config().lanes as u32;
    // Tables, replicated per lane.
    let tables: Vec<StreamBinding> = (0..5).map(|_| m.alloc_stream(1, 256 * lanes)).collect();
    let strip_blocks = params.blocks_per_strip();
    let pt_bufs = [
        m.alloc_stream(4, strip_blocks),
        m.alloc_stream(4, strip_blocks),
    ];
    let ct_bufs = [
        m.alloc_stream(4, strip_blocks),
        m.alloc_stream(4, strip_blocks),
    ];

    // Setup program: load the tables once. The paper's measurements are of
    // steady-state software-pipelined execution where the 4 KB of tables
    // are already SRF-resident, so table loads are excluded from the
    // measured run (they amortize to zero over repeated strips).
    let mut setup = StreamProgram::new();
    for (t, base) in layout.te_bases.iter().enumerate() {
        setup.load(
            replicated_table_pattern(*base, 256, lanes),
            tables[t],
            false,
            &[],
        );
    }
    debug_assert_eq!(
        isrf_verify::Verifier::new().verify(m.config(), &m.verify_env(), &setup),
        Ok(())
    );
    m.note_program_fills(&setup);

    let mut p = StreamProgram::new();
    let mut prev_kernel = None;
    let mut buf_user: [Option<isrf_sim::ProgOpId>; 2] = [None, None];
    let iters = (params.chains_per_lane * params.waves) as u64;
    for s in 0..params.strips {
        let pick = (s % 2) as usize;
        let mut ldeps: Vec<isrf_sim::ProgOpId> = Vec::new();
        if let Some(u) = buf_user[pick] {
            ldeps.push(u);
        }
        let load = p.load(
            AddrPattern::contiguous(layout.pt_base + s * strip_blocks * 4, strip_blocks * 4),
            pt_bufs[pick],
            false,
            &ldeps,
        );
        let mut kdeps = vec![load];
        if let Some(k) = prev_kernel {
            kdeps.push(k);
        }
        let mut bindings = vec![pt_bufs[pick], ct_bufs[pick]];
        bindings.extend(tables.iter().copied());
        let k = p.kernel(Arc::clone(&kernel), sched.clone(), bindings, iters, &kdeps);
        p.store(
            ct_bufs[pick],
            AddrPattern::contiguous(layout.ct_base + s * strip_blocks * 4, strip_blocks * 4),
            false,
            &[k],
        );
        prev_kernel = Some(k);
        buf_user[pick] = Some(k);
    }
    planned(m, p, params, Setup::Program(setup))
}

/// Plan the Base/Cache version: 11 kernels per wave with data-dependent
/// gathers between them; `cacheable` routes the gathers through the cache.
fn plan_base(cfg: &MachineConfig, params: &RijndaelParams) -> Plan {
    let mut m = machine(cfg);
    let cacheable = cfg.cache.is_some();
    let layout = layout();
    let rk = aes::key_expansion(&aes::FIPS_KEY);
    let kernels: Vec<Arc<Kernel>> = (0..=10)
        .map(|r| Arc::new(build_base_kernel(&rk, r, &layout.te_bases)))
        .collect();
    let scheds: Vec<_> = kernels.iter().map(|k| schedule_for(&m, k)).collect();

    let l = params.chains_per_lane;
    let wave_blocks = 8 * l; // blocks per wave
    let iters = l as u64;

    // Per strip: pt buffer (whole strip), a zeroed IV region, idx/lut
    // double buffers, and the strip's ct region (whose wave windows also
    // serve as the next wave's CBC chain input).
    struct StripBufs {
        pt: StreamBinding,
        iv: StreamBinding,
        idx: [StreamBinding; 2],
        lut: [StreamBinding; 2],
        ct: StreamBinding,
    }
    let strip_blocks = params.blocks_per_strip();
    let bufs: Vec<StripBufs> = (0..params.strips)
        .map(|_| StripBufs {
            pt: m.alloc_stream(4, strip_blocks),
            iv: m.alloc_stream(4, wave_blocks),
            idx: [
                m.alloc_stream(16, wave_blocks),
                m.alloc_stream(16, wave_blocks),
            ],
            lut: [
                m.alloc_stream(16, wave_blocks),
                m.alloc_stream(16, wave_blocks),
            ],
            ct: m.alloc_stream(4, strip_blocks),
        })
        .collect();
    // The wave-0 chain state (the IV) is zeroed by the load.
    for b in &bufs {
        m.note_filled(&b.iv);
    }

    let mut p = StreamProgram::new();
    // Load each strip's plaintext up front (it fits; strips pipeline at the
    // kernel level below).
    let pt_loads: Vec<_> = (0..params.strips)
        .map(|s| {
            p.load(
                AddrPattern::contiguous(layout.pt_base + s * strip_blocks * 4, strip_blocks * 4),
                bufs[s as usize].pt,
                false,
                &[],
            )
        })
        .collect();

    // last kernel of each strip's previous wave (CBC serialization point).
    let mut prev_k10: Vec<Option<isrf_sim::ProgOpId>> = vec![None; params.strips as usize];
    for w in 0..params.waves {
        for s in 0..params.strips as usize {
            let sb = &bufs[s];
            // Window the strip's pt stream to this wave's blocks.
            let mut pt_wave = sb.pt;
            pt_wave.start_record = w * wave_blocks;
            pt_wave.records = wave_blocks;
            let mut ct_wave = sb.ct;
            ct_wave.start_record = w * wave_blocks;
            ct_wave.records = wave_blocks;
            // CBC chain input: zero IV for wave 0, else the previous
            // wave's ciphertext window.
            let chain = if w == 0 {
                sb.iv
            } else {
                let mut c = sb.ct;
                c.start_record = (w - 1) * wave_blocks;
                c.records = wave_blocks;
                c
            };

            // k0: pt + chain -> idx.
            let mut deps = vec![pt_loads[s]];
            if let Some(k) = prev_k10[s] {
                deps.push(k);
            }
            let mut last = p.kernel(
                Arc::clone(&kernels[0]),
                scheds[0].clone(),
                vec![pt_wave, chain, sb.idx[0]],
                iters,
                &deps,
            );
            for r in 1..=9u32 {
                let ip = ((r - 1) % 2) as usize;
                let op = (r % 2) as usize;
                let g = p.gather_dyn(sb.idx[ip], 0, sb.lut[ip], cacheable, &[last]);
                last = p.kernel(
                    Arc::clone(&kernels[r as usize]),
                    scheds[r as usize].clone(),
                    vec![sb.lut[ip], sb.idx[op]],
                    iters,
                    &[g],
                );
            }
            // Final gather (S-box) + k10 -> ct wave + next chain state.
            let g = p.gather_dyn(sb.idx[1], 0, sb.lut[1], cacheable, &[last]);
            let k10 = p.kernel(
                Arc::clone(&kernels[10]),
                scheds[10].clone(),
                vec![sb.lut[1], ct_wave],
                iters,
                &[g],
            );
            prev_k10[s] = Some(k10);
        }
    }
    // Store all ciphertext.
    for (s, b) in bufs.iter().enumerate() {
        let dep = prev_k10[s].expect("at least one wave ran");
        p.store(
            b.ct,
            AddrPattern::contiguous(
                layout.ct_base + s as u32 * strip_blocks * 4,
                strip_blocks * 4,
            ),
            false,
            &[dep],
        );
    }

    let ivs = bufs.iter().map(|b| b.iv).collect();
    planned(m, p, params, Setup::ZeroIvs(ivs))
}

/// Build the measured program, any un-measured setup program and their
/// machine's SRF allocation; the load lays out tables and plaintext and
/// runs the setup. The check compares the ciphertext with the
/// FIPS-checked reference cipher.
pub fn plan(cfg: &MachineConfig, params: &RijndaelParams) -> Plan {
    if cfg.srf.indexed.is_some() {
        plan_isrf(cfg, params)
    } else {
        plan_base(cfg, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_core::config::ConfigName;
    use isrf_core::stats::RunStats;

    fn run(cfg: ConfigName, params: &RijndaelParams) -> RunStats {
        plan(&cfg.into(), params).load().run_checked()
    }

    fn small() -> RijndaelParams {
        RijndaelParams {
            chains_per_lane: 2,
            waves: 2,
            strips: 2,
            seed: 42,
        }
    }

    #[test]
    fn isrf_kernel_is_valid_and_schedulable() {
        let rk = aes::key_expansion(&aes::FIPS_KEY);
        let k = build_isrf_kernel(&rk, 1);
        assert!(k.validate().is_ok());
        assert!(k.ops.len() > 500, "full ten-round cipher: {}", k.ops.len());
    }

    #[test]
    fn isrf_functional() {
        run(ConfigName::Isrf4, &small());
    }

    #[test]
    fn base_functional() {
        run(ConfigName::Base, &small());
    }

    #[test]
    fn cache_functional() {
        run(ConfigName::Cache, &small());
    }

    #[test]
    fn isrf1_functional() {
        run(ConfigName::Isrf1, &small());
    }

    #[test]
    fn isrf_beats_base_and_slashes_traffic() {
        let params = small();
        let base = run(ConfigName::Base, &params);
        let isrf = run(ConfigName::Isrf4, &params);
        // Paper: 4.11x speedup, ~95% traffic reduction (Figures 11/12).
        assert!(
            isrf.speedup_over(&base) > 2.0,
            "speedup {:.2}",
            isrf.speedup_over(&base)
        );
        let ratio = isrf.mem.normalized_to(&base.mem);
        assert!(ratio < 0.15, "traffic ratio {ratio:.3}");
    }

    #[test]
    fn cache_captures_lookups_but_loses_to_isrf() {
        let params = small();
        let base = run(ConfigName::Base, &params);
        let cache = run(ConfigName::Cache, &params);
        let isrf = run(ConfigName::Isrf4, &params);
        // Cache eliminates most off-chip lookup traffic...
        assert!(cache.mem.normalized_to(&base.mem) < 0.5);
        // ...and beats Base, but ISRF4 beats Cache (Figure 12).
        assert!(cache.speedup_over(&base) > 1.0);
        assert!(isrf.cycles < cache.cycles);
    }
}
