//! Lock-step property tests for the sequential and conditional stream
//! buffers.
//!
//! The one port of `isrf_sim::stream` (ways of lane-major power-of-two
//! rings, free-running counts, whole-row pops and pushes, incremental SRF
//! offsets, one grant rule), built per stream kind, runs beside
//! [`reference`], the queue-per-lane states it replaced, over random plans
//! of grants, row pops, row pushes and flushes. After every step both must
//! answer every query alike, hand out the same words, move the same number
//! of words and leave the same SRF; their snapshot bytes must be equal,
//! and a port decoded from them mid-run must carry on indistinguishably.

use std::collections::VecDeque;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_core::snap::{Dec, Enc, SnapError};
use isrf_core::Word;
use isrf_kernel::ir::StreamKind;
use isrf_sim::srf::Srf;
use isrf_sim::stream::{Port, StreamBinding};
use proptest::prelude::*;

/// The `VecDeque` stream states as they stood before the flat rings,
/// word-at-a-time and dividing per word, kept as the executable
/// specification of buffer behaviour and snapshot layout.
mod reference {
    use super::*;

    /// Closed form of the record-interleaved layout.
    fn locate(b: &StreamBinding, lanes: usize, k: u32) -> (usize, u32) {
        let record = b.absolute_record(k / b.record_words);
        let row = record / lanes as u32;
        (
            record as usize % lanes,
            b.range.base + row * b.record_words + k % b.record_words,
        )
    }

    #[derive(Debug, Clone)]
    struct LaneCursor {
        next_k: u32,
        next_word: u32,
        remaining: u32,
    }

    fn lane_cursors(b: &StreamBinding, lanes: usize) -> Vec<LaneCursor> {
        let n = lanes as u32;
        (0..n)
            .map(|l| {
                let first = (0..n.min(b.records)).find(|&k| b.absolute_record(k) % n == l);
                match first {
                    Some(f) => LaneCursor {
                        next_k: f,
                        next_word: 0,
                        remaining: (b.records - f).div_ceil(n) * b.record_words,
                    },
                    None => LaneCursor {
                        next_k: 0,
                        next_word: 0,
                        remaining: 0,
                    },
                }
            })
            .collect()
    }

    fn encode_cursors(cursors: &[LaneCursor], e: &mut Enc) {
        e.usize(cursors.len());
        for c in cursors {
            e.u32(c.remaining);
        }
    }

    impl LaneCursor {
        fn advance(&mut self, b: &StreamBinding, lanes: usize) -> u32 {
            let abs = b.absolute_record(self.next_k);
            let off = b.range.base + (abs / lanes as u32) * b.record_words + self.next_word;
            self.next_word += 1;
            if self.next_word == b.record_words {
                self.next_word = 0;
                self.next_k += lanes as u32;
            }
            self.remaining -= 1;
            off
        }
    }

    pub struct SeqIn {
        binding: StreamBinding,
        cursors: Vec<LaneCursor>,
        bufs: Vec<VecDeque<(u64, Word)>>,
        buf_cap: usize,
    }

    impl SeqIn {
        pub fn new(binding: StreamBinding, lanes: usize, buf_cap: usize) -> Self {
            SeqIn {
                binding,
                cursors: lane_cursors(&binding, lanes),
                bufs: vec![VecDeque::new(); lanes],
                buf_cap,
            }
        }

        pub fn wants_grant(&self) -> bool {
            let lanes = self.cursors.iter().zip(&self.bufs);
            lanes
                .into_iter()
                .any(|(c, b)| c.remaining > 0 && b.len() < self.buf_cap)
        }

        pub fn grant(&mut self, srf: &Srf, m: usize, now: u64, latency: u64) -> u64 {
            let mut moved = 0;
            let lanes = self.bufs.len();
            for (lane, (c, buf)) in self.cursors.iter_mut().zip(&mut self.bufs).enumerate() {
                for _ in 0..m {
                    if c.remaining == 0 || buf.len() >= self.buf_cap {
                        break;
                    }
                    let off = c.advance(&self.binding, lanes);
                    buf.push_back((now + latency, srf.read(lane, off)));
                    moved += 1;
                }
            }
            moved
        }

        pub fn can_pop(&self, lane: usize, now: u64) -> bool {
            self.bufs[lane].front().is_some_and(|&(t, _)| t <= now)
        }

        pub fn pop(&mut self, lane: usize) -> Word {
            self.bufs[lane].pop_front().expect("pop on empty buffer").1
        }

        pub fn lane_done(&self, lane: usize) -> bool {
            self.cursors[lane].remaining == 0 && self.bufs[lane].is_empty()
        }

        pub fn buffered_words(&self, lane: usize) -> usize {
            self.bufs[lane].len()
        }

        pub fn encode_state(&self, e: &mut Enc) {
            encode_cursors(&self.cursors, e);
            for b in &self.bufs {
                e.usize(b.len());
                for &(t, w) in b {
                    e.u64(t);
                    e.u32(w);
                }
            }
        }
    }

    pub struct SeqOut {
        binding: StreamBinding,
        cursors: Vec<LaneCursor>,
        bufs: Vec<VecDeque<Word>>,
        buf_cap: usize,
    }

    impl SeqOut {
        pub fn new(binding: StreamBinding, lanes: usize, buf_cap: usize) -> Self {
            SeqOut {
                binding,
                cursors: lane_cursors(&binding, lanes),
                bufs: vec![VecDeque::new(); lanes],
                buf_cap,
            }
        }

        pub fn wants_grant(&self, m: usize, flush: bool) -> bool {
            self.bufs
                .iter()
                .any(|b| b.len() >= m || (flush && !b.is_empty()))
        }

        pub fn grant(&mut self, srf: &mut Srf, m: usize, flush: bool) -> u64 {
            let mut moved = 0;
            let lanes = self.bufs.len();
            for (lane, (c, buf)) in self.cursors.iter_mut().zip(&mut self.bufs).enumerate() {
                if buf.len() < m && !flush {
                    continue;
                }
                for _ in 0..m {
                    let Some(w) = buf.pop_front() else { break };
                    if c.remaining == 0 {
                        continue; // overproduced: dropped
                    }
                    let off = c.advance(&self.binding, lanes);
                    srf.write(lane, off, w);
                    moved += 1;
                }
            }
            moved
        }

        pub fn can_push(&self, lane: usize) -> bool {
            self.bufs[lane].len() < self.buf_cap
        }

        pub fn push(&mut self, lane: usize, w: Word) {
            self.bufs[lane].push_back(w);
        }

        pub fn drained(&self) -> bool {
            self.bufs.iter().all(|b| b.is_empty())
        }

        pub fn encode_state(&self, e: &mut Enc) {
            encode_cursors(&self.cursors, e);
            for b in &self.bufs {
                e.usize(b.len());
                for &w in b {
                    e.u32(w);
                }
            }
        }
    }

    pub struct CondIn {
        binding: StreamBinding,
        lanes: usize,
        fetch_cursor: u32,
        buf: VecDeque<(u64, Word)>,
        buf_cap: usize,
    }

    impl CondIn {
        pub fn new(binding: StreamBinding, lanes: usize, per_lane_cap: usize) -> Self {
            CondIn {
                binding,
                lanes,
                fetch_cursor: 0,
                buf: VecDeque::new(),
                buf_cap: per_lane_cap * lanes,
            }
        }

        pub fn wants_grant(&self) -> bool {
            self.fetch_cursor < self.binding.words() && self.buf.len() < self.buf_cap
        }

        pub fn grant(&mut self, srf: &Srf, block_words: usize, now: u64, latency: u64) -> u64 {
            let mut moved = 0;
            for _ in 0..block_words {
                if !self.wants_grant() {
                    break;
                }
                let (lane, off) = locate(&self.binding, self.lanes, self.fetch_cursor);
                self.buf.push_back((now + latency, srf.read(lane, off)));
                self.fetch_cursor += 1;
                moved += 1;
            }
            moved
        }

        pub fn can_pop(&self, k: usize, now: u64) -> bool {
            self.buf.len() >= k && self.buf.iter().take(k).all(|&(t, _)| t <= now)
        }

        pub fn pop(&mut self, k: usize) -> Vec<Word> {
            (0..k)
                .map(|_| self.buf.pop_front().expect("cond pop underflow").1)
                .collect()
        }

        pub fn remaining_words(&self) -> u32 {
            self.binding.words() - self.fetch_cursor + self.buf.len() as u32
        }

        pub fn encode_state(&self, e: &mut Enc) {
            e.u32(self.fetch_cursor);
            e.usize(self.buf.len());
            for &(t, w) in &self.buf {
                e.u64(t);
                e.u32(w);
            }
        }
    }

    pub struct CondOut {
        binding: StreamBinding,
        lanes: usize,
        write_cursor: u32,
        buf: VecDeque<Word>,
        buf_cap: usize,
    }

    impl CondOut {
        pub fn new(binding: StreamBinding, lanes: usize, per_lane_cap: usize) -> Self {
            CondOut {
                binding,
                lanes,
                write_cursor: 0,
                buf: VecDeque::new(),
                buf_cap: per_lane_cap * lanes,
            }
        }

        pub fn can_push(&self, k: usize) -> bool {
            self.buf.len() + k <= self.buf_cap
        }

        pub fn push(&mut self, words: &[Word]) {
            self.buf.extend(words.iter().copied());
        }

        pub fn wants_grant(&self, block_words: usize, flush: bool) -> bool {
            self.buf.len() >= block_words || (flush && !self.buf.is_empty())
        }

        pub fn grant(&mut self, srf: &mut Srf, block_words: usize, flush: bool) -> u64 {
            if self.buf.len() < block_words && !flush {
                return 0;
            }
            let mut moved = 0;
            for _ in 0..block_words {
                let Some(w) = self.buf.pop_front() else { break };
                if self.write_cursor >= self.binding.words() {
                    continue; // overproduced: dropped
                }
                let (lane, off) = locate(&self.binding, self.lanes, self.write_cursor);
                srf.write(lane, off, w);
                self.write_cursor += 1;
                moved += 1;
            }
            moved
        }

        pub fn written(&self) -> u32 {
            self.write_cursor
        }

        pub fn drained(&self) -> bool {
            self.buf.is_empty()
        }

        pub fn encode_state(&self, e: &mut Enc) {
            e.u32(self.write_cursor);
            e.usize(self.buf.len());
            for &w in &self.buf {
                e.u32(w);
            }
        }
    }
}

/// Per-bank words of the region every binding lives in.
const REGION_WORDS: u32 = 256;

/// Everything a case is run under.
#[derive(Debug, Clone)]
struct Shape {
    lanes: usize,
    m: usize,
    cap: usize,
    latency: u64,
    record_words: u32,
    /// 0 whole (any length, any start), 1 strided window, 2 periodic.
    window: u8,
    /// Raw sizes, reduced into the region by [`binding`].
    sizes: (u32, u32, u32, u32),
}

fn shapes() -> impl Strategy<Value = Shape> {
    let picks = (0usize..3, 0usize..2, 0usize..2, 0u64..4, 0usize..3, 0u8..3);
    (picks, (0u32..64, 1u32..4, 0u32..3, 1u32..5)).prop_map(
        |((lanes, m, cap, latency, record_words, window), sizes)| Shape {
            lanes: [4, 8, 16][lanes],
            m: [1, 4][m],
            cap: [2, 8][cap],
            latency,
            record_words: [1, 2, 4][record_words],
            window,
            sizes,
        },
    )
}

/// A pattern-filled SRF of the shape's lane count, and the binding.
fn setup(s: &Shape) -> (Srf, StreamBinding) {
    let mut cfg = MachineConfig::preset(ConfigName::Base);
    cfg.lanes = s.lanes;
    cfg.validate().expect("4, 8 and 16 lanes divide the SRF");
    let mut srf = Srf::new(&cfg);
    let range = srf.alloc(REGION_WORDS);
    for lane in 0..s.lanes {
        for off in 0..srf.bank_words() {
            srf.write(lane, off, lane as u32 * 100_000 + off);
        }
    }
    let n = s.lanes as u32;
    let (a, run, gap, runs) = s.sizes;
    let binding = match s.window {
        // Any length (lanes own unequal shares) from any start record.
        0 => StreamBinding::whole(range, s.record_words, 3 * n + a).slice(a % 7, n + a),
        1 => StreamBinding::windowed(
            range,
            s.record_words,
            n * (a % 3),
            n * run,
            n * (run + gap),
            runs,
        ),
        _ => StreamBinding::windowed(range, s.record_words, n * (a % 3), n * run, 0, runs + 1),
    };
    (srf, binding)
}

fn region(srf: &Srf, lanes: usize) -> Vec<Word> {
    let words = 0..REGION_WORDS + 8;
    (0..lanes)
        .flat_map(|l| words.clone().map(move |o| (l, o)))
        .map(|(l, o)| srf.read(l, o))
        .collect()
}

/// One step of a plan: what to do, and bits to do it with.
type Step = (u8, u64);

fn plans() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..4, any::<u64>()), 1..120)
}

/// Bit `lane` of `bits`, as a condition word.
fn conds(bits: u64, lanes: usize) -> Vec<Word> {
    (0..lanes).map(|l| (bits >> l & 1) as Word * 7).collect()
}

/// The first `k` of `lanes` lanes asserting.
fn first(k: usize, lanes: usize) -> Vec<Word> {
    (0..lanes).map(|l| Word::from(l < k)).collect()
}

/// Snapshot bytes of a state.
fn bytes(encode: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc::new();
    encode(&mut e);
    e.into_bytes()
}

/// Decode `bytes` into `fresh` and require the re-encoding to be them.
fn restored<S>(
    mut fresh: S,
    bytes: &[u8],
    decode: impl FnOnce(&mut S, &mut Dec) -> Result<(), SnapError>,
    encode: impl FnOnce(&S, &mut Enc),
) -> S {
    let mut d = Dec::new(bytes);
    decode(&mut fresh, &mut d).expect("own bytes decode");
    d.finish().expect("decode consumes every byte");
    let mut e = Enc::new();
    encode(&fresh, &mut e);
    assert_eq!(e.into_bytes(), bytes, "re-encoding differs");
    fresh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A `SeqIn` port — as a `CondLaneIn` port, what backs per-lane
    /// conditional substreams, whose pops take a lane mask.
    #[test]
    fn seq_in_matches_queue_reference(s in shapes(), plan in plans(), lane_cond in any::<bool>()) {
        let (mut srf, b) = setup(&s);
        let kind = [StreamKind::SeqIn, StreamKind::CondLaneIn][usize::from(lane_cond)];
        let mut new = Port::new(kind, b, s.lanes, s.cap);
        let mut old = reference::SeqIn::new(b, s.lanes, s.cap);
        let mut now = 0u64;
        for (i, &(what, bits)) in plan.iter().enumerate() {
            for flush in [false, true] {
                prop_assert_eq!(new.wants_grant(s.m, flush), old.wants_grant());
            }
            let mut blocked = None;
            for lane in 0..s.lanes {
                // The row states answer for one lane through a one-lane
                // condition: a lane that holds words and need not wait can
                // pop, an empty one that need not wait is done.
                let mut only = vec![0; s.lanes];
                only[lane] = 1;
                let waits = new.blocked_lane(Some(&only), now).is_some();
                let held = new.buffered_words(lane);
                prop_assert_eq!(held, old.buffered_words(lane));
                prop_assert_eq!(held > 0 && !waits, old.can_pop(lane, now));
                prop_assert_eq!(held == 0 && !waits, old.lane_done(lane));
                if blocked.is_none() && !old.can_pop(lane, now) && !old.lane_done(lane) {
                    blocked = Some(lane);
                }
            }
            // No condition is every lane asserting.
            prop_assert_eq!(new.blocked_lane(None, now), blocked);
            prop_assert_eq!(new.blocked_lane(Some(&vec![1; s.lanes]), now), blocked);
            match what {
                0 | 1 => {
                    let moved = new.grant(&mut srf, s.m, what == 1, now + s.latency);
                    prop_assert_eq!(moved, old.grant(&srf, s.m, now, s.latency));
                }
                2 => {
                    // Only lanes that would not have to wait may assert.
                    let mut cond = conds(bits, s.lanes);
                    for (lane, c) in cond.iter_mut().enumerate() {
                        if !old.can_pop(lane, now) && !old.lane_done(lane) {
                            *c = 0;
                        }
                    }
                    prop_assert_eq!(new.blocked_lane(Some(&cond), now), None);
                    let mut row = vec![9; s.lanes];
                    new.pop_row(Some(&cond), &mut row);
                    for (lane, &c) in cond.iter().enumerate() {
                        let want = if c != 0 && !old.lane_done(lane) { old.pop(lane) } else { 0 };
                        prop_assert_eq!(row[lane], want, "lane {}", lane);
                    }
                }
                _ => now += bits % 3,
            }
            let snap = bytes(|e| new.encode_state(e));
            prop_assert_eq!(&snap, &bytes(|e| old.encode_state(e)), "step {}", i);
            if i == plan.len() / 2 {
                let fresh = Port::new(kind, b, s.lanes, s.cap);
                new = restored(fresh, &snap, |st, d| st.decode_state(d), |st, e| st.encode_state(e));
            }
        }
    }

    /// A `SeqOut` port, with more rows pushed than the binding holds.
    #[test]
    fn seq_out_matches_queue_reference(s in shapes(), plan in plans()) {
        let (mut srf, b) = setup(&s);
        let mut old_srf = srf.clone();
        let mut new = Port::new(StreamKind::SeqOut, b, s.lanes, s.cap);
        let mut old = reference::SeqOut::new(b, s.lanes, s.cap);
        for (i, &(what, bits)) in plan.iter().enumerate() {
            let can_push = (0..s.lanes).all(|l| old.can_push(l));
            prop_assert_eq!(new.blocked_lane(None, 0).is_none(), can_push);
            prop_assert_eq!(new.drained(), old.drained());
            for flush in [false, true] {
                prop_assert_eq!(new.wants_grant(s.m, flush), old.wants_grant(s.m, flush));
            }
            match what {
                0 | 1 if can_push => {
                    let row: Vec<Word> = (0..s.lanes).map(|l| (bits as Word) ^ l as Word).collect();
                    new.push_row(None, &row);
                    for (lane, &w) in row.iter().enumerate() {
                        old.push(lane, w);
                    }
                }
                _ => {
                    let flush = what == 3;
                    let moved = new.grant(&mut srf, s.m, flush, 0);
                    prop_assert_eq!(moved, old.grant(&mut old_srf, s.m, flush));
                    prop_assert_eq!(region(&srf, s.lanes), region(&old_srf, s.lanes));
                }
            }
            let snap = bytes(|e| new.encode_state(e));
            prop_assert_eq!(&snap, &bytes(|e| old.encode_state(e)), "step {}", i);
            if i == plan.len() / 2 {
                let fresh = Port::new(StreamKind::SeqOut, b, s.lanes, s.cap);
                new = restored(fresh, &snap, |st, d| st.decode_state(d), |st, e| st.encode_state(e));
            }
        }
    }

    /// A `CondIn` port: one global buffer handed out in lane order. The
    /// first `k` lanes asserting must wait exactly when the reference
    /// cannot pop the `k` words, or what is left of the stream.
    #[test]
    fn cond_in_matches_queue_reference(s in shapes(), plan in plans()) {
        let (mut srf, b) = setup(&s);
        let block = s.lanes * s.m;
        let mut new = Port::new(StreamKind::CondIn, b, s.lanes, s.cap);
        let mut old = reference::CondIn::new(b, s.lanes, s.cap);
        let mut now = 0u64;
        for (i, &(what, bits)) in plan.iter().enumerate() {
            for flush in [false, true] {
                prop_assert_eq!(new.wants_grant(s.m, flush), old.wants_grant());
            }
            for k in 0..=s.lanes {
                let k_eff = k.min(old.remaining_words() as usize);
                let waits = new.blocked_lane(Some(&first(k, s.lanes)), now).is_some();
                prop_assert_eq!(!waits, old.can_pop(k_eff, now), "{} words", k);
            }
            match what {
                0 | 1 => {
                    let moved = new.grant(&mut srf, s.m, what == 1, now + s.latency);
                    prop_assert_eq!(moved, old.grant(&srf, block, now, s.latency));
                }
                2 => {
                    let cond = conds(bits, s.lanes);
                    let k = cond.iter().filter(|&&c| c != 0).count();
                    let k_eff = k.min(old.remaining_words() as usize);
                    if old.can_pop(k_eff, now) {
                        prop_assert_eq!(new.blocked_lane(Some(&cond), now), None);
                        let mut words = old.pop(k_eff).into_iter();
                        let want: Vec<Word> = cond
                            .iter()
                            .map(|&c| if c != 0 { words.next().unwrap_or(0) } else { 0 })
                            .collect();
                        let mut row = vec![9; s.lanes];
                        new.pop_row(Some(&cond), &mut row);
                        prop_assert_eq!(row, want);
                    }
                }
                _ => now += bits % 3,
            }
            let snap = bytes(|e| new.encode_state(e));
            prop_assert_eq!(&snap, &bytes(|e| old.encode_state(e)), "step {}", i);
            if i == plan.len() / 2 {
                let fresh = Port::new(StreamKind::CondIn, b, s.lanes, s.cap);
                new = restored(fresh, &snap, |st, d| st.decode_state(d), |st, e| st.encode_state(e));
            }
        }
    }

    /// A `CondOut` port: compacting pushes, stream-order drain, overflow
    /// of the binding dropped. The first `k` lanes asserting must wait
    /// exactly when the reference has no room for `k` words.
    #[test]
    fn cond_out_matches_queue_reference(s in shapes(), plan in plans()) {
        let (mut srf, b) = setup(&s);
        let mut old_srf = srf.clone();
        let block = s.lanes * s.m;
        let mut new = Port::new(StreamKind::CondOut, b, s.lanes, s.cap);
        let mut old = reference::CondOut::new(b, s.lanes, s.cap);
        for (i, &(what, bits)) in plan.iter().enumerate() {
            prop_assert_eq!(new.drained(), old.drained());
            for k in 0..=s.lanes {
                let waits = new.blocked_lane(Some(&first(k, s.lanes)), 0).is_some();
                prop_assert_eq!(!waits, old.can_push(k), "{} words", k);
            }
            for flush in [false, true] {
                prop_assert_eq!(new.wants_grant(s.m, flush), old.wants_grant(block, flush));
            }
            let cond = conds(bits, s.lanes);
            let k = cond.iter().filter(|&&c| c != 0).count();
            match what {
                0 | 1 if old.can_push(k) => {
                    prop_assert_eq!(new.blocked_lane(Some(&cond), 0), None);
                    let row: Vec<Word> = (0..s.lanes).map(|l| (bits >> 16) as Word + l as Word).collect();
                    new.push_row(Some(&cond), &row);
                    let kept: Vec<Word> = cond
                        .iter()
                        .zip(&row)
                        .filter(|(&c, _)| c != 0)
                        .map(|(_, &w)| w)
                        .collect();
                    old.push(&kept);
                }
                _ => {
                    let flush = what == 3;
                    let moved = new.grant(&mut srf, s.m, flush, 0);
                    prop_assert_eq!(moved, old.grant(&mut old_srf, block, flush));
                    prop_assert_eq!(region(&srf, s.lanes), region(&old_srf, s.lanes));
                }
            }
            let snap = bytes(|e| new.encode_state(e));
            prop_assert_eq!(&snap, &bytes(|e| old.encode_state(e)), "step {}", i);
            // A global port's snapshot leads with the words it has written.
            prop_assert_eq!(Dec::new(&snap).u32().unwrap(), old.written());
            if i == plan.len() / 2 {
                let fresh = Port::new(StreamKind::CondOut, b, s.lanes, s.cap);
                new = restored(fresh, &snap, |st, d| st.decode_state(d), |st, e| st.encode_state(e));
            }
        }
    }
}

/// Snapshots that no run produces are refused, not trusted.
#[test]
fn decoding_rejects_impossible_states() {
    let s = Shape {
        lanes: 8,
        m: 4,
        cap: 8,
        latency: 0,
        record_words: 2,
        window: 0,
        sizes: (5, 1, 0, 1),
    };
    let (_, b) = setup(&s);
    // A lane with more words left than it owns.
    let port = |kind| Port::new(kind, b, 8, 8);
    let mut snap = bytes(|e| port(StreamKind::SeqIn).encode_state(e));
    snap[8] += 1; // lane 0's words left
    let err = port(StreamKind::SeqIn).decode_state(&mut Dec::new(&snap));
    assert!(matches!(err, Err(SnapError::Mismatch(_))), "{err:?}");
    // Output lanes that buffer different numbers of words.
    let mut out = port(StreamKind::SeqOut);
    out.push_row(None, &[1; 8]);
    let good = bytes(|e| out.encode_state(e));
    let cursors = 8 + 8 * 4;
    let mut e = Enc::new();
    e.usize(0); // lane 0 claims an empty buffer; the others keep a word
    let mut snap = good[..cursors].to_vec();
    snap.extend(e.into_bytes());
    snap.extend(&good[cursors + 8 + 4..]);
    let err = port(StreamKind::SeqOut).decode_state(&mut Dec::new(&snap));
    assert!(matches!(err, Err(SnapError::Mismatch(_))), "{err:?}");
    // More buffered words than the ring holds.
    let mut e = Enc::new();
    e.u32(0);
    e.usize(65);
    let snap = e.into_bytes();
    let err = port(StreamKind::CondIn).decode_state(&mut Dec::new(&snap));
    assert!(matches!(err, Err(SnapError::Mismatch(_))), "{err:?}");
}

/// The binding sizes the shapes draw from fit the region.
#[test]
fn every_shape_fits_its_region() {
    for lanes in [4usize, 8, 16] {
        for window in 0..3 {
            for record_words in [1u32, 2, 4] {
                let s = Shape {
                    lanes,
                    m: 4,
                    cap: 8,
                    latency: 0,
                    record_words,
                    window,
                    sizes: (63, 3, 2, 4),
                };
                let (_, b) = setup(&s);
                let last = b.absolute_record(b.records - 1);
                let words = (last / lanes as u32 + 1) * record_words;
                assert!(words <= REGION_WORDS, "{s:?} needs {words} words per bank");
            }
        }
    }
}
