//! A yardstick for the host's speed, so that timings taken on a shared box
//! repeat.
//!
//! On the two-core VM this benchmark was written on, a neighbour slows
//! instruction-dense code by 10 to 50%, for seconds to minutes at a time,
//! and the kernel reports no steal time for it. Raw timings of one commit
//! therefore drift from run to run: over two rounds of ten runs, medians
//! over passes of raw host time spread by 5 to 30% between their quartiles
//! (`serve_mix`, second round: `jobs_per_s` 25%, `job_p50_ms` 30%), which
//! is more than any bound the benchmark may state. What does repeat is the
//! *ratio* of the program's time to the time of a fixed piece of work done
//! beside it. A [`Yardstick::burst`] is that work: a small bytecode
//! interpreter over a 16 KiB memory, which, like the simulator, retires
//! many instructions a cycle from a hot loop and so slows down with it.
//!
//! Bursts are interleaved with the measured work, on the threads that
//! generate it; [`slowdown`] says by what factor the bursts of a pass ran
//! slower than [`QUIET_BURST_NS`], and [`PassTimes`] divides every duration
//! of the pass by it. Timings so corrected read as on a host that runs a
//! burst in exactly `QUIET_BURST_NS`, which only fixes their unit; the
//! program under test never sees any of this, so a faster program moves
//! them one for one. Every run also prints its raw job rate and the
//! slowdowns it read.
//!
//! It is a yardstick, not a model of the host: interference that slows the
//! burst more than the program makes a run read too good.

use crate::family::Rng;
use crate::metrics::{median, peak_rss_mb, tail, tail_index, Metrics};
use crate::spans::Recorder;

/// What one burst takes on the host the timings are stated for: what it
/// took, between jobs, when the box this was written on was quiet.
pub const QUIET_BURST_NS: f64 = 330_000.0;

const CODE_WORDS: usize = 64;
const MEM_WORDS: usize = 1 << 12;
const BURST_STEPS: usize = 150_000;

#[derive(Debug)]
pub struct Yardstick {
    code: Vec<u32>,
    /// What `mem` holds when a burst starts.
    image: Vec<u32>,
    mem: Vec<u32>,
    /// Nanoseconds of each burst since they were last taken.
    bursts: Vec<u64>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        // The program is fixed: the yardstick must be the same work in
        // every run, whatever the workload seed.
        let mut rng = Rng::new(77, 1);
        let code = (0..CODE_WORDS).map(|_| rng.next_u64() as u32).collect();
        let image: Vec<u32> = (0..MEM_WORDS).map(|_| rng.next_u64() as u32).collect();
        Yardstick {
            code,
            mem: image.clone(),
            image,
            bursts: Vec::new(),
        }
    }

    /// Do one burst of fixed work and remember how long it took. The burst
    /// is a span of `rec` like any other call, outside every job.
    pub fn burst(&mut self, rec: &mut Recorder) {
        let ((), ns) = rec.span("bench.yardstick", |_| {
            self.mem.copy_from_slice(&self.image);
            std::hint::black_box(interpret(&self.code, &mut self.mem, BURST_STEPS));
        });
        self.bursts.push(ns);
    }

    /// The bursts since the last call.
    pub fn take_bursts(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.bursts)
    }
}

/// By what factor `bursts` ran slower than on the quiet host. By their
/// median: a burst that had to wait for a core says nothing of the host's
/// speed.
///
/// # Panics
///
/// Panics when there was no burst to tell by.
pub fn slowdown(bursts: &[u64]) -> f64 {
    assert!(!bursts.is_empty(), "no burst to read the host's speed from");
    let ns: Vec<f64> = bursts.iter().map(|&ns| ns as f64).collect();
    median(&ns) / QUIET_BURST_NS
}

/// The timings of a run, pass by pass. A pass is the same fixed work every
/// time, so the passes are samples of one quantity: every duration of a
/// pass is divided by the pass's slowdown as it is taken in (the one place
/// that rule lives), and every timing metric is the median over passes of
/// what one pass read.
#[derive(Debug, Default)]
pub struct PassTimes {
    wall_s: Vec<f64>,
    mcps: Vec<f64>,
    /// Latency in milliseconds of every job, pass by pass, ascending.
    job_ms: Vec<Vec<f64>>,
    /// The jobs of the open pass, uncorrected.
    open: Vec<f64>,
    slowdowns: Vec<f64>,
    /// Time of the passes as it passed on the host.
    host_s: f64,
}

impl PassTimes {
    /// A job of the open pass.
    pub fn job(&mut self, ms: f64) {
        self.open.push(ms);
    }

    /// Close the open pass: beside `bursts` it took `wall_s` and simulated
    /// `cycles` in `sim_s`.
    pub fn close_pass(&mut self, bursts: &[u64], wall_s: f64, cycles: u64, sim_s: f64) {
        let slowdown = slowdown(bursts);
        self.slowdowns.push(slowdown);
        self.host_s += wall_s;
        self.wall_s.push(wall_s / slowdown);
        self.mcps.push(cycles as f64 / 1e6 / sim_s * slowdown);
        let mut jobs: Vec<f64> = self.open.drain(..).map(|ms| ms / slowdown).collect();
        jobs.sort_by(f64::total_cmp);
        self.job_ms.push(jobs);
    }

    pub fn jobs(&self) -> usize {
        self.job_ms.iter().map(Vec::len).sum()
    }

    /// Jobs per corrected second, by the median pass.
    pub fn jobs_per_s(&self) -> f64 {
        (self.jobs() / self.wall_s.len()) as f64 / median(&self.wall_s)
    }

    /// Median over passes of each pass's latency at `index(jobs in the pass)`.
    fn job_ms_at(&self, index: impl Fn(usize) -> usize) -> f64 {
        let per_pass: Vec<f64> = self.job_ms.iter().map(|p| p[index(p.len())]).collect();
        median(&per_pass)
    }

    /// Set the timing metrics every workload reports, and `peak_rss_mb`.
    /// `setups` are the corrected set-up rounds. Returns the two lines for
    /// the run's notes that say what the numbers were taken from.
    pub fn report(&self, setups: &[f64], m: &mut Metrics) -> [String; 2] {
        let passes = self.job_ms.len();
        let per_pass = self.jobs() / passes;
        let pooled: Vec<f64> = self.job_ms.iter().flatten().copied().collect();
        m.set("setup_s", median(setups));
        m.set("jobs_per_s", self.jobs_per_s());
        m.set("sim_mcps", median(&self.mcps));
        m.set("job_p50_ms", self.job_ms_at(|n| n / 2));
        m.set("job_p99_ms", self.job_ms_at(tail_index));
        m.set("bench.job_p99_pooled_ms", tail(&pooled).0);
        m.set("bench.host_slowdown", median(&self.slowdowns));
        m.set("peak_rss_mb", peak_rss_mb());
        let (min, max) = self
            .slowdowns
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        [
            format!(
                "{passes} passes of {per_pass} jobs, {} jobs; job_p99_ms is a pass's percentile \
                 {:.2}; every timing is the median over the passes, setup_s over {} rounds",
                self.jobs(),
                100.0 * (tail_index(per_pass) + 1) as f64 / per_pass as f64,
                setups.len()
            ),
            // A run whose slowdowns are far from 1 or far apart was disturbed.
            format!(
                "every duration is divided by its pass's slowdown against the yardstick: min \
                 {min:.3}, median {:.3}, max {max:.3}; raw, the passes took {:.3} s, {:.3} jobs \
                 a second",
                median(&self.slowdowns),
                self.host_s,
                self.jobs() as f64 / self.host_s
            ),
        ]
    }
}

/// Run `steps` instructions of `code` (sixteen opcodes over eight registers
/// and `mem`, whose length is a power of two).
fn interpret(code: &[u32], mem: &mut [u32], steps: usize) -> u32 {
    let mask = mem.len() - 1;
    let mut r = [1u32, 2, 3, 4, 5, 6, 7, 8];
    let mut pc = 0;
    for _ in 0..steps {
        let w = code[pc];
        pc += 1;
        if pc == code.len() {
            pc = 0;
        }
        let (a, b, c) = (
            (w >> 4) as usize & 7,
            (w >> 7) as usize & 7,
            (w >> 10) as usize & 7,
        );
        let imm = w >> 13;
        match w & 15 {
            0 => r[a] = r[b].wrapping_add(r[c]),
            1 => r[a] = r[b].wrapping_sub(r[c]),
            2 => r[a] = r[b].wrapping_mul(r[c] | 1),
            3 => r[a] = r[b] ^ r[c],
            4 => r[a] = r[b] & r[c] | imm,
            5 => r[a] = r[b].rotate_left(r[c] & 31),
            6 => r[a] = mem[(r[b] ^ imm) as usize & mask],
            7 => mem[r[b].wrapping_add(imm) as usize & mask] = r[c],
            8 => r[a] = r[b].min(r[c]),
            9 => r[a] = if r[b] > r[c] { r[b] } else { imm },
            10 => {
                if r[b] & 1 == 0 {
                    pc = (pc + (imm as usize & 7)) % code.len();
                }
            }
            11 => r[a] = r[b].wrapping_add(imm),
            12 => r[a] = mem[(r[b] >> 3) as usize & mask].wrapping_add(r[c]),
            13 => r[a] = r[b] >> (imm & 15),
            14 => {
                let i = r[b] as usize & mask;
                mem[i] = mem[i].wrapping_add(r[c]);
            }
            _ => r[a] = (r[b] | r[c]).wrapping_mul(0x9e37_79b9),
        }
    }
    r.iter().fold(0, |x, y| x ^ y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_is_the_same_work_every_time() {
        let mut rec = Recorder::new(true, std::time::Instant::now());
        let mut y = Yardstick::new();
        y.burst(&mut rec);
        let after_one = y.mem.clone();
        y.burst(&mut rec);
        assert_eq!(y.mem, after_one);
        assert_ne!(y.mem, y.image, "the program stores to memory");
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[0].job, 0);
        assert_eq!(y.take_bursts().len(), 2);
        assert!(y.take_bursts().is_empty());
    }

    #[test]
    fn slowdown_is_the_median_burst_over_the_quiet_burst() {
        let quiet = QUIET_BURST_NS as u64;
        assert_eq!(slowdown(&[quiet, 2 * quiet]), 1.5);
        // One burst in three waited for a core: the median does not see it.
        assert_eq!(slowdown(&[quiet, 50 * quiet, quiet]), 1.0);
    }

    #[test]
    fn timings_are_medians_over_passes_each_corrected_by_its_slowdown() {
        let quiet = QUIET_BURST_NS as u64;
        let mut t = PassTimes::default();
        // Three passes of four jobs. The host ran at half speed during the
        // second; one job of the third stalled.
        for ms in [4.0, 1.0, 2.0, 3.0] {
            t.job(ms);
        }
        t.close_pass(&[quiet], 2.0, 8_000_000, 1.0);
        for ms in [8.0, 2.0, 4.0, 6.0] {
            t.job(ms);
        }
        t.close_pass(&[2 * quiet], 4.0, 8_000_000, 2.0);
        for ms in [1.0, 2.0, 3.0, 40.0] {
            t.job(ms);
        }
        t.close_pass(&[quiet], 2.5, 8_000_000, 1.0);
        assert_eq!(t.job_ms[1], [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.wall_s, [2.0, 2.0, 2.5]);
        assert_eq!(t.mcps, [8.0, 8.0, 8.0]);
        assert_eq!(t.host_s, 8.5);
        assert_eq!(t.jobs(), 12);
        assert_eq!(t.jobs_per_s(), 2.0);
        let mut m = Metrics::default();
        t.report(&[3.0, 1.0, 2.0], &mut m);
        assert_eq!(m.get("setup_s"), 2.0);
        assert_eq!(m.get("sim_mcps"), 8.0);
        // Four jobs a pass have no tail: both are the upper median of a
        // pass, 3 in every pass, whatever the stalled job took.
        assert_eq!(m.get("job_p50_ms"), 3.0);
        assert_eq!(m.get("job_p99_ms"), 3.0);
        assert_eq!(m.get("bench.host_slowdown"), 1.0);
    }
}
