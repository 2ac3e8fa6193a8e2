//! The seeded family of KernelC sources, with a native evaluator that
//! predicts every output word without the program under test.
//!
//! A source has a *shape* (template and size) and *constants*. Shapes come
//! from a fixed list, so the operation mix, the schedules' structure and —
//! because no constant feeds an index — the indexed access pattern, and
//! with it the simulated cycle count, are the same for every seed. The
//! constants come from the seed, so every `kernel_hash` is new and each
//! schedule, tape and verdict memo of the process misses.

use isrf_core::config::ConfigName;
use isrf_serve::{AppRef, PointSpec};
use isrf_sim::ExecEngine;

/// Lanes of every preset machine.
pub const LANES: u32 = 8;
/// Records per lane of the sequential streams (and the iteration count).
pub const RECORDS_PER_LANE: u32 = 8;
/// Records per lane of an indexed table; a power of two so `& (n - 1)`
/// bounds an index statically.
pub const TABLE_RECORDS_PER_LANE: u32 = 16;

/// splitmix64: small, seedable, and the same everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for sub-stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i32, hi: i32) -> i32 {
        lo + (self.next_u64() % (hi - lo) as u64) as i32
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// Horner polynomial chain: `size` dependent taps of `v = v * x + C`.
    Poly,
    /// FIR-like sum of `size` independent products `(x ^ K) * C`.
    Fir,
    /// Chain of `size` dependent in-lane table lookups.
    Lut,
    /// Chain of `size` dependent cross-lane gathers.
    Gather,
    /// Ladder of `size` clamp and select rungs.
    Ladder,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub template: Template,
    pub size: u32,
}

impl Shape {
    pub fn indexed(self) -> bool {
        matches!(self.template, Template::Lut | Template::Gather)
    }
}

const fn shape(template: Template, size: u32) -> Shape {
    Shape { template, size }
}

/// Every shape of the family.
pub const SHAPES: [Shape; 24] = [
    shape(Template::Poly, 8),
    shape(Template::Poly, 16),
    shape(Template::Poly, 32),
    shape(Template::Poly, 64),
    shape(Template::Fir, 8),
    shape(Template::Fir, 16),
    shape(Template::Fir, 32),
    shape(Template::Fir, 64),
    shape(Template::Fir, 96),
    shape(Template::Fir, 128),
    shape(Template::Fir, 192),
    shape(Template::Fir, 256),
    shape(Template::Lut, 1),
    shape(Template::Lut, 2),
    shape(Template::Lut, 4),
    shape(Template::Lut, 6),
    shape(Template::Gather, 1),
    shape(Template::Gather, 2),
    shape(Template::Gather, 4),
    shape(Template::Ladder, 4),
    shape(Template::Ladder, 8),
    shape(Template::Ladder, 16),
    shape(Template::Ladder, 32),
    shape(Template::Ladder, 64),
];

/// One statement group of a generated loop body; rendered to KernelC and
/// evaluated natively from the same value.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `v = v * x + c;`
    MulAdd(i32),
    /// `aN = aN + (x ^ k) * c;` on accumulator `N` of four (`a0` is `v`).
    Tap(u32, i32, i32),
    /// `T[(t ^ x) & mask] >> t; v = v * c + t;`
    Lookup(i32),
    /// `v = max(min(v, hi), 0 - below);`
    Clamp(i32, i32),
    /// `v = select(v < t, v + a, v ^ b);`
    Select(i32, i32, i32),
}

fn steps(shape: Shape, rng: &mut Rng) -> Vec<Step> {
    // Odd multipliers from 3 up: a constant never folds to a cheaper op.
    let odd = |rng: &mut Rng| rng.range(1, 1 << 20) * 2 + 1;
    (0..shape.size)
        .map(|i| match shape.template {
            Template::Poly => Step::MulAdd(rng.range(1, 1 << 24)),
            Template::Fir => Step::Tap(i % 4, rng.range(1, 1 << 24), odd(rng)),
            Template::Lut | Template::Gather => Step::Lookup(odd(rng)),
            Template::Ladder if i % 2 == 0 => {
                Step::Clamp(rng.range(1, 1 << 28), rng.range(1, 1 << 28))
            }
            Template::Ladder => Step::Select(
                rng.range(1, 1 << 20),
                rng.range(1, 1 << 16),
                rng.range(1, 1 << 16),
            ),
        })
        .collect()
}

/// The harness fills every input stream with this word at position `k`
/// (`isrf_serve::PointRunner`, source harness).
fn stream_word(data_seed: u32, stream: u32, k: u32) -> u32 {
    let salt = data_seed.wrapping_add(stream).wrapping_mul(0x9e37_79b9);
    k.wrapping_mul(2_654_435_761).wrapping_add(salt)
}

/// A generated source and what running it must produce.
#[derive(Debug, Clone)]
pub struct Source {
    pub shape: Shape,
    pub src: String,
    /// Salt of the harness's input data; part of the shape, not the seed.
    pub data_seed: u32,
    /// Every word of the `out` stream.
    pub expect: Vec<u32>,
}

/// Generate member `id` of the family: `shape` with constants drawn from
/// `rng`.
pub fn generate(shape: Shape, id: u64, data_seed: u32, rng: &mut Rng) -> Source {
    let steps = steps(shape, rng);
    let v0 = rng.range(1, 1 << 24);
    let (table_param, mask) = match shape.template {
        Template::Lut => ("idxl_istream<int> T, ", TABLE_RECORDS_PER_LANE - 1),
        Template::Gather => ("idx_istream<int> T, ", TABLE_RECORDS_PER_LANE * LANES - 1),
        Template::Poly | Template::Fir | Template::Ladder => ("", 0),
    };
    let mut src = format!(
        "kernel fam_{id}(istream<int> in, {table_param}ostream<int> out) {{\n  \
         int x, t, v, a1, a2, a3;\n  while (!eos(in)) {{\n    in >> x;\n    t = 0;\n    \
         v = x + {v0};\n    a1 = x;\n    a2 = x;\n    a3 = x;\n"
    );
    for s in &steps {
        src.push_str(&match *s {
            Step::MulAdd(c) => format!("    v = v * x + {c};\n"),
            Step::Tap(n, k, c) => {
                let acc = ["v", "a1", "a2", "a3"][n as usize];
                format!("    {acc} = {acc} + (x ^ {k}) * {c};\n")
            }
            Step::Lookup(c) => {
                format!("    T[(t ^ x) & {mask}] >> t;\n    v = v * {c} + t;\n")
            }
            Step::Clamp(below, hi) => format!("    v = max(min(v, {hi}), 0 - {below});\n"),
            Step::Select(t, a, b) => format!("    v = select(v < {t}, v + {a}, v ^ {b});\n"),
        });
    }
    src.push_str("    out << v + (a1 ^ a2 ^ a3);\n  }\n}\n");

    // Stream slots in declaration order: `in` = 0, `T` = 1 when present.
    let expect = (0..RECORDS_PER_LANE * LANES)
        .map(|k| {
            let x = stream_word(data_seed, 0, k) as i32;
            let lane = k % LANES;
            let mut t = 0i32;
            let mut acc = [x.wrapping_add(v0), x, x, x];
            for s in &steps {
                match *s {
                    Step::MulAdd(c) => acc[0] = acc[0].wrapping_mul(x).wrapping_add(c),
                    Step::Tap(n, k, c) => {
                        let a = &mut acc[n as usize];
                        *a = a.wrapping_add((x ^ k).wrapping_mul(c));
                    }
                    Step::Lookup(c) => {
                        let idx = (t ^ x) as u32 & mask;
                        // In-lane: lane-local record `idx` is global
                        // record `idx * LANES + lane` (records stripe
                        // across lanes). Cross-lane: `idx` is global.
                        let record = match shape.template {
                            Template::Lut => idx * LANES + lane,
                            _ => idx,
                        };
                        t = stream_word(data_seed, 1, record) as i32;
                        acc[0] = acc[0].wrapping_mul(c).wrapping_add(t);
                    }
                    Step::Clamp(below, hi) => acc[0] = acc[0].min(hi).max(-below),
                    Step::Select(th, a, b) => {
                        let v = acc[0];
                        acc[0] = if v < th { v.wrapping_add(a) } else { v ^ b };
                    }
                }
            }
            acc[0].wrapping_add(acc[1] ^ acc[2] ^ acc[3]) as u32
        })
        .collect();
    Source {
        shape,
        src,
        data_seed,
        expect,
    }
}

impl Source {
    /// The point that runs this source on `config`.
    pub fn point(&self, config: ConfigName) -> PointSpec {
        PointSpec {
            app: AppRef::Source {
                src: self.src.clone(),
                records_per_lane: RECORDS_PER_LANE,
                table_records_per_lane: TABLE_RECORDS_PER_LANE,
                seed: self.data_seed,
            },
            config,
            profile: isrf_apps::Profile::Small,
            engine: ExecEngine::Tape,
        }
    }
}

/// A source the static verifier must refuse on every configuration: a
/// constant index past the end of a four-record table. `index` varies so
/// the verdict is not a memo hit.
pub fn hazard(index: u32) -> PointSpec {
    assert!(index >= 4, "index {index} is inside the table");
    PointSpec {
        app: AppRef::Source {
            src: format!(
                "kernel hazard(istream<int> in, idxl_istream<int> T, ostream<int> out) {{\n  \
                 int x, t;\n  while (!eos(in)) {{\n    in >> x;\n    T[{index}] >> t;\n    \
                 out << x + t;\n  }}\n}}\n"
            ),
            records_per_lane: RECORDS_PER_LANE,
            table_records_per_lane: 4,
            seed: 1,
        },
        config: ConfigName::Isrf4,
        profile: isrf_apps::Profile::Small,
        engine: ExecEngine::Tape,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isrf_kernel::hash::kernel_hash;
    use isrf_serve::{analyze_point, PointRunner};

    fn family(seed: u64) -> Vec<Source> {
        SHAPES
            .iter()
            .enumerate()
            .map(|(i, &s)| generate(s, i as u64, i as u32, &mut Rng::new(seed, i as u64)))
            .collect()
    }

    #[test]
    fn generator_is_deterministic_per_seed_and_seeds_differ() {
        let (a, b, c) = (family(1), family(1), family(2));
        for ((a, b), c) in a.iter().zip(&b).zip(&c) {
            assert_eq!(a.src, b.src);
            assert_eq!(a.expect, b.expect);
            let hash = |s: &Source| kernel_hash(&isrf_lang::parse_kernel(&s.src).unwrap());
            assert_eq!(hash(a), hash(b));
            assert_ne!(hash(a), hash(c), "{:?}: seeds 1 and 2 collide", a.shape);
            // Same shape, so the same operation count whatever the seed.
            let ops = |s: &Source| isrf_lang::parse_kernel(&s.src).unwrap().ops.len();
            assert_eq!(ops(a), ops(c));
        }
    }

    #[test]
    fn native_evaluator_predicts_the_simulator() {
        for s in family(7) {
            for config in [ConfigName::Isrf1, ConfigName::Isrf4] {
                let mut runner = PointRunner::new(&s.point(config), false)
                    .unwrap_or_else(|e| panic!("{:?} on {config}: {e}\n{}", s.shape, s.src));
                let out = runner.run(1 << 20, |_| true).unwrap();
                assert_eq!(out.outputs.len(), 1);
                assert_eq!(out.outputs[0].1, s.expect, "{:?} on {config}", s.shape);
            }
            let refused = PointRunner::new(&s.point(ConfigName::Base), false);
            match refused {
                Err(e) => assert!(s.shape.indexed() && e.contains("V301"), "{e}"),
                Ok(_) => assert!(!s.shape.indexed()),
            }
        }
    }

    #[test]
    fn hazard_is_refused_statically() {
        let diags = analyze_point(&hazard(100)).unwrap_err();
        assert!(diags.iter().any(|d| d.render().contains("V303")));
    }
}
