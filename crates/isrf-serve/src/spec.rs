//! Job specifications: the JSON wire form, validation, and the canonical
//! 128-bit content hash that keys the result cache.
//!
//! A job is one simulation point or a sweep of them. Each point names
//! either a registered benchmark app ([`isrf_apps::APPS`]) or carries an
//! inline KernelC-subset source kernel, plus a machine configuration, a
//! sizing profile and an execution engine. Hashing uses the same
//! [`isrf_kernel::hash::StableHasher`] as the tape/schedule memos, so two
//! structurally identical submissions — from different clients, or across
//! a server restart — key the same cache entry.

use isrf_apps::Profile;
use isrf_core::config::{ConfigError, ConfigName};
use isrf_kernel::hash::StableHasher;
use isrf_sim::ExecEngine;

use crate::Json;

/// Cap on points per sweep job.
pub const MAX_SWEEP_POINTS: usize = 256;
/// Cap on inline kernel source bytes.
pub const MAX_SOURCE_BYTES: usize = 64 * 1024;

/// What a point simulates: a registered app or an inline kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppRef {
    /// A benchmark app from [`isrf_apps::APPS`].
    Named(String),
    /// An inline KernelC-subset kernel run on the canonical source
    /// harness (sequential inputs filled from `seed`, indexed tables
    /// replicated per lane, outputs read back from the SRF).
    Source {
        /// The kernel source text.
        src: String,
        /// Records per lane for sequential inputs/outputs (also the
        /// kernel's iteration count).
        records_per_lane: u32,
        /// Records per lane for indexed table streams.
        table_records_per_lane: u32,
        /// Salt for the deterministic input data.
        seed: u32,
    },
}

/// One simulation point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointSpec {
    /// What to simulate.
    pub app: AppRef,
    /// Machine configuration preset.
    pub config: ConfigName,
    /// Sizing profile.
    pub profile: Profile,
    /// Kernel-execution engine: one value, written by the `benchmark/`
    /// package and serialized as the constant `"tape"`.
    pub engine: ExecEngine,
}

impl PointSpec {
    /// Stable 128-bit hash of the fields that determine the point's
    /// *static verification* verdict: the program (app or source harness
    /// shape) and the machine configuration.
    pub fn verify_hash(&self) -> u128 {
        let mut h = StableHasher::new();
        h.write_u8(b'V');
        self.hash_into(&mut h);
        h.finish128()
    }

    /// Feed the app, config and profile to `h`: everything but the engine.
    fn hash_into(&self, h: &mut StableHasher) {
        match &self.app {
            AppRef::Named(name) => {
                h.write_u8(0);
                write_str(h, name);
            }
            AppRef::Source {
                src,
                records_per_lane,
                table_records_per_lane,
                seed,
            } => {
                h.write_u8(1);
                write_str(h, src);
                h.write_u32(*records_per_lane);
                h.write_u32(*table_records_per_lane);
                h.write_u32(*seed);
            }
        }
        h.write_u8(
            ConfigName::ALL
                .iter()
                .position(|&c| c == self.config)
                .expect("preset config") as u8,
        );
        h.write_u8(match self.profile {
            Profile::Small => 0,
            Profile::Paper => 1,
        });
    }
}

/// A string as its length, then its bytes.
fn write_str(h: &mut StableHasher, s: &str) {
    h.write_usize(s.len());
    s.bytes().for_each(|b| h.write_u8(b));
}

/// A full job: one or more points plus job-level options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The points, which workers take in turn from the pool's one queue.
    pub points: Vec<PointSpec>,
    /// Record trace events and expose a Chrome trace at
    /// `GET /jobs/:id/trace` (single-point jobs only).
    pub trace: bool,
    /// Opaque client salt folded into the job hash; lets a load generator
    /// defeat the result cache deliberately.
    pub nonce: Option<String>,
}

fn parse_config(v: Option<&Json>) -> Result<ConfigName, String> {
    match v {
        None => Ok(ConfigName::Base),
        Some(j) => {
            let s = j.as_str().ok_or("\"config\" must be a string")?;
            s.parse().map_err(|e: ConfigError| e.to_string())
        }
    }
}

fn parse_profile(v: Option<&Json>) -> Result<Profile, String> {
    match v {
        None => Ok(Profile::Small),
        Some(j) => match j.as_str() {
            Some(s) if s.eq_ignore_ascii_case("small") => Ok(Profile::Small),
            Some(s) if s.eq_ignore_ascii_case("paper") => Ok(Profile::Paper),
            _ => Err("\"profile\" must be \"small\" or \"paper\"".into()),
        },
    }
}

fn parse_engine(v: Option<&Json>) -> Result<ExecEngine, String> {
    match v {
        None => Ok(ExecEngine::Tape),
        Some(j) => match j.as_str() {
            Some(s) if s.eq_ignore_ascii_case("tape") => Ok(ExecEngine::Tape),
            _ => Err("\"engine\" must be \"tape\"".into()),
        },
    }
}

fn parse_dim(v: Option<&Json>, name: &str, default: u32, max: u32) -> Result<u32, String> {
    match v {
        None => Ok(default),
        Some(j) => match j.as_u64() {
            Some(n) if n >= 1 && n <= u64::from(max) => Ok(n as u32),
            _ => Err(format!("{name:?} must be an integer in 1..={max}")),
        },
    }
}

fn parse_point(obj: &Json) -> Result<PointSpec, String> {
    let app = match (obj.get("app"), obj.get("source")) {
        (Some(_), Some(_)) => return Err("give \"app\" or \"source\", not both".into()),
        (Some(a), None) => {
            let name = a.as_str().ok_or("\"app\" must be a string")?;
            if !isrf_apps::APPS.contains(&name) {
                return Err(format!(
                    "unknown app {name:?} (expected one of {:?})",
                    isrf_apps::APPS
                ));
            }
            AppRef::Named(name.to_string())
        }
        (None, Some(s)) => {
            let src = s.as_str().ok_or("\"source\" must be a string")?;
            if src.len() > MAX_SOURCE_BYTES {
                return Err(format!("\"source\" exceeds {MAX_SOURCE_BYTES} bytes"));
            }
            AppRef::Source {
                src: src.to_string(),
                records_per_lane: parse_dim(
                    obj.get("records_per_lane"),
                    "records_per_lane",
                    64,
                    1024,
                )?,
                table_records_per_lane: parse_dim(
                    obj.get("table_records_per_lane"),
                    "table_records_per_lane",
                    64,
                    4096,
                )?,
                seed: obj.get("seed").map_or(Ok(1), |j| {
                    j.as_u64()
                        .filter(|&n| n <= u64::from(u32::MAX))
                        .map(|n| n as u32)
                        .ok_or_else(|| "\"seed\" must be a u32".to_string())
                })?,
            }
        }
        (None, None) => return Err("a point needs \"app\" or \"source\"".into()),
    };
    Ok(PointSpec {
        app,
        config: parse_config(obj.get("config"))?,
        profile: parse_profile(obj.get("profile"))?,
        engine: parse_engine(obj.get("engine"))?,
    })
}

impl JobSpec {
    /// Parse and validate a submission body.
    ///
    /// # Errors
    ///
    /// A human-readable message describing the first problem (the server
    /// returns it in a 400).
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        if !matches!(v, Json::Obj(_)) {
            return Err("job must be a JSON object".into());
        }
        let points = match v.get("sweep") {
            Some(sweep) => {
                let arr = sweep.as_arr().ok_or("\"sweep\" must be an array")?;
                if arr.is_empty() {
                    return Err("\"sweep\" must not be empty".into());
                }
                if arr.len() > MAX_SWEEP_POINTS {
                    return Err(format!("\"sweep\" exceeds {MAX_SWEEP_POINTS} points"));
                }
                arr.iter()
                    .enumerate()
                    .map(|(i, p)| parse_point(p).map_err(|e| format!("sweep[{i}]: {e}")))
                    .collect::<Result<Vec<_>, _>>()?
            }
            None => vec![parse_point(v)?],
        };
        let trace = match v.get("trace") {
            None => false,
            Some(j) => j.as_bool().ok_or("\"trace\" must be a boolean")?,
        };
        if trace && points.len() != 1 {
            return Err("\"trace\" is supported for single-point jobs only".into());
        }
        let nonce = match v.get("nonce") {
            None => None,
            Some(j) => Some(j.as_str().ok_or("\"nonce\" must be a string")?.to_string()),
        };
        Ok(JobSpec {
            points,
            trace,
            nonce,
        })
    }

    /// The canonical JSON form (defaults made explicit) — what job status
    /// echoes back, and what the drain persister writes to disk.
    pub fn to_json(&self) -> Json {
        let mut obj: Vec<(String, Json)> = Vec::new();
        let pts: Vec<Json> = self.points.iter().map(point_json).collect();
        obj.push(("sweep".into(), Json::Arr(pts)));
        obj.push(("trace".into(), Json::Bool(self.trace)));
        if let Some(n) = &self.nonce {
            obj.push(("nonce".into(), Json::str(n.clone())));
        }
        Json::Obj(obj)
    }

    /// Stable 128-bit content hash over every semantically relevant field.
    pub fn hash(&self) -> u128 {
        let mut h = StableHasher::new();
        h.write_u8(b'J');
        h.write_usize(self.points.len());
        for p in &self.points {
            p.hash_into(&mut h);
            h.write_u8(match p.engine {
                ExecEngine::Tape => 0,
            });
        }
        h.write_u8(u8::from(self.trace));
        match &self.nonce {
            None => h.write_u8(0),
            Some(n) => {
                h.write_u8(1);
                write_str(&mut h, n);
            }
        }
        h.finish128()
    }
}

fn point_json(p: &PointSpec) -> Json {
    let mut obj: Vec<(String, Json)> = Vec::new();
    match &p.app {
        AppRef::Named(name) => obj.push(("app".into(), Json::str(name.clone()))),
        AppRef::Source {
            src,
            records_per_lane,
            table_records_per_lane,
            seed,
        } => {
            obj.push(("source".into(), Json::str(src.clone())));
            obj.push((
                "records_per_lane".into(),
                Json::u64(u64::from(*records_per_lane)),
            ));
            obj.push((
                "table_records_per_lane".into(),
                Json::u64(u64::from(*table_records_per_lane)),
            ));
            obj.push(("seed".into(), Json::u64(u64::from(*seed))));
        }
    }
    obj.push(("config".into(), Json::str(format!("{}", p.config))));
    obj.push((
        "profile".into(),
        Json::str(match p.profile {
            Profile::Small => "small",
            Profile::Paper => "paper",
        }),
    ));
    obj.push((
        "engine".into(),
        Json::str(match p.engine {
            ExecEngine::Tape => "tape",
        }),
    ));
    Json::Obj(obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&Json::parse(s).unwrap())
    }

    #[test]
    fn single_point_with_defaults() {
        let j = parse(r#"{"app":"sort"}"#).unwrap();
        assert_eq!(j.points.len(), 1);
        assert_eq!(j.points[0].config, ConfigName::Base);
        assert_eq!(j.points[0].profile, Profile::Small);
        assert_eq!(j.points[0].engine, ExecEngine::Tape);
        assert!(!j.trace);
    }

    #[test]
    fn sweep_and_options() {
        let j = parse(
            r#"{"sweep":[{"app":"sort","config":"isrf4"},{"app":"filter","engine":"tape"}],
                "nonce":"x"}"#,
        )
        .unwrap();
        assert_eq!(j.points.len(), 2);
        assert_eq!(j.points[0].config, ConfigName::Isrf4);
        assert_eq!(j.points[1].engine, ExecEngine::Tape);
        assert_eq!(j.nonce.as_deref(), Some("x"));
        let e = parse(r#"{"app":"filter","engine":"interp"}"#).unwrap_err();
        assert!(e.contains("\"engine\" must be \"tape\""), "{e}");
    }

    #[test]
    fn canonical_json_round_trips_and_hash_is_sensitive() {
        let a = parse(r#"{"app":"sort","config":"ISRF4","nonce":"n"}"#).unwrap();
        let b = JobSpec::from_json(&a.to_json()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
        let c = parse(r#"{"app":"sort","config":"ISRF4","nonce":"m"}"#).unwrap();
        assert_ne!(a.hash(), c.hash());
        let d = parse(r#"{"app":"sort","config":"ISRF1","nonce":"n"}"#).unwrap();
        assert_ne!(a.hash(), d.hash());
    }

    /// Both hashes key caches a restarted server reads back (results on
    /// disk, verdicts), so they are pinned on a fixed sweep.
    #[test]
    fn hashes_are_pinned() {
        let j = parse(
            r#"{"sweep":[{"app":"sort","config":"ISRF4"},
                {"app":"bfs","config":"cache","profile":"paper"},
                {"source":"kernel k(istream<int> a, ostream<int> b) { int x; a >> x; b << x + 1; }",
                 "records_per_lane":8,"table_records_per_lane":16,"seed":7,"config":"isrf1"}],
                "nonce":"pin"}"#,
        )
        .unwrap();
        assert_eq!(j.hash(), 0xb5e038bd5c25ecdfd2755f08d09dadbe);
        let verify: Vec<u128> = j.points.iter().map(PointSpec::verify_hash).collect();
        assert_eq!(
            verify,
            [
                0x6dba483d14d91a8114342e5af82b6977,
                0xb09d4117c51aa48b8e1bf5964879d512,
                0x7c9f7115d765dde0c3949382e9ad2414,
            ]
        );
        let t = parse(r#"{"app":"filter","trace":true}"#).unwrap();
        assert_eq!(t.hash(), 0xac0959f57f3ffe884712c77ebace3ef0);
        assert_eq!(
            t.points[0].verify_hash(),
            0xe74eb4d368dcd8dd39ad45004755078d
        );
    }

    #[test]
    fn rejections() {
        for bad in [
            r#"{}"#,
            r#"{"app":"nope"}"#,
            r#"{"app":"sort","source":"x"}"#,
            r#"{"app":"sort","config":"Huge"}"#,
            r#"{"app":"sort","profile":"tiny"}"#,
            r#"{"sweep":[]}"#,
            r#"{"sweep":[{"app":"sort"},{"app":"sort"}],"trace":true}"#,
            r#"{"source":"kernel k(){}","records_per_lane":0}"#,
            r#"[1]"#,
        ] {
            assert!(parse(bad).is_err(), "{bad} accepted");
        }
    }
}
