//! Crash-safe persistence of the server's warm state: the plan cache and
//! per-tenant feedback stores.
//!
//! A [`Snapshot`] is a versioned, checksummed binary image of every
//! tenant's completed plan-cache entries (program + optimized result)
//! and runtime-feedback observations, written atomically (temp file,
//! flushed to disk, then renamed) so a crash mid-write leaves either the
//! old snapshot or the new one — never a torn file. On restart,
//! [`CobraService::restore`](crate::CobraService::restore) re-seeds the
//! cache so the first submission of a previously-optimized program is a
//! [`CacheOutcome::Hit`](crate::CacheOutcome::Hit) instead of a fresh
//! search.
//!
//! Safety properties, in order of importance:
//!
//! 1. **Corruption is detected, not trusted.** Bad magic, an unsupported
//!    version, a checksum mismatch, or a truncated/garbled payload all
//!    surface as [`ServerError::Snapshot`]; the server starts cold and
//!    keeps serving. A snapshot can make a restart faster — it can never
//!    make it wrong or wedge it.
//! 2. **Stale state is skipped, not resurrected.** Every tenant section
//!    carries the [`CacheStamp`] it was captured under; entries whose
//!    stamp no longer matches the live tenant (different database
//!    instance, newer stats epoch) are counted in
//!    [`RestoreReport::plans_skipped_stale`] and dropped.
//! 3. **Live state wins.** Restore never overwrites an entry the running
//!    server already produced — anything computed since restart is at
//!    least as fresh as the snapshot.
//!
//! The payload reuses the wire codec's byte layer. That encoding is what
//! identifies a program to the plan cache (a hash of
//! [`codec::put_program`]'s bytes), and no key is stored: restore encodes
//! each decoded program again and hashes that, which finds the entry a
//! wire submission of the same program will look up because the encoding
//! round-trips byte for byte.

use crate::codec::{self, ByteReader, ByteWriter};
use crate::error::ServerError;
use imperative::ast::{Function, Program};
use minidb::{CacheStamp, Observation, StableHasher};
use std::hash::Hasher;
use std::path::Path;

/// File magic: "CBSN" (Cobra snapshot).
const MAGIC: [u8; 4] = *b"CBSN";
/// Current format version; older/newer files are rejected, never guessed.
const VERSION: u32 = 1;

/// Tags the optimizer can emit, interned back to `&'static str` on
/// restore (see [`cobra_core::Optimized::tags`]); a tag this build does
/// not know is dropped rather than invented.
const KNOWN_TAGS: [&str; 9] = [
    "prefetch",
    "sql-join",
    "sql-agg",
    "orm-navigation",
    "iterative-query",
    "plain",
    "budget-exhausted",
    "validated-promotion",
    "verifier-rejected",
];

fn intern_tag(tag: &str) -> Option<&'static str> {
    KNOWN_TAGS.iter().copied().find(|t| *t == tag)
}

/// FNV-1a of the payload — part of the file format, so the byte stream
/// fed to the hasher (the payload, nothing else) must not change.
fn checksum(payload: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(payload);
    h.finish()
}

fn corrupt(what: &str) -> ServerError {
    ServerError::Snapshot(format!("corrupt snapshot: {what}"))
}

/// A serializable image of one cached optimization result — the subset
/// of [`cobra_core::Optimized`] worth persisting. Search-internal
/// counters (memo cache hits, feedback overrides) and the validation
/// record describe the *search that ran*, not the plan, so they reset to
/// zero/`None` on restore.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizedSnapshot {
    /// The optimized entry function.
    pub function: Function,
    /// Estimated cost of the chosen program, ns.
    pub est_cost_ns: f64,
    /// Estimated cost of the original program, ns.
    pub original_cost_ns: f64,
    /// Complete programs representable in the search DAG.
    pub alternatives: u64,
    /// Cost-based choice points in the DAG.
    pub choice_points: u64,
    /// Live groups in the DAG.
    pub groups: u64,
    /// M-exprs in the DAG.
    pub exprs: u64,
    /// Feature tags of the chosen program.
    pub tags: Vec<String>,
    /// Whether a search-budget bound clipped the original search.
    pub budget_exhausted: bool,
}

impl OptimizedSnapshot {
    /// Capture the persistable subset of an optimization result.
    pub fn capture(opt: &cobra_core::Optimized) -> OptimizedSnapshot {
        OptimizedSnapshot {
            function: opt.program.clone(),
            est_cost_ns: opt.est_cost_ns,
            original_cost_ns: opt.original_cost_ns,
            alternatives: opt.alternatives,
            choice_points: opt.choice_points as u64,
            groups: opt.groups as u64,
            exprs: opt.exprs as u64,
            tags: opt.tags.iter().map(|t| t.to_string()).collect(),
            budget_exhausted: opt.budget_exhausted,
        }
    }

    /// Rebuild an [`cobra_core::Optimized`] (search-internal counters
    /// zeroed, unknown tags dropped, validation cleared).
    pub fn to_optimized(&self) -> cobra_core::Optimized {
        cobra_core::Optimized {
            program: self.function.clone(),
            est_cost_ns: self.est_cost_ns,
            original_cost_ns: self.original_cost_ns,
            alternatives: self.alternatives,
            choice_points: self.choice_points as usize,
            groups: self.groups as usize,
            exprs: self.exprs as usize,
            tags: self.tags.iter().filter_map(|t| intern_tag(t)).collect(),
            cost_cache_hits: 0,
            cost_cache_misses: 0,
            estimator_cache_hits: 0,
            estimator_cache_misses: 0,
            feedback_overrides: 0,
            budget_exhausted: self.budget_exhausted,
            validation: None,
            verifier_rejections: Vec::new(),
        }
    }
}

/// One persisted plan-cache entry: the submitted program plus its
/// optimization result.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSnapshot {
    /// The program as originally submitted (the cache key is
    /// [`crate::program_fingerprint`] of it, recomputed on restore).
    pub program: Program,
    /// The cached optimization result.
    pub optimized: OptimizedSnapshot,
}

/// One persisted runtime-feedback observation, keyed by the plan's SQL
/// text (the printer is parse-idempotent, so the fingerprint survives).
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackSnapshot {
    /// The observed plan, printed as SQL.
    pub sql: String,
    /// The running-mean observation.
    pub observation: Observation,
    /// Table-stats stamp the observation was recorded under, if any.
    pub data_stamp: Option<u64>,
}

/// Everything persisted for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Tenant name (restore matches by name, not id — ids are assigned
    /// per-process).
    pub name: String,
    /// The plan-cache stamp the entries were captured under; restore
    /// skips the whole section when the live tenant's stamp differs.
    pub stamp: CacheStamp,
    /// Completed plan-cache entries.
    pub plans: Vec<PlanSnapshot>,
    /// Feedback-store observations.
    pub feedback: Vec<FeedbackSnapshot>,
}

/// A complete, self-describing server snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// One section per tenant captured.
    pub tenants: Vec<TenantSnapshot>,
}

/// What a restore actually did — every entry is accounted for, nothing
/// fails silently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Plan-cache entries re-seeded.
    pub plans_restored: u64,
    /// Entries skipped because the tenant's stamp moved on (different
    /// database instance or newer stats epoch).
    pub plans_skipped_stale: u64,
    /// Entries skipped because the running server already holds that key
    /// (live state wins).
    pub plans_skipped_live: u64,
    /// Feedback observations re-seeded.
    pub feedback_restored: u64,
    /// Feedback observations skipped (fresher live entry, unparsable
    /// SQL, or the tenant has feedback disabled).
    pub feedback_skipped: u64,
    /// Snapshot tenants matched to a registered tenant by name.
    pub tenants_matched: u64,
    /// Snapshot tenants with no registered counterpart.
    pub tenants_skipped: u64,
}

impl std::fmt::Display for RestoreReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "restored {} plans ({} stale, {} live-skipped) and {} observations \
             ({} skipped) across {} tenants ({} unmatched)",
            self.plans_restored,
            self.plans_skipped_stale,
            self.plans_skipped_live,
            self.feedback_restored,
            self.feedback_skipped,
            self.tenants_matched,
            self.tenants_skipped
        )
    }
}

impl Snapshot {
    /// Serialize: magic, version, checksum, payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.len(self.tenants.len());
        for t in &self.tenants {
            w.str(&t.name);
            codec::put_stamp(&mut w, &t.stamp);
            w.len(t.plans.len());
            for p in &t.plans {
                codec::put_program(&mut w, &p.program);
                codec::put_function(&mut w, &p.optimized.function);
                w.f64(p.optimized.est_cost_ns);
                w.f64(p.optimized.original_cost_ns);
                w.u64(p.optimized.alternatives);
                w.u64(p.optimized.choice_points);
                w.u64(p.optimized.groups);
                w.u64(p.optimized.exprs);
                w.len(p.optimized.tags.len());
                for tag in &p.optimized.tags {
                    w.str(tag);
                }
                w.bool(p.optimized.budget_exhausted);
            }
            w.len(t.feedback.len());
            for fb in &t.feedback {
                w.str(&fb.sql);
                w.f64(fb.observation.rows);
                w.f64(fb.observation.startup_work);
                w.f64(fb.observation.total_work);
                w.u64(fb.observation.runs);
                match fb.data_stamp {
                    Some(s) => {
                        w.bool(true);
                        w.u64(s);
                    }
                    None => w.bool(false),
                }
            }
        }
        let payload = w.finish();
        let mut out = Vec::with_capacity(payload.len() + 16);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_be_bytes());
        out.extend_from_slice(&checksum(&payload).to_be_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Deserialize, rejecting anything that is not a well-formed
    /// current-version snapshot with a matching checksum.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, ServerError> {
        if bytes.len() < 16 {
            return Err(corrupt("file shorter than the header"));
        }
        if bytes[0..4] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(ServerError::Snapshot(format!(
                "unsupported snapshot version {version} (this build reads {VERSION})"
            )));
        }
        let stored = u64::from_be_bytes(bytes[8..16].try_into().unwrap());
        let payload = &bytes[16..];
        if checksum(payload) != stored {
            return Err(corrupt("checksum mismatch"));
        }
        // The payload layer reuses the wire codec, whose errors are
        // `Protocol`; remap so callers see one error kind for bad files.
        Snapshot::decode_payload(payload).map_err(|e| match e {
            ServerError::Snapshot(_) => e,
            other => corrupt(&other.to_string()),
        })
    }

    fn decode_payload(payload: &[u8]) -> Result<Snapshot, ServerError> {
        let mut r = ByteReader::new(payload);
        let tenants = r.seq(|r| {
            let name = r.str()?;
            let stamp = codec::get_stamp(r)?;
            let plans = r.seq(|r| {
                Ok(PlanSnapshot {
                    program: codec::get_program(r)?,
                    optimized: OptimizedSnapshot {
                        function: codec::get_function(r)?,
                        est_cost_ns: r.f64()?,
                        original_cost_ns: r.f64()?,
                        alternatives: r.u64()?,
                        choice_points: r.u64()?,
                        groups: r.u64()?,
                        exprs: r.u64()?,
                        tags: r.seq(|r| r.str())?,
                        budget_exhausted: r.bool()?,
                    },
                })
            })?;
            let feedback = r.seq(|r| {
                Ok(FeedbackSnapshot {
                    sql: r.str()?,
                    observation: Observation {
                        rows: r.f64()?,
                        startup_work: r.f64()?,
                        total_work: r.f64()?,
                        runs: r.u64()?,
                    },
                    data_stamp: if r.bool()? { Some(r.u64()?) } else { None },
                })
            })?;
            Ok(TenantSnapshot {
                name,
                stamp,
                plans,
                feedback,
            })
        })?;
        if !r.at_end() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(Snapshot { tenants })
    }

    /// Write atomically: encode to a temp file beside `path`, flush it to
    /// disk, then rename over `path`. A crash at any point leaves the
    /// previous snapshot (or nothing) intact — never a torn file. The flush
    /// is what makes that true across an OS crash: without it the rename
    /// can become durable before the data, and the torn file that the
    /// checksum then rejects has already replaced the old snapshot.
    ///
    /// The temp file is this call's alone (`<path>.<pid>.<n>.tmp`): the
    /// service is shared by threads, and two writers through one temp name
    /// would interleave their bytes and rename the mix over a good
    /// snapshot. Concurrent calls each install a whole image; the last
    /// rename wins. A call that fails removes its temp file.
    pub fn write_to(&self, path: &Path) -> Result<(), ServerError> {
        use std::io::Write;
        use std::sync::atomic::{AtomicU64, Ordering};
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let Some(name) = path.file_name() else {
            return Err(ServerError::Snapshot(format!(
                "snapshot path has no file name: {}",
                path.display()
            )));
        };
        let mut tmp = name.to_os_string();
        let n = WRITES.fetch_add(1, Ordering::Relaxed);
        tmp.push(format!(".{}.{n}.tmp", std::process::id()));
        let tmp = path.with_file_name(tmp);
        let written = std::fs::File::create(&tmp).and_then(|mut file| {
            file.write_all(&self.encode())?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, path)
        });
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        // Best effort: make the rename itself durable. A directory cannot
        // be opened or synced on every platform, and the snapshot is
        // already whole either way.
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        if let Ok(dir) = std::fs::File::open(dir.unwrap_or(Path::new("."))) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// Read and decode a snapshot file.
    pub fn read_from(path: &Path) -> Result<Snapshot, ServerError> {
        let bytes = std::fs::read(path)?;
        Snapshot::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::genprog::{GenCase, GenConfig};

    fn sample_snapshot() -> Snapshot {
        let case = GenCase::from_seed(13, &GenConfig::default());
        let function = case.program.functions[0].clone();
        Snapshot {
            tenants: vec![TenantSnapshot {
                name: "acme".into(),
                stamp: CacheStamp {
                    instance_id: 7,
                    stats_epoch: 3,
                    feedback_generation: 0,
                    mode: 1,
                },
                plans: vec![PlanSnapshot {
                    program: case.program.clone(),
                    optimized: OptimizedSnapshot {
                        function,
                        est_cost_ns: 1234.5,
                        original_cost_ns: 9876.5,
                        alternatives: 12,
                        choice_points: 3,
                        groups: 9,
                        exprs: 21,
                        tags: vec!["prefetch".into(), "not-a-real-tag".into()],
                        budget_exhausted: false,
                    },
                }],
                feedback: vec![FeedbackSnapshot {
                    sql: "SELECT * FROM orders".into(),
                    observation: Observation {
                        rows: 42.0,
                        startup_work: 1.0,
                        total_work: 84.0,
                        runs: 3,
                    },
                    data_stamp: Some(11),
                }],
            }],
        }
    }

    #[test]
    fn roundtrips_through_bytes() {
        let snap = sample_snapshot();
        let back = Snapshot::decode(&snap.encode()).expect("decode");
        assert_eq!(back, snap);
    }

    /// `sample_snapshot()` minus its plan, as encoded by the commit that
    /// introduced the format: files already on disk must keep restoring,
    /// so header, checksum and payload layout are pinned byte for byte.
    const PINNED_V1: &str = "4342534e000000015d1524e1498be3f5000000010000000461636d65\
        0000000000000007000000000000000300000000000000000100000000000000010000001453454c\
        454354202a2046524f4d206f726465727340450000000000003ff000000000000040550000000000\
        00000000000000000301000000000000000b";

    #[test]
    fn v1_bytes_written_by_earlier_builds_still_restore() {
        let pinned: Vec<u8> = (0..PINNED_V1.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&PINNED_V1[i..i + 2], 16).unwrap())
            .collect();
        let mut snap = sample_snapshot();
        snap.tenants[0].plans.clear();
        assert_eq!(Snapshot::decode(&pinned).expect("decode"), snap);
        assert_eq!(snap.encode(), pinned);
    }

    #[test]
    fn detects_every_kind_of_corruption() {
        let snap = sample_snapshot();
        let good = snap.encode();

        // Too short.
        assert!(matches!(
            Snapshot::decode(&good[..8]),
            Err(ServerError::Snapshot(_))
        ));
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Snapshot::decode(&bad),
            Err(ServerError::Snapshot(_))
        ));
        // Unsupported version.
        let mut bad = good.clone();
        bad[7] = 99;
        assert!(matches!(
            Snapshot::decode(&bad),
            Err(ServerError::Snapshot(_))
        ));
        // A single flipped payload byte fails the checksum.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(matches!(
            Snapshot::decode(&bad),
            Err(ServerError::Snapshot(_))
        ));
        // Truncated payload (checksum recomputed so the payload layer
        // itself must catch it).
        let mut bad = good[..good.len() - 4].to_vec();
        let sum = checksum(&bad[16..]);
        bad[8..16].copy_from_slice(&sum.to_be_bytes());
        assert!(matches!(
            Snapshot::decode(&bad),
            Err(ServerError::Snapshot(_))
        ));
    }

    #[test]
    fn unknown_tags_are_dropped_on_restore() {
        let snap = sample_snapshot();
        let opt = snap.tenants[0].plans[0].optimized.to_optimized();
        assert_eq!(opt.tags, vec!["prefetch"]);
        assert!(opt.validation.is_none());
        assert_eq!(opt.cost_cache_hits, 0);
    }

    #[test]
    fn atomic_write_replaces_never_tears() {
        let dir = std::env::temp_dir().join(format!(
            "cobra-snap-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.cbsn");
        let snap = sample_snapshot();
        Snapshot::default().write_to(&path).expect("first write");
        snap.write_to(&path).expect("overwrite");
        let back = Snapshot::read_from(&path).expect("read");
        assert_eq!(back, snap, "the overwrite replaced the old snapshot whole");
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["state.cbsn"], "temp file renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_to_one_path_never_tear_it() {
        let dir = std::env::temp_dir().join(format!("cobra-snap-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.cbsn");
        // 8 × 20 snapshots, each told apart by its tenant's name.
        let named = |name: String| {
            let mut snap = sample_snapshot();
            snap.tenants[0].name = name;
            snap
        };
        named("first".into()).write_to(&path).expect("first write");
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (path, barrier, named) = (&path, &barrier, &named);
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..20 {
                        named(format!("t{t}-{i}")).write_to(path).expect("write");
                        // Whatever is installed is one writer's whole image.
                        let back = Snapshot::read_from(path).expect("a whole snapshot");
                        assert_eq!(back, named(back.tenants[0].name.clone()));
                    }
                });
            }
        });
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["state.cbsn"], "no temp file left");
        // A write that cannot happen cleans up after itself too.
        let nowhere = dir.join("no-such-dir").join("state.cbsn");
        assert!(named("x".into()).write_to(&nowhere).is_err());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
