//! Content-addressed artifact store behind `repro --resume`.
//!
//! Every stage output of a reproduction run — sampled workloads, derived
//! task datasets, paper artifacts, audit/fault reports — can be persisted
//! under `target/repro/store/` keyed by a **fingerprint** of everything
//! that determines its bytes: the master seed, the task id, the builder's
//! version tag, and the fingerprints of its upstream stages. Fingerprints
//! are computed from those inputs alone (never from wall-clock or file
//! contents), so a stage's key is known before the stage runs and a warm
//! run can skip the work entirely.
//!
//! Entries are one file each: a JSON header line carrying the fingerprint
//! and an FNV-1a hash of the payload, then the payload itself (the stage
//! output serialized with the vendored serde stack). A load verifies both;
//! any mismatch — truncation, corruption, a stale fingerprint — is treated
//! as a miss and the stage is rebuilt and re-written. Hits therefore
//! reproduce the original bytes exactly or not at all.
//!
//! The store keeps per-stage hit/miss/byte counters for `--store-stats`.

use crate::registry::{registry, DynTask};
use serde::{Deserialize, Serialize};
use squ_workload::Workload;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Bump to invalidate every stored entry (file-format changes).
/// Format 2: fingerprint parts carry one-byte type tags (see
/// [`Fingerprint::push`]), so entries keyed by untagged format-1 prints
/// self-invalidate.
const STORE_FORMAT: u32 = 2;
/// Version tag of the workload samplers.
const WORKLOAD_VERSION: u32 = 1;
/// Version tag of the paper-artifact experiments.
const ARTIFACT_VERSION: u32 = 1;
/// Version tag of the dataset auditor.
const AUDIT_VERSION: u32 = 2;
/// Version tag of the fault-injection sweep.
const FAULTS_VERSION: u32 = 1;
/// Version tag of the ablation studies.
const ABLATION_VERSION: u32 = 1;
/// Bump when the fuzz generator, oracles, or case-report format change.
/// Version 4: per-dialect corpora (the case report gained dialect tallies).
/// Version 5: the differential oracle also compares every transform output.
const FUZZ_VERSION: u32 = 5;
/// Bump when the streaming synthesis pipeline (stream layout, controller
/// math, shard-summary format) changes.
const SYNTH_VERSION: u32 = 1;

/// 64-bit FNV-1a over a byte stream.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Hash a payload (for corruption detection on load).
fn payload_hash(payload: &str) -> u64 {
    let mut h = Fnv::new();
    h.write(payload.as_bytes());
    h.finish()
}

/// Fingerprint builder: feeds type-tagged, length-delimited parts into
/// FNV-1a so `("ab","c")` and `("a","bc")` hash differently — and so do
/// parts of different *types*. Without the tags `push("")` and `num(0)`
/// fed identical bytes, as did any 8-byte string vs. a `num` pair.
pub struct Fingerprint(Fnv);

/// Type tag preceding every string part.
const PART_STR: u8 = 1;
/// Type tag preceding every integer part.
const PART_NUM: u8 = 2;

impl Fingerprint {
    /// Start a fingerprint for one stage kind.
    pub fn new(tag: &str) -> Fingerprint {
        let mut fp = Fingerprint(Fnv::new());
        fp.0.write(&STORE_FORMAT.to_le_bytes());
        fp.push(tag);
        fp
    }

    /// Mix in one string part.
    pub fn push(&mut self, part: &str) -> &mut Self {
        self.0.write(&[PART_STR]);
        self.0.write(&(part.len() as u64).to_le_bytes());
        self.0.write(part.as_bytes());
        self
    }

    /// Mix in one integer part (seeds, version tags, upstream prints).
    pub fn num(&mut self, n: u64) -> &mut Self {
        self.0.write(&[PART_NUM]);
        self.0.write(&n.to_le_bytes());
        self
    }

    /// The 64-bit fingerprint.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Fingerprint of one sampled workload: `(format, seed, workload,
/// sampler version)`.
pub fn fp_workload(seed: u64, w: Workload) -> u64 {
    Fingerprint::new("workload")
        .num(u64::from(WORKLOAD_VERSION))
        .push(w.name())
        .num(seed)
        .finish()
}

/// Fingerprint of one derived task dataset: `(format, seed, task id,
/// builder version, upstream workload fingerprint)`.
pub fn fp_dataset(seed: u64, task: &dyn DynTask, w: Workload) -> u64 {
    Fingerprint::new("dataset")
        .push(task.id().name())
        .num(u64::from(task.version()))
        .push(w.name())
        .num(seed)
        .num(fp_workload(seed, w))
        .finish()
}

/// Fingerprint of the whole suite: folds every workload and dataset
/// fingerprint, so any builder bump invalidates all downstream stages.
pub fn suite_fingerprint(seed: u64) -> u64 {
    let mut fp = Fingerprint::new("suite");
    fp.num(seed);
    for w in [
        Workload::Sdss,
        Workload::SqlShare,
        Workload::JoinOrder,
        Workload::Spider,
    ] {
        fp.num(fp_workload(seed, w));
    }
    for task in registry() {
        for w in task.id().workloads() {
            fp.num(fp_dataset(seed, task, *w));
        }
    }
    fp.finish()
}

/// Fingerprint of one paper/ablation artifact.
pub fn fp_artifact(seed: u64, slug: &str, ablation: bool) -> u64 {
    let (tag, version) = if ablation {
        ("ablation", ABLATION_VERSION)
    } else {
        ("artifact", ARTIFACT_VERSION)
    };
    Fingerprint::new(tag)
        .num(u64::from(version))
        .push(slug)
        .num(suite_fingerprint(seed))
        .finish()
}

/// Fingerprint of the audit report.
pub fn fp_audit(seed: u64) -> u64 {
    Fingerprint::new("audit")
        .num(u64::from(AUDIT_VERSION))
        .num(suite_fingerprint(seed))
        .finish()
}

/// Fingerprint of one fault-injection report.
pub fn fp_faults(seed: u64, profile: &str, fault_seed: u64) -> u64 {
    Fingerprint::new("faults")
        .num(u64::from(FAULTS_VERSION))
        .push(profile)
        .num(fault_seed)
        .num(suite_fingerprint(seed))
        .finish()
}

/// Fingerprint of one fuzz case. Deliberately independent of the suite:
/// a case is fully determined by `(fuzz seed, index)` plus the
/// generator/oracle version, so fuzz results survive suite rebuilds.
pub fn fp_fuzz(fuzz_seed: u64, index: u64) -> u64 {
    fp_fuzz_dialect(fuzz_seed, index, "squ")
}

/// Fingerprint of one fuzz case of a per-dialect corpus run: [`fp_fuzz`]
/// with the corpus dialect folded in, so `--dialect` runs never collide
/// with each other or with the default `squ` corpus.
pub fn fp_fuzz_dialect(fuzz_seed: u64, index: u64, dialect: &str) -> u64 {
    Fingerprint::new("fuzz")
        .num(u64::from(FUZZ_VERSION))
        .num(fuzz_seed)
        .num(index)
        .push(dialect)
        .finish()
}

/// Fingerprint of one synthesis run's *specification*: everything that
/// determines its output — base workload, stream seed, requested size,
/// and the raw target-spec text (or "" without a target). Like
/// [`fp_fuzz`], deliberately independent of the suite: a synthesis run
/// is fully determined by its own inputs.
pub fn fp_synth_spec(seed: u64, n: u64, base: Workload, target_json: &str) -> u64 {
    Fingerprint::new("synth")
        .num(u64::from(SYNTH_VERSION))
        .push(base.name())
        .num(seed)
        .num(n)
        .push(target_json)
        .finish()
}

/// Fingerprint of one shard of one synthesis round:
/// `fp_spec ⊕ round ⊕ shard_index ⊕ shard_count`. The shard count is
/// folded in so a `3-of-8` partition never collides with `3-of-4` —
/// shard summaries are only reusable under the exact same partition.
pub fn fp_synth_shard(spec_fp: u64, round: u32, shard: usize, shards: usize) -> u64 {
    Fingerprint::new("synth-shard")
        .num(spec_fp)
        .num(u64::from(round))
        .num(shard as u64)
        .num(shards as u64)
        .finish()
}

/// Per-stage hit/miss/byte counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StageStats {
    /// Entries served from the store.
    pub hits: usize,
    /// Entries that had to be (re)built: absent, stale, or corrupt.
    pub misses: usize,
    /// Payload bytes read on hits.
    pub bytes_read: u64,
    /// Payload bytes written after misses.
    pub bytes_written: u64,
}

/// Header line preceding every payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Header {
    stage: String,
    name: String,
    fingerprint: String,
    payload_hash: String,
    bytes: u64,
}

/// Write `contents` to `path` atomically: a uniquely named tempfile in
/// the same directory, then `rename` into place. A concurrent reader —
/// two `repro` processes, or two server requests sharing the store as a
/// hot cache — sees either the previous entry or the complete new one,
/// never a torn prefix that would demote to a miss and trigger a rebuild
/// storm.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    let dir = path.parent().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "entry path has no parent")
    })?;
    fs::create_dir_all(dir)?;
    // pid + process-wide sequence keep concurrent writers (threads or
    // processes) on distinct temp names; rename is what makes the final
    // path atomic, the name only avoids temp-file collisions
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
    let tmp = dir.join(format!(".{file_name}.{}-{seq}.tmp", std::process::id()));
    fs::write(&tmp, contents)?;
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

/// The on-disk artifact store.
pub struct Store {
    root: PathBuf,
    stats: BTreeMap<String, StageStats>,
}

impl Store {
    /// Open (or lazily create) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Store {
        Store {
            root: root.into(),
            stats: BTreeMap::new(),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of one entry.
    fn entry_path(&self, stage: &str, name: &str, fp: u64) -> PathBuf {
        self.root.join(stage).join(format!("{name}-{fp:016x}.json"))
    }

    fn stage_stats(&mut self, stage: &str) -> &mut StageStats {
        self.stats.entry(stage.to_string()).or_default()
    }

    /// Load one stage payload, verifying fingerprint and payload hash.
    /// Any mismatch (absent, stale, truncated, corrupted) is a miss.
    pub fn load(&mut self, stage: &str, name: &str, fp: u64) -> Option<String> {
        let path = self.entry_path(stage, name, fp);
        let verified = fs::read_to_string(&path).ok().and_then(|text| {
            let (header_line, payload) = text.split_once('\n')?;
            let header: Header = serde_json::from_str(header_line).ok()?;
            let intact = header.stage == stage
                && header.name == name
                && header.fingerprint == format!("{fp:016x}")
                && header.bytes == payload.len() as u64
                && header.payload_hash == format!("{:016x}", payload_hash(payload));
            intact.then(|| payload.to_string())
        });
        let s = self.stage_stats(stage);
        match verified {
            Some(payload) => {
                s.hits += 1;
                s.bytes_read += payload.len() as u64;
                Some(payload)
            }
            None => {
                s.misses += 1;
                None
            }
        }
    }

    /// Persist one stage payload under its fingerprint.
    pub fn save(&mut self, stage: &str, name: &str, fp: u64, payload: &str) {
        let header = Header {
            stage: stage.to_string(),
            name: name.to_string(),
            fingerprint: format!("{fp:016x}"),
            payload_hash: format!("{:016x}", payload_hash(payload)),
            bytes: payload.len() as u64,
        };
        let header_line = serde_json::to_string(&header).expect("store header serializes"); // lint:allow: plain data structs always serialize
        let path = self.entry_path(stage, name, fp);
        if let Err(e) = write_atomic(&path, &format!("{header_line}\n{payload}")) {
            // The store is a cache: failing to persist must never fail the
            // run, but the user should know resume won't help next time.
            eprintln!(
                "warning: could not write store entry {}: {e}",
                path.display()
            );
            return;
        }
        self.stage_stats(stage).bytes_written += payload.len() as u64;
    }

    /// Typed wrapper over [`Store::load`] (compact-JSON payloads).
    pub fn load_value<T: Deserialize>(&mut self, stage: &str, name: &str, fp: u64) -> Option<T> {
        let payload = self.load(stage, name, fp)?;
        match serde_json::from_str(&payload) {
            Ok(v) => Some(v),
            Err(e) => {
                // Undecodable despite an intact hash: a format drift bug.
                // Demote the recorded hit to a miss and rebuild.
                eprintln!("warning: store entry {stage}/{name} undecodable: {e}");
                let s = self.stage_stats(stage);
                s.hits -= 1;
                s.bytes_read -= payload.len() as u64;
                s.misses += 1;
                None
            }
        }
    }

    /// Typed wrapper over [`Store::save`].
    pub fn save_value<T: Serialize>(&mut self, stage: &str, name: &str, fp: u64, value: &T) {
        let payload = serde_json::to_string(value).expect("store payloads serialize"); // lint:allow: plain data structs always serialize
        self.save(stage, name, fp, &payload);
    }

    /// Per-stage counters accumulated by this `Store` instance.
    pub fn stats(&self) -> &BTreeMap<String, StageStats> {
        &self.stats
    }

    /// Total misses across all stages (0 on a fully warm run).
    pub fn total_misses(&self) -> usize {
        self.stats.values().map(|s| s.misses).sum()
    }

    /// Plain-text stats table for `--store-stats`.
    pub fn render_stats(&self) -> String {
        let mut out = format!("artifact store ({})\n", self.root.display());
        out.push_str(&format!(
            "  {:<10} {:>6} {:>6} {:>12} {:>14}\n",
            "stage", "hits", "misses", "bytes_read", "bytes_written"
        ));
        for (stage, s) in &self.stats {
            out.push_str(&format!(
                "  {:<10} {:>6} {:>6} {:>12} {:>14}\n",
                stage, s.hits, s.misses, s.bytes_read, s.bytes_written
            ));
        }
        let (hits, misses): (usize, usize) = self
            .stats
            .values()
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
        out.push_str(&format!("  total: {hits} hits, {misses} misses\n"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("squ-store-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        Store::open(dir)
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        assert_eq!(
            fp_workload(7, Workload::Sdss),
            fp_workload(7, Workload::Sdss)
        );
        assert_ne!(
            fp_workload(7, Workload::Sdss),
            fp_workload(8, Workload::Sdss)
        );
        assert_ne!(
            fp_workload(7, Workload::Sdss),
            fp_workload(7, Workload::Spider)
        );
        assert_ne!(suite_fingerprint(7), suite_fingerprint(8));
        assert_ne!(
            fp_artifact(7, "table3", false),
            fp_artifact(7, "table4", false)
        );
        assert_ne!(fp_faults(7, "none", 0), fp_faults(7, "heavy", 0));
        assert_ne!(fp_faults(7, "none", 0), fp_faults(7, "none", 1));
        // per-dialect fuzz corpora key separately from each other and from
        // the default squ corpus
        assert_eq!(fp_fuzz(5, 2), fp_fuzz_dialect(5, 2, "squ"));
        assert_ne!(fp_fuzz(5, 2), fp_fuzz_dialect(5, 2, "tsql"));
        assert_ne!(
            fp_fuzz_dialect(5, 2, "mysql"),
            fp_fuzz_dialect(5, 2, "tsql")
        );
    }

    #[test]
    fn synth_fingerprints_key_on_every_input() {
        let spec = fp_synth_spec(7, 1000, Workload::Sdss, "");
        assert_eq!(spec, fp_synth_spec(7, 1000, Workload::Sdss, ""));
        assert_ne!(spec, fp_synth_spec(8, 1000, Workload::Sdss, ""));
        assert_ne!(spec, fp_synth_spec(7, 2000, Workload::Sdss, ""));
        assert_ne!(spec, fp_synth_spec(7, 1000, Workload::Spider, ""));
        assert_ne!(
            spec,
            fp_synth_spec(7, 1000, Workload::Sdss, "{\"axes\":[]}")
        );
        // shard summaries are only reusable under the exact partition:
        // round, index, and count all key the entry
        let shard = fp_synth_shard(spec, 0, 1, 3);
        assert_eq!(shard, fp_synth_shard(spec, 0, 1, 3));
        assert_ne!(shard, fp_synth_shard(spec, 1, 1, 3));
        assert_ne!(shard, fp_synth_shard(spec, 0, 2, 3));
        assert_ne!(shard, fp_synth_shard(spec, 0, 1, 8));
        assert_ne!(
            shard,
            fp_synth_shard(fp_synth_spec(9, 1, Workload::Sdss, ""), 0, 1, 3)
        );
    }

    #[test]
    fn part_types_are_disambiguated() {
        // the format-1 collisions, pinned fixed: an empty string part vs a
        // zero integer part...
        assert_ne!(
            Fingerprint::new("t").push("").finish(),
            Fingerprint::new("t").num(0).finish()
        );
        // ...and any 8-byte string vs the (len, value) pair of a num
        let s = "ABCDEFGH";
        let as_num = u64::from_le_bytes(*b"ABCDEFGH");
        assert_ne!(
            Fingerprint::new("t").push(s).finish(),
            Fingerprint::new("t").num(8).num(as_num).finish()
        );
        // adjacent-part boundaries still matter
        assert_ne!(
            Fingerprint::new("t").push("ab").push("c").finish(),
            Fingerprint::new("t").push("a").push("bc").finish()
        );
        // tagging is deterministic
        assert_eq!(
            Fingerprint::new("t").push("x").num(3).finish(),
            Fingerprint::new("t").push("x").num(3).finish()
        );
    }

    #[test]
    fn concurrent_writer_never_tears_a_reader() {
        // One key hammered from a writer thread while a reader polls it:
        // with atomic tempfile+rename writes every load observes a
        // complete entry (old or new), so after the first save lands the
        // reader must never see a miss. Payload sizes differ wildly so a
        // torn write would fail the header's byte/hash check.
        let root = std::env::temp_dir().join(format!(
            "squ-store-stress-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&root).ok();
        let small = "s".repeat(8);
        let large = "L".repeat(64 * 1024);
        {
            let mut w = Store::open(&root);
            w.save("artifact", "hot", 99, &small);
        }
        const ROUNDS: usize = 300;
        std::thread::scope(|scope| {
            let (root_w, small_w, large_w) = (&root, &small, &large);
            scope.spawn(move || {
                let mut w = Store::open(root_w);
                for i in 0..ROUNDS {
                    let payload = if i % 2 == 0 { large_w } else { small_w };
                    w.save("artifact", "hot", 99, payload);
                }
            });
            let reader = scope.spawn(move || {
                let mut r = Store::open(root_w);
                let mut hits = 0;
                for _ in 0..ROUNDS {
                    match r.load("artifact", "hot", 99) {
                        Some(p) => {
                            assert!(
                                p == *small_w || p == *large_w,
                                "torn or foreign payload ({} bytes)",
                                p.len()
                            );
                            hits += 1;
                        }
                        None => panic!("reader saw a miss: torn store write"),
                    }
                }
                hits
            });
            assert_eq!(reader.join().expect("reader thread"), ROUNDS);
        });
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn save_then_load_hits() {
        let mut store = temp_store("roundtrip");
        assert_eq!(store.load("artifact", "t", 42), None);
        store.save("artifact", "t", 42, "payload bytes");
        assert_eq!(
            store.load("artifact", "t", 42).as_deref(),
            Some("payload bytes")
        );
        let s = store.stats()["artifact"];
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.bytes_written, 13);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn corrupted_payload_is_a_miss() {
        let mut store = temp_store("corrupt");
        store.save("dataset", "syntax_sdss", 7, r#"[{"k":1}]"#);
        let path = store.entry_path("dataset", "syntax_sdss", 7);
        let mangled = fs::read_to_string(&path)
            .unwrap()
            .replace("\"k\":1", "\"k\":2");
        fs::write(&path, mangled).unwrap();
        assert_eq!(store.load("dataset", "syntax_sdss", 7), None);
        assert_eq!(store.stats()["dataset"].misses, 1);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn wrong_fingerprint_is_a_miss() {
        let mut store = temp_store("stale");
        store.save("audit", "audit", 1, "{}");
        assert_eq!(store.load("audit", "audit", 2), None);
        assert!(store.total_misses() >= 1);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn stats_render_mentions_every_stage() {
        let mut store = temp_store("render");
        store.save("workload", "sdss", 3, "x");
        store.load("workload", "sdss", 3);
        let table = store.render_stats();
        assert!(table.contains("workload"), "{table}");
        assert!(table.contains("total: 1 hits, 0 misses"), "{table}");
        fs::remove_dir_all(store.root()).ok();
    }
}
