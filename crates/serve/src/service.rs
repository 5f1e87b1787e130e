//! The evaluation service behind the HTTP surface.
//!
//! [`EvalService`] owns the process-wide artifact store (one
//! [`squ::store::Store`] behind a mutex) and an in-memory cache of built
//! example sets. `POST /eval` resolves a spec to `(task, workload, model,
//! profile, seeds)`, and the complete response body is content-addressed
//! in a dedicated `serve` store stage — a warm repeat of an identical
//! request is a pure store hit and returns **byte-identical** JSON. Cold
//! requests share the `dataset` stage with the CLI suite (same names,
//! same fingerprints), so a server booted over an existing `repro` store
//! never rebuilds datasets the CLI already built.
//!
//! The store mutex is held only around `load`/`save`; dataset builds and
//! model calls run outside it, so concurrent cold requests may race to
//! build the same artifact — both produce identical bytes and the store's
//! atomic rename makes the race harmless.

use crate::http::Reject;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use squ::registry::{task as task_by_id, DynTask, ExampleSet};
use squ::store::{fp_dataset, Fingerprint, Store};
use squ::PAPER_SEED;
use squ_dialect::Dialect;
use squ_llm::{DatasetId, FaultProfile, ModelId, SimulatedModel, Transport};
use squ_tasks::TaskId;
use squ_workload::Workload;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Bump when the `/eval` response schema changes: invalidates cached
/// response bodies in the `serve` store stage.
///
/// Version 2: the response gained an echoed `dialect` field and the
/// cache key folds the dialect coordinate.
pub const SERVE_VERSION: u32 = 2;

/// Cap on distinct example sets held in memory at once (each is a few
/// hundred examples; the cap bounds server memory across many seeds).
const SET_CACHE_CAP: usize = 64;

/// `POST /eval` request body. String fields are resolved case- and
/// spelling-leniently (`"syntax"` or `"syntax_error"`, `"SDSS"` or
/// `"sdss"`); omitted fields take the documented defaults.
#[derive(Debug, Clone, Deserialize)]
pub struct EvalSpec {
    /// Task family (`syntax`, `tokens`, `equiv`, `perf`, `explain`, or
    /// the paper names like `syntax_error`).
    pub task: String,
    /// Workload name (`SDSS`, `SQLShare`, `Join-Order`, `Spider`).
    pub workload: String,
    /// Model name (`GPT4`, `GPT3.5`, `Llama3`, `MistralAI`, `Gemini`).
    pub model: String,
    /// Transport fault profile (`none`, `light`, `heavy`, `flaky`);
    /// default `none`.
    pub profile: Option<String>,
    /// Transport fault seed; default 0.
    pub fault_seed: Option<u64>,
    /// Workload sampling seed; default [`PAPER_SEED`].
    pub seed: Option<u64>,
    /// SQL dialect coordinate (`squ`, `sqlite`, `postgres`, `mysql`,
    /// `tsql`); default `squ`. Validated against the dialect matrix and
    /// folded into the cache key, so each dialect caches independently.
    pub dialect: Option<String>,
}

/// `POST /suite` request body: the cross product of tasks × their
/// admissible workloads × models, each evaluated like one `/eval` call.
#[derive(Debug, Clone, Deserialize)]
pub struct SuiteSpec {
    /// Task families to run; default all five.
    pub tasks: Option<Vec<String>>,
    /// Models to run; default all five.
    pub models: Option<Vec<String>>,
    /// Restrict workloads to this set (each task still only runs its own
    /// admissible workloads); default unrestricted.
    pub workloads: Option<Vec<String>>,
    /// Transport fault profile; default `none`.
    pub profile: Option<String>,
    /// Transport fault seed; default 0.
    pub fault_seed: Option<u64>,
    /// Workload sampling seed; default [`PAPER_SEED`].
    pub seed: Option<u64>,
    /// SQL dialect coordinate; default `squ`.
    pub dialect: Option<String>,
}

/// One fault kind tally in an [`EvalResult`].
#[derive(Debug, Clone, Serialize)]
pub struct FaultCount {
    /// Fault kind name (from `FaultKind::name`).
    pub kind: String,
    /// Calls that observed it at least once.
    pub calls: u64,
}

/// The scored outcome of one `(task, workload, model)` evaluation.
#[derive(Debug, Clone, Serialize)]
pub struct EvalResult {
    /// Resolved task name (paper identifier).
    pub task: String,
    /// Resolved workload name.
    pub workload: String,
    /// Resolved model name.
    pub model: String,
    /// Fault profile applied at the model-transport layer.
    pub profile: String,
    /// SQL dialect coordinate the evaluation was keyed under.
    pub dialect: String,
    /// Workload sampling seed.
    pub seed: u64,
    /// Transport fault seed.
    pub fault_seed: u64,
    /// Examples evaluated.
    pub examples: usize,
    /// Outcomes routed to human review (empty/ambiguous extractions).
    pub needs_review: usize,
    /// `needs_review / examples`.
    pub review_rate: f64,
    /// Model-call attempts across all examples (retries included).
    pub attempts: u64,
    /// Calls that exhausted their retry budget and failed open.
    pub exhausted: u64,
    /// Virtual milliseconds consumed (latency + backoff waits).
    pub virtual_ms: u64,
    /// Per-fault-kind call tallies, sorted by kind name.
    pub faults: Vec<FaultCount>,
}

/// A resolved, validated evaluation coordinate.
#[derive(Debug, Clone, Copy)]
pub struct EvalKey {
    /// Task family.
    pub task: TaskId,
    /// Workload.
    pub workload: Workload,
    /// Model.
    pub model: ModelId,
    /// Fault profile (referenced by name; profiles are static).
    pub profile: &'static str,
    /// SQL dialect (referenced by canonical name; dialects are static).
    pub dialect: &'static str,
    /// Transport fault seed.
    pub fault_seed: u64,
    /// Workload sampling seed.
    pub seed: u64,
}

/// Whether an `/eval` body came from the store or was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the `serve` store stage.
    Hit,
    /// Computed (and saved) on this request.
    Miss,
}

impl CacheStatus {
    /// Header value for `X-Squ-Cache`.
    pub fn header_value(&self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
        }
    }
}

fn resolve_task(name: &str) -> Result<TaskId, Reject> {
    let lower = name.to_ascii_lowercase();
    TaskId::ALL
        .into_iter()
        .find(|t| t.short() == lower || t.name() == lower || t.file_stem() == lower)
        .ok_or_else(|| Reject::new(400, format!("unknown task {name:?}")))
}

fn resolve_workload(name: &str) -> Result<Workload, Reject> {
    let slug: String = name
        .chars()
        .filter(|c| *c != '-' && *c != '_')
        .collect::<String>()
        .to_ascii_lowercase();
    [
        Workload::Sdss,
        Workload::SqlShare,
        Workload::JoinOrder,
        Workload::Spider,
    ]
    .into_iter()
    .find(|w| {
        w.name()
            .chars()
            .filter(|c| *c != '-')
            .collect::<String>()
            .to_ascii_lowercase()
            == slug
    })
    .ok_or_else(|| Reject::new(400, format!("unknown workload {name:?}")))
}

fn resolve_model(name: &str) -> Result<ModelId, Reject> {
    let slug: String = name
        .chars()
        .filter(|c| *c != '.' && *c != '-' && *c != '_')
        .collect::<String>()
        .to_ascii_lowercase();
    ModelId::ALL
        .into_iter()
        .find(|m| {
            m.name()
                .chars()
                .filter(|c| *c != '.')
                .collect::<String>()
                .to_ascii_lowercase()
                == slug
        })
        .ok_or_else(|| Reject::new(400, format!("unknown model {name:?}")))
}

fn resolve_profile(name: Option<&str>) -> Result<&'static str, Reject> {
    let name = name.unwrap_or("none");
    let lower = name.to_ascii_lowercase();
    FaultProfile::NAMES
        .iter()
        .find(|n| **n == lower)
        .copied()
        .ok_or_else(|| Reject::new(400, format!("unknown fault profile {name:?}")))
}

fn resolve_dialect(name: Option<&str>) -> Result<&'static str, Reject> {
    let name = name.unwrap_or("squ");
    let lower = name.to_ascii_lowercase();
    Dialect::by_name(&lower).map(|d| d.name()).ok_or_else(|| {
        Reject::new(
            400,
            format!(
                "unknown dialect {name:?} (one of {})",
                Dialect::NAMES.join(", ")
            ),
        )
    })
}

/// Lowercased, dash-free slug (mirrors the suite's store naming so the
/// server shares `dataset`-stage entries with the CLI).
fn slug(name: &str) -> String {
    name.chars()
        .filter(|c| *c != '-')
        .collect::<String>()
        .to_ascii_lowercase()
}

fn set_name(task: &dyn DynTask, w: Workload) -> String {
    format!("{}_{}", task.id().short(), slug(w.name()))
}

/// The shared evaluation service: one store, one set cache, any number
/// of connection threads.
pub struct EvalService {
    store: Mutex<Store>,
    sets: Mutex<BTreeMap<u64, Arc<ExampleSet>>>,
}

impl EvalService {
    /// Open the service over the store rooted at `store_root`.
    pub fn new(store_root: impl Into<std::path::PathBuf>) -> EvalService {
        EvalService {
            store: Mutex::new(Store::open(store_root)),
            sets: Mutex::new(BTreeMap::new()),
        }
    }

    /// Resolve and validate a raw spec into an [`EvalKey`].
    pub fn resolve(&self, spec: &EvalSpec) -> Result<EvalKey, Reject> {
        let task = resolve_task(&spec.task)?;
        let workload = resolve_workload(&spec.workload)?;
        let model = resolve_model(&spec.model)?;
        let profile = resolve_profile(spec.profile.as_deref())?;
        let dialect = resolve_dialect(spec.dialect.as_deref())?;
        if !task.workloads().contains(&workload) {
            return Err(Reject::new(
                400,
                format!(
                    "task {:?} does not run on workload {:?} (admissible: {:?})",
                    task.name(),
                    workload.name(),
                    task.workloads()
                        .iter()
                        .map(|w| w.name())
                        .collect::<Vec<_>>()
                ),
            ));
        }
        Ok(EvalKey {
            task,
            workload,
            model,
            profile,
            dialect,
            fault_seed: spec.fault_seed.unwrap_or(0),
            seed: spec.seed.unwrap_or(PAPER_SEED),
        })
    }

    /// Expand a suite spec into the evaluation keys it covers, in
    /// deterministic (task-major, then workload, then model) order.
    pub fn expand_suite(&self, spec: &SuiteSpec) -> Result<Vec<EvalKey>, Reject> {
        let tasks: Vec<TaskId> = match &spec.tasks {
            None => TaskId::ALL.to_vec(),
            Some(names) => names
                .iter()
                .map(|n| resolve_task(n))
                .collect::<Result<_, _>>()?,
        };
        let models: Vec<ModelId> = match &spec.models {
            None => ModelId::ALL.to_vec(),
            Some(names) => names
                .iter()
                .map(|n| resolve_model(n))
                .collect::<Result<_, _>>()?,
        };
        let restrict: Option<Vec<Workload>> = match &spec.workloads {
            None => None,
            Some(names) => Some(
                names
                    .iter()
                    .map(|n| resolve_workload(n))
                    .collect::<Result<_, _>>()?,
            ),
        };
        let profile = resolve_profile(spec.profile.as_deref())?;
        let dialect = resolve_dialect(spec.dialect.as_deref())?;
        let mut keys = Vec::new();
        for task in &tasks {
            for workload in task.workloads() {
                if let Some(allow) = &restrict {
                    if !allow.contains(workload) {
                        continue;
                    }
                }
                for model in &models {
                    keys.push(EvalKey {
                        task: *task,
                        workload: *workload,
                        model: *model,
                        profile,
                        dialect,
                        fault_seed: spec.fault_seed.unwrap_or(0),
                        seed: spec.seed.unwrap_or(PAPER_SEED),
                    });
                }
            }
        }
        if keys.is_empty() {
            return Err(Reject::new(400, "suite spec selects no evaluations"));
        }
        Ok(keys)
    }

    /// Content address of a complete `/eval` response body.
    fn fp_serve(key: &EvalKey) -> u64 {
        let t = task_by_id(key.task);
        Fingerprint::new("serve")
            .num(u64::from(SERVE_VERSION))
            .push(key.task.name())
            .push(key.workload.name())
            .push(match key.model {
                ModelId::Gpt4 => "GPT4",
                ModelId::Gpt35 => "GPT3.5",
                ModelId::Llama3 => "Llama3",
                ModelId::MistralAi => "MistralAI",
                ModelId::Gemini => "Gemini",
            })
            .push(key.profile)
            .push(key.dialect)
            .num(key.fault_seed)
            .num(key.seed)
            .num(fp_dataset(key.seed, t, key.workload))
            .finish()
    }

    /// The example set for `(task, workload, seed)`: in-memory cache,
    /// then the shared `dataset` store stage, then a fresh build (which
    /// is saved back for the next process).
    fn set_for(&self, key: &EvalKey) -> Arc<ExampleSet> {
        let t = task_by_id(key.task);
        let fp = fp_dataset(key.seed, t, key.workload);
        let cache = self.sets.lock().expect("set cache lock"); // lint:allow: poisoned only if a handler already panicked
        if let Some(set) = cache.get(&fp) {
            return Arc::clone(set);
        }
        drop(cache);
        let name = set_name(t, key.workload);
        let cached = self
            .store
            .lock()
            .expect("store lock") // lint:allow: poisoned only if a handler already panicked
            .load("dataset", &name, fp);
        let set: ExampleSet = match cached.and_then(|json| t.decode_set(&json).ok()) {
            Some(set) => set,
            None => {
                let ds = squ_workload::build(key.workload, key.seed);
                let set = t.build(&ds, key.seed);
                let encoded = t.encode_set(&set);
                self.store
                    .lock()
                    .expect("store lock") // lint:allow: poisoned only if a handler already panicked
                    .save("dataset", &name, fp, &encoded);
                set
            }
        };
        let set = Arc::new(set);
        let mut cache = self.sets.lock().expect("set cache lock"); // lint:allow: poisoned only if a handler already panicked
        if cache.len() >= SET_CACHE_CAP {
            // drop an arbitrary old entry to bound memory; the store
            // still has the bytes, so eviction only costs a re-decode
            let evict = cache.keys().next().copied();
            if let Some(k) = evict {
                cache.remove(&k);
            }
        }
        Arc::clone(cache.entry(fp).or_insert(set))
    }

    /// Evaluate one key, serving the response body from the `serve`
    /// store stage when an identical request was answered before.
    pub fn eval(&self, key: &EvalKey) -> (String, CacheStatus) {
        let fp = Self::fp_serve(key);
        // the historical name for the default dialect; a `_{dialect}`
        // suffix otherwise, so dialects never clobber each other's
        // name-keyed store entries
        let mut name = format!(
            "eval_{}_{}_{}",
            key.task.short(),
            slug(key.workload.name()),
            slug(&key.model.name().replace('.', ""))
        );
        if key.dialect != "squ" {
            name.push('_');
            name.push_str(key.dialect);
        }
        if let Some(body) = self
            .store
            .lock()
            .expect("store lock") // lint:allow: poisoned only if a handler already panicked
            .load("serve", &name, fp)
        {
            return (body, CacheStatus::Hit);
        }
        let body = self.eval_cold(key);
        self.store
            .lock()
            .expect("store lock") // lint:allow: poisoned only if a handler already panicked
            .save("serve", &name, fp, &body);
        (body, CacheStatus::Miss)
    }

    fn eval_cold(&self, key: &EvalKey) -> String {
        let t = task_by_id(key.task);
        let set = self.set_for(key);
        let profile = FaultProfile::by_name(key.profile).unwrap_or_else(FaultProfile::none);
        let client = Transport::new(SimulatedModel::new(key.model), profile, key.fault_seed);
        let facts = t.call_facts(&client, DatasetId::from(key.workload), &set);

        let examples = facts.len();
        let needs_review = facts.iter().filter(|(review, _)| *review).count();
        let attempts: u64 = facts.iter().map(|(_, c)| u64::from(c.attempts)).sum();
        let exhausted = facts.iter().filter(|(_, c)| c.exhausted).count() as u64;
        let virtual_ms: u64 = facts.iter().map(|(_, c)| c.virtual_ms).sum();
        let mut fault_calls: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (_, call) in &facts {
            for kind in &call.faults {
                *fault_calls.entry(kind.name()).or_insert(0) += 1;
            }
        }
        let result = EvalResult {
            task: key.task.name().to_string(),
            workload: key.workload.name().to_string(),
            model: key.model.name().to_string(),
            profile: key.profile.to_string(),
            dialect: key.dialect.to_string(),
            seed: key.seed,
            fault_seed: key.fault_seed,
            examples,
            needs_review,
            review_rate: if examples == 0 {
                0.0
            } else {
                needs_review as f64 / examples as f64
            },
            attempts,
            exhausted,
            virtual_ms,
            faults: fault_calls
                .into_iter()
                .map(|(kind, calls)| FaultCount {
                    kind: kind.to_string(),
                    calls,
                })
                .collect(),
        };
        serde_json::to_string(&result).expect("eval result serializes") // lint:allow: plain data structs always serialize
    }

    /// The store's per-stage hit/miss table for `/statz`.
    pub fn store_stats_json(&self) -> Value {
        let store = self.store.lock().expect("store lock"); // lint:allow: poisoned only if a handler already panicked
        let stages: Vec<(String, Value)> = store
            .stats()
            .iter()
            .map(|(stage, s)| {
                (
                    stage.clone(),
                    Value::Object(vec![
                        ("hits".to_string(), Value::U64(s.hits as u64)),
                        ("misses".to_string(), Value::U64(s.misses as u64)),
                        ("bytes_written".to_string(), Value::U64(s.bytes_written)),
                    ]),
                )
            })
            .collect();
        Value::Object(stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> (tempdir::TempDir, EvalService) {
        let dir = tempdir::TempDir::new();
        let svc = EvalService::new(dir.path().join("store"));
        (dir, svc)
    }

    /// Minimal self-cleaning temp dir (std has none; test-only).
    mod tempdir {
        use std::path::{Path, PathBuf};
        use std::sync::atomic::{AtomicU64, Ordering};

        pub struct TempDir(PathBuf);

        impl TempDir {
            pub fn new() -> TempDir {
                static SEQ: AtomicU64 = AtomicU64::new(0);
                let n = SEQ.fetch_add(1, Ordering::Relaxed);
                let dir =
                    std::env::temp_dir().join(format!("squ-serve-test-{}-{n}", std::process::id()));
                std::fs::create_dir_all(&dir).expect("create temp dir");
                TempDir(dir)
            }

            pub fn path(&self) -> &Path {
                &self.0
            }
        }

        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn specs_resolve_leniently_and_validate_combinations() {
        let (_dir, svc) = service();
        let key = svc
            .resolve(&EvalSpec {
                task: "syntax".into(),
                workload: "sdss".into(),
                model: "gpt-3.5".into(),
                profile: None,
                fault_seed: None,
                seed: None,
                dialect: None,
            })
            .expect("resolves");
        assert_eq!(key.task, TaskId::Syntax);
        assert_eq!(key.workload, Workload::Sdss);
        assert_eq!(key.model, ModelId::Gpt35);
        assert_eq!(key.profile, "none");
        assert_eq!(key.seed, PAPER_SEED);

        // paper names work too
        assert!(svc
            .resolve(&EvalSpec {
                task: "syntax_error".into(),
                workload: "Join-Order".into(),
                model: "MistralAI".into(),
                profile: Some("heavy".into()),
                fault_seed: Some(7),
                seed: Some(11),
                dialect: None,
            })
            .is_ok());

        // perf only runs on SDSS
        let err = svc
            .resolve(&EvalSpec {
                task: "perf".into(),
                workload: "spider".into(),
                model: "GPT4".into(),
                profile: None,
                fault_seed: None,
                seed: None,
                dialect: None,
            })
            .expect_err("inadmissible combination");
        assert_eq!(err.status, 400);

        for (task, workload, model, profile) in [
            ("nope", "sdss", "GPT4", None),
            ("syntax", "nope", "GPT4", None),
            ("syntax", "sdss", "nope", None),
            ("syntax", "sdss", "GPT4", Some("nope".to_string())),
        ] {
            let err = svc
                .resolve(&EvalSpec {
                    task: task.into(),
                    workload: workload.into(),
                    model: model.into(),
                    profile,
                    fault_seed: None,
                    seed: None,
                    dialect: None,
                })
                .expect_err("bad spec");
            assert_eq!(err.status, 400);
        }
    }

    #[test]
    fn suite_expansion_is_deterministic_and_respects_restrictions() {
        let (_dir, svc) = service();
        let spec = SuiteSpec {
            tasks: Some(vec!["syntax".into(), "perf".into()]),
            models: Some(vec!["GPT4".into(), "Gemini".into()]),
            workloads: Some(vec!["sdss".into()]),
            profile: None,
            fault_seed: None,
            seed: None,
            dialect: None,
        };
        let keys = svc.expand_suite(&spec).expect("expands");
        // syntax×sdss×2 models + perf×sdss×2 models
        assert_eq!(keys.len(), 4);
        assert!(keys.iter().all(|k| k.workload == Workload::Sdss));

        // an over-restricted spec is a 400, not an empty stream
        let none = svc.expand_suite(&SuiteSpec {
            tasks: Some(vec!["explain".into()]),
            models: None,
            workloads: Some(vec!["sdss".into()]),
            profile: None,
            fault_seed: None,
            seed: None,
            dialect: None,
        });
        assert!(matches!(none, Err(r) if r.status == 400));
    }

    #[test]
    fn warm_eval_is_a_byte_identical_store_hit() {
        let (_dir, svc) = service();
        let key = svc
            .resolve(&EvalSpec {
                task: "syntax".into(),
                workload: "joinorder".into(),
                model: "Llama3".into(),
                profile: Some("light".into()),
                fault_seed: Some(3),
                seed: Some(5),
                dialect: None,
            })
            .expect("resolves");
        let (cold, status_cold) = svc.eval(&key);
        assert_eq!(status_cold, CacheStatus::Miss);
        let (warm, status_warm) = svc.eval(&key);
        assert_eq!(status_warm, CacheStatus::Hit);
        assert_eq!(cold, warm, "warm body must be byte-identical");

        let doc: Value = serde_json::from_str(&cold).expect("result parses");
        assert_eq!(doc["task"], "syntax_error");
        assert_eq!(doc["workload"], "Join-Order");
        assert_eq!(doc["model"], "Llama3");
        assert!(doc["examples"].as_u64().expect("examples") > 0);

        // a different fault seed is a different coordinate → cold again
        let other = EvalKey {
            fault_seed: 4,
            ..key
        };
        let (_, status_other) = svc.eval(&other);
        assert_eq!(status_other, CacheStatus::Miss);
    }

    #[test]
    fn dialect_is_validated_echoed_and_keys_the_cache() {
        let (_dir, svc) = service();

        // unknown dialect → 400 listing the valid names
        let err = svc
            .resolve(&EvalSpec {
                task: "syntax".into(),
                workload: "sdss".into(),
                model: "GPT4".into(),
                profile: None,
                fault_seed: None,
                seed: None,
                dialect: Some("oracle".into()),
            })
            .expect_err("unknown dialect");
        assert_eq!(err.status, 400);
        assert!(err.detail.contains("unknown dialect"), "{}", err.detail);
        for name in Dialect::NAMES {
            assert!(err.detail.contains(name), "{} missing {name}", err.detail);
        }

        // every known dialect resolves, case-insensitively
        for name in Dialect::NAMES {
            let key = svc
                .resolve(&EvalSpec {
                    task: "syntax".into(),
                    workload: "joinorder".into(),
                    model: "GPT4".into(),
                    profile: None,
                    fault_seed: None,
                    seed: Some(5),
                    dialect: Some(name.to_ascii_uppercase()),
                })
                .expect("known dialect resolves");
            assert_eq!(key.dialect, name);
        }

        // omitted dialect defaults to squ and is echoed in the body
        let base = svc
            .resolve(&EvalSpec {
                task: "syntax".into(),
                workload: "joinorder".into(),
                model: "GPT4".into(),
                profile: None,
                fault_seed: None,
                seed: Some(5),
                dialect: None,
            })
            .expect("resolves");
        assert_eq!(base.dialect, "squ");
        let (body, status) = svc.eval(&base);
        assert_eq!(status, CacheStatus::Miss);
        let doc: Value = serde_json::from_str(&body).expect("parses");
        assert_eq!(doc["dialect"], "squ");

        // a different dialect is a different cache coordinate
        let tsql = EvalKey {
            dialect: "tsql",
            ..base
        };
        let (body_tsql, status_tsql) = svc.eval(&tsql);
        assert_eq!(status_tsql, CacheStatus::Miss);
        let doc: Value = serde_json::from_str(&body_tsql).expect("parses");
        assert_eq!(doc["dialect"], "tsql");

        // and each dialect hits its own warm entry independently
        assert_eq!(svc.eval(&base).1, CacheStatus::Hit);
        assert_eq!(svc.eval(&tsql).1, CacheStatus::Hit);
    }

    #[test]
    fn fresh_service_reuses_the_on_disk_store() {
        let dir = tempdir::TempDir::new();
        let root = dir.path().join("store");
        let key = {
            let svc = EvalService::new(&root);
            let key = svc
                .resolve(&EvalSpec {
                    task: "syntax".into(),
                    workload: "joinorder".into(),
                    model: "GPT4".into(),
                    profile: None,
                    fault_seed: None,
                    seed: Some(5),
                    dialect: None,
                })
                .expect("resolves");
            svc.eval(&key);
            key
        };
        // a second service (fresh process, same store root) hits warm
        let svc2 = EvalService::new(&root);
        let (_, status) = svc2.eval(&key);
        assert_eq!(status, CacheStatus::Hit);
    }
}
