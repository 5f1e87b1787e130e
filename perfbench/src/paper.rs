//! `paper`: a cold reproduction — build the paper's suite, then run all
//! twenty experiments, with no store. This is what a researcher running
//! `repro` waits for; equivalence derivation on witness databases
//! dominates it.
//!
//! The suite is always built from the paper's seed, as `repro` builds it:
//! suites of other seeds differ in cost by tens of percent, which would
//! drown any change this workload is meant to show. The workload seed
//! orders the experiments.

use crate::{layers, trace, Clock, Config, Outcome, Rng};
use squ::{run_experiment, ExperimentId, Suite, PAPER_SEED};
use squ_llm::{DirectClient, ModelId, SimulatedModel};
use squ_workload::Workload;

/// Digest of all twenty artifacts of the suite built from [`PAPER_SEED`],
/// in paper order.
const PAPER_DIGEST: &str = "3cc4b0f1535fdbb5";

/// Sampled workload sizes, fixed by the paper for every seed.
const SIZES: [(Workload, usize); 4] = [
    (Workload::Sdss, 285),
    (Workload::SqlShare, 250),
    (Workload::JoinOrder, 157),
    (Workload::Spider, 200),
];

pub(crate) fn run(cfg: &Config, mut clock: Clock) -> Outcome {
    let mut out = Outcome::default();
    let mut order = ExperimentId::ALL.to_vec();
    Rng(cfg.seed).shuffle(&mut order);
    clock.begin_timed();
    out.setup_s = clock.setup_s();
    if cfg.setup_only {
        return out;
    }
    let suite = trace::time("core.suite", || Suite::new_with_jobs(PAPER_SEED, cfg.jobs));
    let mut artifacts: Vec<_> = order
        .iter()
        .map(|id| {
            (
                *id,
                trace::time("core.experiment", || run_experiment(&suite, *id)),
            )
        })
        .collect();
    out.wall_s = clock.timed_s();
    out.latencies_ms = vec![Some(out.wall_s * 1e3)];
    out.peak_rss_kb = squ::synth::peak_rss_kb();
    layers::harvest_program_timing();

    for (w, n) in SIZES {
        let got = suite.dataset(w).len();
        out.check(got == n, || {
            format!("{} has {got} queries, not {n}", w.name())
        });
    }
    artifacts.sort_by_key(|(id, _)| ExperimentId::ALL.iter().position(|e| e == id));
    let mut parts = Vec::new();
    for (_, a) in &artifacts {
        out.check(!a.body.trim().is_empty(), || {
            format!("artifact {} is empty", a.id)
        });
        parts.extend([a.id.as_str(), a.title.as_str(), a.body.as_str()]);
        parts.push(a.csv.as_deref().unwrap_or(""));
    }
    out.digest = crate::digest("perfbench-paper", parts);
    let got = out.digest.clone();
    out.check(got == PAPER_DIGEST, || {
        format!("artifact digest {got} != pinned {PAPER_DIGEST}")
    });
    out.facts.insert("artifacts".into(), artifacts.len() as f64);

    if trace::enabled() {
        let mislabeled = replay(&suite);
        out.check(mislabeled.is_empty(), || {
            format!("equivalence labels contradicted on their witnesses: {mislabeled:?}")
        });
    }
    out
}

/// Engine, front-end and model-pipeline replays over the built suite;
/// returns the equivalence pairs whose label the replay contradicts.
fn replay(suite: &Suite) -> Vec<String> {
    let all = [
        suite.dataset(Workload::Sdss),
        suite.dataset(Workload::SqlShare),
        suite.dataset(Workload::JoinOrder),
        suite.dataset(Workload::Spider),
    ];
    layers::front_replay(&all, false);
    layers::witness_replay(&layers::schemas_of(&all[..3]));

    // the equivalence pairs on the witness batches their labels were
    // verified on: a pair is labeled equivalent exactly when both sides
    // agree on every witness, which also proves the replay found the
    // batches the dataset build used
    let mut mislabeled = Vec::new();
    {
        let _g = trace::span("replay.equiv");
        for w in [Workload::Sdss, Workload::SqlShare, Workload::JoinOrder] {
            for ex in suite.equiv_for(w) {
                let (Ok(q1), Ok(q2)) = (
                    squ_parser::parse_query(&ex.sql1),
                    squ_parser::parse_query(&ex.sql2),
                ) else {
                    mislabeled.push(ex.query_id.clone());
                    continue;
                };
                let schema = squ_workload::schema_for(w, &ex.schema_name);
                let dbs = squ_engine::witness_batch_cached(
                    &schema,
                    layers::witness_seed(&ex.schema_name),
                );
                let mut agreed = true;
                for db in dbs.iter() {
                    match (layers::execute(&q1, db), layers::execute(&q2, db)) {
                        (Ok((r1, _)), Ok((r2, _))) => agreed &= r1.result_equal(&r2),
                        _ => agreed = false,
                    }
                }
                if agreed != ex.equivalent {
                    mislabeled.push(ex.query_id.clone());
                }
            }
        }
    }

    let _g = trace::span("replay.models");
    for id in ModelId::ALL {
        let model = SimulatedModel::new(id);
        let client = DirectClient(&model);
        for set in suite.sets() {
            layers::replay_set(
                set.task().id(),
                set.examples(),
                &client,
                set.workload().into(),
            );
        }
    }
    mislabeled
}
