//! End-to-end pipeline checks: extraction robustness, artifact
//! completeness, and the prompt-tuning loop.

use squ::{run_experiment, ExperimentId, Suite, PAPER_SEED};
use squ_eval::BinaryCounts;
use squ_llm::{run_task_direct, DatasetId, ModelId, SimulatedModel};
use squ_tasks::{EquivTask, PerfTask, SyntaxTask, TokenTask};
use squ_workload::Workload;
use std::sync::OnceLock;

fn suite() -> &'static Suite {
    static SUITE: OnceLock<Suite> = OnceLock::new();
    SUITE.get_or_init(|| Suite::new(PAPER_SEED))
}

/// The extractor parses (almost) every simulator response — the automated
/// fraction of the paper's §3.4 output handling.
#[test]
fn extraction_review_rate_is_low() {
    let mut total = 0usize;
    let mut review = 0usize;
    for m in ModelId::ALL {
        for w in Workload::task_workloads() {
            for o in run_task_direct(
                &SyntaxTask,
                &SimulatedModel::new(m),
                DatasetId::from(w),
                suite().syntax_for(w),
            ) {
                total += 1;
                review += o.needs_review as usize;
            }
            for o in run_task_direct(
                &TokenTask,
                &SimulatedModel::new(m),
                DatasetId::from(w),
                suite().tokens_for(w),
            ) {
                total += 1;
                review += o.needs_review as usize;
            }
            for o in run_task_direct(
                &EquivTask,
                &SimulatedModel::new(m),
                DatasetId::from(w),
                suite().equiv_for(w),
            ) {
                total += 1;
                review += o.needs_review as usize;
            }
        }
        for o in run_task_direct(
            &PerfTask,
            &SimulatedModel::new(m),
            DatasetId::Sdss,
            suite().perf(),
        ) {
            total += 1;
            review += o.needs_review as usize;
        }
    }
    let rate = review as f64 / total as f64;
    assert!(
        rate < 0.01,
        "{review}/{total} responses needed manual review ({rate:.3})"
    );
}

/// Every positive answer on the token task comes with a type and a
/// position the downstream metrics can consume.
#[test]
fn token_responses_carry_type_and_position() {
    let outcomes = run_task_direct(
        &TokenTask,
        &SimulatedModel::new(ModelId::Gpt4),
        DatasetId::from(Workload::Sdss),
        suite().tokens_for(Workload::Sdss),
    );
    for o in outcomes.iter().filter(|o| o.said_missing) {
        assert!(
            o.said_type.is_some(),
            "{}: no type extracted",
            o.example.query_id
        );
        assert!(
            o.said_position.is_some(),
            "{}: no position extracted",
            o.example.query_id
        );
    }
}

/// All twenty artifacts build, are titled, and are non-empty; tabular ones
/// carry CSV.
#[test]
fn all_artifacts_complete() {
    for id in ExperimentId::ALL {
        let a = run_experiment(suite(), id);
        assert_eq!(a.id, id.slug());
        assert!(!a.title.is_empty());
        assert!(a.body.len() > 50, "{}: body too small", a.id);
        if a.id.starts_with("table") {
            let csv = a
                .csv
                .as_deref()
                .unwrap_or_else(|| panic!("{}: no csv", a.id));
            assert!(csv.lines().count() >= 3, "{}: csv too small", a.id);
        }
    }
}

/// The prompt-tuning harness selects the published prompt when scored by
/// real mock-trial accuracy on a labeled subset (§3.4).
#[test]
fn prompt_tuning_runs_real_mock_trials() {
    use squ_llm::{prompts, Task};
    let examples: Vec<_> = suite()
        .syntax_for(Workload::Sdss)
        .iter()
        .take(60)
        .cloned()
        .collect();
    let model = SimulatedModel::new(ModelId::Gpt35);
    let tuned = prompts::tune_prompt(Task::Syntax, |instruction| {
        // mock experiment: run the candidate prompt over the subset and
        // measure binary accuracy
        let outcomes = {
            // re-render requests with the candidate instruction
            examples
                .iter()
                .map(|e| {
                    let req = squ_llm::Request {
                        task: Task::Syntax,
                        dataset: squ_llm::DatasetId::Sdss,
                        example_id: format!("tune-{}", e.query_id),
                        prompt: prompts::render_prompt(instruction, &e.sql),
                        truth: squ_llm::GroundTruth::Syntax {
                            has_error: e.has_error,
                            error_type: e.error_type.map(|t| t.label().to_string()),
                        },
                        props: e.props.clone(),
                    };
                    let resp = squ_llm::LanguageModel::respond(&model, &req);
                    let said = squ_llm::extract_binary(&resp).value().unwrap_or(false);
                    (e.has_error, said)
                })
                .collect::<Vec<_>>()
        };
        BinaryCounts::from_pairs(outcomes).accuracy()
    });
    assert!(tuned.score > 0.6, "winner scored only {:.2}", tuned.score);
    assert_eq!(tuned.trials.len(), 3);
}

/// A different master seed produces a different but equally healthy suite.
#[test]
fn alternate_seed_suite_is_healthy() {
    let alt = Suite::new(7);
    assert_eq!(alt.sdss.len(), 285);
    assert_ne!(
        alt.sdss.queries[0].sql,
        suite().sdss.queries[0].sql,
        "different seeds should sample different queries"
    );
    // GPT4 still wins on the alternate seed
    let g4 = {
        let o = run_task_direct(
            &SyntaxTask,
            &SimulatedModel::new(ModelId::Gpt4),
            DatasetId::from(Workload::Sdss),
            alt.syntax_for(Workload::Sdss),
        );
        BinaryCounts::from_pairs(o.iter().map(|x| (x.example.has_error, x.said_error))).f1()
    };
    let gem = {
        let o = run_task_direct(
            &SyntaxTask,
            &SimulatedModel::new(ModelId::Gemini),
            DatasetId::from(Workload::Sdss),
            alt.syntax_for(Workload::Sdss),
        );
        BinaryCounts::from_pairs(o.iter().map(|x| (x.example.has_error, x.said_error))).f1()
    };
    assert!(g4 > gem, "seed 7: GPT4 {g4:.2} vs Gemini {gem:.2}");
}
