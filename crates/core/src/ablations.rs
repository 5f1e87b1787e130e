//! Ablation studies and paper-future-work extensions.
//!
//! Beyond the paper's own artifacts, these experiments probe the
//! benchmark's design choices (DESIGN.md §5/§7) and prototype the §6
//! future-work directions:
//!
//! * [`ablation_tilt`] — turn the simulators' complexity tilt off and show
//!   the Figure-6 FN-vs-TP length gap collapse (the slicing figures are
//!   emergent, not hard-coded);
//! * [`ablation_subtype`] — turn subtype weights off and show Figure 7's
//!   per-type difficulty ordering flatten;
//! * [`ablation_witness`] — vary the witness-batch size used for
//!   differential label verification and measure how many non-equivalence
//!   labels a smaller batch would miss (why the benchmark uses 5);
//! * [`ext_fewshot`] — the paper's §6 future work: few-shot and fine-tuned
//!   operating points modeled as error-rate reductions, re-run through the
//!   full pipeline.

use crate::render::{f2, TextTable};
use crate::suite::Suite;
use crate::Artifact;
use squ_eval::{BinaryCounts, Cell, PropertySlice, SubtypeBreakdown};
use squ_llm::{
    run_task, run_task_direct, DatasetId, FaultKind, FaultProfile, ModelId, SimConfig,
    SimulatedModel, Transport,
};
use squ_tasks::{EquivTask, ExplainTask, SyntaxTask, TokenTask};
use squ_workload::Workload;

/// Identifier of one ablation/extension experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AblationId {
    Tilt,
    Subtype,
    Witness,
    FewShot,
    Baselines,
    Rubric,
    Prompt,
    Faults,
}

impl AblationId {
    /// All ablation/extension experiments.
    pub const ALL: [AblationId; 8] = [
        AblationId::Tilt,
        AblationId::Subtype,
        AblationId::Witness,
        AblationId::FewShot,
        AblationId::Baselines,
        AblationId::Rubric,
        AblationId::Prompt,
        AblationId::Faults,
    ];

    /// Slug for `--only` filters and file names.
    pub fn slug(&self) -> &'static str {
        match self {
            AblationId::Tilt => "ablation-tilt",
            AblationId::Subtype => "ablation-subtype",
            AblationId::Witness => "ablation-witness",
            AblationId::FewShot => "ext-fewshot",
            AblationId::Baselines => "ext-baselines",
            AblationId::Rubric => "ext-rubric",
            AblationId::Prompt => "ablation-prompt",
            AblationId::Faults => "ext-faults",
        }
    }

    /// Parse a slug.
    pub fn from_slug(s: &str) -> Option<AblationId> {
        Self::ALL.iter().copied().find(|a| a.slug() == s)
    }
}

/// Run one ablation/extension.
pub fn run_ablation(suite: &Suite, id: AblationId) -> Artifact {
    match id {
        AblationId::Tilt => ablation_tilt(suite),
        AblationId::Subtype => ablation_subtype(suite),
        AblationId::Witness => ablation_witness(suite),
        AblationId::FewShot => ext_fewshot(suite),
        AblationId::Baselines => ext_baselines(suite),
        AblationId::Rubric => ext_rubric(suite),
        AblationId::Prompt => ablation_prompt(suite),
        AblationId::Faults => ext_faults(suite),
    }
}

/// Run all ablations/extensions.
pub fn run_all_ablations(suite: &Suite) -> Vec<Artifact> {
    AblationId::ALL
        .iter()
        .map(|id| run_ablation(suite, *id))
        .collect()
}

/// Complexity-tilt ablation: FN-vs-TP word-count gap with tilt on / off.
pub fn ablation_tilt(suite: &Suite) -> Artifact {
    let mut t = TextTable::new(&["Model", "tilt", "TP avg wc", "FN avg wc", "gap", "F1"]);
    for m in [ModelId::Llama3, ModelId::Gemini] {
        for (label, cfg) in [
            ("on", SimConfig::default()),
            (
                "off",
                SimConfig {
                    tilt_scale: 0.0,
                    ..SimConfig::default()
                },
            ),
        ] {
            let model = SimulatedModel::with_config(m, cfg);
            let outcomes = run_task_direct(
                &SyntaxTask,
                &model,
                DatasetId::from(Workload::Sdss),
                suite.syntax_for(Workload::Sdss),
            );
            let slice = PropertySlice::build(
                "word_count",
                outcomes.iter().map(|o| {
                    (
                        o.example.has_error,
                        o.said_error,
                        o.example.props.word_count as f64,
                    )
                }),
            );
            let counts = BinaryCounts::from_pairs(
                outcomes.iter().map(|o| (o.example.has_error, o.said_error)),
            );
            let tp = slice.cell(Cell::Tp).average;
            let fn_ = slice.cell(Cell::Fn).average;
            t.row(&[
                m.name().to_string(),
                label.to_string(),
                f2(tp),
                f2(fn_),
                f2(fn_ - tp),
                f2(counts.f1()),
            ]);
        }
    }
    Artifact {
        id: AblationId::Tilt.slug().to_string(),
        title: "Ablation: complexity tilt — the Figure-6 length gap is emergent".into(),
        csv: Some(t.to_csv()),
        body: format!(
            "{}\nWith the tilt off, aggregate F1 is nearly unchanged but the\nFN-vs-TP length gap collapses: the slicing figures come from the\nmechanism, not from per-figure tuning.\n",
            t.render()
        ),
    }
}

/// Subtype-weight ablation: per-error-type FN-rate spread with weights on
/// and off (pooled over the five models, SDSS).
pub fn ablation_subtype(suite: &Suite) -> Artifact {
    let mut t = TextTable::new(&["weights", "error type", "positives", "FN rate"]);
    let mut spreads = Vec::new();
    for (label, cfg) in [
        ("on", SimConfig::default()),
        (
            "off",
            SimConfig {
                subtype_weights: false,
                ..SimConfig::default()
            },
        ),
    ] {
        let mut pairs = Vec::new();
        for m in ModelId::ALL {
            let model = SimulatedModel::with_config(m, cfg);
            let outcomes = run_task_direct(
                &SyntaxTask,
                &model,
                DatasetId::from(Workload::Sdss),
                suite.syntax_for(Workload::Sdss),
            );
            for o in outcomes {
                if let Some(ty) = o.example.error_type {
                    pairs.push((ty.label().to_string(), o.said_error));
                }
            }
        }
        let b = SubtypeBreakdown::build(pairs.iter().map(|(l, d)| (l.as_str(), *d)));
        let rates: Vec<f64> = b.rows.iter().map(|r| r.fn_rate).collect();
        let spread = rates.iter().cloned().fold(f64::MIN, f64::max)
            - rates.iter().cloned().fold(f64::MAX, f64::min);
        spreads.push((label, spread));
        for r in &b.rows {
            t.row(&[
                label.to_string(),
                r.subtype.clone(),
                r.positives.to_string(),
                f2(r.fn_rate),
            ]);
        }
    }
    Artifact {
        id: AblationId::Subtype.slug().to_string(),
        title: "Ablation: subtype difficulty weights (Figure 7 calibration)".into(),
        csv: Some(t.to_csv()),
        body: format!(
            "{}\nFN-rate spread across error types: on = {:.2}, off = {:.2}.\n",
            t.render(),
            spreads[0].1,
            spreads[1].1
        ),
    }
}

/// Witness-count ablation: how many of the benchmark's non-equivalent
/// pairs would a smaller witness batch fail to distinguish?
pub fn ablation_witness(suite: &Suite) -> Artifact {
    use squ_engine::Prepared;
    let mut t = TextTable::new(&["witnesses", "pairs checked", "distinguished", "missed %"]);
    // fresh witness batches, graded sizes
    for n in [1usize, 2, 3, 5] {
        let mut checked = 0usize;
        let mut distinguished = 0usize;
        for w in Workload::task_workloads() {
            for e in suite
                .equiv_for(w)
                .iter()
                .filter(|e| !e.equivalent)
                .step_by(3)
            {
                let (Ok(q1), Ok(q2)) = (
                    squ_parser::parse_query(&e.sql1),
                    squ_parser::parse_query(&e.sql2),
                ) else {
                    continue;
                };
                let schema = squ_workload::schema_for(w, &e.schema_name);
                let witnesses = squ_engine::witness_batch(&schema, 0xAB1A ^ checked as u64);
                let (mut p1, mut p2) = (Prepared::new(&q1), Prepared::new(&q2));
                let mut differs = false;
                let mut failed = false;
                for db in witnesses.iter().take(n) {
                    match (p1.execute(db), p2.execute(db)) {
                        (Ok((r1, _)), Ok((r2, _))) => {
                            if !r1.result_equal(&r2) {
                                differs = true;
                                break;
                            }
                        }
                        _ => {
                            failed = true;
                            break;
                        }
                    }
                }
                if failed {
                    continue;
                }
                checked += 1;
                distinguished += differs as usize;
            }
        }
        let missed = 100.0 * (checked - distinguished) as f64 / checked.max(1) as f64;
        t.row(&[
            n.to_string(),
            checked.to_string(),
            distinguished.to_string(),
            f2(missed),
        ]);
    }
    Artifact {
        id: AblationId::Witness.slug().to_string(),
        title: "Ablation: witness-batch size for differential label verification".into(),
        csv: Some(t.to_csv()),
        body: format!(
            "{}\nSingle witnesses miss a meaningful share of genuine\nnon-equivalences (a boundary literal change may not be exercised by\none random instance); five graded witnesses drive the miss rate toward\nzero, which is why the benchmark verifies on a batch.\n",
            t.render()
        ),
    }
}

/// §6 future-work extension: few-shot / fine-tuned operating points.
pub fn ext_fewshot(suite: &Suite) -> Artifact {
    let mut t = TextTable::new(&["Model", "zero-shot F1", "few-shot F1", "fine-tuned F1"]);
    for m in ModelId::ALL {
        let mut cells = vec![m.name().to_string()];
        for cfg in [
            SimConfig::default(),
            SimConfig::few_shot(),
            SimConfig::fine_tuned(),
        ] {
            let model = SimulatedModel::with_config(m, cfg);
            let outcomes = run_task_direct(
                &SyntaxTask,
                &model,
                DatasetId::from(Workload::Sdss),
                suite.syntax_for(Workload::Sdss),
            );
            let c = BinaryCounts::from_pairs(
                outcomes.iter().map(|o| (o.example.has_error, o.said_error)),
            );
            cells.push(f2(c.f1()));
        }
        t.row(&cells);
    }
    Artifact {
        id: AblationId::FewShot.slug().to_string(),
        title: "Extension (§6 future work): few-shot / fine-tuned operating points, syntax_error on SDSS"
            .into(),
        csv: Some(t.to_csv()),
        body: format!(
            "{}\nModeled as error-rate reductions (×0.55 few-shot, ×0.30\nfine-tuned) applied uniformly; the pipeline, prompts, and extraction\nare identical to the zero-shot runs. The projected ceiling narrows the\ngap between models — the paper's hypothesis that targeted adaptation\nmitigates the complexity limitations.\n",
            t.render()
        ),
    }
}

/// Classical baselines vs the LLMs: a majority-class answerer and a
/// parser/binder oracle, run through the *same* prompt → response →
/// extraction pipeline on SDSS syntax_error and miss_token.
///
/// The oracle is the ceiling by construction (the benchmark's labels are
/// verified by the same analysis); the interesting reading is the gap
/// between it and the best LLM — the deterministic-tooling headroom the
/// paper's data-management framing asks about.
pub fn ext_baselines(suite: &Suite) -> Artifact {
    use squ_llm::{LanguageModel, Request};

    struct AlwaysNo;
    impl LanguageModel for AlwaysNo {
        fn name(&self) -> &'static str {
            "majority-no"
        }
        fn respond(&self, _req: &Request) -> String {
            "No.".to_string()
        }
    }

    /// Answers syntax questions from the parser + binder; missing-token
    /// questions from parse success/failure with the error position.
    struct ParserOracle;
    impl LanguageModel for ParserOracle {
        fn name(&self) -> &'static str {
            "parser-oracle"
        }
        fn respond(&self, req: &Request) -> String {
            let sql = req.prompt.lines().last().unwrap_or("");
            let schema = squ_schema::schemas::sdss();
            match req.task {
                squ_llm::Task::Syntax => match squ_parser::parse(sql) {
                    Err(e) => format!("Yes, the query contains a syntax error: {e}."),
                    Ok(stmt) => match squ_schema::analyze(&stmt, &schema).first() {
                        Some(d) => format!(
                            "Yes, the query contains a syntax error. {} (error type: {}).",
                            d.message,
                            d.kind.paper_label().unwrap_or("other")
                        ),
                        None => "No, the query does not contain any syntax errors.".to_string(),
                    },
                },
                squ_llm::Task::MissToken => match squ_parser::parse(sql) {
                    Ok(stmt) => {
                        // a parseable query may still be semantically broken
                        // after token removal (e.g. a deleted alias)
                        if squ_schema::analyze(&stmt, &schema).is_empty() {
                            "No, nothing seems to be missing from this query.".to_string()
                        } else {
                            "Yes, a word is missing. The missing word is a column; most likely \"x\". Position: 0.".to_string()
                        }
                    }
                    Err(e) => {
                        let pos = e.word_index().unwrap_or(0);
                        format!(
                            "Yes, a word is missing. The missing word is a keyword; most likely \"FROM\". Position: {pos}."
                        )
                    }
                },
                _ => "No.".to_string(),
            }
        }
    }

    let mut t = TextTable::new(&["Task", "Model", "P", "R", "F1"]);
    let sdss_syntax = suite.syntax_for(Workload::Sdss);
    let sdss_tokens = suite.tokens_for(Workload::Sdss);
    let ds = DatasetId::from(Workload::Sdss);

    let mut syntax_row = |name: &str, model: &dyn squ_llm::LanguageModel| {
        let outcomes = run_task_direct(&SyntaxTask, model, ds, sdss_syntax);
        let c =
            BinaryCounts::from_pairs(outcomes.iter().map(|o| (o.example.has_error, o.said_error)));
        t.row(&[
            "syntax_error".to_string(),
            name.to_string(),
            f2(c.precision()),
            f2(c.recall()),
            f2(c.f1()),
        ]);
    };
    syntax_row("GPT4", &SimulatedModel::new(ModelId::Gpt4));
    syntax_row("Gemini", &SimulatedModel::new(ModelId::Gemini));
    syntax_row("majority-no", &AlwaysNo);
    syntax_row("parser-oracle", &ParserOracle);

    let mut token_row = |name: &str, model: &dyn squ_llm::LanguageModel| {
        let outcomes = run_task_direct(&TokenTask, model, ds, sdss_tokens);
        let c = BinaryCounts::from_pairs(
            outcomes
                .iter()
                .map(|o| (o.example.has_missing, o.said_missing)),
        );
        t.row(&[
            "miss_token".to_string(),
            name.to_string(),
            f2(c.precision()),
            f2(c.recall()),
            f2(c.f1()),
        ]);
    };
    token_row("GPT4", &SimulatedModel::new(ModelId::Gpt4));
    token_row("Gemini", &SimulatedModel::new(ModelId::Gemini));
    token_row("majority-no", &AlwaysNo);
    token_row("parser-oracle", &ParserOracle);

    // query_equiv: the canonical-normalizer baseline answers "equivalent"
    // iff the two queries' normal forms coincide — sound (perfect
    // precision) but incomplete (join↔subquery rewrites escape it)
    {
        let pairs = suite.equiv_for(Workload::Sdss);
        let mut normalizer = BinaryCounts::default();
        for e in pairs {
            let (Ok(q1), Ok(q2)) = (
                squ_parser::parse_query(&e.sql1),
                squ_parser::parse_query(&e.sql2),
            ) else {
                continue;
            };
            normalizer.record(e.equivalent, squ_tasks::normal_forms_equal(&q1, &q2));
        }
        t.row(&[
            "query_equiv".to_string(),
            "normalizer".to_string(),
            f2(normalizer.precision()),
            f2(normalizer.recall()),
            f2(normalizer.f1()),
        ]);
        let outcomes = run_task_direct(&EquivTask, &SimulatedModel::new(ModelId::Gpt4), ds, pairs);
        let c = BinaryCounts::from_pairs(
            outcomes
                .iter()
                .map(|o| (o.example.equivalent, o.said_equivalent)),
        );
        t.row(&[
            "query_equiv".to_string(),
            "GPT4".to_string(),
            f2(c.precision()),
            f2(c.recall()),
            f2(c.f1()),
        ]);
    }

    Artifact {
        id: AblationId::Baselines.slug().to_string(),
        title: "Extension: classical baselines through the same pipeline (SDSS)".into(),
        csv: Some(t.to_csv()),
        body: format!(
            "{}\nThe parser/binder oracle tops every LLM on the detection tasks, and\nthe canonical normalizer inverts the LLMs' equivalence error profile:\nperfect precision (normal-form equality is sound) at reduced recall\n(join↔subquery rewrites escape normalization). miss_token is not fully\nsaturated by the oracle either: some deletions (e.g. an alias token)\nleave a parseable query whose damage is semantic.\n",
            t.render()
        ),
    }
}

/// Quantitative companion to the paper's qualitative §4.5: mean rubric
/// score and per-fact-group miss rates over the full 200-query Spider set.
pub fn ext_rubric(suite: &Suite) -> Artifact {
    let mut t = TextTable::new(&[
        "Model",
        "mean score",
        "complete %",
        "missed attrs %",
        "missed tables %",
        "wrong ordering %",
    ]);
    for m in ModelId::ALL {
        let outcomes = run_task_direct(
            &ExplainTask,
            &SimulatedModel::new(m),
            DatasetId::Spider,
            suite.explain(),
        );
        let n = outcomes.len() as f64;
        let mean = outcomes.iter().map(|o| o.rubric.score).sum::<f64>() / n;
        let complete = outcomes.iter().filter(|o| o.rubric.is_complete()).count() as f64 / n;
        let miss = |needle: &str| {
            outcomes
                .iter()
                .filter(|o| o.rubric.missing.iter().any(|ms| ms.contains(needle)))
                .count() as f64
                / n
        };
        t.row(&[
            m.name().to_string(),
            f2(mean),
            f2(100.0 * complete),
            f2(100.0 * miss("selected attributes")),
            f2(100.0 * miss("table context")),
            f2(100.0 * miss("ordering direction")),
        ]);
    }
    Artifact {
        id: AblationId::Rubric.slug().to_string(),
        title: "Extension: quantitative rubric over the full query_exp set (Spider, 200 queries)"
            .into(),
        csv: Some(t.to_csv()),
        body: format!(
            "{}\nThe paper's case-study failure modes at corpus scale: attribute\ndropping dominates for the mid-tier models, table-context loss and\nordering misreads separate Gemini from the rest.\n",
            t.render()
        ),
    }
}

/// Prompt-variant ablation: mock-trial accuracy of each candidate prompt
/// (§3.4's tuning loop) per model on a 60-example SDSS syntax subset.
pub fn ablation_prompt(suite: &Suite) -> Artifact {
    use squ_llm::{prompts, GroundTruth, LanguageModel, Request, Task};
    let examples: Vec<_> = suite
        .syntax_for(Workload::Sdss)
        .iter()
        .take(60)
        .cloned()
        .collect();
    let mut t = TextTable::new(&["Model", "candidate", "mock accuracy", "selected"]);
    for m in [ModelId::Gpt4, ModelId::Gpt35, ModelId::Gemini] {
        let model = SimulatedModel::new(m);
        let tuned = prompts::tune_prompt(Task::Syntax, |instruction| {
            let pairs = examples.iter().map(|e| {
                let req = Request {
                    task: Task::Syntax,
                    dataset: squ_llm::DatasetId::Sdss,
                    example_id: format!("prompt-trial-{}", e.query_id),
                    prompt: prompts::render_prompt(instruction, &e.sql),
                    truth: GroundTruth::Syntax {
                        has_error: e.has_error,
                        error_type: e.error_type.map(|ty| ty.label().to_string()),
                    },
                    props: e.props.clone(),
                };
                let resp = model.respond(&req);
                (
                    e.has_error,
                    squ_llm::extract_binary(&resp).value().unwrap_or(false),
                )
            });
            BinaryCounts::from_pairs(pairs).accuracy()
        });
        for (cand, score) in &tuned.trials {
            let short: String = cand.chars().take(48).collect();
            t.row(&[
                m.name().to_string(),
                format!("{short}…"),
                f2(*score),
                if *cand == tuned.instruction { "*" } else { "" }.to_string(),
            ]);
        }
    }
    Artifact {
        id: AblationId::Prompt.slug().to_string(),
        title: "Ablation: prompt-candidate mock trials (§3.4 tuning loop)".into(),
        csv: Some(t.to_csv()),
        body: format!(
            "{}\nThe paper selected its prompts by exactly this procedure; the\nselected candidate (*) is the published one or statistically tied\nwith it.\n",
            t.render()
        ),
    }
}

/// Extension: the syntax task under an unreliable transport. Each model
/// is re-run on SDSS through a fault-injecting [`Transport`] at every
/// profile; the table shows how much of the paper's signal survives
/// response corruption and transient transport failures.
pub fn ext_faults(suite: &Suite) -> Artifact {
    let examples = suite.syntax_for(Workload::Sdss);
    let mut t = TextTable::new(&[
        "Model",
        "profile",
        "mean attempts",
        "exhausted %",
        "needs_review %",
        "accuracy",
    ]);
    for m in ModelId::ALL {
        for profile_name in FaultProfile::NAMES {
            let profile = match FaultProfile::by_name(profile_name) {
                Some(p) => p,
                None => continue,
            };
            let client = Transport::new(SimulatedModel::new(m), profile, 7);
            let outcomes = run_task(
                &SyntaxTask,
                &client,
                DatasetId::from(Workload::Sdss),
                examples,
            );
            let n = outcomes.len() as f64;
            let attempts: usize = outcomes.iter().map(|o| o.call.attempts as usize).sum();
            let exhausted = outcomes.iter().filter(|o| o.call.exhausted).count();
            let review = outcomes.iter().filter(|o| o.needs_review).count();
            let acc = BinaryCounts::from_pairs(
                outcomes.iter().map(|o| (o.example.has_error, o.said_error)),
            )
            .accuracy();
            t.row(&[
                m.name().to_string(),
                profile_name.to_string(),
                f2(attempts as f64 / n),
                f2(100.0 * exhausted as f64 / n),
                f2(100.0 * review as f64 / n),
                f2(acc),
            ]);
        }
    }
    let survived_kinds = {
        let client = Transport::new(SimulatedModel::new(ModelId::Gpt4), FaultProfile::heavy(), 7);
        let outcomes = run_task(
            &SyntaxTask,
            &client,
            DatasetId::from(Workload::Sdss),
            examples,
        );
        FaultKind::ALL
            .iter()
            .map(|k| {
                let hit = outcomes.iter().filter(|o| o.call.saw(*k)).count();
                let ok = outcomes
                    .iter()
                    .filter(|o| o.call.saw(*k) && !o.needs_review)
                    .count();
                format!("{}: {ok}/{hit}", k.name())
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    Artifact {
        id: AblationId::Faults.slug().to_string(),
        title: "Extension: fault-injected transport (SDSS syntax task)".into(),
        csv: Some(t.to_csv()),
        body: format!(
            "{}\nTransient faults (unavailable, latency spikes) are absorbed by the\nretry policy and leave accuracy untouched; response corruptions\n(refusal, truncation, echo) land in the manual-review bucket instead\nof silently flipping answers. Per-fault survival under `heavy`\n(GPT4): {survived_kinds}.\n",
            t.render()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::PAPER_SEED;
    use std::sync::OnceLock;

    fn suite() -> &'static Suite {
        static SUITE: OnceLock<Suite> = OnceLock::new();
        SUITE.get_or_init(|| Suite::new(PAPER_SEED))
    }

    #[test]
    fn tilt_ablation_collapses_gap() {
        let a = ablation_tilt(suite());
        // parse the CSV: rows are (model, tilt, tp, fn, gap, f1)
        let rows: Vec<Vec<String>> = a
            .csv
            .unwrap()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        for pair in rows.chunks(2) {
            let on_gap: f64 = pair[0][4].parse().unwrap();
            let off_gap: f64 = pair[1][4].parse().unwrap();
            assert!(
                on_gap > off_gap + 1.0,
                "{}: tilt-on gap {on_gap} not larger than tilt-off {off_gap}",
                pair[0][0]
            );
        }
    }

    #[test]
    fn subtype_ablation_reduces_spread() {
        let a = ablation_subtype(suite());
        let body = a.body;
        // the body's last line carries both spreads
        let nums: Vec<f64> = body
            .lines()
            .last()
            .unwrap()
            .split(|c: char| !c.is_ascii_digit() && c != '.')
            .filter_map(|s| s.trim_matches('.').parse().ok())
            .collect();
        assert!(nums.len() >= 2);
        assert!(
            nums[0] > nums[1],
            "spread on ({}) should exceed spread off ({})",
            nums[0],
            nums[1]
        );
    }

    #[test]
    fn fewshot_improves_every_model() {
        let a = ext_fewshot(suite());
        for line in a.csv.unwrap().lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let zero: f64 = cells[1].parse().unwrap();
            let few: f64 = cells[2].parse().unwrap();
            let tuned: f64 = cells[3].parse().unwrap();
            assert!(few >= zero, "{}: few-shot regressed", cells[0]);
            assert!(tuned >= few, "{}: fine-tuned regressed", cells[0]);
        }
    }

    #[test]
    fn slugs_round_trip() {
        for id in AblationId::ALL {
            assert_eq!(AblationId::from_slug(id.slug()), Some(id));
        }
    }
}
