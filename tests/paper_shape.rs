//! End-to-end shape assertions: the paper's headline findings must emerge
//! from the full pipeline (datasets → prompts → models → extraction →
//! metrics), not from hard-coded numbers.

use squ::{Suite, PAPER_SEED};
use squ_eval::{BinaryCounts, Cell, PropertySlice, SubtypeBreakdown};
use squ_llm::{run_task_direct, DatasetId, ModelId, SimulatedModel};
use squ_tasks::{EquivTask, ExplainTask, PerfTask, SyntaxTask, TokenTask};
use squ_workload::Workload;
use std::sync::OnceLock;

fn suite() -> &'static Suite {
    static SUITE: OnceLock<Suite> = OnceLock::new();
    SUITE.get_or_init(|| Suite::new(PAPER_SEED))
}

fn syntax_counts(m: ModelId, w: Workload) -> BinaryCounts {
    let outcomes = run_task_direct(
        &SyntaxTask,
        &SimulatedModel::new(m),
        DatasetId::from(w),
        suite().syntax_for(w),
    );
    BinaryCounts::from_pairs(outcomes.iter().map(|o| (o.example.has_error, o.said_error)))
}

fn token_counts(m: ModelId, w: Workload) -> BinaryCounts {
    let outcomes = run_task_direct(
        &TokenTask,
        &SimulatedModel::new(m),
        DatasetId::from(w),
        suite().tokens_for(w),
    );
    BinaryCounts::from_pairs(
        outcomes
            .iter()
            .map(|o| (o.example.has_missing, o.said_missing)),
    )
}

fn equiv_counts(m: ModelId, w: Workload) -> BinaryCounts {
    let outcomes = run_task_direct(
        &EquivTask,
        &SimulatedModel::new(m),
        DatasetId::from(w),
        suite().equiv_for(w),
    );
    BinaryCounts::from_pairs(
        outcomes
            .iter()
            .map(|o| (o.example.equivalent, o.said_equivalent)),
    )
}

fn perf_counts(m: ModelId) -> BinaryCounts {
    let outcomes = run_task_direct(
        &PerfTask,
        &SimulatedModel::new(m),
        DatasetId::Sdss,
        suite().perf(),
    );
    BinaryCounts::from_pairs(
        outcomes
            .iter()
            .map(|o| (o.example.is_costly, o.said_costly)),
    )
}

/// §4 headline: "GPT4 consistently outperforms other models".
#[test]
fn gpt4_wins_every_task_and_dataset() {
    for w in Workload::task_workloads() {
        let g4_syn = syntax_counts(ModelId::Gpt4, w).f1();
        let g4_tok = token_counts(ModelId::Gpt4, w).f1();
        let g4_eq = equiv_counts(ModelId::Gpt4, w).f1();
        // "consistently outperforms … with no clear runner-up": GPT4 is
        // best or within noise of the best (the paper's own Table 3 has
        // MistralAI within 0.01 F1 of GPT4 on SQLShare)
        for m in [
            ModelId::Gpt35,
            ModelId::Llama3,
            ModelId::MistralAi,
            ModelId::Gemini,
        ] {
            assert!(
                g4_syn >= syntax_counts(m, w).f1() - 0.05,
                "{m} clearly beats GPT4 on syntax_error/{}",
                w.name()
            );
            assert!(
                g4_tok >= token_counts(m, w).f1() - 0.05,
                "{m} clearly beats GPT4 on miss_token/{}",
                w.name()
            );
            assert!(
                g4_eq >= equiv_counts(m, w).f1() - 0.05,
                "{m} clearly beats GPT4 on query_equiv/{}",
                w.name()
            );
        }
    }
    let g4_perf = perf_counts(ModelId::Gpt4).f1();
    for m in [
        ModelId::Gpt35,
        ModelId::Llama3,
        ModelId::MistralAi,
        ModelId::Gemini,
    ] {
        assert!(g4_perf > perf_counts(m).f1(), "{m} beats GPT4 on perf");
    }
}

/// §4.1: recall below precision on syntax-error detection (conservative
/// bias), most pronounced for Llama3 and Gemini.
#[test]
fn syntax_detection_is_conservative() {
    for w in Workload::task_workloads() {
        // MistralAI is the paper's own exception (Table 3: JOB recall 0.94
        // vs precision 0.85), so it is excluded here
        for m in [
            ModelId::Gpt4,
            ModelId::Gpt35,
            ModelId::Llama3,
            ModelId::Gemini,
        ] {
            let c = syntax_counts(m, w);
            assert!(
                c.recall() <= c.precision() + 0.12,
                "{m}/{}: recall {:.2} >> precision {:.2}",
                w.name(),
                c.recall(),
                c.precision()
            );
        }
        // the imbalance is extreme for Gemini
        let g = syntax_counts(ModelId::Gemini, w);
        assert!(
            g.precision() - g.recall() > 0.15,
            "Gemini should be strongly conservative on {}",
            w.name()
        );
    }
}

/// §4.3/§4.4: positive bias — recall above precision for perf and equiv.
#[test]
fn perf_and_equiv_are_recall_biased() {
    for m in ModelId::ALL {
        let p = perf_counts(m);
        assert!(
            p.recall() >= p.precision() - 0.02,
            "{m} perf: recall {:.2} < precision {:.2}",
            p.recall(),
            p.precision()
        );
    }
    for w in Workload::task_workloads() {
        for m in ModelId::ALL {
            let c = equiv_counts(m, w);
            assert!(
                c.recall() >= c.precision() - 0.08,
                "{m}/{} equiv not recall-biased",
                w.name()
            );
        }
    }
}

/// §4.2: miss_token is easier than syntax_error for every model.
#[test]
fn miss_token_easier_than_syntax_error() {
    for w in Workload::task_workloads() {
        for m in ModelId::ALL {
            let tok = token_counts(m, w).f1();
            let syn = syntax_counts(m, w).f1();
            assert!(
                tok >= syn - 0.05,
                "{m}/{}: miss_token F1 {tok:.2} << syntax F1 {syn:.2}",
                w.name()
            );
        }
    }
}

/// Figure 6: failed (FN) queries are longer than detected (TP) ones.
#[test]
fn fn_queries_are_longer_fig6() {
    for m in [ModelId::Llama3, ModelId::Gemini] {
        let outcomes = run_task_direct(
            &SyntaxTask,
            &SimulatedModel::new(m),
            DatasetId::from(Workload::Sdss),
            suite().syntax_for(Workload::Sdss),
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
        let tp = slice.cell(Cell::Tp);
        let fn_ = slice.cell(Cell::Fn);
        assert!(tp.count >= 20 && fn_.count >= 20, "{m}: cells too small");
        assert!(
            fn_.average > tp.average,
            "{m}: FN avg {:.1} not > TP avg {:.1}",
            fn_.average,
            tp.average
        );
    }
}

/// Figure 7: type-mismatch errors hardest in SDSS; ambiguous aliases
/// hardest in SQLShare.
#[test]
fn subtype_difficulty_matches_fig7() {
    // aggregate over all five models for stable estimates
    let mut sdss_pairs = Vec::new();
    let mut share_pairs = Vec::new();
    for m in ModelId::ALL {
        for (w, sink) in [
            (Workload::Sdss, &mut sdss_pairs),
            (Workload::SqlShare, &mut share_pairs),
        ] {
            let outcomes = run_task_direct(
                &SyntaxTask,
                &SimulatedModel::new(m),
                DatasetId::from(w),
                suite().syntax_for(w),
            );
            for o in outcomes {
                if let Some(t) = o.example.error_type {
                    sink.push((t.label().to_string(), o.said_error));
                }
            }
        }
    }
    let sdss = SubtypeBreakdown::build(sdss_pairs.iter().map(|(l, d)| (l.as_str(), *d)));
    let hardest = sdss.hardest().unwrap();
    assert!(
        ["nested-mismatch", "condition-mismatch"].contains(&hardest.subtype.as_str()),
        "SDSS hardest was {}",
        hardest.subtype
    );
    let share = SubtypeBreakdown::build(share_pairs.iter().map(|(l, d)| (l.as_str(), *d)));
    let amb = share.get("alias-ambiguous").unwrap();
    let easy = share.get("aggr-attr").unwrap();
    assert!(
        amb.fn_rate > easy.fn_rate,
        "SQLShare: ambiguous {:.2} not harder than aggr-attr {:.2}",
        amb.fn_rate,
        easy.fn_rate
    );
}

/// Figure 9: keyword deletions hardest in SDSS; alias/table in SQLShare.
#[test]
fn token_subtype_difficulty_matches_fig9() {
    let collect = |w: Workload| {
        let mut pairs = Vec::new();
        for m in ModelId::ALL {
            let outcomes = run_task_direct(
                &TokenTask,
                &SimulatedModel::new(m),
                DatasetId::from(w),
                suite().tokens_for(w),
            );
            for o in outcomes {
                if let Some(t) = o.example.token_type {
                    pairs.push((t.label().to_string(), o.said_missing));
                }
            }
        }
        SubtypeBreakdown::build(
            pairs
                .iter()
                .map(|(l, d)| (l.as_str(), *d))
                .collect::<Vec<_>>(),
        )
    };
    let sdss = collect(Workload::Sdss);
    assert_eq!(sdss.hardest().unwrap().subtype, "keyword");
    let share = collect(Workload::SqlShare);
    let top2: Vec<&str> = share
        .rows
        .iter()
        .take(2)
        .map(|r| r.subtype.as_str())
        .collect();
    assert!(
        top2.contains(&"alias") || top2.contains(&"table"),
        "SQLShare top-2 hardest were {top2:?}"
    );
}

/// Table 5: GPT4 has the lowest MAE and the highest hit rate everywhere.
#[test]
fn gpt4_best_at_location() {
    use squ_eval::LocationStats;
    for w in Workload::task_workloads() {
        let stats = |m: ModelId| {
            let outcomes = run_task_direct(
                &TokenTask,
                &SimulatedModel::new(m),
                DatasetId::from(w),
                suite().tokens_for(w),
            );
            LocationStats::from_pairs(outcomes.iter().filter_map(|o| {
                match (o.example.position, o.said_position) {
                    (Some(t), Some(p)) => Some((t, p)),
                    _ => None,
                }
            }))
        };
        let g4 = stats(ModelId::Gpt4);
        for m in [
            ModelId::Gpt35,
            ModelId::Llama3,
            ModelId::MistralAi,
            ModelId::Gemini,
        ] {
            let s = stats(m);
            assert!(
                g4.mae() < s.mae() + 0.5,
                "{m}/{}: MAE {:.1} better than GPT4 {:.1}",
                w.name(),
                s.mae(),
                g4.mae()
            );
            assert!(
                g4.hit_rate() > s.hit_rate() - 0.05,
                "{m}/{}: HR beats GPT4",
                w.name()
            );
        }
    }
}

/// Figure 10: perf false positives are longer and wider than true
/// negatives (models equate length with cost).
#[test]
fn perf_fp_queries_are_longer_fig10() {
    let outcomes = run_task_direct(
        &PerfTask,
        &SimulatedModel::new(ModelId::MistralAi),
        DatasetId::Sdss,
        suite().perf(),
    );
    let slice = PropertySlice::build(
        "word_count",
        outcomes.iter().map(|o| {
            (
                o.example.is_costly,
                o.said_costly,
                o.example.props.word_count as f64,
            )
        }),
    );
    let fp = slice.cell(Cell::Fp);
    let tn = slice.cell(Cell::Tn);
    assert!(fp.count >= 10, "need FPs to compare, got {}", fp.count);
    assert!(
        fp.average > tn.average,
        "FP avg {:.1} not > TN avg {:.1}",
        fp.average,
        tn.average
    );
}

/// §4.4: equivalence false positives concentrate on modified-condition
/// transforms (value-change, logical-conditions).
#[test]
fn equiv_fp_concentrate_on_condition_edits() {
    let mut fp_by_transform: std::collections::HashMap<String, usize> = Default::default();
    let mut neg_by_transform: std::collections::HashMap<String, usize> = Default::default();
    for m in ModelId::ALL {
        for w in Workload::task_workloads() {
            let outcomes = run_task_direct(
                &EquivTask,
                &SimulatedModel::new(m),
                DatasetId::from(w),
                suite().equiv_for(w),
            );
            for o in outcomes {
                if !o.example.equivalent {
                    *neg_by_transform
                        .entry(o.example.transform.clone())
                        .or_insert(0) += 1;
                    if o.said_equivalent {
                        *fp_by_transform
                            .entry(o.example.transform.clone())
                            .or_insert(0) += 1;
                    }
                }
            }
        }
    }
    let rate = |t: &str| {
        let fp = *fp_by_transform.get(t).unwrap_or(&0) as f64;
        let n = *neg_by_transform.get(t).unwrap_or(&1) as f64;
        fp / n.max(1.0)
    };
    assert!(
        rate("value-change") > rate("projection-change"),
        "value-change FP rate {:.2} not > projection-change {:.2}",
        rate("value-change"),
        rate("projection-change")
    );
}

/// §4.5: explanation quality orders GPT4 first and Gemini last.
#[test]
fn explanation_rubric_orders_models() {
    let avg = |m: ModelId| {
        let outcomes = run_task_direct(
            &ExplainTask,
            &SimulatedModel::new(m),
            DatasetId::Spider,
            suite().explain(),
        );
        outcomes.iter().map(|o| o.rubric.score).sum::<f64>() / outcomes.len() as f64
    };
    let g4 = avg(ModelId::Gpt4);
    let gemini = avg(ModelId::Gemini);
    assert!(g4 > 0.8, "GPT4 rubric average too low: {g4:.2}");
    assert!(
        g4 > gemini + 0.1,
        "GPT4 {g4:.2} should clearly beat Gemini {gemini:.2}"
    );
    for m in [ModelId::Gpt35, ModelId::Llama3, ModelId::MistralAi] {
        let s = avg(m);
        assert!(
            s <= g4 && s >= gemini - 0.05,
            "{m} rubric {s:.2} out of band"
        );
    }
}

/// The whole pipeline is deterministic: artifacts are bit-identical run
/// over run.
#[test]
fn artifacts_deterministic() {
    let a = squ::run_experiment(suite(), squ::ExperimentId::Table6);
    let b = squ::run_experiment(suite(), squ::ExperimentId::Table6);
    assert_eq!(a.body, b.body);
}

/// Figure 8: miss_token failures (FN) exceed successes (TP) on all four
/// reported properties (GPT3.5, SQLShare).
#[test]
fn token_fn_larger_on_all_fig8_properties() {
    let outcomes = run_task_direct(
        &TokenTask,
        &SimulatedModel::new(ModelId::Gpt35),
        DatasetId::from(Workload::SqlShare),
        suite().tokens_for(Workload::SqlShare),
    );
    for prop in ["word_count", "predicate_count", "nestedness", "table_count"] {
        let slice = PropertySlice::build(
            prop,
            outcomes.iter().map(|o| {
                (
                    o.example.has_missing,
                    o.said_missing,
                    squ_workload::analysis::prop_value(&o.example.props, prop),
                )
            }),
        );
        let tp = slice.cell(Cell::Tp);
        let fn_ = slice.cell(Cell::Fn);
        assert!(fn_.count >= 5, "{prop}: FN cell too small ({})", fn_.count);
        assert!(
            fn_.average >= tp.average,
            "{prop}: FN avg {:.2} not >= TP avg {:.2}",
            fn_.average,
            tp.average
        );
    }
}

/// The composite miss_token prompt also asks for the missing *word*; when
/// GPT4 names the right type it usually names the right word too.
#[test]
fn word_guess_accuracy_tracks_type_accuracy() {
    let outcomes = run_task_direct(
        &TokenTask,
        &SimulatedModel::new(ModelId::Gpt4),
        DatasetId::from(Workload::Sdss),
        suite().tokens_for(Workload::Sdss),
    );
    let mut correct_type = 0usize;
    let mut correct_word = 0usize;
    for o in &outcomes {
        let (Some(truth_ty), Some(said_ty)) = (o.example.token_type, o.said_type.as_deref()) else {
            continue;
        };
        if truth_ty.label() != said_ty {
            continue;
        }
        correct_type += 1;
        if o.said_word.as_deref() == o.example.removed_text.as_deref() {
            correct_word += 1;
        }
    }
    assert!(correct_type > 50, "too few typed answers: {correct_type}");
    let rate = correct_word as f64 / correct_type as f64;
    assert!(rate > 0.7, "word guess only {rate:.2} given a correct type");
}
