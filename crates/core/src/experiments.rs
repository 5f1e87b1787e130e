//! One reproduction function per paper artifact (every table and figure).
//!
//! Each experiment returns an [`Artifact`]: a title, a plain-text body
//! (tables / bar charts), and CSV data, ready for the repro harness to
//! print and persist.

use crate::render::{bar_chart, f2, TextTable};
use crate::suite::Suite;
use squ_eval::{BinaryCounts, Confusion, LocationStats, PropertySlice, SubtypeBreakdown};
use squ_llm::{run_task_direct, DatasetId, LanguageModel, ModelId, SimulatedModel};
use squ_tasks::{EquivTask, PerfTask, SyntaxTask, TokenTask, COST_THRESHOLD_MS};
use squ_workload::analysis::{correlation_matrix, dataset_histograms};
use squ_workload::Workload;

/// Identifier of one paper artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ExperimentId {
    Table1,
    Table2,
    Fig1,
    Fig2,
    Fig3,
    Fig4,
    Fig5,
    Table3,
    Fig6,
    Fig7,
    Table4,
    Fig8,
    Fig9,
    Table5,
    Table6,
    Fig10,
    Table7,
    Fig11,
    Fig12,
    CaseStudy,
}

impl ExperimentId {
    /// Every artifact, in paper order.
    pub const ALL: [ExperimentId; 20] = [
        ExperimentId::Table1,
        ExperimentId::Table2,
        ExperimentId::Fig1,
        ExperimentId::Fig2,
        ExperimentId::Fig3,
        ExperimentId::Fig4,
        ExperimentId::Fig5,
        ExperimentId::Table3,
        ExperimentId::Fig6,
        ExperimentId::Fig7,
        ExperimentId::Table4,
        ExperimentId::Fig8,
        ExperimentId::Fig9,
        ExperimentId::Table5,
        ExperimentId::Table6,
        ExperimentId::Fig10,
        ExperimentId::Table7,
        ExperimentId::Fig11,
        ExperimentId::Fig12,
        ExperimentId::CaseStudy,
    ];

    /// Short slug used for file names and `--only` filters.
    pub fn slug(&self) -> &'static str {
        match self {
            ExperimentId::Table1 => "table1",
            ExperimentId::Table2 => "table2",
            ExperimentId::Fig1 => "fig1",
            ExperimentId::Fig2 => "fig2",
            ExperimentId::Fig3 => "fig3",
            ExperimentId::Fig4 => "fig4",
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Table3 => "table3",
            ExperimentId::Fig6 => "fig6",
            ExperimentId::Fig7 => "fig7",
            ExperimentId::Table4 => "table4",
            ExperimentId::Fig8 => "fig8",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Table5 => "table5",
            ExperimentId::Table6 => "table6",
            ExperimentId::Fig10 => "fig10",
            ExperimentId::Table7 => "table7",
            ExperimentId::Fig11 => "fig11",
            ExperimentId::Fig12 => "fig12",
            ExperimentId::CaseStudy => "casestudy",
        }
    }

    /// Parse a slug.
    pub fn from_slug(s: &str) -> Option<ExperimentId> {
        Self::ALL.iter().copied().find(|e| e.slug() == s)
    }
}

/// One reproduced artifact.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Artifact {
    /// Artifact slug.
    pub id: String,
    /// Human title matching the paper's caption.
    pub title: String,
    /// Rendered text body.
    pub body: String,
    /// CSV form of the main table, when tabular.
    pub csv: Option<String>,
}

/// Run one experiment against a suite.
pub fn run_experiment(suite: &Suite, id: ExperimentId) -> Artifact {
    match id {
        ExperimentId::Table1 => table1(),
        ExperimentId::Table2 => table2(suite),
        ExperimentId::Fig1 => fig_histograms(suite, Workload::Sdss, "fig1"),
        ExperimentId::Fig2 => fig_histograms(suite, Workload::SqlShare, "fig2"),
        ExperimentId::Fig3 => fig_histograms(suite, Workload::JoinOrder, "fig3"),
        ExperimentId::Fig4 => fig4(suite),
        ExperimentId::Fig5 => fig5(suite),
        ExperimentId::Table3 => table3(suite),
        ExperimentId::Fig6 => fig6(suite),
        ExperimentId::Fig7 => fig7(suite),
        ExperimentId::Table4 => table4(suite),
        ExperimentId::Fig8 => fig8(suite),
        ExperimentId::Fig9 => fig9(suite),
        ExperimentId::Table5 => table5(suite),
        ExperimentId::Table6 => table6(suite),
        ExperimentId::Fig10 => fig10(suite),
        ExperimentId::Table7 => table7(suite),
        ExperimentId::Fig11 => fig11(suite),
        ExperimentId::Fig12 => fig12(suite),
        ExperimentId::CaseStudy => case_study(),
    }
}

/// Run every experiment.
pub fn run_all(suite: &Suite) -> Vec<Artifact> {
    ExperimentId::ALL
        .iter()
        .map(|id| run_experiment(suite, *id))
        .collect()
}

fn model(id: ModelId) -> SimulatedModel {
    SimulatedModel::new(id)
}

fn task_workloads() -> [Workload; 3] {
    Workload::task_workloads()
}

// ---------------- Table 1 ----------------

fn table1() -> Artifact {
    let mut t = TextTable::new(&[
        "Skill",
        "syntax error",
        "missing token",
        "Q.perf. estimate",
        "Q.equiv.",
        "Q.explain.",
    ]);
    t.row_strs(&["Recognition", "x", "x", "", "", ""]);
    t.row_strs(&["Semantics", "", "", "", "x", "x"]);
    t.row_strs(&["Context", "", "x", "x", "", "x"]);
    t.row_strs(&["Coherence", "x", "", "x", "x", ""]);
    Artifact {
        id: "table1".into(),
        title: "Table 1: Skill-to-SQL task mapping".into(),
        csv: Some(t.to_csv()),
        body: t.render(),
    }
}

// ---------------- Table 2 ----------------

fn table2(suite: &Suite) -> Artifact {
    let mut t = TextTable::new(&[
        "Workload", "Original", "Sampled", "SELECT", "CREATE", "Aggr yes", "Aggr no", "Nest 0",
        "Nest >=1",
    ]);
    for w in [
        Workload::Sdss,
        Workload::SqlShare,
        Workload::JoinOrder,
        Workload::Spider,
    ] {
        let ds = suite.dataset(w);
        let selects = ds
            .queries
            .iter()
            .filter(|q| q.props.query_type == "SELECT")
            .count();
        let aggr = ds.queries.iter().filter(|q| q.props.aggregate).count();
        let nest0 = ds
            .queries
            .iter()
            .filter(|q| q.props.nestedness == 0)
            .count();
        t.row(&[
            w.name().to_string(),
            w.original_size().to_string(),
            ds.len().to_string(),
            selects.to_string(),
            (ds.len() - selects).to_string(),
            aggr.to_string(),
            (ds.len() - aggr).to_string(),
            nest0.to_string(),
            (ds.len() - nest0).to_string(),
        ]);
    }
    Artifact {
        id: "table2".into(),
        title: "Table 2: Workload statistics overview".into(),
        csv: Some(t.to_csv()),
        body: t.render(),
    }
}

// ---------------- Figures 1-3: property histograms ----------------

fn fig_histograms(suite: &Suite, w: Workload, slug: &str) -> Artifact {
    let ds = suite.dataset(w);
    let mut body = String::new();
    let mut csv = String::from("property,bucket,count\n");
    for h in dataset_histograms(ds) {
        body.push_str(&format!("-- {} --\n", h.property));
        let items: Vec<(String, f64)> = h
            .buckets
            .iter()
            .map(|(label, c)| (label.clone(), *c as f64))
            .collect();
        body.push_str(&bar_chart(&items, 40));
        body.push('\n');
        for (label, c) in &h.buckets {
            csv.push_str(&format!("{},{},{}\n", h.property, label, c));
        }
    }
    Artifact {
        id: slug.to_string(),
        title: format!(
            "Figure {}: {} query-property histograms",
            &slug[3..],
            w.name()
        ),
        body,
        csv: Some(csv),
    }
}

// ---------------- Figure 4: correlations ----------------

fn fig4(suite: &Suite) -> Artifact {
    let mut body = String::new();
    let mut csv = String::from("workload,prop_a,prop_b,pearson\n");
    for w in [
        Workload::Sdss,
        Workload::SqlShare,
        Workload::JoinOrder,
        Workload::Spider,
    ] {
        let ds = suite.dataset(w);
        let m = correlation_matrix(ds);
        body.push_str(&format!("== {} ==\n", w.name()));
        let mut t = TextTable::new(
            &std::iter::once("")
                .chain(m.labels.iter().map(|s| s.as_str()))
                .collect::<Vec<_>>(),
        );
        for (i, row_label) in m.labels.iter().enumerate() {
            let mut cells = vec![row_label.clone()];
            for j in 0..m.labels.len() {
                cells.push(f2(m.matrix[i][j]));
            }
            t.row(&cells);
        }
        body.push_str(&t.render());
        body.push_str("strongly correlated pairs (|r| >= 0.7):\n");
        for (a, b, r) in m.strong_pairs(0.7) {
            body.push_str(&format!("  {a} x {b}: {r:.2}\n"));
            csv.push_str(&format!("{},{a},{b},{r:.4}\n", w.name()));
        }
        body.push('\n');
    }
    Artifact {
        id: "fig4".into(),
        title: "Figure 4: Pairwise correlations between query properties".into(),
        body,
        csv: Some(csv),
    }
}

// ---------------- Figure 5: SDSS elapsed times ----------------

fn fig5(suite: &Suite) -> Artifact {
    let times: Vec<f64> = suite
        .sdss
        .queries
        .iter()
        .filter_map(|q| q.elapsed_ms)
        .collect();
    let edges = [1.0, 10.0, 50.0, 200.0, 1000.0, 10_000.0];
    let hist = squ_workload::analysis::histogram("elapsed_ms", &times, &edges);
    let items: Vec<(String, f64)> = hist
        .buckets
        .iter()
        .map(|(l, c)| (format!("{l} ms"), *c as f64))
        .collect();
    let high = times.iter().filter(|t| **t > COST_THRESHOLD_MS).count();
    let mut body = bar_chart(&items, 40);
    body.push_str(&format!(
        "\nthreshold {COST_THRESHOLD_MS} ms: {high} costly / {} cheap of {}\n",
        times.len() - high,
        times.len()
    ));
    let mut csv = String::from("bucket,count\n");
    for (l, c) in &hist.buckets {
        csv.push_str(&format!("{l},{c}\n"));
    }
    Artifact {
        id: "fig5".into(),
        title: "Figure 5: Elapsed time of sampled SDSS queries".into(),
        body,
        csv: Some(csv),
    }
}

// ---------------- Table 3: syntax_error (+type) ----------------

fn table3(suite: &Suite) -> Artifact {
    let mut t = TextTable::new(&[
        "Case",
        "Model",
        "SDSS P",
        "SDSS R",
        "SDSS F1",
        "SQLShare P",
        "SQLShare R",
        "SQLShare F1",
        "JOB P",
        "JOB R",
        "JOB F1",
    ]);
    for case in ["Syntax Error", "Syn. Error Type"] {
        for m in ModelId::ALL {
            let mut cells = vec![case.to_string(), m.name().to_string()];
            for w in task_workloads() {
                let outcomes = run_task_direct(
                    &SyntaxTask,
                    &model(m),
                    DatasetId::from(w),
                    suite.syntax_for(w),
                );
                let (p, r, f1) = if case == "Syntax Error" {
                    let c = BinaryCounts::from_pairs(
                        outcomes.iter().map(|o| (o.example.has_error, o.said_error)),
                    );
                    (c.precision(), c.recall(), c.f1())
                } else {
                    // multi-class type identification over the positives
                    // the model detected (the paper's _type tasks measure
                    // classification quality, not re-detection)
                    let mut conf = Confusion::default();
                    for o in &outcomes {
                        if let (Some(truth), true) = (o.example.error_type, o.said_error) {
                            let pred = o
                                .said_type
                                .clone()
                                .unwrap_or_else(|| "unspecified".to_string());
                            conf.record(truth.label(), &pred);
                        }
                    }
                    conf.weighted_metrics()
                };
                cells.extend([f2(p), f2(r), f2(f1)]);
            }
            t.row(&cells);
        }
    }
    let csv_t = t.to_csv();
    Artifact {
        id: "table3".into(),
        title: "Table 3: Accuracy in syntax_error and syntax_error_type".into(),
        body: t.render(),
        csv: Some(csv_t),
    }
}

// ---------------- Figure 6: word_count vs cells (syntax, SDSS) ----------------

fn slice_block(title: &str, slice: &PropertySlice) -> String {
    let mut out = format!("-- {title} --\n");
    let mut t = TextTable::new(&["cell", "count", "avg", "median"]);
    for c in &slice.cells {
        t.row(&[
            c.cell.clone(),
            c.count.to_string(),
            f2(c.average),
            f2(c.median),
        ]);
    }
    out.push_str(&t.render());
    out
}

fn syntax_slice(suite: &Suite, m: ModelId, w: Workload, prop: &str) -> PropertySlice {
    let outcomes = run_task_direct(
        &SyntaxTask,
        &model(m),
        DatasetId::from(w),
        suite.syntax_for(w),
    );
    PropertySlice::build(
        prop,
        outcomes.iter().map(|o| {
            (
                o.example.has_error,
                o.said_error,
                squ_workload::analysis::prop_value(&o.example.props, prop),
            )
        }),
    )
}

fn fig6(suite: &Suite) -> Artifact {
    let mut body = String::new();
    for m in [ModelId::Llama3, ModelId::Gemini] {
        let slice = syntax_slice(suite, m, Workload::Sdss, "word_count");
        body.push_str(&slice_block(
            &format!("{} / SDSS / word_count", m.name()),
            &slice,
        ));
        body.push('\n');
    }
    Artifact {
        id: "fig6".into(),
        title: "Figure 6: word_count vs model failure in syntax_error (SDSS)".into(),
        body,
        csv: None,
    }
}

// ---------------- Figure 7: FN by syntax error type ----------------

fn fig7(suite: &Suite) -> Artifact {
    let mut body = String::new();
    let mut csv = String::from("workload,model,error_type,positives,fn,fn_rate\n");
    for w in task_workloads() {
        body.push_str(&format!("== {} ==\n", w.name()));
        for m in ModelId::ALL {
            let outcomes = run_task_direct(
                &SyntaxTask,
                &model(m),
                DatasetId::from(w),
                suite.syntax_for(w),
            );
            let b = SubtypeBreakdown::build(
                outcomes
                    .iter()
                    .filter_map(|o| o.example.error_type.map(|t| (t.label(), o.said_error))),
            );
            let items: Vec<(String, f64)> = b
                .rows
                .iter()
                .map(|r| (format!("{} {}", m.name(), r.subtype), r.fn_rate))
                .collect();
            body.push_str(&bar_chart(&items, 30));
            for r in &b.rows {
                csv.push_str(&format!(
                    "{},{},{},{},{},{:.4}\n",
                    w.name(),
                    m.name(),
                    r.subtype,
                    r.positives,
                    r.false_negatives,
                    r.fn_rate
                ));
            }
        }
        body.push('\n');
    }
    Artifact {
        id: "fig7".into(),
        title: "Figure 7: Relationship between syntax error type and FN".into(),
        body,
        csv: Some(csv),
    }
}

// ---------------- Table 4: miss_token (+type) ----------------

fn table4(suite: &Suite) -> Artifact {
    let mut t = TextTable::new(&[
        "Case",
        "Model",
        "SDSS P",
        "SDSS R",
        "SDSS F1",
        "SQLShare P",
        "SQLShare R",
        "SQLShare F1",
        "JOB P",
        "JOB R",
        "JOB F1",
    ]);
    for case in ["Missing Token", "Token Type"] {
        for m in ModelId::ALL {
            let mut cells = vec![case.to_string(), m.name().to_string()];
            for w in task_workloads() {
                let outcomes = run_task_direct(
                    &TokenTask,
                    &model(m),
                    DatasetId::from(w),
                    suite.tokens_for(w),
                );
                let (p, r, f1) = if case == "Missing Token" {
                    let c = BinaryCounts::from_pairs(
                        outcomes
                            .iter()
                            .map(|o| (o.example.has_missing, o.said_missing)),
                    );
                    (c.precision(), c.recall(), c.f1())
                } else {
                    let mut conf = Confusion::default();
                    for o in &outcomes {
                        if let (Some(truth), true) = (o.example.token_type, o.said_missing) {
                            let pred = o
                                .said_type
                                .clone()
                                .unwrap_or_else(|| "unspecified".to_string());
                            conf.record(truth.label(), &pred);
                        }
                    }
                    conf.weighted_metrics()
                };
                cells.extend([f2(p), f2(r), f2(f1)]);
            }
            t.row(&cells);
        }
    }
    Artifact {
        id: "table4".into(),
        title: "Table 4: Accuracy for miss_token and miss_token_type".into(),
        csv: Some(t.to_csv()),
        body: t.render(),
    }
}

// ---------------- Figure 8: miss_token failures (GPT3.5, SQLShare) ----------------

fn fig8(suite: &Suite) -> Artifact {
    let outcomes = run_task_direct(
        &TokenTask,
        &model(ModelId::Gpt35),
        DatasetId::from(Workload::SqlShare),
        suite.tokens_for(Workload::SqlShare),
    );
    let mut body = String::new();
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
        body.push_str(&slice_block(&format!("GPT3.5 / SQLShare / {prop}"), &slice));
        body.push('\n');
    }
    Artifact {
        id: "fig8".into(),
        title: "Figure 8: LLMs' failure in miss_token for SQLShare".into(),
        body,
        csv: None,
    }
}

// ---------------- Figure 9: FN by missing token type ----------------

fn fig9(suite: &Suite) -> Artifact {
    let mut body = String::new();
    let mut csv = String::from("workload,model,token_type,positives,fn,fn_rate\n");
    for w in task_workloads() {
        body.push_str(&format!("== {} ==\n", w.name()));
        for m in ModelId::ALL {
            let outcomes = run_task_direct(
                &TokenTask,
                &model(m),
                DatasetId::from(w),
                suite.tokens_for(w),
            );
            let b = SubtypeBreakdown::build(
                outcomes
                    .iter()
                    .filter_map(|o| o.example.token_type.map(|t| (t.label(), o.said_missing))),
            );
            let items: Vec<(String, f64)> = b
                .rows
                .iter()
                .map(|r| (format!("{} {}", m.name(), r.subtype), r.fn_rate))
                .collect();
            body.push_str(&bar_chart(&items, 30));
            for r in &b.rows {
                csv.push_str(&format!(
                    "{},{},{},{},{},{:.4}\n",
                    w.name(),
                    m.name(),
                    r.subtype,
                    r.positives,
                    r.false_negatives,
                    r.fn_rate
                ));
            }
        }
        body.push('\n');
    }
    Artifact {
        id: "fig9".into(),
        title: "Figure 9: Relationship between missing token type and FN".into(),
        body,
        csv: Some(csv),
    }
}

// ---------------- Table 5: miss_token_loc ----------------

fn table5(suite: &Suite) -> Artifact {
    let mut t = TextTable::new(&[
        "Model",
        "SDSS MAE",
        "SDSS HR",
        "SQLShare MAE",
        "SQLShare HR",
        "JOB MAE",
        "JOB HR",
    ]);
    for m in ModelId::ALL {
        let mut cells = vec![m.name().to_string()];
        for w in task_workloads() {
            let outcomes = run_task_direct(
                &TokenTask,
                &model(m),
                DatasetId::from(w),
                suite.tokens_for(w),
            );
            let stats = LocationStats::from_pairs(outcomes.iter().filter_map(|o| {
                match (o.example.position, o.said_position) {
                    (Some(t), Some(p)) => Some((t, p)),
                    _ => None,
                }
            }));
            cells.push(f2(stats.mae()));
            cells.push(f2(stats.hit_rate()));
        }
        t.row(&cells);
    }
    Artifact {
        id: "table5".into(),
        title: "Table 5: MAE and Hit Rate (HR) for miss_token_loc".into(),
        csv: Some(t.to_csv()),
        body: t.render(),
    }
}

// ---------------- Table 6: performance_pred ----------------

fn table6(suite: &Suite) -> Artifact {
    let mut t = TextTable::new(&["Model", "Prec.", "Rec.", "F1"]);
    for m in ModelId::ALL {
        let outcomes = run_task_direct(&PerfTask, &model(m), DatasetId::Sdss, suite.perf());
        let c = BinaryCounts::from_pairs(
            outcomes
                .iter()
                .map(|o| (o.example.is_costly, o.said_costly)),
        );
        t.row(&[
            m.name().to_string(),
            f2(c.precision()),
            f2(c.recall()),
            f2(c.f1()),
        ]);
    }
    Artifact {
        id: "table6".into(),
        title: "Table 6: Accuracy for performance_pred (SDSS)".into(),
        csv: Some(t.to_csv()),
        body: t.render(),
    }
}

// ---------------- Figure 10: perf failures (MistralAI) ----------------

fn fig10(suite: &Suite) -> Artifact {
    let outcomes = run_task_direct(
        &PerfTask,
        &model(ModelId::MistralAi),
        DatasetId::Sdss,
        suite.perf(),
    );
    let mut body = String::new();
    for prop in ["word_count", "column_count"] {
        let slice = PropertySlice::build(
            prop,
            outcomes.iter().map(|o| {
                (
                    o.example.is_costly,
                    o.said_costly,
                    squ_workload::analysis::prop_value(&o.example.props, prop),
                )
            }),
        );
        body.push_str(&slice_block(&format!("MistralAI / SDSS / {prop}"), &slice));
        body.push('\n');
    }
    Artifact {
        id: "fig10".into(),
        title: "Figure 10: MistralAI's failure in performance_pred".into(),
        body,
        csv: None,
    }
}

// ---------------- Table 7: query_equiv (+type) ----------------

fn table7(suite: &Suite) -> Artifact {
    let mut t = TextTable::new(&[
        "Case",
        "Model",
        "SDSS P",
        "SDSS R",
        "SDSS F1",
        "SQLShare P",
        "SQLShare R",
        "SQLShare F1",
        "JOB P",
        "JOB R",
        "JOB F1",
    ]);
    for case in ["Equivalence", "Equiv. Type"] {
        for m in ModelId::ALL {
            let mut cells = vec![case.to_string(), m.name().to_string()];
            for w in task_workloads() {
                let outcomes = run_task_direct(
                    &EquivTask,
                    &model(m),
                    DatasetId::from(w),
                    suite.equiv_for(w),
                );
                let (p, r, f1) = if case == "Equivalence" {
                    let c = BinaryCounts::from_pairs(
                        outcomes
                            .iter()
                            .map(|o| (o.example.equivalent, o.said_equivalent)),
                    );
                    (c.precision(), c.recall(), c.f1())
                } else {
                    let mut conf = Confusion::default();
                    for o in &outcomes {
                        if o.example.equivalent && o.said_equivalent {
                            let pred = o
                                .said_type
                                .clone()
                                .unwrap_or_else(|| "unspecified".to_string());
                            conf.record(&o.example.transform, &pred);
                        }
                    }
                    conf.weighted_metrics()
                };
                cells.extend([f2(p), f2(r), f2(f1)]);
            }
            t.row(&cells);
        }
    }
    Artifact {
        id: "table7".into(),
        title: "Table 7: Accuracy in query_equiv and query_equiv_type".into(),
        csv: Some(t.to_csv()),
        body: t.render(),
    }
}

// ---------------- Figures 11/12: equiv failures ----------------

fn equiv_slice(suite: &Suite, m: ModelId, w: Workload, prop: &str) -> PropertySlice {
    let outcomes = run_task_direct(
        &EquivTask,
        &model(m),
        DatasetId::from(w),
        suite.equiv_for(w),
    );
    PropertySlice::build(
        prop,
        outcomes.iter().map(|o| {
            (
                o.example.equivalent,
                o.said_equivalent,
                squ_workload::analysis::prop_value(&o.example.props, prop),
            )
        }),
    )
}

fn fig11(suite: &Suite) -> Artifact {
    let mut body = String::new();
    for (m, w) in [
        (ModelId::Gpt35, Workload::Sdss),
        (ModelId::Llama3, Workload::JoinOrder),
    ] {
        let slice = equiv_slice(suite, m, w, "word_count");
        body.push_str(&slice_block(
            &format!("{} / {} / word_count", m.name(), w.name()),
            &slice,
        ));
        body.push('\n');
    }
    Artifact {
        id: "fig11".into(),
        title: "Figure 11: word_count and LLM failures in query_equiv".into(),
        body,
        csv: None,
    }
}

fn fig12(suite: &Suite) -> Artifact {
    let mut body = String::new();
    for w in [Workload::Sdss, Workload::JoinOrder] {
        let slice = equiv_slice(suite, ModelId::MistralAi, w, "predicate_count");
        body.push_str(&slice_block(
            &format!("MistralAI / {} / predicate_count", w.name()),
            &slice,
        ));
        body.push('\n');
    }
    Artifact {
        id: "fig12".into(),
        title: "Figure 12: predicate_count and LLM failure in query_equiv".into(),
        body,
        csv: None,
    }
}

// ---------------- §4.5 case study ----------------

fn case_study() -> Artifact {
    use squ_llm::{GroundTruth, Request, Task};
    let mut body = String::new();
    for (name, sql, reference) in squ_tasks::case_study_queries() {
        let stmt = squ_parser::parse(sql).expect("case-study queries parse"); // lint:allow: generated/fixed SQL, parse covered by tests
        let facts = squ_tasks::key_facts(&stmt);
        let props = squ_workload::query_props(sql, &stmt);
        body.push_str(&format!(
            "== {name} ==\nSQL: {sql}\nReference: {reference}\n"
        ));
        for mid in ModelId::ALL {
            let m = model(mid);
            let req = Request {
                task: Task::Explain,
                dataset: squ_llm::DatasetId::Spider,
                example_id: format!("case-{name}"),
                prompt: sql.to_string(),
                truth: GroundTruth::Explain {
                    reference: reference.to_string(),
                    facts: facts.clone(),
                    sql: sql.to_string(),
                },
                props: props.clone(),
            };
            let explanation = m.respond(&req);
            let rubric = squ_eval::score_explanation(&explanation, &facts);
            body.push_str(&format!(
                "  {:<9} [{:.2}] {}\n",
                mid.name(),
                rubric.score,
                explanation
            ));
            if !rubric.missing.is_empty() {
                body.push_str(&format!(
                    "            missing: {}\n",
                    rubric.missing.join("; ")
                ));
            }
        }
        body.push('\n');
    }
    Artifact {
        id: "casestudy".into(),
        title: "Section 4.5: Query-explanation case study (Q15-Q18)".into(),
        body,
        csv: None,
    }
}
