//! Evaluate your own model against the benchmark.
//!
//! [`LanguageModel`] is the only integration point: anything that turns a
//! prompt into text can be scored. This example implements two trivial
//! baselines — a majority-class model that always answers "no" and a
//! parser-oracle that answers from `squ`'s own parser/binder — and ranks
//! them against the five simulated paper models on `syntax_error`.
//!
//! The parser-oracle is the interesting one: it shows the headroom between
//! today's LLMs and a classical analysis (it scores ~1.0 because the task's
//! labels are binder-verified).
//!
//! ```text
//! cargo run --release --example custom_model
//! ```

use squ::{Suite, PAPER_SEED};
use squ_eval::BinaryCounts;
use squ_llm::{run_task_direct, DatasetId, LanguageModel, ModelId, Request, SimulatedModel};
use squ_tasks::SyntaxTask;
use squ_workload::Workload;

/// Always answers "no error" — the majority-class baseline.
struct AlwaysNo;

impl LanguageModel for AlwaysNo {
    fn name(&self) -> &'static str {
        "always-no"
    }
    fn respond(&self, _req: &Request) -> String {
        "No, the query does not contain any syntax errors.".to_string()
    }
}

/// Answers from the benchmark's own parser + binder (an upper bound — the
/// labels are produced by this very analysis).
struct ParserOracle;

impl LanguageModel for ParserOracle {
    fn name(&self) -> &'static str {
        "parser-oracle"
    }
    fn respond(&self, req: &Request) -> String {
        // the prompt's last line is the SQL payload
        let sql = req.prompt.lines().last().unwrap_or("");
        let schema = squ_schema::schemas::sdss();
        match squ_parser::parse(sql) {
            Err(e) => format!("Yes, the query contains a syntax error: {e}."),
            Ok(stmt) => {
                let diags = squ_schema::analyze(&stmt, &schema);
                match diags.first() {
                    Some(d) => format!(
                        "Yes, the query contains a syntax error. {} (error type: {}).",
                        d.message,
                        d.kind.paper_label().unwrap_or("other")
                    ),
                    None => "No, the query does not contain any syntax errors.".to_string(),
                }
            }
        }
    }
}

fn main() {
    let suite = Suite::new(PAPER_SEED);
    let examples = suite.syntax_for(Workload::Sdss);
    let ds = DatasetId::from(Workload::Sdss);

    let mut rows: Vec<(String, BinaryCounts)> = Vec::new();
    for id in ModelId::ALL {
        let outcomes = run_task_direct(&SyntaxTask, &SimulatedModel::new(id), ds, examples);
        rows.push((
            id.name().to_string(),
            BinaryCounts::from_pairs(outcomes.iter().map(|o| (o.example.has_error, o.said_error))),
        ));
    }
    for model in [&AlwaysNo as &dyn LanguageModel, &ParserOracle] {
        let outcomes = run_task_direct(&SyntaxTask, model, ds, examples);
        rows.push((
            model.name().to_string(),
            BinaryCounts::from_pairs(outcomes.iter().map(|o| (o.example.has_error, o.said_error))),
        ));
    }

    rows.sort_by(|a, b| b.1.f1().partial_cmp(&a.1.f1()).expect("finite"));

    println!("syntax_error on SDSS ({} examples):\n", examples.len());
    println!(
        "{:<14} {:>6} {:>6} {:>6} {:>6}",
        "model", "P", "R", "F1", "acc"
    );
    for (name, c) in rows {
        println!(
            "{:<14} {:>6.2} {:>6.2} {:>6.2} {:>6.2}",
            name,
            c.precision(),
            c.recall(),
            c.f1(),
            c.accuracy()
        );
    }
    println!("\nThe parser-oracle's score is the ceiling: the benchmark's labels");
    println!("are produced (and verified) by the same analysis it answers with.");
}
