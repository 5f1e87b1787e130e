//! Unit tests for the pipeline layer using scripted stub models — the
//! extraction and outcome mapping is exercised without any simulator in
//! the loop.

use squ_llm::{run_task_direct, DatasetId, LanguageModel, ModelId, Request, SimulatedModel};
use squ_tasks::{SyntaxErrorType, SyntaxExample, SyntaxTask, TokenExample, TokenTask, TokenType};
use squ_workload::QueryProps;

/// A model that replays a fixed response for every request.
struct Scripted(&'static str);

impl LanguageModel for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }
    fn respond(&self, _req: &Request) -> String {
        self.0.to_string()
    }
}

fn props() -> QueryProps {
    QueryProps {
        char_count: 60,
        word_count: 10,
        query_type: "SELECT".into(),
        table_count: 1,
        join_count: 0,
        column_count: 2,
        function_count: 0,
        predicate_count: 1,
        nestedness: 0,
        aggregate: false,
    }
}

fn syntax_example(has_error: bool) -> SyntaxExample {
    SyntaxExample {
        query_id: "u-1".into(),
        schema_name: "sdss".into(),
        sql: "SELECT plate FROM SpecObj".into(),
        has_error,
        error_type: has_error.then_some(SyntaxErrorType::AggrAttr),
        expected_span: None,
        props: props(),
    }
}

fn token_example() -> TokenExample {
    TokenExample {
        query_id: "u-2".into(),
        schema_name: "sdss".into(),
        sql: "SELECT plate SpecObj".into(),
        has_missing: true,
        token_type: Some(TokenType::Keyword),
        removed_text: Some("FROM".into()),
        position: Some(2),
        removed_at: Some(13),
        props: props(),
    }
}

#[test]
fn syntax_outcome_maps_affirmative_response() {
    let m = Scripted("Yes, the query contains a syntax error (error type: aggr-attr).");
    let out = run_task_direct(&SyntaxTask, &m, DatasetId::Sdss, &[syntax_example(true)]);
    assert!(out[0].said_error);
    assert_eq!(out[0].said_type.as_deref(), Some("aggr-attr"));
    assert!(!out[0].needs_review);
}

#[test]
fn syntax_outcome_maps_negative_response() {
    let m = Scripted("No, the query does not contain any syntax errors.");
    let out = run_task_direct(&SyntaxTask, &m, DatasetId::Sdss, &[syntax_example(false)]);
    assert!(!out[0].said_error);
    assert!(out[0].said_type.is_none());
}

#[test]
fn unparseable_response_flags_review_and_defaults_negative() {
    let m = Scripted("I am a language model and cannot evaluate SQL.");
    let out = run_task_direct(&SyntaxTask, &m, DatasetId::Sdss, &[syntax_example(true)]);
    assert!(!out[0].said_error, "review default is the negative answer");
    assert!(out[0].needs_review);
}

#[test]
fn token_outcome_extracts_type_word_and_position() {
    let m = Scripted(
        "Yes — the query is incomplete. Missing token type: keyword. Missing word: FROM. Position: 2.",
    );
    let out = run_task_direct(&TokenTask, &m, DatasetId::Sdss, &[token_example()]);
    assert!(out[0].said_missing);
    assert_eq!(out[0].said_type.as_deref(), Some("keyword"));
    assert_eq!(out[0].said_position, Some(2));
    assert_eq!(out[0].said_word.as_deref(), Some("FROM"));
}

#[test]
fn negative_token_response_has_no_fields() {
    let m = Scripted("No, nothing seems to be missing from this query.");
    let out = run_task_direct(&TokenTask, &m, DatasetId::Sdss, &[token_example()]);
    assert!(!out[0].said_missing);
    assert!(out[0].said_type.is_none());
    assert!(out[0].said_position.is_none());
    assert!(out[0].said_word.is_none());
}

#[test]
fn dataset_id_mapping_is_total() {
    use squ_workload::Workload;
    assert_eq!(DatasetId::from(Workload::Sdss), DatasetId::Sdss);
    assert_eq!(DatasetId::from(Workload::SqlShare), DatasetId::SqlShare);
    assert_eq!(DatasetId::from(Workload::JoinOrder), DatasetId::JoinOrder);
    assert_eq!(DatasetId::from(Workload::Spider), DatasetId::Spider);
}

#[test]
fn all_models_registry_covers_the_paper() {
    assert_eq!(ModelId::ALL.len(), 5);
    let names: Vec<&str> = ModelId::ALL
        .into_iter()
        .map(|id| SimulatedModel::new(id).name())
        .collect();
    for expected in ["GPT4", "GPT3.5", "Llama3", "MistralAI", "Gemini"] {
        assert!(names.contains(&expected), "missing {expected}");
    }
}
