//! In-process reference answers, computed with `pdb_core::ProbDb` on the
//! same generated data and rendered with the protocol's own formatters.

use crate::gen::{Kind, INGEST_VIEWS};
use pdb_core::{ProbDb, QueryOptions};
use pdb_data::Tuple;
use pdb_server::protocol::{
    format_answer, format_answer_tuples, format_complexity, format_view_show, parse_command,
    Command, ViewCommand, ViewQueryText,
};
use pdb_views::{ViewDef, ViewManager};

/// Karp–Luby samples of the server's post-deadline path
/// (`ServiceOptions::default().degraded_samples`).
pub const DEGRADED_SAMPLES: u64 = 20_000;

/// Applies an `insert` or `update` line to `db`.
pub fn apply(db: &mut ProbDb, line: &str) -> Result<(), String> {
    match parse_command(line)? {
        Command::Insert {
            relation,
            tuple,
            prob,
        } => {
            db.insert(&relation, tuple, prob);
            Ok(())
        }
        Command::Update {
            relation,
            tuple,
            prob,
        } => db
            .update_prob(&relation, &Tuple::new(tuple), prob)
            .map(|_| ())
            .ok_or_else(|| format!("update of a missing tuple: {line}")),
        other => Err(format!("not a write: {other:?}")),
    }
}

/// A database holding exactly the tuples of `lines`, inserted in order.
pub fn load(lines: &[String]) -> Result<ProbDb, String> {
    let mut db = ProbDb::new();
    for line in lines {
        apply(&mut db, line)?;
    }
    Ok(db)
}

/// The exact answer text of a read line on `db`.
pub fn exact(db: &ProbDb, line: &str) -> Result<String, String> {
    match parse_command(line)? {
        Command::Query(q) => db
            .query(&q)
            .map(|a| format_answer(&a))
            .map_err(|e| e.to_string()),
        Command::Answers { head, cq } => {
            let parsed = pdb_logic::parse_cq(&cq).map_err(|e| e.to_string())?;
            let vars: Vec<pdb_logic::Var> = head.iter().map(|v| pdb_logic::Var::new(v)).collect();
            db.query_answers(&parsed, &vars, &QueryOptions::default())
                .map(|rows| format_answer_tuples(&head, &rows))
                .map_err(|e| e.to_string())
        }
        Command::Classify(q) => {
            let ucq = pdb_logic::parse_ucq(&q).map_err(|e| e.to_string())?;
            Ok(format!(
                "{}\n",
                format_complexity(pdb_core::classify_ucq(&ucq))
            ))
        }
        Command::View(ViewCommand::Show { name }) => fresh_view_show(db, &name),
        other => Err(format!("not a read: {other:?}")),
    }
}

/// The answer the server's post-deadline path computes: the cascade with
/// an exact budget of one decision and the degraded sample count.
pub fn degraded(db: &ProbDb, line: &str) -> Result<String, String> {
    let Command::Query(q) = parse_command(line)? else {
        return Err(format!("not a query: {line}"));
    };
    let fo = pdb_logic::parse_fo(&q).map_err(|e| e.to_string())?;
    let opts = QueryOptions {
        exact_budget: 1,
        samples: DEGRADED_SAMPLES,
        ..QueryOptions::default()
    };
    db.query_fo(&fo, &opts)
        .map(|a| format_answer(&a))
        .map_err(|e| e.to_string())
}

/// The parsed text after `view create <name>`.
pub fn view_query(def: &str) -> Result<ViewQueryText, String> {
    match parse_command(&format!("view create v {def}"))? {
        Command::View(ViewCommand::Create { query, .. }) => Ok(query),
        _ => Err(format!("bad view definition {def}")),
    }
}

/// The definition of a view from the text after `view create <name>`.
pub fn view_def(def: &str) -> Result<ViewDef, String> {
    match view_query(def)? {
        ViewQueryText::Boolean(q) => ViewDef::boolean(&q),
        ViewQueryText::Answers { head, cq } => ViewDef::answers(&head, &cq),
    }
    .map_err(|e| e.to_string())
}

/// `view show <name>` of a view freshly compiled on `db`.
pub fn fresh_view_show(db: &ProbDb, name: &str) -> Result<String, String> {
    let (_, def) = INGEST_VIEWS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown view {name}"))?;
    let mut views = ViewManager::new();
    let view = views
        .create(name, view_def(def)?, db)
        .map_err(|e| e.to_string())?;
    Ok(format_view_show(view))
}

/// Rows of an answer in a canonical order: an incrementally maintained
/// view keeps the row order of its build, a fresh compile sorts anew.
pub fn sorted_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines
}

/// Checks a `query` response's engine against the generator's intent.
pub fn engine_matches(kind: Kind, response: &str) -> bool {
    match kind.engine() {
        Some(engine) => response.contains(&format!("(engine: {engine})")),
        None => !response.starts_with("error") && !response.contains("parse error"),
    }
}

/// `(p, lower, upper)` of an approximate answer line.
pub fn parse_bounds(response: &str) -> Option<(f64, f64, f64)> {
    let p = response.strip_prefix("p = ")?.split_whitespace().next()?;
    let bounds = response.split("bounds [").nth(1)?;
    let (lo, hi) = bounds.trim_end().trim_end_matches(']').split_once(", ")?;
    Some((p.parse().ok()?, lo.parse().ok()?, hi.parse().ok()?))
}
