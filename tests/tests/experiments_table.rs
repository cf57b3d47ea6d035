//! EXPERIMENTS.md, the committed `EXPERIMENTS.json` and the oracle's
//! registry (`coolstreaming::experiments::rows`) describe the same
//! experiments. Nothing here runs a row: the JSON is what
//! `coolstream reproduce --out .` wrote, and CI's `reproduce` job checks
//! that it still does.

use std::collections::BTreeSet;
use std::path::Path;

use coolstreaming::experiments::{rows, REPLICATIONS};
use serde::Value;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key).as_str().expect("a string")
}

/// The `(id, shape cell)` pairs of EXPERIMENTS.md's paper-vs-measured
/// table, TAB1 (configuration, no predicate) left out.
fn markdown_rows() -> Vec<(String, String)> {
    let text = read("EXPERIMENTS.md");
    let header = "| ID | Figure | Paper reports | We measure | Shape |";
    let table = text.split_once(header).expect("the table header").1;
    table
        .lines()
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            let cells: Vec<&str> = l.trim_matches('|').split(" | ").map(str::trim).collect();
            (
                cells[0].to_string(),
                cells.last().expect("cells").to_string(),
            )
        })
        .filter(|(id, _)| id != "TAB1")
        .collect()
}

/// Every predicate of the committed JSON, in report order.
fn json_checks() -> Vec<Value> {
    let doc: Value = serde_json::from_str(&read("EXPERIMENTS.json")).expect("EXPERIMENTS.json");
    field(&doc, "rows")
        .as_seq()
        .expect("rows")
        .iter()
        .flat_map(|row| field(row, "checks").as_seq().expect("checks").to_vec())
        .collect()
}

#[test]
fn markdown_json_and_registry_name_the_same_experiments() {
    let md: BTreeSet<String> = markdown_rows().into_iter().map(|(id, _)| id).collect();
    let json: BTreeSet<String> = json_checks()
        .iter()
        .map(|c| str_of(c, "id").to_string())
        .collect();
    let registry: BTreeSet<String> = rows()
        .iter()
        .flat_map(|r| r.ids.iter().map(|id| id.to_string()))
        .collect();
    assert_eq!(md, registry, "EXPERIMENTS.md vs registry");
    assert_eq!(json, registry, "EXPERIMENTS.json vs registry");
}

/// The JSON holds the registry's predicates, in its order: a changed
/// bound or a new predicate needs a regenerated file.
#[test]
fn the_json_holds_the_registrys_predicates() {
    let registry: Vec<String> = rows()
        .iter()
        .flat_map(|r| &r.checks)
        .map(|c| format!("{} {} {} {:?}", c.id, c.value, c.op.symbol(), c.bound))
        .collect();
    let json: Vec<String> = json_checks()
        .iter()
        .map(|c| {
            let bound = match field(c, "bound") {
                Value::Float(b) => *b,
                // serde_json writes non-finite numbers as null; the only
                // one is an infinite bound.
                Value::Null => f64::INFINITY,
                other => panic!("bound {other:?}"),
            };
            let (id, value, op) = (str_of(c, "id"), str_of(c, "value"), str_of(c, "op"));
            format!("{id} {value} {op} {bound:?}")
        })
        .collect();
    assert_eq!(json, registry);
    for c in json_checks() {
        let n = field(&c, "values").as_seq().expect("values").len();
        assert_eq!(n as u64, REPLICATIONS, "{c:?}");
    }
}

/// Each row's Shape cell states the pass counts the JSON records for its
/// id, in registry order: `k/8 · k/8 · …`.
#[test]
fn shape_cells_state_the_json_pass_counts() {
    let checks = json_checks();
    for (id, shape) in markdown_rows() {
        let want: Vec<String> = checks
            .iter()
            .filter(|c| str_of(c, "id") == id)
            .map(|c| match field(c, "passes") {
                Value::Int(k) => format!("{k}/{REPLICATIONS}"),
                other => panic!("passes {other:?}"),
            })
            .collect();
        assert_eq!(shape, want.join(" · "), "Shape cell of {id}");
    }
}
