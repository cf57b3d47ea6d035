//! SARIF 2.1.0 output (`--format sarif`).
//!
//! Minimal, static-schema serialization: one run, one driver
//! (`cs-lint`), every [`RuleId`] registered as a reportingDescriptor
//! (id = short id, name = slug, fullDescription = the `--explain`
//! rationale), one result per finding with a physical location. GitHub's
//! SARIF upload turns these into inline PR annotations.

use crate::json_escape;
use crate::rules::{Finding, RuleId};

/// Render findings as a SARIF 2.1.0 document.
pub fn to_sarif(findings: &[Finding], deny: bool) -> String {
    let level = if deny { "error" } else { "warning" };
    let mut s = String::from(
        "{\n  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \"name\": \"cs-lint\",\n          \"informationUri\": \"DESIGN.md\",\n          \"rules\": [",
    );
    for (i, r) in RuleId::ALL.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"name\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \"fullDescription\": {{\"text\": \"{}\"}}}}",
            r.id(),
            json_escape(r.slug()),
            json_escape(r.summary()),
            json_escape(r.explain())
        ));
    }
    s.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n        {{\"ruleId\": \"{}\", \"level\": \"{level}\", \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
            f.rule.id(),
            json_escape(&f.message),
            json_escape(&f.file),
            f.line.max(1)
        ));
    }
    if !findings.is_empty() {
        s.push_str("\n      ");
    }
    s.push_str("]\n    }\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn sarif_is_valid_json_with_all_rules_and_results() {
        let findings = vec![Finding {
            file: "crates/proto/src/a.rs".to_string(),
            line: 7,
            rule: RuleId::R1,
            message: "quote \" and backslash \\".to_string(),
        }];
        let doc = to_sarif(&findings, true);
        let Value::Map(top) = serde_json::from_str::<Value>(&doc).unwrap() else {
            panic!("SARIF document is not a JSON object");
        };
        let runs = top.iter().find(|(k, _)| k == "runs").map(|(_, v)| v);
        assert!(matches!(runs, Some(Value::Seq(r)) if r.len() == 1));
        let txt = doc.as_str();
        assert!(txt.contains("\"version\": \"2.1.0\""));
        assert!(txt.contains("\"ruleId\": \"R1\""));
        assert!(txt.contains("\"level\": \"error\""));
        assert!(txt.contains("\"startLine\": 7"));
        for r in RuleId::ALL {
            assert!(txt.contains(&format!("\"id\": \"{}\"", r.id())));
        }
    }

    #[test]
    fn empty_findings_still_valid() {
        let doc = to_sarif(&[], false);
        assert!(serde_json::from_str::<Value>(&doc).is_ok());
        assert!(doc.contains("\"results\": []"));
    }
}
