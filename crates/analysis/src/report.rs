//! Text and JSON rendering of an [`Analysis`].
//!
//! Both renderers are deterministic (diagnostics and predictions are
//! already in canonical order) and the JSON is hand-rolled like the
//! sweep reports — the workspace is dependency-free by design.

use std::fmt::Write as _;

use crate::compose::PredictionKind;
use crate::diag::Level;
use crate::Analysis;

/// Renders the human-readable lint report.
pub fn render_text(analysis: &Analysis, file: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# algoprof lint: {file}");
    let _ = writeln!(out);
    if analysis.diagnostics.is_empty() {
        let _ = writeln!(out, "no findings");
    } else {
        for d in &analysis.diagnostics {
            let _ = writeln!(out, "{}[{}]: {}", d.level, d.code, d.message);
            let _ = writeln!(out, "  --> {}:{}", d.span.function, d.span.line);
        }
    }
    let errors = analysis
        .diagnostics
        .iter()
        .filter(|d| d.level == Level::Error)
        .count();
    let warnings = analysis.diagnostics.len() - errors;
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{errors} error{}, {warnings} warning{}",
        if errors == 1 { "" } else { "s" },
        if warnings == 1 { "" } else { "s" },
    );

    if !analysis.predictions.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "predicted complexity:");
        for p in &analysis.predictions {
            let _ = writeln!(out, "  {}  {}  ({})", p.name, p.class.big_o(), p.detail);
        }
    }
    out
}

/// Renders the machine-readable report.
pub fn render_json(analysis: &Analysis, file: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"file\": {},", json_str(file));
    let _ = writeln!(out, "  \"errors\": {},", analysis.has_errors);
    out.push_str("  \"diagnostics\": [\n");
    for (i, d) in analysis.diagnostics.iter().enumerate() {
        let comma = if i + 1 < analysis.diagnostics.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"level\": {}, \"code\": {}, \"function\": {}, \"line\": {}, \"message\": {}}}{comma}",
            json_str(d.level.as_str()),
            json_str(d.code.as_str()),
            json_str(&d.span.function),
            d.span.line,
            json_str(&d.message),
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"predictions\": [\n");
    for (i, p) in analysis.predictions.iter().enumerate() {
        let comma = if i + 1 < analysis.predictions.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"kind\": {}, \"class\": {}, \"function\": {}, \"line\": {}, \"detail\": {}}}{comma}",
            json_str(&p.name),
            json_str(match p.kind {
                PredictionKind::Loop => "loop",
                PredictionKind::Recursion => "recursion",
            }),
            json_str(p.class.big_o()),
            json_str(&p.function),
            p.line,
            json_str(&p.detail),
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("plain"), "\"plain\"");
    }
}
