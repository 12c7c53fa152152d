//! Self-contained HTML report with inline SVG cost-function plots —
//! the Figure-1 view of a profile, as a single file with no external
//! assets or dependencies.

use std::fmt::Write as _;

use crate::profile::{AlgorithmicProfile, CostMetric, ProfileSet};

/// Shared page head for profile reports.
const PROFILE_HEAD: &str = "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>algorithmic profile</title>\n<style>\n\
         body { font-family: sans-serif; margin: 2em; color: #222; }\n\
         h2 { border-bottom: 1px solid #ccc; padding-bottom: 0.2em; }\n\
         .meta { color: #555; }\n\
         pre { background: #f6f6f6; padding: 0.8em; overflow-x: auto; }\n\
         svg { background: #fafafa; border: 1px solid #ddd; }\n\
         </style></head><body>\n";

/// Renders the whole profile as a standalone HTML page: one section per
/// algorithm with its classification, an SVG scatter plot of
/// ⟨input size, steps⟩ with the fitted curve, and the fitted cost
/// function.
pub fn render_html(profile: &AlgorithmicProfile) -> String {
    let mut out = String::new();
    out.push_str(PROFILE_HEAD);
    out.push_str("<h1>Algorithmic profile</h1>\n");
    profile_body(profile, &mut out);
    out.push_str("</body></html>\n");
    out
}

/// Renders a per-thread profile set as HTML. Single-threaded sets render
/// exactly like [`render_html`] on the main profile; threaded sets get
/// one `Thread tN` headed part per guest thread plus the merged
/// cross-thread summary from [`crate::report`].
pub fn render_html_set(set: &ProfileSet) -> String {
    if !set.is_threaded() {
        return render_html(set.main());
    }
    let mut out = String::new();
    out.push_str(PROFILE_HEAD);
    for (t, p) in set.threads().iter().enumerate() {
        let label = if t == 0 { " (main)" } else { "" };
        let _ = writeln!(out, "<h1>Thread t{t}{label}</h1>");
        profile_body(p, &mut out);
    }
    out.push_str("<h1>Merged (all threads)</h1>\n");
    let _ = writeln!(
        out,
        "<pre>{}</pre>",
        escape(&crate::report::render_merged(set))
    );
    out.push_str("</body></html>\n");
    out
}

/// The per-profile body shared by [`render_html`] and
/// [`render_html_set`]: the text rendering plus one plotted section per
/// algorithm with at least two data points.
fn profile_body(profile: &AlgorithmicProfile, out: &mut String) {
    let _ = writeln!(out, "<pre>{}</pre>", escape(&profile.render_text()));

    for algo in profile.algorithms() {
        let series = profile.invocation_series(algo.id, CostMetric::Steps);
        if series.len() < 2 {
            continue;
        }
        let _ = writeln!(
            out,
            "<h2>{} <span class=\"meta\">({})</span></h2>",
            escape(profile.node_name(algo.root)),
            escape(&profile.describe_algorithm(algo.id)),
        );
        let fit = profile.fit_invocation_steps(algo.id);
        if let Some(fit) = &fit {
            let _ = writeln!(
                out,
                "<p class=\"meta\">fitted: {} &nbsp; [{}]</p>",
                escape(&fit.to_string()),
                fit.model.big_o(),
            );
        }
        out.push_str(&scatter_svg(&series, fit.as_ref()));
    }
}

/// Renders a sweep report as a standalone HTML page: the job table plus
/// one section per merged series with its scatter plot and fits.
/// Deterministic — the bytes depend only on the report contents.
pub fn render_sweep_html(report: &crate::sweep::SweepReport) -> String {
    let mut out = String::new();
    out.push_str(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>algoprof sweep</title>\n<style>\n\
         body { font-family: sans-serif; margin: 2em; color: #222; }\n\
         h2 { border-bottom: 1px solid #ccc; padding-bottom: 0.2em; }\n\
         .meta { color: #555; }\n\
         table { border-collapse: collapse; }\n\
         td, th { border: 1px solid #ccc; padding: 0.3em 0.7em; }\n\
         svg { background: #fafafa; border: 1px solid #ddd; }\n\
         .agree { color: #2a7a2a; }\n\
         .classonly { color: #8a6d00; }\n\
         .disagree { color: #b00020; }\n\
         </style></head><body>\n<h1>Sweep report</h1>\n",
    );
    let _ = writeln!(
        out,
        "<p class=\"meta\">program: {} &nbsp; sizes: {} &nbsp; ablations: {}</p>",
        escape(&report.program),
        report
            .sizes
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(" "),
        escape(&report.ablations.join(" ")),
    );

    out.push_str("<table>\n<tr><th>job</th><th>trace bytes</th><th>events</th>");
    for a in &report.ablations {
        let _ = write!(out, "<th>steps [{}]</th>", escape(a));
    }
    out.push_str("</tr>\n");
    for job in &report.jobs {
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td>",
            escape(&job.label),
            job.trace_bytes,
            job.events
        );
        for run in &job.runs {
            let _ = write!(out, "<td>{}</td>", run.total_steps);
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>\n");

    for s in &report.series {
        let prefix = if s.program.is_empty() {
            String::new()
        } else {
            format!("{} · ", s.program)
        };
        let tsuffix = match s.thread {
            Some(t) => format!(" [t{t}]"),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "<h2>{}{}{tsuffix} <span class=\"meta\">[{}]</span></h2>",
            escape(&prefix),
            escape(&s.algorithm),
            escape(&s.ablation),
        );
        if !s.kind.is_empty() {
            let _ = writeln!(out, "<p class=\"meta\">{}</p>", escape(&s.kind));
        }
        if let Some(fit) = &s.fit {
            let _ = writeln!(
                out,
                "<p class=\"meta\">best fit: {} &nbsp; rmse = {:.4} &nbsp; [{}]</p>",
                escape(&fit.to_string()),
                fit.rmse,
                fit.model.big_o(),
            );
        }
        if let Some(p) = &s.power_law {
            let _ = writeln!(
                out,
                "<p class=\"meta\">power law: {}</p>",
                escape(&p.to_string()),
            );
        }
        if let Some(pred) = s.predicted {
            use algoprof_fit::CoeffVerdict;
            let verdict = match s.coeff.verdict {
                CoeffVerdict::Agrees => match (s.coeff.predicted, s.coeff.fitted) {
                    (Some(p), Some(f)) => format!(
                        "<span class=\"agree\">[agrees]</span> (coeff {p} vs fitted {f:.4})"
                    ),
                    _ => "<span class=\"agree\">[agrees]</span>".to_string(),
                },
                CoeffVerdict::ClassOnly => format!(
                    "<span class=\"classonly\">[class-only: {}]</span>",
                    escape(s.coeff.reason),
                ),
                CoeffVerdict::Disagrees => format!(
                    "<strong class=\"disagree\">[DISAGREES with best fit {}]</strong>",
                    s.fit.as_ref().map(|f| f.model.big_o()).unwrap_or("(none)"),
                ),
                CoeffVerdict::Unverified => "[unverified]".to_string(),
            };
            let cost = match &s.predicted_cost {
                Some(c) => format!(" = {}", escape(&c.to_string())),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "<p class=\"meta\">predicted: {}{cost} &nbsp; {verdict}</p>",
                pred.big_o(),
            );
        }
        out.push_str(&scatter_svg(&s.points, s.fit.as_ref()));
    }

    out.push_str("</body></html>\n");
    out
}

/// An SVG scatter plot of ⟨input size, steps⟩ `series`, with the fitted
/// curve overlaid when there is one: a profile's per-invocation points or
/// a sweep's merged points.
fn scatter_svg(series: &[(f64, f64)], fit: Option<&algoprof_fit::Fit>) -> String {
    const W: f64 = 520.0;
    const H: f64 = 320.0;
    const PAD: f64 = 45.0;

    let max_x = series.iter().map(|p| p.0).fold(1.0f64, f64::max);
    let max_y = series.iter().map(|p| p.1).fold(1.0f64, f64::max);
    let sx = |x: f64| PAD + x / max_x * (W - 2.0 * PAD);
    let sy = |y: f64| H - PAD - y / max_y * (H - 2.0 * PAD);

    let mut svg = format!(
        "<svg width=\"{W}\" height=\"{H}\" viewBox=\"0 0 {W} {H}\" \
         xmlns=\"http://www.w3.org/2000/svg\">\n"
    );
    // Axes and their labels.
    let _ = writeln!(
        svg,
        "  <line x1=\"{PAD}\" y1=\"{0}\" x2=\"{1}\" y2=\"{0}\" stroke=\"#333\"/>\n\
         \x20 <line x1=\"{PAD}\" y1=\"{PAD}\" x2=\"{PAD}\" y2=\"{0}\" stroke=\"#333\"/>",
        H - PAD,
        W - PAD,
    );
    let _ = writeln!(
        svg,
        "  <text x=\"{}\" y=\"{}\" font-size=\"11\" text-anchor=\"middle\">input size (max {max_x})</text>\n\
         \x20 <text x=\"12\" y=\"{}\" font-size=\"11\" transform=\"rotate(-90 12 {})\" text-anchor=\"middle\">steps (max {max_y})</text>",
        W / 2.0,
        H - 10.0,
        H / 2.0,
        H / 2.0,
    );
    // Fitted curve, sampled at 64 points.
    if let Some(fit) = fit {
        let mut d = String::new();
        for i in 0..=64 {
            let x = max_x * i as f64 / 64.0;
            let y = fit.predict(x).clamp(0.0, max_y * 1.05);
            let cmd = if i == 0 { 'M' } else { 'L' };
            let _ = write!(d, "{cmd}{:.1},{:.1} ", sx(x), sy(y.min(max_y)));
        }
        let _ = writeln!(
            svg,
            "  <path d=\"{d}\" fill=\"none\" stroke=\"#c33\" stroke-width=\"1.5\"/>"
        );
    }
    // Points.
    for &(x, y) in series {
        let _ = writeln!(
            svg,
            "  <circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"2.5\" fill=\"#246\" fill-opacity=\"0.75\"/>",
            sx(x),
            sy(y)
        );
    }
    svg.push_str("</svg>\n");
    svg
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sort_profile() -> AlgorithmicProfile {
        let src = algoprof_programs_src();
        crate::run::profile_source(&src).expect("profiles")
    }

    // A small local sweep (avoiding a cyclic dev-dependency on the
    // programs crate).
    fn algoprof_programs_src() -> String {
        r#"
        class Main {
            static int main() {
                for (int size = 5; size <= 40; size = size + 5) {
                    Node head = null;
                    for (int i = 0; i < size; i = i + 1) {
                        Node n = new Node();
                        n.next = head;
                        head = n;
                    }
                }
                return 0;
            }
        }
        class Node { Node next; }
        "#
        .to_owned()
    }

    #[test]
    fn html_contains_svg_and_fit() {
        let p = sort_profile();
        let html = render_html(&p);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("circle"));
        assert!(html.contains("fitted:"));
        assert!(html.trim_end().ends_with("</html>"));
    }

    #[test]
    fn html_escapes_special_characters() {
        assert_eq!(escape("a<b && c>d"), "a&lt;b &amp;&amp; c&gt;d");
    }

    #[test]
    fn svg_point_count_matches_series() {
        let p = sort_profile();
        let algo = p
            .algorithm_by_root_name("Main.main:loop1")
            .expect("construction loop");
        let series = p.invocation_series(algo.id, CostMetric::Steps);
        let fit = p.fit_invocation_steps(algo.id);
        let svg = scatter_svg(&series, fit.as_ref());
        assert_eq!(svg.matches("<circle").count(), series.len());
        assert_eq!(svg.matches("<path").count(), 1, "one fitted curve");
    }
}
