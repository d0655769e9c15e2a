//! Self-contained HTML rendering of a trace profile.
//!
//! [`render_html`] turns one loaded [`Trace`] into a single HTML document
//! with the [`summarize`](profile::summarize) tables and histograms
//! inlined — no external stylesheets, scripts, images, or fonts, so the
//! file can be archived as a CI artifact or mailed around and will render
//! identically anywhere. Charts are plain `<div>` bars sized inline;
//! styling is one embedded `<style>` block.
//!
//! [`render_access_html`] renders the serve access-log analysis
//! ([`AccessReport`](crate::serve::access::AccessReport), `l2 serve
//! report`) as a dashboard under the same self-containment contract.

use std::fmt::Write as _;

use super::metrics::Histogram;
use super::profile::{self, Summary, Trace, Weight};
use crate::serve::access::AccessReport;

/// Escapes text for HTML element content and attribute values.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

/// One horizontal bar scaled against `max`, with its label and value.
fn bar_row(out: &mut String, label: &str, value: u64, max: u64) {
    let pct = if max == 0 {
        0.0
    } else {
        value as f64 * 100.0 / max as f64
    };
    let _ = writeln!(
        out,
        r#"<tr><td class="lbl">{}</td><td class="barcell"><div class="bar" style="width:{:.1}%"></div></td><td class="num">{}</td></tr>"#,
        esc(label),
        pct,
        value
    );
}

/// Opens a titled section.
fn section(out: &mut String, title: &str) {
    let _ = writeln!(out, "<h2>{}</h2>", esc(title));
}

/// Explicit, nonfatal stand-in for a section with nothing to show: a
/// trace from a barely instrumented run (tight options, a path that never
/// emitted this event family) renders a note instead of a bare header
/// over an empty table.
fn empty_note(out: &mut String, what: &str) {
    let _ = writeln!(
        out,
        r#"<p class="meta">No {} recorded in this trace.</p>"#,
        esc(what)
    );
}

const STYLE: &str = r#"
body { font: 14px/1.5 -apple-system, "Segoe UI", Roboto, sans-serif; margin: 2rem auto; max-width: 60rem; padding: 0 1rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #3b4a6b; padding-bottom: .3rem; }
h2 { font-size: 1.1rem; margin-top: 2rem; color: #3b4a6b; }
table { border-collapse: collapse; width: 100%; margin: .5rem 0; }
th, td { text-align: left; padding: .2rem .6rem; border-bottom: 1px solid #e3e6ee; }
th { background: #f2f4f9; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
td.lbl { white-space: nowrap; font-family: ui-monospace, monospace; font-size: 13px; }
td.barcell { width: 55%; }
div.bar { background: #6b8cce; height: .8rem; border-radius: 2px; min-width: 1px; }
code, pre { font-family: ui-monospace, monospace; font-size: 13px; background: #f2f4f9; border-radius: 3px; padding: .1rem .3rem; }
pre { padding: .6rem; overflow-x: auto; }
p.meta { color: #667; }
"#;

/// Renders one trace as a single self-contained HTML document.
///
/// `source` names the trace in the page header (typically its file path).
pub fn render_html(trace: &Trace, source: &str) -> String {
    let s = profile::summarize(trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>lambda2 profile: {}</title><style>{}</style></head><body>",
        esc(source),
        STYLE
    );
    let _ = writeln!(out, "<h1>λ² synthesis profile</h1>");
    let _ = writeln!(
        out,
        r#"<p class="meta">trace: <code>{}</code> — {} events</p>"#,
        esc(source),
        s.events
    );
    if let Some((program, cost)) = &s.solution {
        let _ = writeln!(
            out,
            "<p>solution (cost {cost}): <code>{}</code></p>",
            esc(program)
        );
    }

    render_time(&mut out, &s);
    render_pops(&mut out, &s);
    render_combs(&mut out, &s);
    render_refutations(&mut out, &s);
    render_pop_costs(&mut out, &s);
    render_stores(&mut out, &s);
    render_stacks(&mut out, trace);

    let _ = writeln!(out, "</body></html>");
    out
}

fn render_time(out: &mut String, s: &Summary) {
    let Some(t) = &s.time else {
        section(out, "Time attribution");
        let _ = writeln!(
            out,
            "<p>This trace carries no <code>t_us</code> timestamps (merged parallel \
             traces don't), so wall-time attribution is unavailable.</p>"
        );
        return;
    };
    section(out, "Time attribution");
    let _ = writeln!(
        out,
        "<p>{:.1} ms from first to last event, split by the category of the event \
         ending each gap:</p><table>",
        t.total_us as f64 / 1e3
    );
    let rows = [
        ("deduce", t.deduce_us),
        ("enumerate", t.enumerate_us),
        ("verify", t.verify_us),
        ("search/expand", t.search_us),
    ];
    let max = rows.iter().map(|(_, v)| *v).max().unwrap_or(0);
    for (label, us) in rows {
        bar_row(out, label, us, max);
    }
    let _ = writeln!(out, "</table>");
}

fn render_pops(out: &mut String, s: &Summary) {
    section(out, "Queue pops by kind");
    if s.pops_by_kind.is_empty() {
        empty_note(out, "queue pops");
        return;
    }
    let _ = writeln!(out, "<table>");
    let max = s.pops_by_kind.values().copied().max().unwrap_or(0);
    for (kind, n) in &s.pops_by_kind {
        bar_row(out, kind, *n, max);
    }
    let _ = writeln!(out, "</table>");
}

fn render_combs(out: &mut String, s: &Summary) {
    section(out, "Per-combinator attribution");
    if s.combs.is_empty() {
        empty_note(out, "per-combinator planner or deduction events");
        return;
    }
    let _ = writeln!(
        out,
        r#"<table><tr><th>comb</th><th class="num">plans</th><th class="num">rows inferred</th><th class="num">refuted</th><th class="num">static</th><th class="num">ill-typed</th><th class="num">init-mismatch</th></tr>"#
    );
    for (name, row) in &s.combs {
        let _ = writeln!(
            out,
            r#"<tr><td class="lbl">{}</td><td class="num">{}</td><td class="num">{}</td><td class="num">{}</td><td class="num">{}</td><td class="num">{}</td><td class="num">{}</td></tr>"#,
            esc(name),
            row.plans,
            row.rows_inferred,
            row.refuted,
            row.static_refuted,
            row.ill_typed,
            row.init_mismatch
        );
    }
    let _ = writeln!(out, "</table>");
}

fn render_refutations(out: &mut String, s: &Summary) {
    section(out, "Refutations by rule");
    if s.refute_reasons.is_empty() && s.static_domains.is_empty() {
        empty_note(out, "refutations");
        return;
    }
    let _ = writeln!(
        out,
        r#"<table><tr><th>rule</th><th class="num">refutations</th><th class="num">yield (/ms deduction)</th></tr>"#
    );
    let mut row = |label: &str, n: u64| {
        let yield_txt = match s.yield_per_ms(n) {
            Some(y) => format!("{y:.0}"),
            None => "—".to_owned(),
        };
        let _ = writeln!(
            out,
            r#"<tr><td class="lbl">{}</td><td class="num">{}</td><td class="num">{}</td></tr>"#,
            esc(label),
            n,
            yield_txt
        );
    };
    for (reason, n) in &s.refute_reasons {
        row(reason, *n);
    }
    for (domain, n) in &s.static_domains {
        row(&format!("static:{domain}"), *n);
    }
    let _ = writeln!(out, "</table>");
}

fn render_pop_costs(out: &mut String, s: &Summary) {
    section(out, "Popped-cost histogram");
    if s.pop_costs.is_empty() {
        empty_note(out, "popped-cost metrics");
        return;
    }
    let _ = writeln!(out, "<table>");
    let max = s.pop_costs.values().copied().max().unwrap_or(0);
    for (cost, n) in &s.pop_costs {
        bar_row(out, &format!("cost {cost}"), *n, max);
    }
    let _ = writeln!(out, "</table>");
}

fn render_stores(out: &mut String, s: &Summary) {
    section(out, "Enumeration & verification");
    let _ = writeln!(
        out,
        r#"<table><tr><th>counter</th><th class="num">value</th></tr>"#
    );
    for (label, n) in [
        ("stores created", s.store_creates),
        ("store cache hits", s.store_hits),
        ("stores evicted", s.store_evicts),
        ("closing tiers enumerated", s.tiers),
        ("closing fills produced", s.tier_fills),
        ("verifications passed", s.verify_ok),
        ("verifications failed", s.verify_fail),
        ("isolated faults", s.faults),
    ] {
        let _ = writeln!(
            out,
            r#"<tr><td class="lbl">{}</td><td class="num">{}</td></tr>"#,
            esc(label),
            n
        );
    }
    let _ = writeln!(out, "</table>");
}

/// Renders an access-log analysis as a single self-contained HTML
/// dashboard: headline throughput/shed/latency numbers, status and op
/// breakdowns as bar charts, latency quantile tables, and per-client and
/// per-problem tables. Same contract as [`render_html`]: no external
/// assets of any kind.
///
/// `source` names the log in the page header (typically its file path).
pub fn render_access_html(report: &AccessReport, source: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>lambda2 serve report: {}</title><style>{}</style></head><body>",
        esc(source),
        STYLE
    );
    let _ = writeln!(out, "<h1>λ² serve access report</h1>");
    let _ = writeln!(
        out,
        r#"<p class="meta">access log: <code>{}</code> — {} request(s) over {:.1} s</p>"#,
        esc(source),
        report.requests,
        report.span_ms() / 1e3
    );
    let _ = writeln!(
        out,
        "<p>throughput <b>{:.1} req/s</b> · sheds <b>{}</b> ({:.1}%) · crashes <b>{}</b> \
         · warm-cache hits <b>{}</b></p>",
        report.throughput_rps(),
        report.shed,
        report.shed_rate() * 100.0,
        report.crashed,
        report.warm_hits
    );

    section(&mut out, "Latency");
    if report.service_us.is_empty() && report.queue_wait_us.is_empty() {
        empty_note(&mut out, "timed requests");
    } else {
        let _ = writeln!(
            out,
            r#"<table><tr><th>distribution</th><th class="num">count</th><th class="num">p50 ms</th><th class="num">p90 ms</th><th class="num">p99 ms</th><th class="num">max ms</th></tr>"#
        );
        let mut latency_row = |label: &str, h: &Histogram| {
            let ms = |q: f64| h.quantile(q).unwrap_or(0) as f64 / 1e3;
            let _ = writeln!(
                out,
                r#"<tr><td class="lbl">{}</td><td class="num">{}</td><td class="num">{:.1}</td><td class="num">{:.1}</td><td class="num">{:.1}</td><td class="num">{:.1}</td></tr>"#,
                esc(label),
                h.count(),
                ms(0.5),
                ms(0.9),
                ms(0.99),
                h.max().unwrap_or(0) as f64 / 1e3
            );
        };
        latency_row("service", &report.service_us);
        latency_row("queue wait", &report.queue_wait_us);
        let _ = writeln!(out, "</table>");
    }

    let count_section = |out: &mut String, title: &str, what: &str, m: &[(&String, &u64)]| {
        section(out, title);
        if m.is_empty() {
            empty_note(out, what);
            return;
        }
        let max = m.iter().map(|(_, &n)| n).max().unwrap_or(0);
        let _ = writeln!(out, "<table>");
        for (label, &n) in m {
            bar_row(out, label, n, max);
        }
        let _ = writeln!(out, "</table>");
    };
    count_section(
        &mut out,
        "Requests by status",
        "requests",
        &report.statuses.iter().collect::<Vec<_>>(),
    );
    count_section(
        &mut out,
        "Requests by op",
        "requests",
        &report.ops.iter().collect::<Vec<_>>(),
    );

    section(&mut out, "Clients");
    if report.clients.is_empty() {
        empty_note(&mut out, "clients");
    } else {
        let _ = writeln!(
            out,
            r#"<table><tr><th>peer</th><th class="num">requests</th><th class="num">ok</th><th class="num">shed</th></tr>"#
        );
        for (peer, c) in &report.clients {
            let _ = writeln!(
                out,
                r#"<tr><td class="lbl">{}</td><td class="num">{}</td><td class="num">{}</td><td class="num">{}</td></tr>"#,
                esc(peer),
                c.requests,
                c.ok,
                c.shed
            );
        }
        let _ = writeln!(out, "</table>");
    }

    count_section(
        &mut out,
        "Requests by problem",
        "named problems",
        &report.problems.iter().collect::<Vec<_>>(),
    );

    let _ = writeln!(out, "</body></html>");
    out
}

fn render_stacks(out: &mut String, trace: &Trace) {
    section(out, "Hot derivation stacks");
    // Pops-weighted collapse never fails.
    let mut stacks = profile::collapse_tree(trace, Weight::Pops).unwrap_or_default();
    if stacks.is_empty() {
        empty_note(out, "derivation stacks");
        return;
    }
    stacks.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let max = stacks.first().map(|(_, w)| *w).unwrap_or(0);
    let _ = writeln!(out, "<table>");
    for (stack, w) in stacks.iter().take(20) {
        bar_row(out, stack, *w, max);
    }
    let _ = writeln!(out, "</table>");
    let _ = writeln!(
        out,
        "<p>Collapsed-stack lines for flamegraph tooling come from \
         <code>l2 profile tree</code>.</p>"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::profile::parse_trace;

    fn sample() -> Trace {
        parse_trace(
            &[
                r#"{"v":1,"t_us":0,"ev":"pop","kind":"hyp","cost":1,"holes":1,"sketch":"?1"}"#,
                r#"{"v":1,"t_us":50,"ev":"plan","comb":"filter","coll":"l","delta_cost":4,"rows":3}"#,
                r#"{"v":1,"t_us":70,"ev":"refute","comb":"map","coll":"l","reason":"deduction"}"#,
                r#"{"v":1,"t_us":90,"ev":"pop","kind":"hyp","cost":5,"holes":1,"sketch":"(filter (lambda (x) ?2) l)"}"#,
                r#"{"v":1,"t_us":200,"ev":"verify","ok":true,"cost":7,"program":"(filter (lambda (x) (> x 0)) l)"}"#,
            ]
            .join("\n"),
        )
        .unwrap()
    }

    #[test]
    fn html_is_self_contained_and_escaped() {
        let html = render_html(&sample(), "runs/<evens>.jsonl");
        // Structure.
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</body></html>\n"));
        assert!(html.contains("<style>"));
        // No external assets of any kind.
        for needle in [
            "http://", "https://", "src=", "<link", "<script", "@import", "url(",
        ] {
            assert!(!html.contains(needle), "external reference: {needle}");
        }
        // The source name is escaped, content is present.
        assert!(html.contains("runs/&lt;evens&gt;.jsonl"));
        assert!(html.contains("filter"));
        assert!(html.contains("Per-combinator attribution"));
        assert!(html.contains("root;filter"));
        // Program text with operators is escaped.
        assert!(html.contains(&esc("(filter (lambda (x) (> x 0)) l)")));
    }

    #[test]
    fn html_degrades_cleanly_on_uninstrumented_traces() {
        // A trace with no pops, plans, refutations, or stacks renders an
        // explicit note per section instead of bare headers over nothing.
        let trace = parse_trace(r#"{"v":1,"ev":"fault","message":"isolated"}"#).unwrap();
        let html = render_html(&trace, "sparse.jsonl");
        assert!(html.contains("No queue pops recorded"));
        assert!(html.contains("No per-combinator planner or deduction events recorded"));
        assert!(html.contains("No refutations recorded"));
        assert!(html.contains("No popped-cost metrics recorded"));
        assert!(html.contains("No derivation stacks recorded"));
    }

    #[test]
    fn access_html_is_self_contained_and_escaped() {
        use crate::serve::access::{AccessRecord, AccessReport};
        let records = vec![
            AccessRecord {
                t_ms: 1.0,
                req_id: "c1-r1".to_owned(),
                op: "synth".to_owned(),
                peer: "10.0.0.<7>".to_owned(),
                status: "ok".to_owned(),
                frame_bytes: 64,
                queue_wait_ms: Some(0.2),
                service_ms: Some(7.5),
                warm_hits: Some(1),
                shed: false,
                crashed: false,
                problem: Some("evens<odd>".to_owned()),
                fingerprint: Some("cafe".to_owned()),
            },
            AccessRecord {
                t_ms: 900.0,
                req_id: "c2-r1".to_owned(),
                op: "synth".to_owned(),
                peer: "10.0.0.<7>".to_owned(),
                status: "overloaded".to_owned(),
                frame_bytes: 64,
                queue_wait_ms: None,
                service_ms: None,
                warm_hits: None,
                shed: true,
                crashed: false,
                problem: Some("evens<odd>".to_owned()),
                fingerprint: None,
            },
        ];
        let report = AccessReport::analyze(&records);
        let html = render_access_html(&report, "logs/<serve>.jsonl");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</body></html>\n"));
        for needle in [
            "http://", "https://", "src=", "<link", "<script", "@import", "url(",
        ] {
            assert!(!html.contains(needle), "external reference: {needle}");
        }
        // Names flow through escaped.
        assert!(html.contains("logs/&lt;serve&gt;.jsonl"));
        assert!(html.contains("10.0.0.&lt;7&gt;"));
        assert!(html.contains("evens&lt;odd&gt;"));
        assert!(html.contains("Requests by status"));
        assert!(html.contains("overloaded"));
        // An empty log renders notes, not bare headers.
        let empty = render_access_html(&AccessReport::analyze(&[]), "empty.jsonl");
        assert!(empty.contains("No timed requests recorded"));
        assert!(empty.contains("No clients recorded"));
    }

    #[test]
    fn html_renders_untimed_traces_without_time_section_bars() {
        let trace =
            parse_trace(r#"{"v":1,"ev":"pop","kind":"hyp","cost":1,"holes":1,"sketch":"?1"}"#)
                .unwrap();
        let html = render_html(&trace, "t.jsonl");
        assert!(html.contains("no <code>t_us</code> timestamps"));
    }
}
