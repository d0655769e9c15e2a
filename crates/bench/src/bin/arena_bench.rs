//! **Experiment A1** — term-core microstructure across the quick suite.
//!
//! Runs the non-hard catalog sequentially under the full λ² engine and
//! aggregates the metrics instruments that the arena/hash-consing
//! refactor targets: per-pop priority (`pop_cost`), enumeration-store
//! footprint (`store_bytes`/`store_terms`), and enumeration latency, plus
//! total wall time. Running it before and after a representation change
//! gives a like-for-like comparison of the enumeration hot path.
//!
//! Usage: `cargo run -p bench --release --bin arena_bench
//! [-- --label NAME] [-- --baseline results/BENCH_arena.json]`
//!
//! `--baseline` embeds a previously written report under `"baseline"`, so
//! the committed `BENCH_arena.json` carries both sides of the comparison.

use std::time::Duration;

use bench::{ms, record, render_table, run_benchmark, write_bench_json, Engine, Json};
use lambda2_bench_suite::{catalog, Benchmark};
use lambda2_synth::obs::json;
use lambda2_synth::obs::metrics::SearchMetrics;

fn flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    args.remove(at);
    if at < args.len() {
        Some(args.remove(at))
    } else {
        eprintln!("error: {flag} requires a value");
        std::process::exit(2);
    }
}

fn hist_summary(h: &lambda2_synth::obs::metrics::Histogram) -> Json {
    let mut pairs = vec![
        ("count", h.count().into()),
        ("sum", h.sum().into()),
        (
            "mean",
            h.mean()
                .map_or(Json::Null, |m| Json::Float((m * 1000.0).round() / 1000.0)),
        ),
    ];
    for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        pairs.push((name, h.quantile(q).map_or(Json::Null, Into::into)));
    }
    pairs.push(("max", h.max().map_or(Json::Null, Into::into)));
    Json::obj(pairs)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let label = flag_value(&mut args, "--label").unwrap_or_else(|| "current".to_owned());
    let baseline = flag_value(&mut args, "--baseline");

    let suite: Vec<Benchmark> = catalog().into_iter().filter(|b| !b.hard).collect();
    println!(
        "A1: term-core microstructure over the quick suite ({} problems, label: {label})\n",
        suite.len()
    );

    let mut merged = SearchMetrics::new();
    let mut wall = Duration::ZERO;
    let mut solved = 0usize;
    let mut enumerated: u64 = 0;
    let mut popped: u64 = 0;
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for bench in &suite {
        let m = run_benchmark(bench, Engine::Lambda2, None);
        wall += m.elapsed;
        if m.solved {
            solved += 1;
        }
        enumerated += m.stats.enumerated_terms;
        popped += m.stats.popped;
        merged.merge(&m.stats.metrics);
        rows.push(vec![
            bench.problem.name().to_string(),
            if m.solved { "yes".into() } else { "NO".into() },
            ms(m.elapsed),
            m.stats.enumerated_terms.to_string(),
            m.stats
                .metrics
                .store_bytes
                .max()
                .map_or_else(|| "-".into(), |b| format!("{}", b / 1024)),
        ]);
        records.push(record(bench.problem.name(), &m, &[]));
    }

    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "solved",
                "wall(ms)",
                "enum_terms",
                "peak_store(KiB)"
            ],
            &rows
        )
    );
    println!(
        "\nsummary: {solved}/{} solved, wall {} ms, {enumerated} terms enumerated, {popped} pops",
        suite.len(),
        ms(wall)
    );

    let mut fields = vec![
        ("label", Json::Str(label)),
        ("problems", suite.len().into()),
        ("solved", solved.into()),
        ("wall_ms", Json::Float(wall.as_secs_f64() * 1e3)),
        ("enumerated_terms", enumerated.into()),
        ("popped", popped.into()),
        ("pop_cost", hist_summary(&merged.pop_cost)),
        ("store_bytes", hist_summary(&merged.store_bytes)),
        ("store_terms", hist_summary(&merged.store_terms)),
        ("enumerate_us", hist_summary(&merged.enumerate_us)),
        ("verify_us", hist_summary(&merged.verify_us)),
    ];
    if let Some(path) = baseline {
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| json::parse(&s))
        {
            Ok(prior) => fields.push(("baseline", prior)),
            Err(e) => {
                eprintln!("error: --baseline {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    match write_bench_json("arena", &fields, records) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_arena.json: {e}"),
    }
}
