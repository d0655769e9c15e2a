//! **Experiment F1** — the scalability ("cactus") figure.
//!
//! Runs the whole suite under the three engines and prints, for a series
//! of time budgets, how many benchmarks each engine solves within that
//! budget. The paper's claim to reproduce: λ² solves (almost) everything
//! quickly; removing deduction loses the fold/nested problems; pure
//! enumeration only manages the trivial ones.
//!
//! Usage: `cargo run -p bench --release --bin fig_cactus [-- --quick] [--jobs N]`

use std::time::Duration;

use bench::{
    jobs_arg, record, render_table, run_benchmarks_parallel, write_bench_json, Engine, Json,
};
use lambda2_bench_suite::catalog;
use lambda2_synth::par::effective_jobs;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = effective_jobs(jobs_arg(&mut args).unwrap_or(1));
    let quick = args.iter().any(|a| a == "--quick");
    let budgets_ms: &[u64] = &[
        100, 250, 500, 1000, 2500, 5000, 10_000, 30_000, 60_000, 180_000,
    ];
    let engines = [Engine::Lambda2, Engine::NoDeduce, Engine::Baseline];
    let suite: Vec<_> = catalog()
        .into_iter()
        .filter(|b| !(quick && b.hard))
        .collect();

    // One run per (engine, benchmark); the curve is read off the recorded
    // times. The ablated engines get a smaller per-run cap: they either
    // solve fast or not at all, and full caps would cost hours.
    let mut solve_times: Vec<Vec<Option<Duration>>> = Vec::new();
    let mut records = Vec::new();
    for engine in engines {
        let cap = match (quick, engine) {
            (true, _) => Duration::from_secs(5),
            (false, Engine::Lambda2) => {
                Duration::from_millis(*budgets_ms.last().expect("budget list is nonempty"))
            }
            (false, _) => Duration::from_secs(30),
        };
        eprintln!(
            "  {engine}: running {} benchmarks across {jobs} workers...",
            suite.len()
        );
        let measurements = run_benchmarks_parallel(&suite, engine, Some(cap), jobs);
        let mut col = Vec::new();
        for m in &measurements {
            eprintln!(
                "  {engine}: [{}] {} ({:.1} ms)",
                if m.solved { "ok" } else { "--" },
                m.name,
                m.elapsed.as_secs_f64() * 1e3
            );
            records.push(record(
                &format!("{engine}/{}", m.name),
                m,
                &[("engine", engine.to_string().into())],
            ));
            col.push(m.solved.then_some(m.elapsed));
        }
        solve_times.push(col);
    }

    println!(
        "F1: benchmarks solved within time budget (of {} total)\n",
        suite.len()
    );
    let mut rows = Vec::new();
    for &budget in budgets_ms {
        let b = Duration::from_millis(budget);
        let mut row = vec![format!("{budget}")];
        for col in &solve_times {
            let n = col.iter().flatten().filter(|t| **t <= b).count();
            row.push(n.to_string());
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(&["budget(ms)", "lambda2", "no-deduce", "baseline"], &rows)
    );

    // ASCII cactus plot: one line per engine.
    println!("\ncactus (each column = one budget step above):");
    for (engine, col) in engines.iter().zip(&solve_times) {
        let bar: String = budgets_ms
            .iter()
            .map(|&budget| {
                let b = Duration::from_millis(budget);
                let n = col.iter().flatten().filter(|t| **t <= b).count();
                let frac = n as f64 / suite.len() as f64;
                match (frac * 8.0) as usize {
                    0 => ' ',
                    1 => '.',
                    2 => ':',
                    3 => '-',
                    4 => '=',
                    5 => '+',
                    6 => '*',
                    7 => '#',
                    _ => '@',
                }
            })
            .collect();
        println!("  {engine:>9} |{bar}|");
    }

    let budgets = Json::Arr(budgets_ms.iter().map(|&b| b.into()).collect());
    match write_bench_json(
        "fig_cactus",
        &[("quick", quick.into()), ("budgets_ms", budgets)],
        records,
    ) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_fig_cactus.json: {e}"),
    }
}
