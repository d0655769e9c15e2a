//! **Experiment F3** — sensitivity to the number of examples.
//!
//! For a selection of single-parameter benchmarks, sweeps the number of
//! generated examples k and reports synthesis time and whether the
//! synthesized program generalizes (agrees with the reference on held-out
//! inputs). The paper's claim to reproduce: a handful of well-chosen
//! examples suffices; too few examples yield overfitted programs, and
//! more examples cost little extra time (deduction scales with rows).
//!
//! Usage: `cargo run -p bench --release --bin fig_examples`

use std::time::Duration;

use bench::{ms, options_for, record, render_table, run_problem, write_bench_json, Engine};
use lambda2_bench_suite::by_name;
use lambda2_bench_suite::generators::example_sweep;
use lambda2_lang::eval::DEFAULT_FUEL;

const PROBLEMS: &[&str] = &["sum", "length", "reverse", "incr", "evens", "sumt", "sums"];
const KS: &[usize] = &[1, 2, 3, 4, 6, 8, 12];
const SEED: u64 = 20150603; // the paper's publication date

fn main() {
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for name in PROBLEMS {
        let Some(bench) = by_name(name) else {
            eprintln!("warning: unknown benchmark `{name}` — skipping");
            continue;
        };
        let reference = bench.reference_program();
        for &k in KS {
            let Some(problem) = example_sweep(&bench, k, SEED) else {
                continue;
            };
            let mut options = options_for(&bench, Some(Duration::from_secs(20)));
            options.timeout = Some(Duration::from_secs(20));
            let (m, report) = run_problem(&problem, Engine::Lambda2, options);
            let (solved, generalizes) = match report.and_then(|r| r.outcome.ok()) {
                Some(s) => {
                    // Held-out check: the synthesized program must agree
                    // with the reference on fresh inputs.
                    let holdout = example_sweep(&bench, 12, SEED + 1)
                        .expect("example generator always yields a 12-example holdout set");
                    let gen = holdout.examples().iter().all(|ex| {
                        s.program.apply_with_fuel(&ex.inputs, DEFAULT_FUEL).ok()
                            == reference.apply_with_fuel(&ex.inputs, DEFAULT_FUEL).ok()
                    });
                    (true, gen)
                }
                None => (false, false),
            };
            let time = m.elapsed;
            records.push(record(
                &format!("{name}/k{k}"),
                &m,
                &[("k", k.into()), ("generalizes", generalizes.into())],
            ));
            eprintln!(
                "  {name} k={k}: {} ({:.1} ms){}",
                if solved { "ok" } else { "--" },
                time.as_secs_f64() * 1e3,
                if solved && !generalizes {
                    " [overfit]"
                } else {
                    ""
                }
            );
            rows.push(vec![
                (*name).to_owned(),
                k.to_string(),
                problem.examples().len().to_string(),
                if solved { "yes".into() } else { "no".into() },
                if solved { ms(time) } else { "timeout".into() },
                if !solved {
                    "-".into()
                } else if generalizes {
                    "yes".into()
                } else {
                    "no (overfit)".into()
                },
            ]);
        }
    }
    println!("F3: synthesis time and generalization vs number of examples\n");
    println!(
        "{}",
        render_table(
            &["benchmark", "k", "#ex", "solved", "time(ms)", "generalizes"],
            &rows,
        )
    );

    match write_bench_json("fig_examples", &[("seed", SEED.into())], records) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_fig_examples.json: {e}"),
    }
}
