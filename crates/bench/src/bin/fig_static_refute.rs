//! **Experiment F6** — the static-refutation ablation.
//!
//! Per benchmark: λ² with the abstract-interpretation refutation pre-pass
//! on vs off. The analyzer's checks are strictly weaker than the deduction
//! rules they shadow, so the synthesized program, its cost, and every
//! search counter except refutation *attribution* must be identical —
//! this binary asserts exactly that (any divergence is a soundness bug)
//! and reports how many refutations the pre-pass claims per problem.
//!
//! Enumerated terms do **not** drop with the analyzer on: every statically
//! refuted expansion would have been refuted by deduction at the same
//! planning site, so the pre-pass moves accounting (and skips the
//! per-combinator deduction work), it does not shrink the search frontier.
//!
//! Both arms pin `static_prune(false)`: this experiment isolates the
//! *attribution* tier, whose checks are strictly weaker than deduction.
//! The pruning tier (on by default) genuinely shrinks the frontier and is
//! measured separately by `fig_static_prune`.
//!
//! Usage: `cargo run -p bench --release --bin fig_static_refute [-- --quick]`

use bench::{ms, options_for, record, render_table, run_problem, write_bench_json, Engine};
use lambda2_bench_suite::{catalog, Benchmark};
use lambda2_synth::Measurement;

fn run(bench: &Benchmark, analysis: bool) -> Measurement {
    let mut options = options_for(bench, None);
    options.static_analysis = analysis;
    options.static_prune = false;
    let (m, report) = run_problem(&bench.problem, Engine::Lambda2, options);
    assert!(report.is_some(), "{}: {:?}", m.name, m.error);
    m
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let suite: Vec<_> = catalog()
        .into_iter()
        .filter(|b| !(quick && b.hard))
        .collect();

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut static_total = 0u64;
    let mut divergences = 0usize;

    for bench in &suite {
        let on = run(bench, true);
        let off = run(bench, false);
        // Identity check: any difference in result or search shape is a
        // false (or missed) refutation.
        let identical = on.solved == off.solved
            && on.program == off.program
            && on.cost == off.cost
            && on.stats.popped == off.stats.popped
            && on.stats.enumerated_terms == off.stats.enumerated_terms
            && on.stats.refuted + on.stats.static_refutations == off.stats.refuted;
        if !identical {
            divergences += 1;
            eprintln!(
                "  DIVERGENCE on {}: on=({}, cost {}, refuted {}+{}) off=({}, cost {}, refuted {})",
                bench.problem.name(),
                on.program,
                on.cost,
                on.stats.refuted,
                on.stats.static_refutations,
                off.program,
                off.cost,
                off.stats.refuted,
            );
        }
        static_total += on.stats.static_refutations;
        records.push(record(
            &format!("static-on/{}", on.name),
            &on,
            &[("analysis", true.into())],
        ));
        records.push(record(
            &format!("static-off/{}", off.name),
            &off,
            &[("analysis", false.into())],
        ));
        eprintln!(
            "  {}: {} static + {} deduced refutations (off: {} deduced), {:.1} ms vs {:.1} ms",
            bench.problem.name(),
            on.stats.static_refutations,
            on.stats.refuted,
            off.stats.refuted,
            on.elapsed.as_secs_f64() * 1e3,
            off.elapsed.as_secs_f64() * 1e3,
        );
        let share = if off.stats.refuted == 0 {
            "-".to_owned()
        } else {
            format!(
                "{:.0}%",
                100.0 * on.stats.static_refutations as f64 / off.stats.refuted as f64
            )
        };
        rows.push(vec![
            bench.problem.name().to_owned(),
            on.stats.static_refutations.to_string(),
            on.stats.refuted.to_string(),
            off.stats.refuted.to_string(),
            share,
            if on.solved {
                ms(on.elapsed)
            } else {
                "timeout".into()
            },
            if off.solved {
                ms(off.elapsed)
            } else {
                "timeout".into()
            },
        ]);
    }

    println!("F6: static-refutation ablation (analyzer on vs off)\n");
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "static",
                "deduced(on)",
                "deduced(off)",
                "static share",
                "on(ms)",
                "off(ms)",
            ],
            &rows,
        )
    );
    println!(
        "\nsummary: {static_total} refutations claimed by the pre-pass across \
         {} benchmarks; {divergences} divergences (must be 0); enumerated \
         terms are identical on/off by construction (attribution-only pruning)",
        suite.len()
    );

    match write_bench_json("static_refute", &[("quick", quick.into())], records) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_static_refute.json: {e}"),
    }
    assert_eq!(divergences, 0, "static analyzer diverged from deduction");
    assert!(static_total > 0, "the pre-pass refuted nothing suite-wide");
}
