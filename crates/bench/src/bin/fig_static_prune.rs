//! **Experiment F7** — the static-pruning ablation.
//!
//! Per benchmark: λ² with deduction's pruning check on (the default) vs
//! off (`--no-static-prune`). The check refutes hypotheses necessary-row
//! inference would keep, so the search frontier genuinely shrinks:
//! `enumerated_terms` and `popped` may only *drop* with pruning on, and
//! must drop *strictly* on the duplicate-bearing problem family built for
//! it. The synthesized program and its cost must
//! stay byte-identical — pruning removes only refutable work, never the
//! minimal solution. This binary asserts all of that and reports the
//! per-problem deltas plus the pruned-refutation counts.
//!
//! Usage: `cargo run -p bench --release --bin fig_static_prune [-- --quick]`
//!
//! `--quick` skips `hard` problems (CI runs quick; the committed
//! `results/BENCH_static_prune.json` is a quick run).

use bench::{ms, options_for, record, render_table, run_problem, write_bench_json, Engine, Json};
use lambda2_bench_suite::{catalog, Benchmark};
use lambda2_synth::Measurement;

fn run(bench: &Benchmark, prune: bool) -> Measurement {
    let mut options = options_for(bench, None);
    options.static_prune = prune;
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

    // Cardinality is the only pruning check; the records keep the
    // per-domain shape of earlier reports.
    let domain = "cardinality";

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut pruned_total = 0u64;
    let mut strict_drops = 0usize;
    let mut divergences = 0usize;
    let mut wall_on_ms = 0.0f64;
    let mut wall_off_ms = 0.0f64;

    for bench in &suite {
        let on = run(bench, true);
        let off = run(bench, false);
        // Identity check: pruning may shrink the search but must not
        // change its outcome.
        let identical = on.solved == off.solved
            && on.program == off.program
            && on.cost == off.cost
            && on.stats.enumerated_terms <= off.stats.enumerated_terms
            && on.stats.popped <= off.stats.popped
            && off.stats.pruned_refutations == 0;
        if !identical {
            divergences += 1;
            eprintln!(
                "  DIVERGENCE on {}: on=({}, cost {}, terms {}, pops {}) \
                 off=({}, cost {}, terms {}, pops {}, pruned {})",
                bench.problem.name(),
                on.program,
                on.cost,
                on.stats.enumerated_terms,
                on.stats.popped,
                off.program,
                off.cost,
                off.stats.enumerated_terms,
                off.stats.popped,
                off.stats.pruned_refutations,
            );
        }
        let strict = on.stats.enumerated_terms < off.stats.enumerated_terms;
        if strict {
            strict_drops += 1;
        }
        pruned_total += on.stats.pruned_refutations;
        wall_on_ms += on.elapsed.as_secs_f64() * 1e3;
        wall_off_ms += off.elapsed.as_secs_f64() * 1e3;
        for (label, m, prune) in [("prune-on", &on, true), ("prune-off", &off, false)] {
            records.push(record(
                &format!("{label}/{}", m.name),
                m,
                &[
                    ("prune", prune.into()),
                    (
                        "pruned_domains",
                        Json::obj([(domain, m.stats.pruned_refutations.into())]),
                    ),
                ],
            ));
        }
        eprintln!(
            "  {}: {} pruned ({}), terms {} -> {}{}, {:.1} ms vs {:.1} ms",
            bench.problem.name(),
            on.stats.pruned_refutations,
            domain,
            off.stats.enumerated_terms,
            on.stats.enumerated_terms,
            if strict { " (strict)" } else { "" },
            on.elapsed.as_secs_f64() * 1e3,
            off.elapsed.as_secs_f64() * 1e3,
        );
        rows.push(vec![
            bench.problem.name().to_owned(),
            on.stats.pruned_refutations.to_string(),
            off.stats.enumerated_terms.to_string(),
            on.stats.enumerated_terms.to_string(),
            off.stats.popped.to_string(),
            on.stats.popped.to_string(),
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

    println!("F7: static-pruning ablation (pruning on vs off)\n");
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "pruned",
                "terms(off)",
                "terms(on)",
                "pops(off)",
                "pops(on)",
                "on(ms)",
                "off(ms)",
            ],
            &rows,
        )
    );
    println!(
        "\nsummary: {pruned_total} {domain} refutations pruned across {} benchmarks; \
         strict enumerated-term drop in {strict_drops}; wall {:.0} ms on vs {:.0} ms off; \
         {divergences} divergences (must be 0)",
        suite.len(),
        wall_on_ms,
        wall_off_ms,
    );

    match write_bench_json("static_prune", &[("quick", quick.into())], records) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_static_prune.json: {e}"),
    }
    assert_eq!(divergences, 0, "pruning changed a synthesis outcome");
    assert!(pruned_total > 0, "pruning refuted nothing");
    assert!(
        strict_drops >= 10,
        "pruning strictly shrank only {strict_drops} problems (need 10)"
    );
}
