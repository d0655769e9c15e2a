//! **Design ablations** — the reproduction's own engineering choices,
//! measured (DESIGN.md §5 calls these out):
//!
//! * **trace probes** (deduction-emitted dedup environments),
//! * **synthetic probes** (perturbation dedup environments),
//! * **variables-only collections** (vs cost-3 collection expressions),
//! * **blind-hole expansion** (unrestricted hypothesis grammar).
//!
//! Each configuration runs a representative benchmark slice; the table
//! shows what each mechanism buys (or costs). Expected shape: disabling
//! either probe family loses correct solutions on fold-shaped problems
//! (the cheapest row-equivalent term wins and fails verification, pushing
//! the search into timeouts or costlier answers); richer collections and
//! blind-hole expansion only burn time on this suite.
//!
//! Usage: `cargo run -p bench --release --bin fig_design`

use std::time::Duration;

use bench::{ms, record, render_table, run_problem, write_bench_json, Engine};
use lambda2_bench_suite::by_name;
use lambda2_synth::SearchOptions;

const SLICE: &[&str] = &[
    "sum", "reverse", "evens", "droplast", "multlast", "sumt", "flattenl", "sums", "maxes",
];

struct Config {
    name: &'static str,
    apply: fn(&mut SearchOptions),
}

const CONFIGS: &[Config] = &[
    Config {
        name: "full",
        apply: |_| {},
    },
    Config {
        name: "no-trace-probes",
        apply: |o| o.trace_probes = false,
    },
    Config {
        name: "no-synthetic-probes",
        apply: |o| o.enum_limits.synthetic_probes = false,
    },
    Config {
        name: "no-probes-at-all",
        apply: |o| {
            o.trace_probes = false;
            o.enum_limits.synthetic_probes = false;
        },
    },
    Config {
        name: "collections<=3",
        apply: |o| o.max_collection_cost = 3,
    },
    Config {
        name: "blind-holes-on",
        apply: |o| o.expand_blind_holes = true,
    },
];

fn main() {
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for name in SLICE {
        let Some(bench) = by_name(name) else {
            eprintln!("warning: unknown benchmark `{name}` — skipping");
            continue;
        };
        let mut row = vec![(*name).to_owned()];
        for config in CONFIGS {
            let mut options = bench.tune(SearchOptions::default());
            options.timeout = Some(Duration::from_secs(60));
            (config.apply)(&mut options);
            let (m, _) = run_problem(&bench.problem, Engine::Lambda2, options);
            records.push(record(
                &format!("{name}/{}", config.name),
                &m,
                &[("config", config.name.into())],
            ));
            let cell = match m.error.as_deref() {
                // A solution that fails held-out generalization is still
                // *sound* (it fits the examples) but reveals the config
                // found a cheaper fitting program than the intended one —
                // mark the cost.
                None => format!("{} (c{})", ms(m.elapsed), m.cost),
                Some("synthesis timed out") => "timeout".into(),
                Some(other) => other.to_owned(),
            };
            eprintln!("  {name} / {}: {cell}", config.name);
            row.push(cell);
        }
        rows.push(row);
    }

    println!("Design ablations: time(ms) and solution cost per configuration\n");
    let mut header: Vec<&str> = vec!["benchmark"];
    header.extend(CONFIGS.iter().map(|c| c.name));
    println!("{}", render_table(&header, &rows));
    println!(
        "\nreading guide: `full` is the shipped configuration; a cell like\n\
         `timeout` or a larger cost than `full`'s shows what that mechanism\n\
         contributes. `collections<=3` and `blind-holes-on` only enlarge the\n\
         space on this suite."
    );

    match write_bench_json("fig_design", &[], records) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_fig_design.json: {e}"),
    }
}
