//! `l2` — the λ² synthesizer command-line tool.
//!
//! `l2 --help` lists every command and flag, and `l2 <cmd> --help` the
//! ones one command takes. Both are generated from `COMMANDS` and
//! `FLAGS`, the only place a flag is declared. Flags may appear in any
//! position; a flag the command does not read is a usage error (exit 2).
//!
//! `client` exit codes: 0 every request answered `ok`, 1 any request
//! failed (`error`, `unsolved`, `shutting_down`, or transport failure
//! after retries), 2 on usage or local I/O errors, 3 when the daemon
//! answered `overloaded` even after the retry budget — the daemon is
//! healthy but saturated, a distinct condition from failure.
//!
//! `lint` exit codes: 0 when every file is clean, 1 when any diagnostic
//! was reported, 2 on usage or I/O errors. An unreadable file does not
//! stop the remaining files from being linted — it is reported (code
//! `io-error` under `--json`) and the exit code deferred. Each diagnostic
//! carries a stable machine-readable code (`parse-error`,
//! `type-mismatch`, `contradictory-examples`, `duplicate-examples`,
//! `constant-input`, `permutation-conflict`, `unsat-abstract`,
//! `library-shadowed`, `library-unused`). `profile diff` exit codes: 0 when the traces are
//! identical, 1 when they diverge or one is a truncated prefix of the
//! other, 2 on usage or I/O errors.
//!
//! Batch runs (`synth`/`bench` with several problems) isolate each
//! problem: a failure — timeout, exhaustion, even a panic — is reported
//! (and recorded in the `--stats-json` line) and the batch continues;
//! the exit code is nonzero only if at least one problem failed. Every
//! batch runs on the worker pool (`--jobs` workers, one without the
//! flag) and prints its results in input order once all problems
//! finish; `--trace` events carry `problem`/`worker` tags, so the trace
//! is the same whatever `--jobs` says, up to those tags. A single
//! problem runs on this thread, streaming its trace and rendering
//! `--progress`.
//!
//! Problem files are s-expressions:
//!
//! ```text
//! (problem evens
//!   (params (l [int]))
//!   (returns [int])
//!   (example ([]) [])
//!   (example ([1 2 3 4]) [2 4])
//!   (example ([5 6]) [6]))
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use lambda2_synth::govern::panic_message;
use lambda2_synth::obs::json::Json;
use lambda2_synth::obs::jsonl;
use lambda2_synth::par::{
    effective_jobs, synthesize_batch, tagged_event_json, ParEngine, ParOutcome, ParTask,
};
use lambda2_synth::serve::{request_with_retry, Backoff};
use lambda2_synth::{
    aggregate, collapse_tree, diff_traces, ingest_bench, ingest_measurement, lint_source,
    load_access_log, load_records, load_trace, options_fingerprint, parse_problem, regress,
    summarize, AccessReport, Corpus, DiffOutcome, FindingKind, JsonlTracer, Measurement, Problem,
    RegressThresholds, RunRecord, SearchOptions, SearchReport, ServeConfig, Server, Synthesis,
    Synthesizer, Trace, TraceEvent, Tracer, Weight,
};

/// Default daemon address shared by `l2 serve` and `l2 client`.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7207";

/// Every command form as (command, operands, help). `l2 --help` prints
/// them all, `l2 <command> --help` the forms of one command.
const COMMANDS: &[(&str, &str, &str)] = &[
    ("synth", "<problem.l2>...", "synthesize each problem"),
    ("run", "<problem.l2> <arg>...", "synthesize, then run"),
    ("eval", "<expr> [x=v]...", "evaluate an expression"),
    ("lint", "<problem.l2>...", "check problem files"),
    ("bench", "<name>...", "run suite benchmarks"),
    ("list", "", "list the benchmark suite"),
    ("profile", "summary <trace.jsonl>", "per-rule attribution"),
    ("profile", "tree <trace.jsonl>", "flamegraph stacks"),
    ("profile", "diff <a.jsonl> <b.jsonl>", "first divergence"),
    ("corpus", "ingest <dir> <file>...", "backfill records"),
    ("corpus", "list <dir>", "one line per problem+config"),
    ("corpus", "stats <dir>", "cross-run aggregates"),
    ("corpus", "regress <baseline> <fresh>", "gate fresh runs"),
    ("serve", "", "run the synthesis daemon"),
    ("serve report", "<access.jsonl>", "access-log report"),
    ("client", "synth <problem.l2>...", "send problems"),
    ("client", "ping|stats|shutdown", "poke a running daemon"),
];

/// How a flag's value is written: parsing checks it, and the usage text
/// names it.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// No value.
    Switch,
    /// A switch, or `=<path>` written inline (`--stats-json`).
    StatsJson,
    /// Free text: its placeholder, and what the flag requires.
    Text(&'static str, &'static str),
    /// A whole number: what the flag requires, and the unit it counts.
    Whole(&'static str, &'static str),
    /// A number: what the flag requires, its least value, and the rule
    /// a smaller one breaks.
    Real(&'static str, f64, &'static str),
    /// One of these words.
    Choice(&'static [&'static str]),
}

const FILE: Kind = Kind::Text("<path>", "a file path");
const DIR: Kind = Kind::Text("<dir>", "a directory path");
const MS: Kind = Kind::Whole("a millisecond count", " of milliseconds");

/// One row of [`FLAGS`].
#[derive(Debug)]
struct Flag {
    name: &'static str,
    kind: Kind,
    /// The commands that read the flag; any other command rejects it.
    scope: &'static [&'static str],
    help: &'static str,
}

const RUNS: &[&str] = &["synth", "bench", "run"];
const SEARCHES: &[&str] = &["synth", "bench", "run", "serve"];

/// Every flag `l2` takes. The parser, the scope check, the typed getters
/// and the usage text all read this table.
const FLAGS: &[Flag] = &[
    Flag {
        name: "--trace",
        kind: FILE,
        scope: RUNS,
        help: "stream search telemetry as JSON Lines to <path>",
    },
    Flag {
        name: "--stats-json",
        kind: Kind::StatsJson,
        scope: RUNS,
        help: "print each measurement as one JSON line (or append to <path>)",
    },
    Flag {
        name: "--corpus",
        kind: DIR,
        scope: SEARCHES,
        help: "append each measurement to the run corpus in <dir>",
    },
    Flag {
        name: "--progress",
        kind: Kind::Switch,
        scope: RUNS,
        help: "live status line on stderr (a single problem only)",
    },
    Flag {
        name: "--timeout-ms",
        kind: MS,
        scope: &["synth", "bench", "run", "serve", "client"],
        help: "budget per problem or request (default 60000; serve 2000)",
    },
    Flag {
        name: "--max-overshoot-ms",
        kind: MS,
        scope: SEARCHES,
        help: "deadline overshoot bound (default 100)",
    },
    Flag {
        name: "--retry-ladder",
        kind: Kind::Switch,
        scope: SEARCHES,
        help: "on exhaustion retry with degraded options, then the baseline",
    },
    Flag {
        name: "--jobs",
        kind: Kind::Whole("a worker count", " of workers"),
        scope: &["synth", "bench", "serve"],
        help: "worker threads, 0 = one per CPU (default 1; serve 2)",
    },
    Flag {
        name: "--no-static-prune",
        kind: Kind::Switch,
        scope: SEARCHES,
        help: "disable deduction's pruning check (the ablation arm)",
    },
    Flag {
        name: "--json",
        kind: Kind::Switch,
        scope: &["lint", "profile", "corpus", "serve report", "client"],
        help: "machine-readable output",
    },
    Flag {
        name: "--weight",
        kind: Kind::Choice(&["pops", "time"]),
        scope: &["profile"],
        help: "tree weighting (default pops)",
    },
    Flag {
        name: "--out",
        kind: FILE,
        scope: &["profile"],
        help: "write the tree to <path>",
    },
    Flag {
        name: "--wall-ratio",
        kind: Kind::Real("a factor (e.g. 1.5)", 1.0, "must be a factor >= 1"),
        scope: &["corpus"],
        help: "regress: wall-time ratio threshold (default 1.5)",
    },
    Flag {
        name: "--wall-floor-ms",
        kind: Kind::Real("a millisecond count", 0.0, "must be >= 0"),
        scope: &["corpus"],
        help: "regress: wall-time floor (default 100)",
    },
    Flag {
        name: "--no-wall-check",
        kind: Kind::Switch,
        scope: &["corpus"],
        help: "regress: compare deterministic fields only",
    },
    Flag {
        name: "--addr",
        kind: Kind::Text("<addr>", "an address"),
        scope: &["serve", "client"],
        help: "host:port or unix:/path (default 127.0.0.1:7207)",
    },
    Flag {
        name: "--queue",
        kind: Kind::Whole("a capacity", " of slots"),
        scope: &["serve"],
        help: "admission-queue capacity; beyond it requests are shed (16)",
    },
    Flag {
        name: "--max-timeout-ms",
        kind: MS,
        scope: &["serve"],
        help: "cap on any request's budget (default 30000)",
    },
    Flag {
        name: "--warm-bytes",
        kind: Kind::Whole("a byte count", " of bytes"),
        scope: &["serve"],
        help: "bytes the parked term stores may own, shared by all workers (0 = off)",
    },
    Flag {
        name: "--drain-grace-ms",
        kind: MS,
        scope: &["serve"],
        help: "time in-flight jobs get on drain before cancellation (1000)",
    },
    Flag {
        name: "--access-log",
        kind: FILE,
        scope: &["serve"],
        help: "append one JSONL record per request to <path>",
    },
    Flag {
        name: "--slow-trace-ms",
        kind: MS,
        scope: &["serve"],
        help: "trace requests at least this slow (needs --slow-trace-dir)",
    },
    Flag {
        name: "--slow-trace-dir",
        kind: DIR,
        scope: &["serve"],
        help: "write each slow request's trace to <dir>/<req_id>.jsonl",
    },
    Flag {
        name: "--retries",
        kind: Kind::Whole("a count", ""),
        scope: &["client"],
        help: "retry budget for sheds and transport errors (default 0)",
    },
    Flag {
        name: "--backoff-ms",
        kind: MS,
        scope: &["client"],
        help: "base retry delay, exponential plus jitter (default 100)",
    },
    Flag {
        name: "--seed",
        kind: Kind::Whole("a number", ""),
        scope: &["client"],
        help: "jitter seed: same seed, same backoff (default 0)",
    },
];

impl Kind {
    /// The value as the usage text spells it.
    fn placeholder(self) -> String {
        match self {
            Kind::Switch => String::new(),
            Kind::StatsJson => "[=<path>]".into(),
            Kind::Text(placeholder, _) => format!(" {placeholder}"),
            Kind::Whole(..) => " <n>".into(),
            Kind::Real(..) => " <x>".into(),
            Kind::Choice(words) => format!(" {}", words.join("|")),
        }
    }

    /// Reads and checks the value `raw` given after flag `name`.
    fn read(self, name: &str, raw: Option<String>) -> Result<String, String> {
        let needs = match self {
            Kind::Text(_, needs) | Kind::Whole(needs, _) | Kind::Real(needs, ..) => needs.into(),
            Kind::Choice(words) => words
                .iter()
                .map(|w| format!("`{w}`"))
                .collect::<Vec<_>>()
                .join(" or "),
            Kind::Switch | Kind::StatsJson => unreachable!("a switch takes no value"),
        };
        let raw = raw.ok_or_else(|| format!("{name} requires {needs}"))?;
        let bad = match self {
            Kind::Whole(_, unit) if raw.parse::<u64>().is_err() => {
                format!("is not a whole number{unit}")
            }
            Kind::Real(_, least, rule) => match raw.parse::<f64>() {
                Err(_) => "is not a number".into(),
                Ok(v) if !v.is_finite() || v < least => rule.into(),
                Ok(_) => return Ok(raw),
            },
            Kind::Choice(words) if !words.contains(&raw.as_str()) => format!("is not {needs}"),
            _ => return Ok(raw),
        };
        Err(format!("{name}: `{raw}` {bad}"))
    }
}

/// A parsed command line.
#[derive(Debug)]
struct Args {
    /// The command the operands name (`"serve report"` is one), if any.
    command: Option<&'static str>,
    /// The operands after the command's word(s).
    operands: Vec<String>,
    /// Every flag given, in order, with its checked value (`None` for a
    /// switch); the last of a repeated flag wins.
    given: Vec<(&'static Flag, Option<String>)>,
    /// `--help`/`-h`: print the usage text and exit 0.
    help: bool,
}

impl Args {
    /// Parses `argv` in one pass: each flag is looked up in [`FLAGS`] and
    /// its value read and checked; then every flag must be in the scope
    /// of the command the operands name.
    fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut argv = argv.into_iter();
        let (mut operands, mut given, mut help) = (Vec::new(), Vec::new(), false);
        while let Some(arg) = argv.next() {
            if arg == "--help" || arg == "-h" {
                help = true;
                continue;
            }
            if !arg.starts_with("--") {
                operands.push(arg);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, path)) => (name, Some(path)),
                None => (arg.as_str(), None),
            };
            let flag = FLAGS
                .iter()
                .find(|f| f.name == name && (inline.is_none() || matches!(f.kind, Kind::StatsJson)))
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            let value = match (flag.kind, inline) {
                (_, Some("")) => return Err(format!("{name}=<path> requires a file path")),
                (_, Some(path)) => Some(path.to_owned()),
                (Kind::Switch | Kind::StatsJson, None) => None,
                (kind, None) => Some(kind.read(name, argv.next())?),
            };
            given.push((flag, value));
        }
        // The longest command the leading operands name: `serve report`
        // before `serve`.
        let command = (1..=operands.len().min(2)).rev().find_map(|n| {
            let words = operands[..n].join(" ");
            COMMANDS.iter().map(|c| c.0).find(|c| *c == words)
        });
        if let Some(cmd) = command {
            if let Some((flag, _)) = given.iter().find(|(flag, _)| !flag.scope.contains(&cmd)) {
                let name = flag.name;
                return Err(format!(
                    "{name} does not apply to `l2 {cmd}` (see `l2 {cmd} --help`)"
                ));
            }
            operands.drain(..cmd.split(' ').count());
        }
        Ok(Args {
            command,
            operands,
            given,
            help,
        })
    }

    /// The values given for flag `name`. Panics when `name` is not in
    /// [`FLAGS`], so a misspelt lookup cannot silently read nothing.
    fn values<'a>(&'a self, name: &str) -> impl Iterator<Item = Option<&'a str>> + 'a {
        let wanted = FLAGS.iter().find(|f| f.name == name);
        let wanted = wanted.unwrap_or_else(|| panic!("`{name}` is not in the flag table"));
        self.given
            .iter()
            .filter(move |(flag, _)| flag.name == wanted.name)
            .map(|(_, value)| value.as_deref())
    }

    /// Whether switch `name` was given.
    fn on(&self, name: &str) -> bool {
        self.values(name).any(|value| value.is_none())
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.values(name).flatten().last()
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.text(name).map(PathBuf::from)
    }

    /// A number flag's value as `T`, which must accept every value
    /// [`Kind::read`] lets through.
    fn num<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let parsed = self.text(name).map(str::parse);
        parsed.map(|v| v.unwrap_or_else(|_| panic!("{name}: value not checked as a number")))
    }

    fn ms(&self, name: &str) -> Option<Duration> {
        self.num(name).map(Duration::from_millis)
    }

    /// Applies the search flags on top of `options`.
    fn apply(&self, mut options: SearchOptions) -> SearchOptions {
        if let Some(timeout) = self.ms("--timeout-ms") {
            options.timeout = Some(timeout);
        }
        if let Some(overshoot) = self.ms("--max-overshoot-ms") {
            options.max_overshoot = overshoot;
        }
        options.retry_ladder |= self.on("--retry-ladder");
        options.static_prune &= !self.on("--no-static-prune");
        options.progress |= self.on("--progress");
        options
    }

    /// The batch worker count: `--jobs 0` means one per CPU, no flag one.
    fn effective_jobs(&self) -> usize {
        self.num("--jobs")
            .map_or(1, |n: u64| effective_jobs(n as usize))
    }
}

/// The usage text of `command`, or of every command, generated from
/// [`COMMANDS`] and [`FLAGS`].
fn usage(command: Option<&str>) -> String {
    let shown = |scope: &[&str]| command.is_none_or(|cmd| scope.contains(&cmd));
    let mut out = String::from("usage:\n");
    for (name, operands, help) in COMMANDS.iter().filter(|c| shown(&[c.0])) {
        let call = format!("l2 {name} {operands}");
        out.push_str(&format!("  {call:38} {help}\n"));
    }
    out.push_str("flags (any position):\n");
    for flag in FLAGS.iter().filter(|f| shown(f.scope)) {
        let spelled = format!("{}{}", flag.name, flag.kind.placeholder());
        out.push_str(&format!("  {spelled:26} {}", flag.help));
        if command.is_none() {
            out.push_str(&format!("  [{}]", flag.scope.join(", ")));
        }
        out.push('\n');
    }
    out + "  --help, -h                 print this text"
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => return fail(msg),
    };
    if args.help {
        println!("{}", usage(args.command));
        return ExitCode::SUCCESS;
    }
    let ops = args.operands.as_slice();
    let outcome = match (args.command, ops) {
        (Some(cmd @ ("synth" | "bench")), [_, _, ..]) if args.on("--progress") => Err(format!(
            "--progress draws one problem's status line; `l2 {cmd}` got {} problems",
            ops.len()
        )),
        (Some("synth"), [_, ..]) => finish(cmd_synth(ops, &args)),
        (Some("run"), [path, _, ..]) => finish(cmd_run(path, &ops[1..], &args)),
        (Some("eval"), [expr, bindings @ ..]) => finish(cmd_eval(expr, bindings)),
        (Some("lint"), [_, ..]) => Ok(cmd_lint(ops, &args)),
        (Some("bench"), [_, ..]) => finish(cmd_bench(ops, &args)),
        (Some("list"), _) => {
            cmd_list();
            Ok(ExitCode::SUCCESS)
        }
        (Some("profile"), [sub, files @ ..]) => cmd_profile(sub, files, &args),
        (Some("corpus"), [sub, rest @ ..]) => cmd_corpus(sub, rest, &args),
        (Some("serve"), _) => cmd_serve(&args),
        (Some("serve report"), _) => cmd_serve_report(ops, &args),
        (Some("client"), [op, rest @ ..]) => cmd_client(op, rest, &args),
        (command, _) => Ok(usage_error(command)),
    };
    outcome.unwrap_or_else(fail)
}

/// Reports a usage or I/O error: exit 2.
fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

/// Prints the usage of `command` (or of every command) to stderr: exit 2.
fn usage_error(command: Option<&str>) -> ExitCode {
    eprintln!("{}", usage(command));
    ExitCode::from(2)
}

/// Names why a command line fits none of `command`'s forms — a
/// sub-command it does not know, or a known one given the wrong number of
/// operands — then prints the command's usage: exit 2.
fn form_error(command: &str, sub: &str, operands: usize) -> ExitCode {
    let form = COMMANDS
        .iter()
        .find(|(c, form, _)| *c == command && form.split(' ').next() == Some(sub));
    match form {
        Some((_, form, _)) => eprintln!("error: `l2 {command} {form}` got {operands} operand(s)"),
        None => eprintln!("error: `l2 {command}` has no sub-command `{sub}`"),
    }
    usage_error(Some(command))
}

/// The exit code of a synthesizing command: 1 when it failed.
fn finish(result: Result<(), String>) -> Result<ExitCode, String> {
    Ok(match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    })
}

/// Writes `content` to stdout verbatim, ignoring broken pipes: every
/// subcommand's stdout must survive `l2 ... | head` without a panic or a
/// spurious nonzero exit. Write errors other than a closed pipe are also
/// ignored — stdout is a best-effort channel here; anything that decides
/// exit codes goes through return values, not print success.
fn emit(content: &str) {
    use std::io::Write;
    let stdout = std::io::stdout();
    let _ = stdout.lock().write_all(content.as_bytes());
}

/// [`emit`] plus a trailing newline — the broken-pipe-safe `println!`.
fn emit_line(content: impl std::fmt::Display) {
    emit(&format!("{content}\n"));
}

/// Checks up front that a `--flag <path>` output target points somewhere
/// writable: a missing parent directory is a usage error reported before
/// any synthesis work starts, not after a whole batch has already run
/// (a batch only opens its trace file once every problem has finished).
fn validate_out_path(flag: &str, path: &Path) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            return Err(format!(
                "{flag} {}: parent directory {} does not exist",
                path.display(),
                parent.display()
            ));
        }
    }
    Ok(())
}

/// Where the synthesizing commands deliver their measurements, beyond
/// stdout/stderr. Built once per command, *before* any search work, so
/// every output path failure is immediate (see [`validate_out_path`]).
#[derive(Debug)]
struct Sinks {
    /// `--corpus <dir>`: the opened (and thus created) run corpus.
    corpus: Option<Corpus>,
    /// `--stats-json=<path>`: measurement lines are appended here.
    stats_json_out: Option<PathBuf>,
}

/// Validates every output flag and opens the corpus. The `--stats-json=`
/// target file is created (truncated) up front: a bad path fails the
/// command before the first search, and a rerun never mixes old and new
/// lines.
fn prepare_sinks(args: &Args) -> Result<Sinks, String> {
    if let Some(path) = args.path("--trace") {
        validate_out_path("--trace", &path)?;
    }
    let corpus = match args.path("--corpus") {
        Some(dir) => Some(Corpus::open(&dir).map_err(|e| format!("--corpus: {e}"))?),
        None => None,
    };
    let stats_json_out = args.path("--stats-json");
    if let Some(path) = &stats_json_out {
        validate_out_path("--stats-json", path)?;
        std::fs::File::create(path).map_err(|e| format!("--stats-json {}: {e}", path.display()))?;
    }
    Ok(Sinks {
        corpus,
        stats_json_out,
    })
}

impl Sinks {
    /// Records one measurement in every configured sink. Failures here are
    /// reported but do not fail the run: the synthesis result already
    /// exists and has been printed.
    fn record(&self, measurement: &Measurement, fingerprint: &str) {
        if let Some(corpus) = &self.corpus {
            let record = RunRecord::of_measurement(measurement, fingerprint);
            if let Err(e) = corpus.append(&[record]) {
                eprintln!("warning: --corpus: {e}");
            }
        }
        if let Some(path) = &self.stats_json_out {
            if let Err(e) = jsonl::append(path, [measurement.to_json()]) {
                eprintln!("warning: --stats-json {e}");
            }
        }
    }
}

/// Renders [`TraceEvent::Progress`] heartbeats as a single rewriting
/// status line on stderr, forwarding every event to the inner tracer
/// (when there is one). `enabled()` mirrors the inner tracer so the
/// engine keeps skipping payload rendering when only `--progress` is on.
struct ProgressLine<'a> {
    inner: Option<&'a mut dyn Tracer>,
    render: bool,
    wrote: bool,
}

impl ProgressLine<'_> {
    /// Terminates the status line so later stderr output starts clean.
    fn finish_line(&mut self) {
        if self.wrote {
            eprintln!();
            self.wrote = false;
        }
    }
}

impl Tracer for ProgressLine<'_> {
    fn enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|t| t.enabled())
    }

    fn emit(&mut self, event: TraceEvent) {
        if self.render {
            if let TraceEvent::Progress {
                budget,
                queue,
                best_cost,
                ..
            } = &event
            {
                eprint!(
                    "\r  {:6.1}s  {} pops  queue {}  cost {}  store {:.1} MB   ",
                    budget.elapsed.as_secs_f64(),
                    budget.pops,
                    queue,
                    best_cost,
                    budget.peak_store_bytes as f64 / (1024.0 * 1024.0),
                );
                self.wrote = true;
            }
        }
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.emit(event);
        }
    }
}

/// Runs and [`report`]s one governed synthesis on this thread, honoring
/// `--trace` and `--progress`, with panic isolation: a crash inside the
/// engine is reported as a failed problem, not an abort. Returns the
/// synthesis when the problem was solved; `Err` is a trace-file I/O
/// failure, which fails the command.
fn run_synthesis(
    problem: &Problem,
    options: SearchOptions,
    args: &Args,
    sinks: &Sinks,
) -> Result<Option<Synthesis>, String> {
    eprintln!(
        "synthesizing `{}` from {} examples...",
        problem.name(),
        problem.examples().len()
    );
    let synthesizer = Synthesizer::with_options(options);
    let trace = args.path("--trace");
    let mut jsonl = match &trace {
        Some(path) => Some(
            JsonlTracer::create(path)
                .map_err(|e| format!("opening trace file {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let outcome = {
        let mut line = ProgressLine {
            inner: jsonl.as_mut().map(|t| t as &mut dyn Tracer),
            render: args.on("--progress"),
            wrote: false,
        };
        let tracer = &mut line;
        let r = catch_unwind(AssertUnwindSafe(|| {
            synthesizer.synthesize_report_traced(problem, tracer)
        }));
        line.finish_line();
        r.map_err(|payload| panic_message(&*payload))
    };
    if let (Some(tracer), Some(path)) = (jsonl, &trace) {
        let lines = tracer
            .finish()
            .map_err(|e| format!("writing trace file {}: {e}", path.display()))?;
        eprintln!("trace: {lines} events -> {}", path.display());
    }
    let fp = options_fingerprint(synthesizer.options());
    let (name, examples) = (problem.name(), problem.examples().len());
    report(name, examples, &outcome, args, sinks, &fp);
    Ok(outcome.ok().and_then(|r| r.outcome.ok()))
}

/// Prints one problem's result summary (and its `--stats-json` line) and
/// records the measurement in the configured [`Sinks`]. `outcome` is the
/// engine's report, or its panic message when it crashed. Returns `true`
/// when the problem was solved.
fn report(
    name: &str,
    examples: usize,
    outcome: &Result<SearchReport, String>,
    args: &Args,
    sinks: &Sinks,
    fingerprint: &str,
) -> bool {
    let measurement = match outcome {
        Ok(report) => {
            match &report.outcome {
                Ok(s) => {
                    emit_line(&s.program);
                    eprintln!(
                        "cost {}, {:.1} ms, {}",
                        s.cost,
                        report.elapsed.as_secs_f64() * 1e3,
                        s.stats
                    );
                    eprintln!("phases: {}", s.stats.phases);
                }
                Err(_) if !report.frontier.is_empty() => {
                    eprintln!("best incomplete candidates:");
                    for item in &report.frontier {
                        eprintln!("  cost {:3}  {}", item.cost, item.sketch);
                    }
                }
                Err(_) => {}
            }
            report.to_measurement(name, examples)
        }
        Err(msg) => Measurement::panicked(name, examples, msg),
    };
    if let Some(e) = &measurement.error {
        eprintln!("{name}: error: {e}");
    }
    if args.on("--stats-json") {
        emit_line(measurement.to_json());
    }
    sinks.record(&measurement, fingerprint);
    measurement.solved
}

fn cmd_synth(paths: &[String], args: &Args) -> Result<(), String> {
    let problems = paths.iter().map(|path| {
        let problem = load_problem(path).map_err(|msg| format!("{path}: error: {msg}"))?;
        Ok((problem, file_options(args)))
    });
    run_problems(problems.collect(), args)
}

/// Runs the problems of `synth` or `bench` (an `Err` is one that failed
/// to load): a single problem on this thread, several as one batch on
/// the worker pool.
fn run_problems(
    problems: Vec<Result<(Problem, SearchOptions), String>>,
    args: &Args,
) -> Result<(), String> {
    let sinks = prepare_sinks(args)?;
    let total = problems.len();
    let mut failed = 0usize;
    let mut loaded = Vec::new();
    for problem in problems {
        match problem {
            Ok(problem) => loaded.push(problem),
            Err(msg) => {
                eprintln!("{msg}");
                failed += 1;
            }
        }
    }
    if total == 1 {
        for (problem, options) in loaded {
            failed += usize::from(run_synthesis(&problem, options, args, &sinks)?.is_none());
        }
    } else {
        let tasks = loaded.into_iter().map(|(spec, options)| ParTask {
            spec,
            options,
            engine: ParEngine::Search,
            collect_trace: args.path("--trace").is_some(),
        });
        failed += run_batch(tasks.collect(), args, &sinks)?;
    }
    batch_verdict(failed, total)
}

/// Fans `tasks` across the worker pool, writes the merged worker-tagged
/// trace, and reports every outcome in input order. Returns the number of
/// failed problems.
fn run_batch(tasks: Vec<ParTask>, args: &Args, sinks: &Sinks) -> Result<usize, String> {
    let jobs = args.effective_jobs();
    eprintln!("running {} problems across {jobs} workers...", tasks.len());
    // Outcomes come back in input order, so the per-task fingerprints
    // (bench tuning varies the options per problem) line up by index.
    let fingerprints: Vec<String> = tasks
        .iter()
        .map(|t| options_fingerprint(&t.options))
        .collect();
    let outcomes = synthesize_batch(tasks, jobs);
    write_tagged_trace(&outcomes, args)?;
    Ok(outcomes
        .iter()
        .zip(&fingerprints)
        .filter(|(o, fp)| !report(&o.name, o.examples, &o.result, args, sinks, fp))
        .count())
}

/// Writes the batch's trace events — tagged with problem and worker — as
/// one JSONL file, in input (not completion) order.
fn write_tagged_trace(outcomes: &[ParOutcome], args: &Args) -> Result<(), String> {
    let Some(path) = args.path("--trace") else {
        return Ok(());
    };
    use std::io::Write;
    let io_err = |e: std::io::Error| format!("writing trace file {}: {e}", path.display());
    let file = std::fs::File::create(&path)
        .map_err(|e| format!("opening trace file {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let mut lines = 0u64;
    for outcome in outcomes {
        for event in &outcome.events {
            // Progress heartbeats are wall-clock driven — volatile, like
            // `t_us` — so they are dropped from the merged trace to keep
            // it diffable across runs.
            if matches!(event, TraceEvent::Progress { .. }) {
                continue;
            }
            writeln!(
                out,
                "{}",
                tagged_event_json(event, &outcome.name, outcome.worker)
            )
            .map_err(io_err)?;
            lines += 1;
        }
    }
    out.flush().map_err(io_err)?;
    eprintln!("trace: {lines} events -> {}", path.display());
    Ok(())
}

fn cmd_run(path: &str, run_args: &[String], args: &Args) -> Result<(), String> {
    let sinks = prepare_sinks(args)?;
    let problem = load_problem(path)?;
    let Some(solved) = run_synthesis(&problem, file_options(args), args, &sinks)? else {
        return Err(format!("`{}` was not solved", problem.name()));
    };
    let program = solved.program;
    let vals = run_args
        .iter()
        .map(|a| lambda2_lang::parser::parse_value(a).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let out = program.apply(&vals).map_err(|e| e.to_string())?;
    emit_line(&out);
    Ok(())
}

fn cmd_eval(expr: &str, bindings: &[String]) -> Result<(), String> {
    let e = lambda2_lang::parser::parse_expr(expr).map_err(|e| e.to_string())?;
    let mut env = lambda2_lang::env::Env::empty();
    for b in bindings {
        let (name, value) = b
            .split_once('=')
            .ok_or_else(|| format!("binding `{b}` is not of the form name=value"))?;
        let v = lambda2_lang::parser::parse_value(value).map_err(|e| e.to_string())?;
        env = env.bind(lambda2_lang::symbol::Symbol::intern(name), v);
    }
    let out = lambda2_lang::eval::eval_default(&e, &env).map_err(|e| e.to_string())?;
    emit_line(&out);
    Ok(())
}

fn cmd_bench(names: &[String], args: &Args) -> Result<(), String> {
    let problems = names.iter().map(|name| {
        let bench = lambda2_bench_suite::by_name(name)
            .ok_or_else(|| format!("{name}: error: unknown benchmark (try `l2 list`)"))?;
        let mut options = bench.tune(SearchOptions::default());
        options.timeout = Some(Duration::from_secs(if bench.hard { 180 } else { 60 }));
        Ok((bench.problem, args.apply(options)))
    });
    run_problems(problems.collect(), args)
}

/// Statically checks each problem file, printing diagnostics as
/// `path: code: message` lines (or JSON Lines with `--json`). Exit codes:
/// 0 every file clean, 1 any diagnostic reported, 2 usage or I/O error.
///
/// Every file is checked even when an earlier one fails to read — an
/// unreadable file is reported (as an `io-error` JSON line with `--json`)
/// and the nonzero exit is deferred to the end, mirroring how a multi-
/// problem `l2 synth` reports every problem before failing the batch.
fn cmd_lint(paths: &[String], args: &Args) -> ExitCode {
    let json = args.on("--json");
    let mut diagnostics = 0usize;
    let mut io_errors = 0usize;
    for path in paths {
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) => {
                io_errors += 1;
                if json {
                    emit_line(Json::obj([
                        ("file", path.as_str().into()),
                        ("code", "io-error".into()),
                        ("message", e.to_string().as_str().into()),
                    ]));
                } else {
                    eprintln!("error: reading {path}: {e}");
                }
                continue;
            }
        };
        for d in lint_source(&src) {
            diagnostics += 1;
            if json {
                emit_line(Json::obj([
                    ("file", path.as_str().into()),
                    ("code", d.code.name().into()),
                    ("message", d.message.as_str().into()),
                ]));
            } else {
                emit_line(format_args!("{path}: {}: {}", d.code.name(), d.message));
            }
        }
    }
    if io_errors > 0 {
        eprintln!(
            "{diagnostics} diagnostic(s), {io_errors} unreadable file(s) across {} file(s)",
            paths.len()
        );
        ExitCode::from(2)
    } else if diagnostics == 0 {
        eprintln!("{} file(s) clean", paths.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("{diagnostics} diagnostic(s) across {} file(s)", paths.len());
        ExitCode::FAILURE
    }
}

/// `l2 profile <summary|tree|diff> <trace>...` — offline analysis
/// of `--trace` JSONL files. Exit codes: 0 on success (for `diff`:
/// identical traces), 1 when `diff` finds a divergence or truncation,
/// 2 on usage or I/O errors (`Err`).
fn cmd_profile(sub: &str, files: &[String], args: &Args) -> Result<ExitCode, String> {
    match (sub, files) {
        ("summary", [trace]) => {
            let summary = summarize(&read_trace(trace)?);
            if args.on("--json") {
                emit_line(summary.to_json());
            } else {
                emit(&summary.render_text());
            }
        }
        ("tree", [trace]) => {
            let weight = match args.text("--weight") {
                Some("time") => Weight::Time,
                _ => Weight::Pops,
            };
            let stacks = collapse_tree(&read_trace(trace)?, weight).map_err(|e| e.to_string())?;
            let out: String = stacks.iter().map(|(s, w)| format!("{s} {w}\n")).collect();
            match args.path("--out") {
                Some(path) => {
                    std::fs::write(&path, out)
                        .map_err(|e| format!("writing {}: {e}", path.display()))?;
                    eprintln!("collapsed stacks -> {}", path.display());
                }
                None => emit(&out),
            }
        }
        ("diff", [a, b]) => {
            let outcome = diff_traces(&read_trace(a)?, &read_trace(b)?);
            if args.on("--json") {
                emit_line(diff_json(&outcome));
            } else {
                let text = match &outcome {
                    DiffOutcome::Identical { events } => {
                        format!("identical: {events} events\n")
                    }
                    DiffOutcome::Truncated {
                        common,
                        len_a,
                        len_b,
                    } => format!(
                        "truncated: traces agree on the first {common} events, \
                         then one stops early ({len_a} vs {len_b} events)\n"
                    ),
                    DiffOutcome::Divergence {
                        index,
                        key_a,
                        key_b,
                    } => {
                        format!("divergence at event {index}:\n  a: {key_a}\n  b: {key_b}\n")
                    }
                };
                emit(&text);
            }
            if !outcome.is_identical() {
                return Ok(ExitCode::FAILURE);
            }
        }
        _ => return Ok(form_error("profile", sub, files.len())),
    }
    Ok(ExitCode::SUCCESS)
}

/// Loads a `--trace` file for `l2 profile`.
fn read_trace(path: &str) -> Result<Trace, String> {
    load_trace(Path::new(path)).map_err(|e| e.to_string())
}

/// One JSON object describing a [`DiffOutcome`].
fn diff_json(outcome: &DiffOutcome) -> Json {
    match outcome {
        DiffOutcome::Identical { events } => Json::obj([
            ("outcome", "identical".into()),
            ("events", (*events as u64).into()),
        ]),
        DiffOutcome::Truncated {
            common,
            len_a,
            len_b,
        } => Json::obj([
            ("outcome", "truncated".into()),
            ("common", (*common as u64).into()),
            ("len_a", (*len_a as u64).into()),
            ("len_b", (*len_b as u64).into()),
        ]),
        DiffOutcome::Divergence {
            index,
            key_a,
            key_b,
        } => Json::obj([
            ("outcome", "divergence".into()),
            ("index", (*index as u64).into()),
            ("key_a", key_a.as_str().into()),
            ("key_b", key_b.as_str().into()),
        ]),
    }
}

/// Parses one ingest input: a whole-file `BENCH_*.json` document (one
/// carrying `"results"`) or a record file of measurements.
fn ingest_file(raw: &str) -> Result<Vec<RunRecord>, String> {
    use lambda2_synth::obs::corpus::ingest_fingerprint;
    let path = std::path::Path::new(raw);
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {raw}: {e}"))?;
    if let Ok(doc) = lambda2_synth::obs::json::parse(text.trim()) {
        if doc.get("results").is_some() {
            return ingest_bench(&doc).map_err(|e| format!("{raw}: {e}"));
        }
    }
    // `--stats-json` lines carry no options, so every such record
    // shares one explicit ingest fingerprint: comparable with each
    // other, never with first-class fingerprinted runs.
    let stats_fp = ingest_fingerprint("stats-json\n");
    jsonl::parse(&text, path, |doc| ingest_measurement(&doc, &stats_fp)).map_err(|e| e.to_string())
}

/// `l2 corpus <ingest|list|stats|regress> ...` — the cross-run record
/// store and its regression watchdog. Exit codes: 0 on success (for
/// `regress`: no regression), 1 when `regress` finds a regression, 2 on
/// usage or I/O errors.
fn cmd_corpus(sub: &str, rest: &[String], args: &Args) -> Result<ExitCode, String> {
    /// Resolves a corpus directory (or a bare record file) to its records.
    fn load_store(raw: &str) -> Result<Vec<RunRecord>, String> {
        let path = Path::new(raw);
        let store = if path.is_dir() {
            path.join(lambda2_synth::obs::corpus::CORPUS_FILE)
        } else {
            path.to_path_buf()
        };
        if !store.exists() {
            return Err(format!("{}: no corpus store found", store.display()));
        }
        load_records(&store).map_err(|e| e.to_string())
    }
    let json = args.on("--json");
    match (sub, rest) {
        ("ingest", [dir, files @ ..]) if !files.is_empty() => {
            let corpus = Corpus::open(Path::new(dir)).map_err(|e| e.to_string())?;
            let mut total = 0usize;
            for file in files {
                let records = ingest_file(file)?;
                corpus.append(&records).map_err(|e| e.to_string())?;
                total += records.len();
            }
            eprintln!(
                "ingested {total} record(s) from {} file(s) -> {}",
                files.len(),
                corpus.store_path().display()
            );
        }
        (cmd @ ("list" | "stats"), [dir]) => {
            let aggregates = aggregate(&load_store(dir)?);
            let mut out = String::new();
            for a in &aggregates {
                if json {
                    out.push_str(&format!("{}\n", a.to_json()));
                } else if cmd == "list" {
                    out.push_str(&format!(
                        "{:16} {:22} {:3} run(s)  {:3} solved\n",
                        a.problem, a.fingerprint, a.runs, a.solved
                    ));
                } else {
                    let cost = match (a.cost_lo, a.cost_hi) {
                        (Some(lo), Some(hi)) if lo == hi => format!("cost {lo}"),
                        (Some(lo), Some(hi)) => format!("cost {lo}..{hi} (forked!)"),
                        _ => "unsolved".to_owned(),
                    };
                    out.push_str(&format!(
                        "{:16} {:22} {:3}/{:<3} solved  {cost:24} wall p50 {:8.1} ms  \
                         p90 {:8.1} ms  max {:8.1} ms{}\n",
                        a.problem,
                        a.fingerprint,
                        a.solved,
                        a.runs,
                        a.wall_ms(0.5),
                        a.wall_ms(0.9),
                        a.wall_ms(1.0),
                        if a.counters_agree {
                            ""
                        } else {
                            "  [counters diverge across runs]"
                        }
                    ));
                }
            }
            if aggregates.is_empty() && !json {
                out.push_str("(corpus is empty)\n");
            }
            emit(&out);
        }
        ("regress", [baseline, fresh]) => {
            let (base, new) = (load_store(baseline)?, load_store(fresh)?);
            let defaults = RegressThresholds::default();
            let thresholds = RegressThresholds {
                wall_ratio: args.num("--wall-ratio").unwrap_or(defaults.wall_ratio),
                wall_floor_ms: args
                    .num("--wall-floor-ms")
                    .unwrap_or(defaults.wall_floor_ms),
                check_wall: !args.on("--no-wall-check"),
            };
            let findings = regress(&base, &new, &thresholds);
            let regressions = findings
                .iter()
                .filter(|f| f.kind == FindingKind::Regression)
                .count();
            if json {
                let mut out = String::new();
                for f in &findings {
                    out.push_str(&format!("{}\n", f.to_json()));
                }
                emit(&out);
            } else {
                let mut out = String::new();
                for f in &findings {
                    out.push_str(&format!(
                        "{}: {} [{}]: {}\n",
                        f.problem,
                        f.kind.name(),
                        f.fingerprint,
                        f.detail
                    ));
                }
                let groups: std::collections::BTreeSet<_> = new
                    .iter()
                    .map(|r| (r.problem.as_str(), r.fingerprint.as_str()))
                    .collect();
                out.push_str(&format!(
                    "{} fresh group(s) compared: {regressions} regression(s), {} note(s)\n",
                    groups.len(),
                    findings.len() - regressions
                ));
                emit(&out);
            }
            if regressions > 0 {
                return Ok(ExitCode::FAILURE);
            }
        }
        _ => return Ok(form_error("corpus", sub, rest.len())),
    }
    Ok(ExitCode::SUCCESS)
}

/// `l2 serve` — runs the synthesis daemon until a `shutdown` request or
/// (on Unix) SIGTERM/SIGINT, then drains and prints the final accounting
/// as one JSON line on stdout. `--timeout-ms` sets the *default*
/// per-request budget (requests may carry their own, capped by
/// `--max-timeout-ms`). Exit codes: 0 after a clean drain, 1 on a fatal
/// listener error, 2 on usage or bind errors.
fn cmd_serve(args: &Args) -> Result<ExitCode, String> {
    if let Some(extra) = args.operands.first() {
        return Err(format!(
            "serve takes no positional arguments (got `{extra}`)"
        ));
    }
    let (slow_trace_ms, slow_trace_dir) =
        (args.num("--slow-trace-ms"), args.path("--slow-trace-dir"));
    if slow_trace_ms.is_some() != slow_trace_dir.is_some() {
        return Err("--slow-trace-ms and --slow-trace-dir must be given together".into());
    }
    let access_log = args.path("--access-log");
    if let Some(path) = &access_log {
        validate_out_path("--access-log", path)?;
    }
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: args.text("--addr").unwrap_or(DEFAULT_SERVE_ADDR).to_owned(),
        workers: args
            .num("--jobs")
            .map_or(defaults.workers, |n: u64| effective_jobs(n as usize)),
        queue_capacity: args
            .num("--queue")
            .map_or(defaults.queue_capacity, |n: u64| n as usize),
        default_timeout: args.ms("--timeout-ms").unwrap_or(defaults.default_timeout),
        max_timeout: args.ms("--max-timeout-ms").unwrap_or(defaults.max_timeout),
        warm_cache_bytes: args
            .num("--warm-bytes")
            .map_or(defaults.warm_cache_bytes, |n: u64| n as usize),
        drain_grace: args.ms("--drain-grace-ms").unwrap_or(defaults.drain_grace),
        options: args.apply(SearchOptions::default()),
        corpus_dir: args.path("--corpus"),
        access_log,
        slow_trace_ms,
        slow_trace_dir,
        ..defaults
    };
    let server = Server::bind(config).map_err(|e| format!("serve: {e}"))?;
    eprintln!("serve: listening on {}", server.local_addr());
    drain_on_signals(server.control());
    match server.run() {
        Ok(summary) => {
            eprintln!(
                "serve: drained in {:.1} ms ({} accepted, {} solved, {} shed, {} crashed; \
                 service p50/p99 {:.1}/{:.1} ms, queue wait p50/p99 {:.1}/{:.1} ms)",
                summary.drain_elapsed.as_secs_f64() * 1e3,
                summary.accepted,
                summary.solved,
                summary.shed,
                summary.crashed,
                summary.latency_ms(true, 0.5),
                summary.latency_ms(true, 0.99),
                summary.latency_ms(false, 0.5),
                summary.latency_ms(false, 0.99),
            );
            emit_line(summary.to_json());
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("error: serve: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `l2 serve report <access.jsonl>` — offline analyzer for a daemon's
/// access log. Prints a human-readable summary (or the full analysis as
/// one JSON line with `--json`); it writes no file. Exit codes: 0 on
/// success, 2 on usage errors or an unreadable/invalid log.
fn cmd_serve_report(files: &[String], args: &Args) -> Result<ExitCode, String> {
    let [log_path] = files else {
        eprintln!(
            "error: `l2 serve report <access.jsonl>` got {} operand(s)",
            files.len()
        );
        return Ok(usage_error(Some("serve report")));
    };
    let records = load_access_log(Path::new(log_path)).map_err(|e| e.to_string())?;
    let report = AccessReport::analyze(&records);
    if args.on("--json") {
        emit_line(report.to_json());
    } else {
        emit(&report.render_text());
    }
    Ok(ExitCode::SUCCESS)
}

/// Routes SIGTERM/SIGINT to the daemon's drain flag. The flag lives in a
/// static the handler reads directly: its body is an atomic load (the
/// `OnceLock`) plus an atomic store, both async-signal-safe. No thread
/// forwards the signal; the accept loop sees the flag at its next wake.
#[cfg(unix)]
fn drain_on_signals(control: std::sync::Arc<std::sync::atomic::AtomicBool>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static CONTROL: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" fn on_signal(_signum: i32) {
        if let Some(control) = CONTROL.get() {
            control.store(true, Ordering::SeqCst);
        }
    }

    extern "C" {
        /// POSIX `signal(2)`, hand-declared to keep the tree
        /// dependency-free; `sighandler_t` is a plain function pointer,
        /// passed as `usize`.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    CONTROL
        .set(control)
        .expect("one daemon per process installs the signal handler");
    // SAFETY: `signal` has no memory preconditions; `on_signal` matches
    // `sighandler_t` and only touches atomics. SIGTERM = 15 and SIGINT = 2
    // on every Unix target Rust supports.
    unsafe {
        signal(15, on_signal as extern "C" fn(i32) as usize);
        signal(2, on_signal as extern "C" fn(i32) as usize);
    }
}

/// Off Unix the daemon is stopped via the `shutdown` protocol op.
#[cfg(not(unix))]
fn drain_on_signals(_control: std::sync::Arc<std::sync::atomic::AtomicBool>) {}

/// `l2 client` — sends requests to a running daemon, retrying sheds and
/// transport failures with seeded jittered backoff. Every response
/// document is printed as one JSON line on stdout, except `stats`, which
/// renders a human-readable counter table by default (pass `--json` for
/// the raw reply line); a short human summary goes to stderr. Exit
/// codes: 0 all requests `ok`, 1 any request failed (`error`/`unsolved`/
/// `shutting_down`, a `stats` reply without a server object, or
/// transport failure after retries), 2 usage or local I/O error, 3
/// otherwise-healthy runs where the daemon answered `overloaded` even
/// after the retry budget.
fn cmd_client(op: &str, rest: &[String], args: &Args) -> Result<ExitCode, String> {
    let addr = args.text("--addr").unwrap_or(DEFAULT_SERVE_ADDR);
    let retries = args
        .num("--retries")
        .map_or(0, |n: u64| n.min(u32::MAX.into()) as u32);
    let json = args.on("--json");
    let mut backoff = Backoff::new(
        args.ms("--backoff-ms")
            .unwrap_or(Duration::from_millis(100)),
        Duration::from_secs(5),
        args.num("--seed").unwrap_or(0),
    );
    let mut requests: Vec<(String, Json)> = Vec::new();
    match op {
        "ping" | "stats" | "shutdown" => {
            if !rest.is_empty() {
                return Err(format!("client {op} takes no further arguments"));
            }
            requests.push((
                op.to_owned(),
                Json::obj([("v", 1u64.into()), ("op", op.into())]),
            ));
        }
        "synth" => {
            if rest.is_empty() {
                return Err("client synth requires at least one problem file".into());
            }
            for path in rest {
                let source =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                let mut pairs = vec![
                    ("v".to_owned(), 1u64.into()),
                    ("op".to_owned(), "synth".into()),
                    ("id".to_owned(), path.as_str().into()),
                    ("problem".to_owned(), source.into()),
                ];
                if let Some(ms) = args.num::<u64>("--timeout-ms") {
                    pairs.push(("timeout_ms".to_owned(), ms.into()));
                }
                requests.push((path.clone(), Json::Obj(pairs)));
            }
        }
        other => {
            return Err(format!(
                "unknown client op `{other}` (synth|ping|stats|shutdown)"
            ))
        }
    }
    let mut failed = false;
    let mut overloaded = false;
    for (label, request) in &requests {
        let is_stats = request.get("op").and_then(Json::as_str) == Some("stats");
        match request_with_retry(addr, request, retries, &mut backoff) {
            Ok(resp) => {
                if !is_stats || json {
                    emit_line(&resp);
                }
                match resp.get("status").and_then(Json::as_str) {
                    Some("ok") if is_stats => match resp.get("server") {
                        Some(server @ Json::Obj(_)) => {
                            if !json {
                                emit(&render_server_stats(server));
                            }
                        }
                        _ => {
                            failed = true;
                            eprintln!("{label}: ok reply carries no `server` counters object");
                        }
                    },
                    Some("ok") => {
                        if let Some(program) = resp.get("program").and_then(Json::as_str) {
                            eprintln!("{label}: {program}");
                        }
                    }
                    Some("overloaded") => {
                        overloaded = true;
                        eprintln!(
                            "{label}: overloaded (retry_after_ms {})",
                            resp.get("retry_after_ms")
                                .and_then(Json::as_u64)
                                .unwrap_or(0)
                        );
                    }
                    status => {
                        failed = true;
                        eprintln!(
                            "{label}: {}: {}",
                            status.unwrap_or("reply carries no status"),
                            resp.get("error").and_then(Json::as_str).unwrap_or("-")
                        );
                    }
                }
            }
            Err(e) => {
                failed = true;
                eprintln!("error: {label}: {e}");
            }
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else if overloaded {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}

/// Renders a daemon's `stats` counters object as an aligned
/// human-readable table: scalars one per row, histogram summaries
/// (`queue_wait_us`, `service_us`, `frame_bytes`) inlined as
/// `count/p50/p99/mean/max`, and maps (per-op counts, per-client
/// `requests/ok/shed`) as indented sub-rows. Field order follows the
/// reply, so new server counters show up without a client change.
fn render_server_stats(server: &Json) -> String {
    fn scalar(v: &Json) -> String {
        match v {
            Json::Float(f) => format!("{f:.1}"),
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(k, v)| format!("{k} {}", scalar(v)))
                .collect::<Vec<_>>()
                .join(" "),
            other => other.to_string(),
        }
    }
    let Json::Obj(pairs) = server else {
        return String::new();
    };
    let mut out = String::new();
    for (key, value) in pairs {
        match value {
            Json::Obj(sub) if sub.iter().any(|(k, _)| k == "count") => {
                let mut line = format!("{key:<26}");
                for field in ["count", "p50", "p99", "mean", "max"] {
                    if let Some(v) = value.get(field) {
                        line.push_str(&format!(" {field} {}", scalar(v)));
                    }
                }
                out.push_str(&line);
                out.push('\n');
            }
            Json::Obj(sub) => {
                out.push_str(key);
                out.push('\n');
                for (name, n) in sub {
                    out.push_str(&format!("  {name:<24} {}\n", scalar(n)));
                }
            }
            other => out.push_str(&format!("{key:<26} {}\n", scalar(other))),
        }
    }
    out
}

fn cmd_list() {
    for b in lambda2_bench_suite::catalog() {
        emit_line(format_args!(
            "{:12} {:7} {:2} examples  {}{}",
            b.problem.name(),
            b.category.to_string(),
            b.problem.examples().len(),
            b.problem.description().unwrap_or(""),
            if b.hard { "  [hard]" } else { "" }
        ));
    }
}

/// The search options for problem files: a 60 s budget, then the flags.
fn file_options(args: &Args) -> SearchOptions {
    args.apply(SearchOptions {
        timeout: Some(Duration::from_secs(60)),
        ..SearchOptions::default()
    })
}

/// Reads and parses a problem file.
fn load_problem(path: &str) -> Result<Problem, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_problem(&src)
}

/// Summarizes a batch: `Ok` when every problem solved, a counting error
/// otherwise (the per-problem diagnostics were already printed).
fn batch_verdict(failed: usize, total: usize) -> Result<(), String> {
    if failed == 0 {
        Ok(())
    } else {
        Err(format!("{failed} of {total} problems failed"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "(problem evens\n  (params (l [int]))\n  (returns [int])\n  \
                          (example ([]) [])\n  (example ([1 2 3 4]) [2 4])\n  \
                          (example ([5 6]) [6]))";

    #[test]
    fn parse_problem_accepts_the_documented_format() {
        let p = parse_problem(SAMPLE).unwrap();
        assert_eq!(p.name(), "evens");
        assert_eq!(p.params().len(), 1);
        assert_eq!(p.examples().len(), 3);
        assert_eq!(p.return_type().to_string(), "[int]");
    }

    #[test]
    fn parse_problem_rejects_malformed_files() {
        assert!(parse_problem("(nonsense)").is_err());
        assert!(parse_problem("(problem)").is_err());
        assert!(parse_problem("(problem p (params (l [int])) (wat))").is_err());
        assert!(parse_problem("(problem p (params (l [int])) (returns [int]))").is_err());
        assert!(parse_problem("atom").is_err());
    }

    #[test]
    fn parse_problem_checks_example_shapes() {
        let bad = "(problem p (params (l [int])) (returns [int]) (example [1] [1]))";
        assert!(parse_problem(bad).is_err());
    }

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn flags_parse_from_any_position() {
        let args = parse(&["synth", "--trace", "out.jsonl", "p.l2", "--stats-json"]).unwrap();
        assert_eq!(args.path("--trace"), Some(PathBuf::from("out.jsonl")));
        assert!(args.on("--stats-json"));
        assert_eq!(args.command, Some("synth"));
        assert_eq!(args.operands, vec!["p.l2"]);

        assert!(parse(&["synth", "--trace"]).is_err());
        let err = parse(&["--wat"]).unwrap_err();
        assert!(err.contains("unknown flag `--wat`"), "{err}");
    }

    #[test]
    fn governance_flags_parse_and_apply() {
        let args = parse(&[
            "synth",
            "--timeout-ms",
            "250",
            "--max-overshoot-ms",
            "50",
            "--retry-ladder",
            "p.l2",
        ])
        .unwrap();
        assert_eq!(args.num("--timeout-ms"), Some(250u64));
        assert_eq!(args.num("--max-overshoot-ms"), Some(50u64));
        assert!(args.on("--retry-ladder"));
        assert_eq!(args.operands, vec!["p.l2"]);

        let opts = args.apply(SearchOptions::default());
        assert_eq!(opts.timeout, Some(Duration::from_millis(250)));
        assert_eq!(opts.max_overshoot, Duration::from_millis(50));
        assert!(opts.retry_ladder);
    }

    #[test]
    fn governance_flags_reject_bad_milliseconds() {
        let err = parse(&["--timeout-ms"]).unwrap_err();
        assert_eq!(err, "--timeout-ms requires a millisecond count");
        let err = parse(&["--timeout-ms", "soon"]).unwrap_err();
        assert!(err.contains("soon"), "{err}");
        assert!(parse(&["--max-overshoot-ms", "-5"]).is_err());
    }

    #[test]
    fn parallel_flags_parse() {
        let args = parse(&["bench", "--jobs", "4", "evens"]).unwrap();
        assert_eq!(args.num("--jobs"), Some(4u64));
        assert_eq!(args.effective_jobs(), 4);
        assert_eq!(args.operands, vec!["evens"]);

        // No flag = one worker; `--jobs 0` = one worker per CPU.
        assert_eq!(parse(&["bench", "evens"]).unwrap().effective_jobs(), 1);
        assert!(parse(&["bench", "--jobs", "0"]).unwrap().effective_jobs() >= 1);

        assert!(parse(&["--jobs"]).is_err());
        let err = parse(&["--jobs", "many"]).unwrap_err();
        assert_eq!(err, "--jobs: `many` is not a whole number of workers");
        // The removed portfolio racer's flag is a usage error, not a no-op.
        assert!(parse(&["--portfolio"]).is_err());
    }

    #[test]
    fn lint_and_analysis_flags_parse_and_apply() {
        let args = parse(&["lint", "--json", "p.l2"]).unwrap();
        assert!(args.on("--json"));
        assert_eq!(args.operands, vec!["p.l2"]);
        // `lint` does not search, so the pruning ablation is out of scope.
        let err = parse(&["lint", "--json", "p.l2", "--no-static-prune"]).unwrap_err();
        assert!(
            err.contains("--no-static-prune") && err.contains("l2 lint"),
            "{err}"
        );

        let args = parse(&["synth", "--no-static-prune", "p.l2"]).unwrap();
        assert!(!args.apply(SearchOptions::default()).static_prune);
        let defaults = parse(&["synth", "p.l2"]).unwrap();
        assert!(
            defaults.apply(SearchOptions::default()).static_prune,
            "pruning ships on by default"
        );
        // The removed pre-pass's flag is a usage error, not a no-op.
        assert!(parse(&["--no-static-analysis"]).is_err());
    }

    #[test]
    fn flags_outside_their_command_scope_are_usage_errors() {
        for (argv, flag, cmd) in [
            (
                &["eval", "--corpus", "c", "(+ 1 2)"][..],
                "--corpus",
                "eval",
            ),
            (&["list", "--warm-bytes", "5"], "--warm-bytes", "list"),
            (&["lint", "--addr", "x", "p.l2"], "--addr", "lint"),
            (
                &["serve", "report", "a.jsonl", "--jobs", "2"],
                "--jobs",
                "serve report",
            ),
            (&["run", "--jobs", "2", "p.l2", "1"], "--jobs", "run"),
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains(flag), "{err}");
            assert!(err.contains(&format!("`l2 {cmd}`")), "{err}");
        }
        // The same flags are fine where a command reads them.
        assert!(parse(&["serve", "--warm-bytes", "5", "--queue", "3"]).is_ok());
        assert!(parse(&["client", "ping", "--addr", "x", "--json"]).is_ok());
        // Without a command there is no scope to check: main prints usage.
        assert_eq!(parse(&["--json"]).unwrap().command, None);
    }

    #[test]
    fn the_table_is_consistent() {
        for (i, flag) in FLAGS.iter().enumerate() {
            assert!(flag.name.starts_with("--"), "{}", flag.name);
            assert!(
                FLAGS[..i].iter().all(|f| f.name != flag.name),
                "{} is declared twice",
                flag.name
            );
            for cmd in flag.scope {
                assert!(
                    COMMANDS.iter().any(|c| c.0 == *cmd),
                    "{} names unknown command `{cmd}`",
                    flag.name
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in the flag table")]
    fn reading_a_flag_missing_from_the_table_panics() {
        parse(&["list"]).unwrap().on("--verbose");
    }

    #[test]
    fn lint_reports_every_file_despite_an_unreadable_one() {
        let dir = std::env::temp_dir().join(format!("l2-lint-multi-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.l2");
        std::fs::write(
            &good,
            "(problem ident\n  (params (l [int]))\n  (returns [int])\n  \
             (example ([]) [])\n  (example ([1 2]) [1 2])\n  (example ([3]) [3]))\n",
        )
        .unwrap();
        let missing = dir.join("does-not-exist.l2");
        let paths = vec![
            missing.to_string_lossy().into_owned(),
            good.to_string_lossy().into_owned(),
        ];
        // The unreadable first file must not stop the second from being
        // linted; the I/O failure is reported and the exit is 2.
        let args = parse(&["lint"]).unwrap();
        let code = cmd_lint(&paths, &args);
        assert_eq!(code, ExitCode::from(2));
        // All files readable and clean: success.
        let code = cmd_lint(&paths[1..], &args);
        assert_eq!(code, ExitCode::SUCCESS);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_verdict_counts_failures() {
        assert!(batch_verdict(0, 3).is_ok());
        let err = batch_verdict(2, 3).unwrap_err();
        assert!(err.contains("2 of 3"), "{err}");
    }

    #[test]
    fn profile_flags_parse() {
        let args = parse(&[
            "profile", "tree", "t.jsonl", "--weight", "time", "--out", "t.txt",
        ])
        .unwrap();
        assert_eq!(args.text("--weight"), Some("time"));
        assert_eq!(args.path("--out"), Some(PathBuf::from("t.txt")));
        assert_eq!(args.command, Some("profile"));
        assert_eq!(args.operands, vec!["tree", "t.jsonl"]);

        let err = parse(&["--weight", "bytes"]).unwrap_err();
        assert_eq!(err, "--weight: `bytes` is not `pops` or `time`");
        assert!(parse(&["--out"]).is_err());
    }

    #[test]
    fn trace_paths_with_missing_parents_are_rejected_up_front() {
        let sinks_for = |trace: &str| prepare_sinks(&parse(&["synth", "--trace", trace]).unwrap());
        let err = sinks_for("/nonexistent-dir-for-test/trace.jsonl").unwrap_err();
        assert!(err.contains("/nonexistent-dir-for-test"), "{err}");
        assert!(err.contains("does not exist"), "{err}");

        // A bare filename (empty parent) and an existing directory pass.
        assert!(sinks_for("trace.jsonl").is_ok());
        let here = std::env::temp_dir().join("trace.jsonl");
        assert!(sinks_for(here.to_str().unwrap()).is_ok());
    }

    #[test]
    fn corpus_and_progress_flags_parse() {
        let args = parse(&[
            "synth",
            "--corpus",
            "results/corpus",
            "--progress",
            "--stats-json=stats.jsonl",
            "p.l2",
        ])
        .unwrap();
        assert_eq!(args.path("--corpus"), Some(PathBuf::from("results/corpus")));
        assert!(args.on("--progress"));
        assert_eq!(
            args.path("--stats-json"),
            Some(PathBuf::from("stats.jsonl"))
        );
        assert!(!args.on("--stats-json"));
        assert_eq!(args.operands, vec!["p.l2"]);

        // `--progress` is an options knob (the engine emits the events).
        assert!(args.apply(SearchOptions::default()).progress);
        let quiet = parse(&["synth", "p.l2"]).unwrap();
        assert!(!quiet.apply(SearchOptions::default()).progress);

        assert!(parse(&["--corpus"]).is_err());
        assert!(parse(&["--stats-json="]).is_err());
        // Only `--stats-json` takes its value inline.
        assert!(parse(&["--trace=t.jsonl"]).is_err());
    }

    #[test]
    fn regress_threshold_flags_parse_and_validate() {
        let args = parse(&[
            "corpus",
            "regress",
            "a",
            "b",
            "--wall-ratio",
            "2.0",
            "--wall-floor-ms",
            "250",
            "--no-wall-check",
        ])
        .unwrap();
        assert_eq!(args.num("--wall-ratio"), Some(2.0));
        assert_eq!(args.num("--wall-floor-ms"), Some(250.0));
        assert!(args.on("--no-wall-check"));
        assert_eq!(args.operands, vec!["regress", "a", "b"]);

        let err = parse(&["--wall-ratio", "0.5"]).unwrap_err();
        assert_eq!(err, "--wall-ratio: `0.5` must be a factor >= 1");
        let err = parse(&["--wall-floor-ms", "-1"]).unwrap_err();
        assert_eq!(err, "--wall-floor-ms: `-1` must be >= 0");
        let err = parse(&["--wall-ratio", "fast"]).unwrap_err();
        assert_eq!(err, "--wall-ratio: `fast` is not a number");
    }

    #[test]
    fn output_paths_are_validated_before_any_search() {
        // A `--stats-json=` target with a missing parent fails up front...
        let bad_stats = parse(&["synth", "--stats-json=/nonexistent-dir-for-test/s.jsonl"]);
        let err = prepare_sinks(&bad_stats.unwrap()).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");

        // ...a corpus path that collides with a file fails up front...
        let file = std::env::temp_dir().join(format!("l2-sink-test-{}", std::process::id()));
        std::fs::write(&file, "x").unwrap();
        let corpus = file.join("corpus");
        let bad_corpus = parse(&["synth", "--corpus", corpus.to_str().unwrap()]).unwrap();
        assert!(prepare_sinks(&bad_corpus).is_err());
        let _ = std::fs::remove_file(&file);

        // ...and no flags means no sinks.
        let sinks = prepare_sinks(&parse(&["synth"]).unwrap()).unwrap();
        assert!(sinks.corpus.is_none());
        assert!(sinks.stats_json_out.is_none());
    }

    #[test]
    fn ingest_refuses_foreign_schema_versions() {
        let path = std::env::temp_dir().join(format!("l2-ingest-test-{}", std::process::id()));
        let raw = path.to_str().unwrap();
        std::fs::write(&path, "{\"v\":1,\"name\":\"x\",\"stats\":{}}\n").unwrap();
        let records = ingest_file(raw).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].problem, "x");
        std::fs::write(&path, "{\"v\":2,\"name\":\"x\",\"stats\":{}}\n").unwrap();
        let err = ingest_file(raw).unwrap_err();
        assert!(err.contains("unsupported schema version 2"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn diff_json_covers_every_outcome() {
        let identical = diff_json(&DiffOutcome::Identical { events: 4 });
        assert_eq!(
            identical.get("outcome").and_then(Json::as_str),
            Some("identical")
        );
        assert_eq!(identical.get("events").and_then(Json::as_i64), Some(4));

        let truncated = diff_json(&DiffOutcome::Truncated {
            common: 2,
            len_a: 2,
            len_b: 5,
        });
        assert_eq!(
            truncated.get("outcome").and_then(Json::as_str),
            Some("truncated")
        );
        assert_eq!(truncated.get("len_b").and_then(Json::as_i64), Some(5));

        let diverged = diff_json(&DiffOutcome::Divergence {
            index: 1,
            key_a: "{\"ev\":\"pop\"}".into(),
            key_b: "{\"ev\":\"plan\"}".into(),
        });
        assert_eq!(
            diverged.get("outcome").and_then(Json::as_str),
            Some("divergence")
        );
        assert_eq!(diverged.get("index").and_then(Json::as_i64), Some(1));
        assert!(diverged
            .get("key_a")
            .and_then(Json::as_str)
            .unwrap()
            .contains("pop"));
    }
}
