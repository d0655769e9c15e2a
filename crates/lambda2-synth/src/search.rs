//! Best-first enumerative search over hypotheses.
//!
//! The queue holds two kinds of work, both priced with the admissible cost
//! bound from [`crate::hypothesis`]:
//!
//! * **hypotheses** — when popped, a complete hypothesis is verified against
//!   the original examples (first success is the minimal-cost answer);
//!   an open hypothesis spawns (a) combinator expansions of its leftmost
//!   hole for every combinator × collection candidate, pruned and annotated
//!   by deduction, and (b) a *closing stream* for the same hole;
//! * **closing streams** — `(hypothesis, hole, tier)` items that lazily
//!   materialize the enumerator's terms of exactly cost `tier` which
//!   satisfy the hole's spec, then reschedule themselves at `tier + 1`.
//!   This keeps enumeration interleaved with expansion in strict cost
//!   order without ever building a level eagerly ahead of need.
//!
//! Work is shared aggressively across hypotheses: enumeration stores are
//! cached by [`StoreKey`] (same scope + same example environments ⇒ same
//! term universe), and combinator expansions are *planned once per hole
//! context* ([`crate::expand::Template`]) — thousands of sibling
//! hypotheses holding the same open hole reuse the same deduction results.
//!
//! The search runs under a cooperative resource [`Budget`]
//! ([`crate::govern`]): deadlines, cancellation, pop caps, and cumulative
//! eval fuel are all checked *inside* the long phases (enumeration levels,
//! planning sweeps, verification), not just at pop boundaries, so aborts
//! land within [`SearchOptions::max_overshoot`]. Verification and planning
//! are panic-isolated — a crashing candidate is counted, traced, and
//! skipped. [`search_governed_warm`] returns a structured [`SearchReport`]
//! on every path; callers reach it through
//! [`crate::Synthesizer::synthesize_report_warm`], which adds the retry
//! ladder.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lambda2_lang::ast::{Comb, Expr, HoleId};
use lambda2_lang::env::Env;
use lambda2_lang::ty::Type;
use lambda2_lang::value::Value;

use crate::cost::CostModel;
use crate::enumerate::{canonical, EnumLimits, StoreCache, StoreKey, TermStore, WarmCache};
use crate::expand::{
    plan_constructors, plan_expansion_within, Candidate, ConsTemplate, ExpandFail, Template,
};
use crate::failpoints::{self, FailAction};
use crate::govern::{
    panic_message, Budget, BudgetExceeded, FrontierItem, SearchReport, DEFAULT_MAX_OVERSHOOT,
};
use crate::hypothesis::{HoleInfo, Hypothesis};
use crate::library::Library;
use crate::obs::metrics::Histogram;
use crate::obs::{PopKind, RefuteReason, StoreAction, TraceEvent, Tracer};
use crate::problem::Problem;
use crate::spec::{ExampleRow, Spec};
use crate::stats::Stats;
use crate::verify::Program;

/// Tunables for the search. The defaults reproduce the paper's
/// configuration; the ablation experiments toggle [`SearchOptions::deduction`].
#[derive(Clone, Debug)]
pub struct SearchOptions {
    /// Enable deduction (refutation + example propagation). Disabling this
    /// is the paper's "λ² without deduction" ablation.
    pub deduction: bool,
    /// Enable deduction's pruning check (cardinality: a `filter` row
    /// keeping some but not all occurrences of a value), which refutes
    /// hypotheses necessary-row inference would keep and so removes real
    /// search work. Sound: pruned hypotheses provably have no completion,
    /// so the synthesized program and its cost are identical on/off while
    /// `enumerated_terms` only drops (held to by the differential suite in
    /// `tests/static_analysis.rs`). Pruned refutations are counted in
    /// [`Stats::pruned_refutations`] and re-proved by a brute-force oracle
    /// under `check-invariants`. Ignored when `deduction` is off.
    ///
    /// [`Stats::pruned_refutations`]: crate::stats::Stats::pruned_refutations
    pub static_prune: bool,
    /// Maximum cost of an enumerated closing term per hole.
    pub max_term_cost: u32,
    /// Maximum closing-term cost for *blind* holes (holes with an empty
    /// spec, where observational equivalence cannot prune). Keeping this
    /// lower than [`SearchOptions::max_term_cost`] prevents structural
    /// blow-up on fold initial-value holes and in the no-deduction
    /// ablation.
    pub max_term_cost_blind: u32,
    /// Maximum cost of a collection argument in a combinator expansion.
    /// The default (1) admits exactly the variables in scope, matching the
    /// paper's hypothesis grammar — fold chain-deduction only works on
    /// variable collections anyway. Raise to admit projections like
    /// `(cdr l)` at a significant search-space cost.
    pub max_collection_cost: u32,
    /// Maximum cost of a fold's concrete initial-value candidate when the
    /// hole's rows contain empty-collection examples (which pin the value
    /// and prune aggressively).
    pub max_init_cost: u32,
    /// Maximum init-candidate cost when *no* empty-collection row
    /// constrains the value — every typed term qualifies, so the budget
    /// must stay small.
    pub max_free_init_cost: u32,
    /// Global cost ceiling: hypotheses above this are abandoned.
    pub max_cost: u32,
    /// Wall-clock budget; `None` searches until exhaustion.
    pub timeout: Option<Duration>,
    /// Bound on how far past [`SearchOptions::timeout`] the search may run
    /// before it notices and returns. The governing [`Budget`] adapts its
    /// clock-poll stride to keep the gap between polls a fraction of this;
    /// smaller bounds poll more often. The default (100ms) keeps polling
    /// cost unmeasurable while bounding overshoot tightly.
    pub max_overshoot: Duration,
    /// Hard cap on popped queue items (guards unattended runs).
    pub max_popped: u64,
    /// Evaluation fuel for verification runs (per candidate).
    pub eval_fuel: u64,
    /// Cumulative cap on evaluation fuel consumed by verification across
    /// the whole search (`u64::MAX` = unlimited). Bounds total eval work
    /// independently of wall-clock on candidate sets that are cheap to
    /// generate but expensive to run.
    pub max_total_fuel: u64,
    /// After a resource-bounded failure (timeout, pop cap, fuel cap),
    /// retry with degraded options and finally the baseline enumerator.
    /// Read by `Synthesizer::synthesize_report` — the core search loop
    /// itself never retries.
    pub retry_ladder: bool,
    /// Limits for the enumeration stores.
    pub enum_limits: EnumLimits,
    /// Global cap on the bytes owned across all enumeration stores
    /// ([`crate::enumerate::TermStore::bytes`]: their column, index and
    /// value-table capacities and the heap of their distinct values);
    /// exceeding it evicts least-recently-used stores (they are
    /// deterministic caches and rebuild on demand). Bounds memory on hard
    /// problems.
    pub max_store_bytes: usize,
    /// Expand holes with invertible-constructor hypotheses
    /// (`(cons ◻ ◻)`, `(pair ◻ ◻)`, `(tree ◻ ◻)`) whose component holes
    /// get exact deduced specs. Extends the paper's hypothesis grammar —
    /// enabling combinator-under-constructor programs like
    /// `(cons (foldl …) l)` — at a measurable search-space cost, so it is
    /// off by default (matching the paper) and opted into per problem.
    pub constructor_hypotheses: bool,
    /// Use deduction-emitted trace probes in the enumerator's dedup
    /// signatures (ablation knob; see `enumerate`). On by default — the
    /// nested benchmarks rely on them.
    pub trace_probes: bool,
    /// Expand holes with *empty* deduced specs using combinators. Off by
    /// default: a hole deduction could say nothing about gives nested
    /// combinators no guidance, and such hypotheses are overwhelmingly
    /// junk — every known suite solution carries deduced rows at every
    /// level. Enable to restore the unrestricted hypothesis grammar.
    /// (Ignored when deduction is disabled: the ablation must still form
    /// hypotheses.)
    pub expand_blind_holes: bool,
    /// Emit periodic [`TraceEvent::Progress`] heartbeats into the tracer,
    /// riding the governing budget's adaptive poll cadence (at most one
    /// per [`crate::govern::HEARTBEAT_INTERVAL`], so overhead is bounded
    /// regardless of search speed). Off by default: heartbeat count and
    /// content are wall-clock driven, so they would make otherwise
    /// deterministic traces volatile under `l2 profile diff`. Purely
    /// observational — a differential test proves toggling this changes
    /// no program, cost, or counter.
    pub progress: bool,
}

impl Default for SearchOptions {
    fn default() -> SearchOptions {
        SearchOptions {
            deduction: true,
            static_prune: true,
            max_term_cost: 12,
            max_term_cost_blind: 6,
            max_collection_cost: 1,
            max_init_cost: 5,
            max_free_init_cost: 2,
            max_cost: 28,
            timeout: Some(Duration::from_secs(20)),
            max_overshoot: DEFAULT_MAX_OVERSHOOT,
            max_popped: 20_000_000,
            eval_fuel: 50_000,
            max_total_fuel: u64::MAX,
            retry_ladder: false,
            enum_limits: EnumLimits::default(),
            max_store_bytes: 3_000_000_000,
            constructor_hypotheses: false,
            trace_probes: true,
            expand_blind_holes: false,
            progress: false,
        }
    }
}

impl SearchOptions {
    /// The degraded-caps configuration used by the retry ladder's second
    /// rung: tightened term-cost and global caps — the same engine on a
    /// much smaller space, completing quickly when the answer is simple
    /// and the full configuration drowned in a deep space.
    pub fn degraded(&self) -> SearchOptions {
        SearchOptions {
            max_term_cost: self.max_term_cost.min(8),
            max_term_cost_blind: self.max_term_cost_blind.min(4),
            max_cost: self.max_cost.min(20),
            retry_ladder: false,
            ..self.clone()
        }
    }
}

/// Folds one timed phase episode into the scalar phase total and the
/// phase's per-episode latency histogram.
#[inline]
fn note_phase(total: &mut Duration, hist: &mut Histogram, d: Duration) {
    *total += d;
    hist.record(d.as_micros().min(u64::MAX as u128) as u64);
}

/// Why synthesis failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthError {
    /// The user's examples are contradictory.
    InconsistentExamples,
    /// The wall-clock budget was exhausted.
    Timeout,
    /// The whole (cost-bounded) space was searched without a fit.
    Exhausted,
    /// The popped-item cap was reached.
    LimitReached,
    /// Cancelled cooperatively via a [`crate::govern::CancelToken`].
    Cancelled,
    /// The cumulative evaluation-fuel cap
    /// ([`SearchOptions::max_total_fuel`]) was exhausted.
    FuelExhausted,
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::InconsistentExamples => {
                write!(
                    f,
                    "examples are inconsistent (same inputs, different outputs)"
                )
            }
            SynthError::Timeout => write!(f, "synthesis timed out"),
            SynthError::Exhausted => {
                write!(f, "no program within the cost bounds fits the examples")
            }
            SynthError::LimitReached => write!(f, "search node limit reached"),
            SynthError::Cancelled => write!(f, "synthesis was cancelled"),
            SynthError::FuelExhausted => write!(f, "evaluation fuel budget exhausted"),
        }
    }
}

impl SynthError {
    /// `true` for failures caused by a *resource* limit (timeout, pop cap,
    /// fuel cap) — the errors a degraded retry can plausibly fix. Exhaustion and inconsistent examples are semantic
    /// verdicts no retry can change.
    pub fn is_resource_limit(&self) -> bool {
        matches!(
            self,
            SynthError::Timeout | SynthError::LimitReached | SynthError::FuelExhausted
        )
    }
}

impl std::error::Error for SynthError {}

/// A successful synthesis.
#[derive(Clone, Debug)]
pub struct Synthesis {
    /// The minimal-cost program fitting all examples.
    pub program: Program,
    /// Its cost under the problem's cost model.
    pub cost: u32,
    /// Search counters.
    pub stats: Stats,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// One planned expansion of either flavor, for the Apply stream.
enum Planned {
    Comb(Template),
    Cons(ConsTemplate),
}

impl Planned {
    fn delta_cost(&self) -> u32 {
        match self {
            Planned::Comb(t) => t.delta_cost,
            Planned::Cons(t) => t.delta_cost,
        }
    }

    fn instantiate(
        &self,
        hyp: &Hypothesis,
        hole: HoleId,
        costs: &CostModel,
        next_hole: &mut HoleId,
    ) -> Hypothesis {
        match self {
            Planned::Comb(t) => t.instantiate(hyp, hole, costs, next_hole),
            Planned::Cons(t) => t.instantiate(hyp, hole, costs, next_hole),
        }
    }
}

enum Kind {
    Hyp(Hypothesis),
    /// A lazy stream over a hole's planned expansions (sorted by cost):
    /// popping instantiates template `index` and reschedules `index + 1`.
    /// Instantiation (hole-id minting + spine rebuild) is deferred until a
    /// child is actually due — most never are.
    Apply {
        hyp: Hypothesis,
        hole: HoleId,
        templates: Arc<Vec<Planned>>,
        index: usize,
    },
    Close {
        hyp: Hypothesis,
        hole: HoleId,
        tier: u32,
    },
}

struct Entry {
    cost: u32,
    seq: u64,
    kind: Kind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        self.cost == other.cost && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Entry) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Entry) -> Ordering {
        // BinaryHeap is a max-heap; invert so the cheapest pops first,
        // FIFO within equal costs for determinism.
        other
            .cost
            .cmp(&self.cost)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A term drawn from an enumeration store for expansion planning: its
/// expression, type, value in each row of the hole's spec, and cost.
type PoolTerm = (Arc<Expr>, Type, Vec<Value>, u32);

/// `true` for the empty list and the empty tree — the values whose rows
/// pin a fold's initial value.
fn is_empty_collection(v: &Value) -> bool {
    match v {
        Value::List(xs) => xs.is_empty(),
        Value::Tree(t) => t.is_empty(),
        _ => false,
    }
}

/// Runs best-first synthesis on `problem` under an explicit resource
/// [`Budget`], returning a structured [`SearchReport`] on *every* path —
/// success, exhaustion, timeout, cancellation, resource caps, injected
/// faults. Every tracer event (pop, plan/refute decision, closing tier,
/// store lifecycle change, verification attempt, isolated fault) goes to
/// `tracer`; call sites check [`Tracer::enabled`] before rendering event
/// payloads, so a disabled tracer costs nothing.
///
/// The budget is ticked inside every long phase — enumeration levels,
/// deduction planning sweeps, closing-tier materialization, and
/// per-candidate verification — so a deadline or cancellation is observed
/// within [`SearchOptions::max_overshoot`] even when a single phase runs
/// long. Verification and planning run under panic isolation: a panicking
/// candidate is counted in [`Stats::faults`], traced as
/// [`TraceEvent::Fault`], and skipped; it never aborts the search.
///
/// With `warm` provided, the search seeds enumeration stores from the
/// shared [`WarmCache`] (keyed by [`warm_config_fingerprint`] +
/// [`StoreKey`]) instead of building them cold, and parks its live stores
/// back into the cache when it finishes. The cache is mutex-guarded, so a
/// whole worker pool shares one instance (and one byte budget); the lock
/// is held only per take/put, never across search phases. Reuse is
/// semantically transparent: a store's contents are a deterministic
/// function of its key, the library, and the enumeration limits, and
/// every read is bounded by the cost the search asks for — so the
/// synthesized program, its cost, and the attempt ladder are identical
/// warm or cold. Only work counters ([`Stats::enumerated_terms`],
/// [`Stats::warm_hits`]) differ, reflecting the work actually saved.
pub(crate) fn search_governed_warm(
    problem: &Problem,
    options: &SearchOptions,
    budget: &Budget,
    tracer: &mut dyn Tracer,
    warm: Option<&WarmCache>,
) -> SearchReport {
    let start = Instant::now();
    let Some(root) = root_hypothesis(problem) else {
        return SearchReport {
            outcome: Err(SynthError::InconsistentExamples),
            frontier: Vec::new(),
            stats: Stats::default(),
            elapsed: start.elapsed(),
            budget: budget.snapshot(),
            attempts: Vec::new(),
        };
    };
    let mut search = Search::new(problem, options, budget, tracer, warm);
    search.push(root.cost, Kind::Hyp(root));
    let outcome = search.run();
    search.finish(outcome, start)
}

/// The root hypothesis: one hole whose spec is the user's examples,
/// verbatim. `None` when the examples contradict each other.
fn root_hypothesis(problem: &Problem) -> Option<Hypothesis> {
    let rows: Vec<ExampleRow> = problem
        .examples()
        .iter()
        .map(|ex| {
            let mut env = Env::empty();
            for ((sym, _), v) in problem.params().iter().zip(&ex.inputs) {
                env = env.bind(*sym, v.clone());
            }
            ExampleRow::new(env, ex.output.clone())
        })
        .collect();
    let spec = Spec::new(rows).ok()?;
    let info = HoleInfo::new(
        problem.return_type().clone(),
        problem.params().to_vec(),
        spec,
    );
    Some(Hypothesis::root(info, problem.library().costs()))
}

/// The state of one best-first search. [`Search::run`] pops the cheapest
/// queue item and takes its step — verify a complete hypothesis, open an
/// incomplete one, instantiate the next planned expansion, or materialize
/// a closing tier — until a program verifies, the queue drains, or the
/// budget aborts. A budget abort inside any step propagates out as `Err`.
struct Search<'a> {
    problem: &'a Problem,
    library: &'a Library,
    costs: &'a CostModel,
    options: &'a SearchOptions,
    budget: &'a Budget,
    tracer: &'a mut dyn Tracer,
    warm: Option<&'a WarmCache>,
    warm_config: u64,
    stats: Stats,
    /// Enumeration stores by hole context (under `warm_config`), evicted
    /// least recently used first under [`SearchOptions::max_store_bytes`].
    stores: StoreCache,
    /// Planned expansions per hole context (store key + hole type).
    templates: HashMap<(StoreKey, Type), Arc<Vec<Planned>>>,
    queue: BinaryHeap<Entry>,
    seq: u64,
    next_hole: HoleId,
    /// Queue admissibility check: best-first popping must see
    /// monotonically non-decreasing costs, or the first program found is
    /// not minimal.
    #[cfg(feature = "check-invariants")]
    last_popped_cost: u32,
}

impl<'a> Search<'a> {
    fn new(
        problem: &'a Problem,
        options: &'a SearchOptions,
        budget: &'a Budget,
        tracer: &'a mut dyn Tracer,
        warm: Option<&'a WarmCache>,
    ) -> Search<'a> {
        let library = problem.library();
        Search {
            problem,
            library,
            costs: library.costs(),
            options,
            budget,
            tracer,
            warm,
            warm_config: warm_config_fingerprint(library, options),
            stats: Stats::default(),
            stores: StoreCache::default(),
            templates: HashMap::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            next_hole: 1,
            #[cfg(feature = "check-invariants")]
            last_popped_cost: 0,
        }
    }

    /// Queues an item; `seq` breaks cost ties first-in, first-out.
    fn push(&mut self, cost: u32, kind: Kind) {
        self.seq += 1;
        self.queue.push(Entry {
            cost,
            seq: self.seq,
            kind,
        });
    }

    /// The best-first loop. `Ok` carries the first complete hypothesis to
    /// verify, which is least-cost.
    fn run(&mut self) -> Result<(Program, u32), SynthError> {
        while let Some(entry) = self.pop()? {
            if let Some(found) = self.step(entry)? {
                return Ok(found);
            }
        }
        // The queue drained. A limit can still have latched during the last
        // step's phases (a fuel cap, a forced expiry) without aborting it —
        // report that verdict rather than a spurious exhaustion.
        self.budget.check_now()?;
        Err(SynthError::Exhausted)
    }

    /// Pops the cheapest item, accounting and tracing the pop and charging
    /// it to the budget.
    fn pop(&mut self) -> Result<Option<Entry>, SynthError> {
        let Some(entry) = self.queue.pop() else {
            return Ok(None);
        };
        self.stats.popped += 1;
        // Depth after the pop, before this item's children push.
        self.stats
            .metrics
            .queue_depth
            .record_usize(self.queue.len());
        self.stats.metrics.pop_cost.record(u64::from(entry.cost));
        #[cfg(feature = "check-invariants")]
        {
            assert!(
                entry.cost >= self.last_popped_cost,
                "queue admissibility violated: popped cost {} after {}",
                entry.cost,
                self.last_popped_cost
            );
            self.last_popped_cost = entry.cost;
        }
        if self.tracer.enabled() {
            let (kind, hyp) = match &entry.kind {
                Kind::Hyp(h) => (PopKind::Hypothesis, h),
                Kind::Apply { hyp, .. } => (PopKind::Apply, hyp),
                Kind::Close { hyp, .. } => (PopKind::Close, hyp),
            };
            self.tracer.emit(TraceEvent::Pop {
                n: self.stats.popped,
                kind,
                cost: entry.cost,
                holes: hyp.holes().len(),
                sketch: hyp.expr.to_string(),
            });
        }
        if let Some(FailAction::ExpireDeadline) = failpoints::check("search.pop") {
            self.budget.force_expire();
        }
        self.budget.note_pop()?;
        // Live-progress heartbeat: consumes the governor's poll-armed
        // flag, so cadence (and overhead) is bounded by the heartbeat
        // interval however fast pops are. Observation-only: nothing here
        // feeds back into the search.
        if self.options.progress && self.budget.take_heartbeat() {
            self.tracer.emit(TraceEvent::Progress {
                budget: self.budget.snapshot(),
                queue: self.queue.len(),
                best_cost: entry.cost,
                phases: self.stats.phases,
            });
        }
        Ok(Some(entry))
    }

    /// Takes one popped item's step. `Ok(Some(..))` is a verified program
    /// and its cost.
    fn step(&mut self, entry: Entry) -> Result<Option<(Program, u32)>, SynthError> {
        match entry.kind {
            Kind::Hyp(hyp) if hyp.cost > self.options.max_cost => {}
            Kind::Hyp(hyp) if hyp.is_complete() => {
                if let Some(program) = self.verify(&hyp.expr, hyp.cost)? {
                    return Ok(Some((program, hyp.cost)));
                }
            }
            Kind::Hyp(hyp) => self.open(hyp)?,
            Kind::Apply {
                hyp,
                hole,
                templates,
                index,
            } => self.apply(hyp, hole, templates, index),
            Kind::Close { hyp, hole, tier } => self.close(hyp, hole, tier, entry.cost)?,
        }
        Ok(None)
    }

    /// Opens an incomplete hypothesis's leftmost hole: schedules (a) its
    /// closing stream at the cheapest term tier and (b) the stream of its
    /// planned combinator expansions.
    fn open(&mut self, hyp: Hypothesis) -> Result<(), SynthError> {
        let (hole, info) = hyp.first_hole().expect("incomplete has a hole");
        let info = Arc::clone(info);
        let base = hyp.cost - self.costs.hole_min();
        let tier = self.costs.hole_min();
        self.push(
            base + tier,
            Kind::Close {
                hyp: hyp.clone(),
                hole,
                tier,
            },
        );

        // Skip planning entirely when even the cheapest conceivable
        // template (comb + lambda + two leaves) cannot fit the global
        // budget — deep holes near the cost ceiling otherwise pay for
        // stores they never use.
        let min_comb_cost = self
            .library
            .combs()
            .iter()
            .map(|c| self.costs.comb_cost(*c))
            .min()
            .unwrap_or(u32::MAX);
        let min_delta = min_comb_cost
            .saturating_add(self.costs.lambda)
            .saturating_add(2 * self.costs.hole_min());
        if base + min_delta > self.options.max_cost {
            return Ok(());
        }
        if self.options.deduction && !self.options.expand_blind_holes && info.spec.is_empty() {
            // Deduction had nothing to say about this hole; closings
            // (first-order terms) remain available.
            return Ok(());
        }
        let templates = self.plan(&info)?;
        if let Some(first) = templates.first() {
            let cost = base + first.delta_cost();
            if cost <= self.options.max_cost {
                self.push(
                    cost,
                    Kind::Apply {
                        hyp,
                        hole,
                        templates,
                        index: 0,
                    },
                );
            }
        }
        Ok(())
    }

    /// Instantiates template `index` of an Apply stream, then reschedules
    /// the stream at the next template.
    fn apply(&mut self, hyp: Hypothesis, hole: HoleId, templates: Arc<Vec<Planned>>, index: usize) {
        self.stats.expansions += 1;
        let t_expand = Instant::now();
        let child = templates[index].instantiate(&hyp, hole, self.costs, &mut self.next_hole);
        note_phase(
            &mut self.stats.phases.expand,
            &mut self.stats.metrics.expand_us,
            t_expand.elapsed(),
        );
        self.push(child.cost, Kind::Hyp(child));
        let next_cost = templates
            .get(index + 1)
            .map(|t| hyp.cost - self.costs.hole_min() + t.delta_cost());
        if let Some(cost) = next_cost.filter(|&c| c <= self.options.max_cost) {
            self.push(
                cost,
                Kind::Apply {
                    hyp,
                    hole,
                    templates,
                    index: index + 1,
                },
            );
        }
    }

    /// Materializes the closing terms of exactly cost `tier` for `hole`,
    /// then reschedules the stream at the next tier. `cost` is the popped
    /// item's priority.
    fn close(
        &mut self,
        hyp: Hypothesis,
        hole: HoleId,
        tier: u32,
        cost: u32,
    ) -> Result<(), SynthError> {
        let info = hyp
            .holes()
            .iter()
            .find(|(h, _)| *h == hole)
            .map(|(_, i)| Arc::clone(i))
            .expect("close item refers to an open hole");
        let fills = self.enumerate(&info, |store, library, budget| {
            store.ensure_within(tier, library, budget)?;
            Ok(store
                .closings(tier, &info.ty, &info.spec)
                .map(|t| (store.expr_of(t), t.cost))
                .collect::<Vec<_>>())
        })?;
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Tier {
                tier,
                cost,
                fills: fills.len(),
            });
        }
        self.evict(&info.store_key);
        let base = hyp.cost - self.costs.hole_min();
        let closes_last_hole = hyp.holes().len() == 1;
        for (expr, term_cost) in fills {
            let child_cost = base + term_cost;
            if child_cost > self.options.max_cost {
                continue;
            }
            self.stats.closings += 1;
            let child = hyp.fill(hole, &expr, vec![], child_cost);
            // Closing the last hole completes the program; verify *now*
            // and only enqueue survivors — blind holes can produce tens of
            // thousands of candidates per tier, and queueing the failures
            // (the vast majority) would balloon memory. Survivors still go
            // through the queue so the cheapest fitting program wins.
            if closes_last_hole && self.verify(&child.expr, child_cost)?.is_none() {
                continue;
            }
            self.push(child_cost, Kind::Hyp(child));
        }
        // Reschedule the stream at the next tier; blind holes (no spec
        // rows, hence no observational pruning) get a tighter cap.
        let tier_cap = if info.spec.is_empty() {
            self.options
                .max_term_cost_blind
                .min(self.options.max_term_cost)
        } else {
            self.options.max_term_cost
        };
        let next_tier = tier + 1;
        let next_cost = base + next_tier;
        if next_tier <= tier_cap && next_cost <= self.options.max_cost {
            self.push(
                next_cost,
                Kind::Close {
                    hyp,
                    hole,
                    tier: next_tier,
                },
            );
        }
        Ok(())
    }

    /// One enumeration episode on a hole's store: `grow` builds the store
    /// as far as it needs and reads off what it needs. The terms inserted,
    /// the levels completed and the time spent are accounted even when
    /// the budget aborts it; an episode that cuts a level is traced.
    fn enumerate<T>(
        &mut self,
        info: &HoleInfo,
        grow: impl FnOnce(&mut TermStore, &Library, &Budget) -> Result<T, BudgetExceeded>,
    ) -> Result<T, SynthError> {
        let (library, budget) = (self.library, self.budget);
        let t_enum = Instant::now();
        let store = self.touch_store(info);
        let (before, built) = (store.funnel(), store.built_upto());
        let out = grow(store, library, budget);
        let funnel = store.funnel().since(&before);
        let levels: Vec<usize> = (built + 1..=store.built_upto())
            .map(|k| store.at_cost(k).count())
            .collect();
        // A cut ends the search, so this fires once per cut store.
        let cut = store.cut().map(|_| (store.len(), store.bytes()));
        for n in levels {
            self.stats.metrics.level_terms.record_usize(n);
        }
        if let Some((terms, bytes)) = cut.filter(|_| self.tracer.enabled()) {
            self.tracer.emit(TraceEvent::Store {
                action: StoreAction::Cut,
                terms,
                bytes,
            });
        }
        self.stats.enumerated_terms += funnel.inserted;
        self.stats.enum_candidates += funnel.candidates;
        self.stats.enum_ill_typed += funnel.ill_typed;
        self.stats.enum_all_error += funnel.all_error;
        self.stats.enum_duplicates += funnel.duplicates;
        note_phase(
            &mut self.stats.phases.enumerate,
            &mut self.stats.metrics.enumerate_us,
            t_enum.elapsed(),
        );
        Ok(out?)
    }

    /// The planned expansions for a hole context, sorted by cost: cached
    /// per (store key, hole type), so every hypothesis holding the same
    /// open hole shares one deduction sweep.
    fn plan(&mut self, info: &HoleInfo) -> Result<Arc<Vec<Planned>>, SynthError> {
        let tkey = (info.store_key.clone(), canonical(&info.ty));
        if let Some(planned) = self.templates.get(&tkey) {
            return Ok(Arc::clone(planned));
        }
        let options = self.options;
        let pool = self.enumerate(info, |store, library, budget| {
            // The collection pool is cheap (cost <= 3); the larger init
            // pool is only materialized when some collection candidate
            // actually has empty-collection rows to constrain it.
            store.ensure_within(options.max_collection_cost, library, budget)?;
            let needs_deep_inits = options.deduction
                && store
                    .collections(options.max_collection_cost)
                    .iter()
                    .any(|(_, vals)| vals.iter().any(is_empty_collection));
            let arg_cost = options.max_collection_cost.max(if needs_deep_inits {
                options.max_init_cost
            } else {
                options.max_free_init_cost
            });
            store.ensure_within(arg_cost, library, budget)?;
            Ok(store
                .error_free(arg_cost)
                .into_iter()
                .map(|(t, vals)| (store.expr_of(t), store.ty(t).clone(), vals, t.cost))
                .collect::<Vec<PoolTerm>>())
        })?;

        let t_deduce = Instant::now();
        let planned = self.plan_combinators(info, &pool).map(|mut planned| {
            // Constructor hypotheses: invertible constructors split a
            // hole into exactly-specified components.
            if options.constructor_hypotheses && options.deduction {
                planned.extend(
                    plan_constructors(info, self.costs)
                        .into_iter()
                        .map(Planned::Cons),
                );
            }
            // The Apply stream walks templates in order, so sort by cost
            // for best-first behavior.
            planned.sort_by_key(Planned::delta_cost);
            planned
        });
        note_phase(
            &mut self.stats.phases.deduce,
            &mut self.stats.metrics.deduce_us,
            t_deduce.elapsed(),
        );
        let planned = Arc::new(planned?);
        self.templates.insert(tkey, Arc::clone(&planned));
        self.evict(&info.store_key);
        Ok(planned)
    }

    /// The deduction sweep: every combinator over every collection
    /// candidate in `pool` (and, for folds, every initial-value
    /// candidate), each planned under isolation.
    fn plan_combinators(
        &mut self,
        info: &HoleInfo,
        pool: &[PoolTerm],
    ) -> Result<Vec<Planned>, BudgetExceeded> {
        let mut planned = Vec::new();
        for &comb in self.library.combs() {
            // Cheap shape pre-filter on the hole type.
            let hole_ok = match comb {
                Comb::Map | Comb::Filter => matches!(info.ty, Type::List(_) | Type::Var(_)),
                Comb::Mapt => matches!(info.ty, Type::Tree(_) | Type::Var(_)),
                _ => true,
            };
            if !hole_ok {
                continue;
            }
            for (expr, ty, vals, cost) in pool {
                // Shape pre-filter on the collection.
                let coll_ok = *cost <= self.options.max_collection_cost
                    && if comb.is_tree() {
                        matches!(ty, Type::Tree(_))
                    } else {
                        matches!(ty, Type::List(_))
                    };
                if !coll_ok {
                    continue;
                }
                let cand = Candidate {
                    expr,
                    ty,
                    values: vals.clone(),
                    cost: *cost,
                };
                if comb.init_index().is_none() {
                    self.plan_one(info, comb, &cand, None, &mut planned)?;
                } else {
                    self.plan_fold(info, comb, &cand, pool, &mut planned)?;
                }
            }
        }
        Ok(planned)
    }

    /// Plans a fold over `cand`: one template per initial-value candidate
    /// of the hole's (result) type. Empty-collection rows pin the init
    /// value, allowing a larger budget; without them every typed term
    /// qualifies, so the budget stays tight.
    fn plan_fold(
        &mut self,
        info: &HoleInfo,
        comb: Comb,
        cand: &Candidate<'_>,
        pool: &[PoolTerm],
        planned: &mut Vec<Planned>,
    ) -> Result<(), BudgetExceeded> {
        let empty_rows: Vec<(usize, &Value)> = if self.options.deduction {
            info.spec
                .rows()
                .iter()
                .enumerate()
                .filter(|(i, _)| is_empty_collection(&cand.values[*i]))
                .map(|(i, r)| (i, &r.output))
                .collect()
        } else {
            Vec::new()
        };
        let init_budget = if empty_rows.is_empty() {
            self.options.max_free_init_cost
        } else {
            self.options.max_init_cost
        };
        for (ie, ity, ivals, icost) in pool {
            if *icost > init_budget || !crate::enumerate::unifiable(ity, &info.ty) {
                continue;
            }
            if empty_rows.iter().any(|(i, out)| &ivals[*i] != *out) {
                self.stats.refuted += 1;
                if self.tracer.enabled() {
                    self.tracer.emit(TraceEvent::Refute {
                        comb: comb.name(),
                        coll: cand.expr.to_string(),
                        init: Some(ie.to_string()),
                        reason: RefuteReason::InitMismatch,
                    });
                }
                continue;
            }
            let init = Candidate {
                expr: ie,
                ty: ity,
                values: ivals.clone(),
                cost: *icost,
            };
            self.plan_one(info, comb, cand, Some(&init), planned)?;
        }
        Ok(())
    }

    /// Plans one combinator expansion under panic isolation and the
    /// budget, accounting the verdict: a template is traced and kept, a
    /// refutation or fault is counted and skipped, a budget abort ends the
    /// sweep. The `catch_unwind` boundary is sound for the same reason as
    /// [`Search::verify`]'s: the closure only reads the hole context and
    /// candidates, and all accounting happens after it returns.
    fn plan_one(
        &mut self,
        info: &HoleInfo,
        comb: Comb,
        cand: &Candidate<'_>,
        init: Option<&Candidate<'_>>,
        planned: &mut Vec<Planned>,
    ) -> Result<(), BudgetExceeded> {
        let (costs, options, budget) = (self.costs, self.options, self.budget);
        let injected = failpoints::check("deduce.plan");
        let run = catch_unwind(AssertUnwindSafe(|| {
            if let Some(FailAction::Panic) = injected {
                panic!("injected panic at deduce.plan");
            }
            plan_expansion_within(
                info,
                comb,
                cand,
                init,
                costs,
                options.deduction,
                options.static_prune,
                budget,
            )
        }));
        let init = init.map(|i| i.expr);
        match run {
            Ok(Ok(t)) => {
                if self.tracer.enabled() {
                    self.tracer.emit(TraceEvent::Plan {
                        comb: comb.name(),
                        coll: cand.expr.to_string(),
                        init: init.map(|e| e.to_string()),
                        delta_cost: t.delta_cost,
                        rows: t.body_info.spec.rows().len(),
                    });
                }
                planned.push(Planned::Comb(t));
            }
            Ok(Err(ExpandFail::Budget(e))) => return Err(e),
            Ok(Err(fail)) => self.refute(fail, comb, cand.expr, init),
            Err(payload) => self.fault("deduce.plan", panic_message(&*payload)),
        }
        Ok(())
    }

    /// Verifies one complete candidate under panic isolation, charging the
    /// evaluation fuel it actually consumed against the budget. `Ok(None)`
    /// is a candidate that failed an example (counted) or panicked
    /// (counted and traced as a fault).
    ///
    /// The `catch_unwind` boundary is sound: the closure reads only
    /// `program` and the problem (no shared mutable state is touched inside
    /// it), and the stats/budget updates happen after the closure returns —
    /// a panic cannot leave either mid-update.
    ///
    /// A candidate that both passes and trips the fuel cap is a success: it
    /// was verified before the cap mattered, and a correct program beats a
    /// resource verdict.
    fn verify(&mut self, body: &Expr, cost: u32) -> Result<Option<Program>, SynthError> {
        self.stats.verified += 1;
        let program = Program::new(self.problem.params().to_vec(), body.clone());
        let injected = failpoints::check("verify.candidate");
        let fuel = match injected {
            Some(FailAction::ExhaustFuel) => 0,
            _ => self.options.eval_fuel,
        };
        let t_verify = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            if let Some(FailAction::Panic) = injected {
                panic!("injected panic at verify.candidate");
            }
            program.satisfies_problem_metered(self.problem, fuel)
        }));
        note_phase(
            &mut self.stats.phases.verify,
            &mut self.stats.metrics.verify_us,
            t_verify.elapsed(),
        );
        let (ok, used) = match run {
            Ok(verdict) => verdict,
            Err(payload) => {
                self.fault("verify.candidate", panic_message(&*payload));
                return Ok(None);
            }
        };
        // An injected exhaustion charges "everything", so the cap trips
        // even when configured unlimited — the fault becomes observable as
        // a deterministic `FuelExhausted`.
        let used = match injected {
            Some(FailAction::ExhaustFuel) => u64::MAX,
            _ => used,
        };
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Verify {
                ok,
                cost,
                program: program.body().to_string(),
            });
        }
        let charge = self.budget.charge_fuel(used);
        if ok {
            return Ok(Some(program));
        }
        charge?;
        self.stats.verify_failures += 1;
        Ok(None)
    }

    /// Looks up (or creates, seeding from the warm cache) the enumeration
    /// store for a hole context, making it the most recently used, and
    /// accounts the hit/create in `stats` and the trace.
    fn touch_store(&mut self, info: &HoleInfo) -> &mut TermStore {
        let mut warmed = false;
        let (warm, options) = (self.warm, self.options);
        let key = (self.warm_config, info.store_key.clone());
        let (store, hit) = self.stores.touch(key, |key| {
            if let Some(store) = warm.and_then(|w| w.take(key)) {
                warmed = true;
                return store;
            }
            let probes: &[Env] = if options.trace_probes {
                &info.probes
            } else {
                &[]
            };
            TermStore::with_probes(info.scope.clone(), &info.spec, probes, options.enum_limits)
        });
        if hit {
            self.stats.store_hits += 1;
        }
        if warmed {
            self.stats.warm_hits += 1;
        }
        self.stats.metrics.store_terms.record_usize(store.len());
        self.stats.metrics.store_bytes.record_usize(store.bytes());
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Store {
                action: if hit || warmed {
                    StoreAction::Hit
                } else {
                    StoreAction::Create
                },
                terms: store.len(),
                bytes: store.bytes(),
            });
        }
        store
    }

    /// Evicts least-recently-used stores until the bytes they own fit
    /// [`SearchOptions::max_store_bytes`], never evicting
    /// `current` (just touched). Evicted stores rebuild deterministically
    /// if revisited, trading CPU for bounded memory. Records the pre-sweep
    /// bytes as the budget's high-water mark.
    fn evict(&mut self, current: &StoreKey) {
        // An injected eviction shrinks the byte budget to zero for this one
        // sweep, forcing out every store but the current one.
        let max_bytes = match failpoints::check("store.evict") {
            Some(FailAction::EvictStores) => 0,
            _ => self.options.max_store_bytes,
        };
        self.budget.note_store_bytes(self.stores.bytes());
        for store in self
            .stores
            .evict(max_bytes, Some((self.warm_config, current)))
        {
            self.stats.store_evictions += 1;
            if self.tracer.enabled() {
                self.tracer.emit(TraceEvent::Store {
                    action: StoreAction::Evict,
                    terms: store.len(),
                    bytes: store.bytes(),
                });
            }
        }
    }

    /// Accounts a rejected combinator expansion in `stats` and the trace.
    fn refute(&mut self, fail: ExpandFail, comb: Comb, coll: &Arc<Expr>, init: Option<&Arc<Expr>>) {
        let reason = match fail {
            ExpandFail::Refuted => {
                self.stats.refuted += 1;
                RefuteReason::Deduction
            }
            ExpandFail::Pruned => {
                // Pruned refutations get their own counter and trace event —
                // disjoint from `refuted`, because each one is work
                // necessary-row inference would *not* have removed, so the
                // on/off ablation compares cleanly.
                self.stats.pruned_refutations += 1;
                if self.tracer.enabled() {
                    self.tracer.emit(TraceEvent::StaticRefute {
                        comb: comb.name(),
                        coll: coll.to_string(),
                        init: init.map(|e| e.to_string()),
                        domain: "cardinality",
                        pruned: true,
                    });
                }
                return;
            }
            ExpandFail::IllTyped => {
                self.stats.ill_typed += 1;
                RefuteReason::IllTyped
            }
            ExpandFail::Budget(_) => {
                unreachable!(
                    "budget failures abort the planning sweep before refutation accounting"
                )
            }
        };
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Refute {
                comb: comb.name(),
                coll: coll.to_string(),
                init: init.map(|e| e.to_string()),
                reason,
            });
        }
    }

    /// Accounts a panic caught at a governed site in `stats` and the trace.
    /// The candidate or plan is skipped; the search continues.
    fn fault(&mut self, site: &'static str, detail: String) {
        self.stats.faults += 1;
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::Fault { site, detail });
        }
    }

    /// Parks the live stores in the warm cache and assembles the report —
    /// with the anytime frontier of the abandoned queue when the search
    /// failed.
    fn finish(
        mut self,
        outcome: Result<(Program, u32), SynthError>,
        start: Instant,
    ) -> SearchReport {
        self.stats
            .metrics
            .poll_gap_us
            .merge(&self.budget.poll_gap_us());
        if let Some(warm) = self.warm {
            // Least recently used first, so the cache's LRU order mirrors
            // this search's.
            warm.park(self.stores.drain());
        }
        let elapsed = start.elapsed();
        let (outcome, frontier) = match outcome {
            Ok((program, cost)) => (
                Ok(Synthesis {
                    program,
                    cost,
                    stats: self.stats.clone(),
                    elapsed,
                }),
                Vec::new(),
            ),
            Err(e) => (Err(e), frontier_of(&mut self.queue)),
        };
        SearchReport {
            outcome,
            frontier,
            stats: self.stats,
            elapsed,
            budget: self.budget.snapshot(),
            attempts: Vec::new(),
        }
    }
}

/// How many open hypotheses a report's anytime frontier carries.
const FRONTIER_LIMIT: usize = 5;

/// How deep into the abandoned queue the frontier scan pops. The queue can
/// hold millions of entries at termination; only the cheapest few dozen
/// are examined (in priority order) for hypotheses worth reporting.
const FRONTIER_SCAN: usize = 64;

/// Pops the best-cost open hypotheses off an abandoned queue — the
/// *anytime* result attached to failure reports.
fn frontier_of(queue: &mut BinaryHeap<Entry>) -> Vec<FrontierItem> {
    let mut out = Vec::new();
    for _ in 0..FRONTIER_SCAN {
        let Some(entry) = queue.pop() else { break };
        if let Kind::Hyp(h) = entry.kind {
            out.push(FrontierItem {
                sketch: h.expr.to_string(),
                cost: entry.cost,
                holes: h.holes().len(),
            });
            if out.len() >= FRONTIER_LIMIT {
                break;
            }
        }
    }
    out
}

/// Fingerprint of everything a term store's *contents* depend on: the
/// library (operators, combinators, constants, cost model) and the
/// enumeration knobs ([`SearchOptions::enum_limits`],
/// [`SearchOptions::trace_probes`]). Two searches with equal fingerprints
/// build byte-identical stores for equal [`StoreKey`]s, which is the
/// safety condition for sharing a [`WarmCache`] across requests.
/// Deliberately *excludes* budgets, cost ceilings, and observation knobs —
/// they bound how far a store gets built, never what a built level holds.
pub fn warm_config_fingerprint(library: &Library, options: &SearchOptions) -> u64 {
    let mut material = String::new();
    for op in library.ops() {
        material.push_str(op.name());
        material.push(',');
    }
    material.push(';');
    for comb in library.combs() {
        material.push_str(comb.name());
        material.push(',');
    }
    material.push(';');
    for c in library.constants() {
        material.push_str(&c.to_string());
        material.push(',');
    }
    // Exhaustive destructures: adding a field to either struct is a
    // compile error here until its cache-key relevance is decided.
    let CostModel {
        var,
        lit,
        op,
        if_,
        lambda,
        comb,
    } = library.costs();
    let EnumLimits {
        max_level_terms,
        max_terms,
        synthetic_probes,
    } = options.enum_limits;
    material.push_str(&format!(
        ";costs={var},{lit},{op},{if_},{lambda},{comb};limits={max_level_terms},{max_terms},{synthetic_probes};trace_probes={}",
        options.trace_probes
    ));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in material.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::NoopTracer;

    /// One cold, untraced run under the options' own budget.
    fn search(problem: &Problem, options: &SearchOptions) -> Result<Synthesis, SynthError> {
        let budget = Budget::for_search(options);
        search_governed_warm(problem, options, &budget, &mut NoopTracer, None).outcome
    }

    fn solve(problem: &Problem) -> Synthesis {
        search(problem, &SearchOptions::default()).expect("should synthesize")
    }

    fn problem(
        name: &str,
        params: &[(&str, &str)],
        ret: &str,
        examples: &[(&[&str], &str)],
    ) -> Problem {
        let mut b = Problem::builder(name);
        for (n, t) in params {
            b = b.param(n, t);
        }
        b = b.returns(ret);
        for (ins, out) in examples {
            b = b.example(ins, out);
        }
        b.build().unwrap()
    }

    #[test]
    fn synthesizes_identity() {
        let p = problem(
            "id",
            &[("l", "[int]")],
            "[int]",
            &[(&["[1 2]"], "[1 2]"), (&["[]"], "[]"), (&["[3]"], "[3]")],
        );
        let s = solve(&p);
        assert_eq!(s.program.body().to_string(), "l");
        assert_eq!(s.cost, 1);
    }

    #[test]
    fn synthesizes_increment_map() {
        let p = problem(
            "incr",
            &[("l", "[int]")],
            "[int]",
            &[(&["[]"], "[]"), (&["[1 2]"], "[2 3]"), (&["[7]"], "[8]")],
        );
        let s = solve(&p);
        let shown = s.program.body().to_string();
        assert!(shown.starts_with("(map (lambda (x) "), "{shown}");
        let out = s
            .program
            .apply(&[lambda2_lang::parser::parse_value("[10 20]").unwrap()])
            .unwrap();
        assert_eq!(out, lambda2_lang::parser::parse_value("[11 21]").unwrap());
    }

    #[test]
    fn synthesizes_length_via_fold() {
        let p = problem(
            "length",
            &[("l", "[int]")],
            "int",
            &[
                (&["[]"], "0"),
                (&["[7]"], "1"),
                (&["[7 4]"], "2"),
                (&["[7 4 9]"], "3"),
            ],
        );
        let s = solve(&p);
        let out = s
            .program
            .apply(&[lambda2_lang::parser::parse_value("[1 2 3 4 5]").unwrap()])
            .unwrap();
        assert_eq!(out, lambda2_lang::value::Value::Int(5));
    }

    #[test]
    fn minimality_prefers_first_order_solutions() {
        // car is expressible first-order; no combinator should appear.
        let p = problem(
            "head",
            &[("l", "[int]")],
            "int",
            &[(&["[3 1]"], "3"), (&["[5]"], "5"), (&["[2 9 9]"], "2")],
        );
        let s = solve(&p);
        assert_eq!(s.program.body().to_string(), "(car l)");
    }

    #[test]
    fn inconsistent_examples_error_out() {
        let p = problem(
            "bad",
            &[("x", "int")],
            "int",
            &[(&["1"], "1"), (&["1"], "2")],
        );
        assert_eq!(
            search(&p, &SearchOptions::default()).unwrap_err(),
            SynthError::InconsistentExamples
        );
    }

    #[test]
    fn impossible_problems_exhaust_or_time_out() {
        // Output depends on information not present in the input under a
        // tiny cost budget: forces exhaustion quickly.
        let p = problem(
            "impossible",
            &[("x", "int")],
            "int",
            &[
                (&["1"], "100"),
                (&["2"], "-3"),
                (&["3"], "77"),
                (&["4"], "1234"),
            ],
        );
        let opts = SearchOptions {
            max_cost: 5,
            max_term_cost: 5,
            timeout: Some(Duration::from_secs(5)),
            ..SearchOptions::default()
        };
        let err = search(&p, &opts).unwrap_err();
        assert!(matches!(err, SynthError::Exhausted | SynthError::Timeout));
    }

    #[test]
    fn verification_rejects_overfit_closings() {
        // reverse: the [] and [5] examples alone admit `l` itself, but the
        // two-element example forces the fold. Checks end-to-end behavior.
        let p = problem(
            "reverse",
            &[("l", "[int]")],
            "[int]",
            &[
                (&["[]"], "[]"),
                (&["[5]"], "[5]"),
                (&["[5 2]"], "[2 5]"),
                (&["[5 2 9]"], "[9 2 5]"),
            ],
        );
        let s = solve(&p);
        let rev = s
            .program
            .apply(&[lambda2_lang::parser::parse_value("[1 2 3 4]").unwrap()])
            .unwrap();
        assert_eq!(rev, lambda2_lang::parser::parse_value("[4 3 2 1]").unwrap());
    }

    #[test]
    fn tiny_store_budget_still_solves_via_eviction() {
        // Eviction trades CPU for memory but must not change answers.
        let p = problem(
            "sum",
            &[("l", "[int]")],
            "int",
            &[
                (&["[]"], "0"),
                (&["[5]"], "5"),
                (&["[5 3]"], "8"),
                (&["[5 3 9]"], "17"),
            ],
        );
        let opts = SearchOptions {
            max_store_bytes: 200_000, // absurdly small
            ..SearchOptions::default()
        };
        let s = search(&p, &opts).expect("solves despite eviction churn");
        assert!(s.program.satisfies_problem(&p, 100_000));
    }

    #[test]
    fn blind_hole_expansion_is_opt_in() {
        // With deduction on, holes that deduction said nothing about are
        // not expanded with combinators by default; the option restores
        // the unrestricted grammar. Both settings must agree on problems
        // whose solutions carry rows everywhere (the whole suite).
        let p = problem(
            "incr",
            &[("l", "[int]")],
            "[int]",
            &[(&["[]"], "[]"), (&["[1 7]"], "[2 8]"), (&["[4]"], "[5]")],
        );
        let restricted = search(&p, &SearchOptions::default()).unwrap();
        let unrestricted = search(
            &p,
            &SearchOptions {
                expand_blind_holes: true,
                ..SearchOptions::default()
            },
        )
        .unwrap();
        assert_eq!(restricted.cost, unrestricted.cost);
        // The restricted search never does more expansion work.
        assert!(restricted.stats.expansions <= unrestricted.stats.expansions);
    }

    #[test]
    fn constructor_hypotheses_unlock_fold_under_cons() {
        // (cons (foldl + 0 l) l) buries a combinator inside a constructor:
        // reachable only through the constructor-hypothesis extension.
        let p = problem(
            "prepend_sum",
            &[("l", "[int]")],
            "[int]",
            &[
                (&["[]"], "[0]"),
                (&["[5]"], "[5 5]"),
                (&["[5 3]"], "[8 5 3]"),
                (&["[5 3 9]"], "[17 5 3 9]"),
            ],
        );
        let opts = SearchOptions {
            constructor_hypotheses: true,
            ..SearchOptions::default()
        };
        let s = search(&p, &opts).expect("solves with constructors");
        assert!(
            s.program.body().to_string().starts_with("(cons "),
            "{}",
            s.program
        );
        assert!(
            s.program.body().to_string().contains("foldl"),
            "{}",
            s.program
        );

        // Without the extension (the default) the program is out of the
        // grammar.
        let opts = SearchOptions {
            timeout: Some(Duration::from_secs(5)),
            max_cost: 14,
            ..SearchOptions::default()
        };
        assert!(search(&p, &opts).is_err());
    }

    #[test]
    fn deduction_off_still_solves_trivial_problems() {
        let p = problem(
            "id",
            &[("l", "[int]")],
            "[int]",
            &[(&["[1 2]"], "[1 2]"), (&["[]"], "[]"), (&["[3]"], "[3]")],
        );
        let opts = SearchOptions {
            deduction: false,
            ..SearchOptions::default()
        };
        let s = search(&p, &opts).unwrap();
        assert_eq!(s.program.body().to_string(), "l");
    }

    fn reverse_problem() -> Problem {
        problem(
            "reverse",
            &[("l", "[int]")],
            "[int]",
            &[
                (&["[]"], "[]"),
                (&["[5]"], "[5]"),
                (&["[5 2]"], "[2 5]"),
                (&["[5 2 9]"], "[9 2 5]"),
            ],
        )
    }

    #[test]
    fn successful_reports_carry_accounting_and_no_frontier() {
        let p = problem(
            "id",
            &[("l", "[int]")],
            "[int]",
            &[(&["[1 2]"], "[1 2]"), (&["[]"], "[]"), (&["[3]"], "[3]")],
        );
        let opts = SearchOptions::default();
        let budget = Budget::for_search(&opts);
        let report = search_governed_warm(&p, &opts, &budget, &mut NoopTracer, None);
        assert!(report.frontier.is_empty());
        assert_eq!(report.budget.exceeded, None);
        assert!(report.budget.pops > 0);
        assert!(report.budget.fuel_spent > 0, "verification charges fuel");
        let s = report.outcome.expect("solves");
        assert_eq!(s.program.body().to_string(), "l");
        assert_eq!(s.stats.popped, report.stats.popped);
    }

    #[test]
    fn pop_limit_reports_a_best_cost_frontier() {
        // reverse solves around pop 51 with the defaults; cut well short.
        let opts = SearchOptions {
            max_popped: 20,
            ..SearchOptions::default()
        };
        let budget = Budget::for_search(&opts);
        let report =
            search_governed_warm(&reverse_problem(), &opts, &budget, &mut NoopTracer, None);
        assert_eq!(report.outcome.unwrap_err(), SynthError::LimitReached);
        assert_eq!(report.budget.exceeded, Some(BudgetExceeded::PopLimit));
        assert!(!report.frontier.is_empty(), "open hypotheses remain");
        // Best-first: the frontier is sorted by cost and every item is an
        // open sketch.
        assert!(report.frontier.windows(2).all(|w| w[0].cost <= w[1].cost));
        assert!(report.frontier.iter().all(|f| f.holes > 0));
    }

    #[test]
    fn zero_timeout_reports_an_immediate_timeout() {
        let opts = SearchOptions {
            timeout: Some(Duration::ZERO),
            ..SearchOptions::default()
        };
        let budget = Budget::for_search(&opts);
        let report =
            search_governed_warm(&reverse_problem(), &opts, &budget, &mut NoopTracer, None);
        assert_eq!(report.outcome.unwrap_err(), SynthError::Timeout);
        assert_eq!(report.budget.exceeded, Some(BudgetExceeded::Deadline));
    }

    #[test]
    fn pre_cancelled_budgets_report_cancellation() {
        let opts = SearchOptions::default();
        let budget = Budget::for_search(&opts);
        budget.cancel_token().cancel();
        let report =
            search_governed_warm(&reverse_problem(), &opts, &budget, &mut NoopTracer, None);
        assert_eq!(report.outcome.unwrap_err(), SynthError::Cancelled);
        assert_eq!(report.budget.exceeded, Some(BudgetExceeded::Cancelled));
    }

    #[test]
    fn tiny_total_fuel_reports_fuel_exhaustion() {
        let opts = SearchOptions {
            max_total_fuel: 50,
            ..SearchOptions::default()
        };
        let budget = Budget::for_search(&opts);
        let report =
            search_governed_warm(&reverse_problem(), &opts, &budget, &mut NoopTracer, None);
        assert_eq!(report.outcome.unwrap_err(), SynthError::FuelExhausted);
        assert_eq!(report.budget.exceeded, Some(BudgetExceeded::FuelLimit));
        assert!(report.budget.fuel_spent >= 50);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn forced_evictions_keep_warm_accounting_consistent() {
        // Every sweep the `store.evict` fail point forces evicts all but
        // the current store, so the warm cache is parked, seeded, and
        // re-parked with maximal churn; the searches must still solve
        // identically.
        let p = reverse_problem();
        let opts = SearchOptions::default();
        let warm = WarmCache::new(usize::MAX);

        let cold = {
            let _g =
                crate::failpoints::FailGuard::arm("store.evict", FailAction::EvictStores, u64::MAX);
            let budget = Budget::for_search(&opts);
            search_governed_warm(&p, &opts, &budget, &mut NoopTracer, Some(&warm))
        };
        let cold = cold.outcome.expect("solves despite forced evictions");
        assert!(
            cold.stats.store_evictions > 0,
            "fail point forced evictions"
        );
        assert!(
            warm.snapshot().entries > 0,
            "surviving stores parked at search end"
        );

        // Second run seeds from the parked stores, again under forced
        // eviction: take/park accounting must survive the full cycle.
        let seeded = {
            let _g =
                crate::failpoints::FailGuard::arm("store.evict", FailAction::EvictStores, u64::MAX);
            let budget = Budget::for_search(&opts);
            search_governed_warm(&p, &opts, &budget, &mut NoopTracer, Some(&warm))
        };
        let seeded = seeded.outcome.expect("warm rerun solves");
        assert!(seeded.stats.warm_hits > 0, "rerun seeded from the cache");
        assert_eq!(
            cold.program.body().to_string(),
            seeded.program.body().to_string(),
            "warm reuse is semantically transparent"
        );
        assert_eq!(cold.cost, seeded.cost);
        let snap = warm.snapshot();
        assert!(snap.hits > 0 && snap.misses > 0);
    }
}
