//! The PDR engine: a round scheduler over proof obligations — work-stealing
//! across workers, with a lock-free learned-clause exchange and
//! cube-and-conquer bad-state queries — deterministic by construction.
//!
//! Every PDR run goes through it. [`check_property_pdr`] runs one worker
//! with [`ParallelPdrOptions::batch`] `= 1`: every round is a singleton
//! solved inline on the canonical context, which is the classic sequential
//! IC3 loop — one obligation at a time, deepest-from-reset first — and no
//! thread, sibling encoding, lemma log or exchange ring is ever built.
//! [`ParallelPdrOptions::for_threads`] is the one place that picks the
//! batch from the worker count.
//!
//! ## Why the verdicts stay bit-identical
//!
//! A SAT solver's *verdict bits* (SAT/UNSAT) are semantic: they depend only
//! on the formula, never on solver state, heuristics, or which sibling
//! solver answers. Its *models* are not. The scheduler exploits exactly
//! this split:
//!
//! * **Workers answer only bits.** Each worker owns a private
//!   `FrameCtx` (same deterministic base encoding as the master's, own
//!   frame activation literals) and answers consecution queries plus full
//!   cube generalisation — which consumes only UNSAT bits — against a
//!   per-round snapshot of the committed lemma log. Worker models are
//!   discarded.
//! * **The master computes every model.** Bad-state cubes, counterexample
//!   predecessors and their step inputs come from the master's *canonical*
//!   context, whose query sequence is a pure function of the round
//!   trajectory. The canonical solver never imports foreign clauses, so
//!   its models cannot depend on worker interleaving.
//! * **Merges apply in a fixed order.** Obligation batches are popped from
//!   the canonical min-heap — same-frame obligations only, so a SAT parent
//!   is never co-scheduled with its own predecessor chain — and results
//!   merge in batch order. A split bad query reduces by fixed order (any
//!   satisfiable branch ⇒ one canonical full re-solve for the model).
//!   Singleton batches and clause propagation run inline on the canonical
//!   context, in the sequential IC3 query order. All scheduling knobs
//!   ([`ParallelPdrOptions::batch`], [`ParallelPdrOptions::split_registers`])
//!   are independent of the worker count.
//!
//! Consequently the round trajectory — and with it verdicts, traces,
//! certificates and all canonical statistics — is identical for every
//! worker count and every interleaving. The only run-to-run variance is
//! *attribution*: which worker solved which task, and the solver-internal
//! counters that follow from it.
//!
//! ## One round
//!
//! ```text
//!        master (worker 0)                workers 1..W-1
//!   ┌────────────────────────┐       ┌──────────────────────┐
//!   │ pop ≤ batch obligations│       │  wait (start barrier)│
//!   │ publish round + tasks  │──────▶│  replay lemma log    │
//!   ├─ start barrier ────────┤       │  import/export       │
//!   │ replay/export (w0 ctx) │       │   exchange clauses   │
//!   │ pull own deque, steal  │◀─────▶│  pull deque, steal   │
//!   ├─ end barrier ──────────┤       │  wait (end barrier)  │
//!   │ merge results in       │       └──────────────────────┘
//!   │  canonical order,      │
//!   │  re-solve SAT results  │
//!   │  on the canonical ctx  │
//!   └────────────────────────┘
//! ```
//!
//! Worker-SAT obligations are *deferred*: if the merge already committed a
//! lemma at frame ≥ `k − 1` this round the verdict may be stale and the
//! obligation is requeued; otherwise the master re-solves the same query
//! canonically for the predecessor model. UNSAT verdicts (and their
//! generalisations) can never be invalidated — frames only strengthen.
//!
//! The learned-clause exchange is a bounded append-only ring of
//! [`OnceLock`] slots: publishing reserves a slot with one atomic
//! fetch-add, readers walk contiguously initialised slots. Only clauses
//! whose variables all lie below `FrameCtx::base_bound` are published —
//! those are implied by the shared base encoding alone (frame activation
//! literals are never resolvable away), hence sound in every sibling.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};

use ipcl_bmc::{BmcError, Counterexample, Netlist, SequentialProperty};
use ipcl_core::FunctionalSpec;
use ipcl_expr::Lit;
use ipcl_sat::SatResult;
use ipcl_trace::{Heartbeat, MetricSink, Tracer, Value};

use crate::certificate::Certificate;
use crate::engine::{Cube, FrameCtx, FrameLemma, PdrOptions, PdrOutcome, PdrResult, PdrStats};

/// [`ParallelPdrOptions::batch`] at two or more workers (and by default).
const DEFAULT_BATCH: usize = 16;

/// Publisher id of the master's canonical solver on the exchange (workers
/// import their own published clauses back otherwise).
const MASTER: usize = usize::MAX;

/// Capacity of the learned-clause exchange ring; overflow is counted and
/// dropped (sharing is an accelerator, not a correctness mechanism).
const EXCHANGE_CAPACITY: usize = 4096;

/// Knobs of one PDR run: the [`PdrOptions`] plus the scheduler's.
#[derive(Clone, Copy, Debug)]
pub struct ParallelPdrOptions {
    /// The underlying PDR options (solver config, generalisation,
    /// certificate validation, frame budget).
    pub base: PdrOptions,
    /// Worker count `W ≥ 1`. Worker 0 is the master thread; `W − 1`
    /// additional scoped threads are spawned. `1` runs the identical round
    /// algorithm with every task solved inline — same verdicts, traces and
    /// certificates as any other worker count at the same `batch`.
    pub threads: usize,
    /// Maximum proof obligations dispatched per round. The trajectory
    /// depends on it but not on `threads`: `1` is the sequential IC3 loop,
    /// larger batches discharge same-frame siblings together.
    pub batch: usize,
    /// Cube-and-conquer split width of top-frame bad-state queries: the
    /// query splits into `2^split_registers` variable-split branch cubes
    /// over the first registers, solved concurrently and merged by fixed
    /// reduction order (any satisfiable branch ⇒ one canonical full
    /// re-solve for the model). `0` (the default) disables splitting: the
    /// branch bits are pure overhead at one worker, so splitting is an
    /// opt-in for many-core hosts with slow bad-state queries.
    pub split_registers: u32,
    /// LBD bound of the learned-clause exchange (clauses this useful get
    /// published to sibling workers). `0` disables the exchange.
    pub share_max_lbd: u32,
}

impl Default for ParallelPdrOptions {
    fn default() -> Self {
        ParallelPdrOptions {
            batch: DEFAULT_BATCH,
            ..ParallelPdrOptions::for_threads(PdrOptions::default(), default_threads())
        }
    }
}

impl ParallelPdrOptions {
    /// The options of a `threads`-worker run over `base`, and the one rule
    /// mapping a worker count to a batch: one worker (`threads ≤ 1`) runs
    /// `batch: 1`, the sequential IC3 trajectory; two or more run the
    /// default batch of 16. The other knobs take their defaults: no split,
    /// exchange LBD bound 4. Unlike [`ParallelPdrOptions::default`], this
    /// never queries the host.
    pub fn for_threads(base: PdrOptions, threads: usize) -> ParallelPdrOptions {
        let threads = threads.max(1);
        ParallelPdrOptions {
            base,
            threads,
            batch: if threads >= 2 { DEFAULT_BATCH } else { 1 },
            split_registers: 0,
            share_max_lbd: 4,
        }
    }

    /// Whether a round can ever be dispatched to a worker context: more
    /// than one worker, or a round of more than one task.
    fn dispatches(&self) -> bool {
        self.threads > 1 || self.batch > 1 || self.split_registers > 0
    }

    /// Whether the learned-clause exchange is live.
    fn shares(&self) -> bool {
        self.threads > 1 && self.share_max_lbd > 0
    }
}

/// The default worker count: `std::thread::available_parallelism()`, or 1
/// when the platform cannot tell.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// ---- shared state -------------------------------------------------------

/// The sharable view of the committed frame lemmas: an append-only log of
/// [`FrameLemma`]s in canonical commit order. The master appends during
/// merges; each worker replays the suffix past its cursor at round start,
/// reproducing the master's frame state bit-identically
/// ([`FrameCtx::apply_lemma`]).
pub(crate) struct FrameView {
    log: Mutex<Vec<FrameLemma>>,
}

impl FrameView {
    fn new() -> Self {
        FrameView {
            log: Mutex::new(Vec::new()),
        }
    }

    fn commit(&self, lemma: FrameLemma) {
        self.log.lock().expect("frame log lock").push(lemma);
    }

    fn since(&self, cursor: usize) -> Vec<FrameLemma> {
        self.log.lock().expect("frame log lock")[cursor..].to_vec()
    }
}

/// One clause on the exchange ring.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ExchangeClause {
    /// Publishing worker (or [`MASTER`]); used to skip self-imports.
    pub(crate) from: usize,
    pub(crate) literals: Vec<Lit>,
    pub(crate) lbd: u32,
}

/// The lock-free learned-clause exchange: a bounded append-only ring.
/// `publish` reserves a slot with one `fetch_add` and initialises it;
/// readers walk contiguously initialised slots from their own cursor, so a
/// reservation that has not completed merely pauses readers at that slot
/// until the next drain.
pub(crate) struct ExchangeBuffer {
    slots: Box<[OnceLock<ExchangeClause>]>,
    reserved: AtomicUsize,
    dropped: AtomicUsize,
}

impl ExchangeBuffer {
    pub(crate) fn new(capacity: usize) -> Self {
        ExchangeBuffer {
            slots: (0..capacity).map(|_| OnceLock::new()).collect(),
            reserved: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
        }
    }

    /// Publishes one clause; returns whether it was stored (full ring
    /// drops, and counts the drop).
    pub(crate) fn publish(&self, clause: ExchangeClause) -> bool {
        let index = self.reserved.fetch_add(1, Ordering::Relaxed);
        if index >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.slots[index]
            .set(clause)
            .expect("a reserved slot is written exactly once");
        true
    }

    /// Reads every initialised clause past `cursor`, advancing it.
    pub(crate) fn drain_from(&self, cursor: &mut usize) -> Vec<ExchangeClause> {
        let mut fresh = Vec::new();
        while *cursor < self.slots.len() {
            match self.slots[*cursor].get() {
                Some(clause) => {
                    fresh.push(clause.clone());
                    *cursor += 1;
                }
                None => break,
            }
        }
        fresh
    }

    /// Clauses dropped on a full ring.
    pub(crate) fn dropped(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// One unit of round work. Both kinds are *pure-bit* queries: the answer
/// is semantically determined by the shared frame snapshot, so any worker
/// may compute it.
#[derive(Clone, Debug)]
enum Task {
    /// Consecution of an obligation cube at `frame` and, when UNSAT, its
    /// full generalisation (which consumes only UNSAT bits).
    Obligation { frame: usize, cube: Cube },
    /// One branch of a split top-frame bad-state query: bad ∧ branch cube.
    BadBranch { frame: usize, cube: Cube },
}

#[derive(Clone, Debug)]
enum TaskVerdict {
    /// `Some(generalised)` when consecution was UNSAT, `None` on SAT (the
    /// worker's model is discarded; the master re-derives it canonically).
    Obligation {
        blocked: Option<Cube>,
    },
    BadBranch {
        reachable: bool,
    },
}

enum RoundKind {
    Solve,
    Shutdown,
}

/// One scheduling round: a fixed task list, per-worker deques of task
/// slots, and one result slot per task.
struct Round {
    kind: RoundKind,
    /// Top frame of the canonical trailing sequence; workers open frames
    /// up to it before solving.
    top: usize,
    tasks: Vec<Task>,
    deques: Vec<Mutex<VecDeque<usize>>>,
    results: Vec<OnceLock<TaskVerdict>>,
}

impl Round {
    fn shutdown() -> Round {
        Round {
            kind: RoundKind::Shutdown,
            top: 0,
            tasks: Vec::new(),
            deques: Vec::new(),
            results: Vec::new(),
        }
    }
}

/// Per-worker counters folded into [`PdrStats`] at shutdown.
#[derive(Clone, Copy, Debug, Default)]
struct WorkerTally {
    solve_calls: u64,
    generalization_drops: u64,
    conflicts: u64,
    propagations: u64,
    imported: u64,
    exported: u64,
}

struct Shared<'a> {
    options: ParallelPdrOptions,
    spec: &'a FunctionalSpec,
    netlist: &'a Netlist,
    property: &'a SequentialProperty,
    tracer: Tracer,
    start: Barrier,
    end: Barrier,
    round: Mutex<Option<Arc<Round>>>,
    /// The committed lemma log, kept only when a worker context can exist
    /// to replay it ([`ParallelPdrOptions::dispatches`]).
    view: Option<FrameView>,
    /// The clause exchange, allocated only when sharing is live
    /// ([`ParallelPdrOptions::shares`]).
    exchange: Option<ExchangeBuffer>,
    tallies: Mutex<Vec<WorkerTally>>,
}

// ---- workers ------------------------------------------------------------

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Pulls the next task slot: own deque front first, then steal from the
/// back of a random victim's deque.
fn next_task(round: &Round, me: usize, rng: &mut u64) -> Option<usize> {
    if let Some(slot) = round.deques[me].lock().expect("deque lock").pop_front() {
        return Some(slot);
    }
    let victims = round.deques.len();
    let from = (xorshift(rng) as usize) % victims;
    for offset in 0..victims {
        let victim = (from + offset) % victims;
        if victim == me {
            continue;
        }
        if let Some(slot) = round.deques[victim].lock().expect("deque lock").pop_back() {
            return Some(slot);
        }
    }
    None
}

/// Per-worker profile span names (static strings; paths beyond the table
/// share the generic one).
fn worker_span(w: usize) -> &'static str {
    const NAMES: [&str; 8] = [
        "pdr.w0", "pdr.w1", "pdr.w2", "pdr.w3", "pdr.w4", "pdr.w5", "pdr.w6", "pdr.w7",
    ];
    NAMES.get(w).copied().unwrap_or("pdr.worker")
}

/// The worker half of one participant: a private [`FrameCtx`] plus the
/// cursors tracking how much of the shared state it has replayed. Worker 0
/// lives on the master thread and runs the same code between the barriers.
struct WorkerState {
    w: usize,
    ctx: FrameCtx,
    log_cursor: usize,
    exchange_cursor: usize,
    rng: u64,
    heartbeat: Heartbeat,
    solved: u64,
}

impl WorkerState {
    fn new(shared: &Shared<'_>, w: usize) -> WorkerState {
        let mut ctx = FrameCtx::new(
            shared.spec,
            shared.netlist,
            shared.property,
            &shared.options.base,
            &shared.tracer,
        )
        .expect("sibling encoding mirrors the master's, which elaborated");
        if shared.exchange.is_some() {
            ctx.solver.set_clause_sharing(shared.options.share_max_lbd);
        }
        WorkerState {
            w,
            ctx,
            log_cursor: 0,
            exchange_cursor: 0,
            rng: 0x9E37_79B9_7F4A_7C15 ^ ((w as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)),
            heartbeat: Heartbeat::every_ms(ipcl_sat::HEARTBEAT_MS),
            solved: 0,
        }
    }

    /// Syncs to the round snapshot and solves tasks until every deque is
    /// dry.
    fn run_round(&mut self, shared: &Shared<'_>, round: &Round) {
        let _span = shared.tracer.span_fast(worker_span(self.w));
        // Replay the committed lemma suffix: after this the private frame
        // state equals the canonical one at round start.
        let view = shared
            .view
            .as_ref()
            .expect("rounds dispatch only with a log");
        let fresh = view.since(self.log_cursor);
        self.log_cursor += fresh.len();
        for lemma in &fresh {
            self.ctx.apply_lemma(lemma);
        }
        while self.ctx.top() < round.top {
            self.ctx.push_frame();
        }
        // Clause exchange: import siblings' publications, publish own.
        if let Some(exchange) = &shared.exchange {
            for clause in exchange.drain_from(&mut self.exchange_cursor) {
                if clause.from != self.w {
                    self.ctx
                        .solver
                        .import_clause(clause.literals.iter().copied(), clause.lbd);
                }
            }
            let base_bound = self.ctx.base_bound;
            for (literals, lbd) in self.ctx.solver.take_shared() {
                if literals.iter().all(|lit| lit.var() < base_bound) {
                    exchange.publish(ExchangeClause {
                        from: self.w,
                        literals,
                        lbd,
                    });
                }
            }
        }
        while let Some(slot) = next_task(round, self.w, &mut self.rng) {
            let verdict = self.solve_task(&round.tasks[slot]);
            self.solved += 1;
            round.results[slot]
                .set(verdict)
                .expect("each task slot is claimed by exactly one worker");
            self.emit_heartbeat(shared, round);
        }
    }

    fn solve_task(&mut self, task: &Task) -> TaskVerdict {
        match task {
            Task::Obligation { frame, cube } => match self.ctx.consecution(cube, *frame) {
                SatResult::Unsat => TaskVerdict::Obligation {
                    blocked: Some(self.ctx.generalize(cube.clone(), *frame)),
                },
                SatResult::Sat(_) => TaskVerdict::Obligation { blocked: None },
            },
            Task::BadBranch { frame, cube } => {
                let mut assumptions = self.ctx.frame_assumptions(*frame);
                assumptions.push(self.ctx.bad);
                assumptions.extend(cube.iter().map(|&entry| self.ctx.cube_lit(entry, false)));
                TaskVerdict::BadBranch {
                    reachable: self.ctx.solve(&assumptions).is_sat(),
                }
            }
        }
    }

    /// Rate-limited per-worker live progress: remaining own queue, tasks
    /// solved, clauses exchanged.
    fn emit_heartbeat(&mut self, shared: &Shared<'_>, round: &Round) {
        if !self.heartbeat.due(&shared.tracer) {
            return;
        }
        let queue = round.deques[self.w].lock().expect("deque lock").len();
        let stats = self.ctx.solver.stats();
        shared.tracer.event(
            "heartbeat",
            &[
                ("engine", Value::from("pdr")),
                ("queue", Value::U64(queue as u64)),
                ("solved", Value::U64(self.solved)),
                ("imported", Value::U64(stats.imported_clauses)),
                ("exported", Value::U64(stats.exported_clauses)),
            ],
        );
    }

    fn tally(&self) -> WorkerTally {
        let stats = self.ctx.solver.stats();
        WorkerTally {
            solve_calls: self.ctx.solve_calls,
            generalization_drops: self.ctx.generalization_drops,
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            imported: stats.imported_clauses,
            exported: stats.exported_clauses,
        }
    }
}

/// A spawned worker's life: wait for a round, sync, solve, repeat — until
/// the shutdown round.
fn worker_thread(shared: &Shared<'_>, w: usize) {
    ipcl_trace::set_worker(Some(w as u64));
    let mut state = WorkerState::new(shared, w);
    loop {
        shared.start.wait();
        let round = shared
            .round
            .lock()
            .expect("round slot lock")
            .clone()
            .expect("the master publishes before the start barrier");
        if matches!(round.kind, RoundKind::Shutdown) {
            break;
        }
        state.run_round(shared, &round);
        shared.end.wait();
    }
    shared
        .tallies
        .lock()
        .expect("tally lock")
        .push(state.tally());
    ipcl_trace::set_worker(None);
}

// ---- master -------------------------------------------------------------

/// One entry of the proof-obligation arena. The parent chain reconstructs
/// counterexample traces: `step_inputs` is the input valuation driving this
/// obligation's state into its parent's state in one cycle.
struct Obligation {
    cube: Cube,
    parent: Option<usize>,
    step_inputs: BTreeMap<String, bool>,
}

/// Min-heap of (frame, arena index) obligation entries.
type ObligationQueue = BinaryHeap<Reverse<(usize, usize)>>;

enum BlockOutcome {
    Blocked,
    Counterexample(Counterexample),
    Cancelled,
}

/// The master half of a run: the canonical context, the round loop and
/// the merge.
struct Scheduler<'a, 'b> {
    shared: &'a Shared<'b>,
    /// The canonical context: every model-producing query runs here, in an
    /// order that is a pure function of the round trajectory. Never
    /// imports foreign clauses.
    canon: FrameCtx,
    /// The master's worker half (worker 0) — participates in every round's
    /// task solving alongside the spawned workers. Built on the first
    /// dispatched round: a run of singleton rounds never needs it.
    w0: Option<WorkerState>,
    stats: PdrStats,
    heartbeat: Heartbeat,
}

impl<'a, 'b> Scheduler<'a, 'b> {
    /// Publishes a round, participates as worker 0, and returns it with
    /// all results filled in.
    fn dispatch(&mut self, tasks: Vec<Task>) -> Arc<Round> {
        // Export the canonical solver's share-queue first: its lemmas lie
        // on the canonical trajectory and are prime sharing candidates.
        // (Draining is deterministic bookkeeping; it cannot perturb the
        // canonical search.)
        let shared = self.shared;
        if let Some(exchange) = &shared.exchange {
            let base_bound = self.canon.base_bound;
            for (literals, lbd) in self.canon.solver.take_shared() {
                if literals.iter().all(|lit| lit.var() < base_bound) {
                    exchange.publish(ExchangeClause {
                        from: MASTER,
                        literals,
                        lbd,
                    });
                }
            }
        }
        let workers = shared.options.threads;
        let mut deques: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for slot in 0..tasks.len() {
            deques[slot % workers]
                .get_mut()
                .expect("deque lock")
                .push_back(slot);
        }
        let results = (0..tasks.len()).map(|_| OnceLock::new()).collect();
        let round = Arc::new(Round {
            kind: RoundKind::Solve,
            top: self.canon.top(),
            tasks,
            deques,
            results,
        });
        let w0 = self.w0.get_or_insert_with(|| WorkerState::new(shared, 0));
        *shared.round.lock().expect("round slot lock") = Some(Arc::clone(&round));
        shared.start.wait();
        w0.run_round(shared, &round);
        shared.end.wait();
        round
    }

    /// Commits one lemma: the shared log (the workers replay it at their
    /// next round start), then the canonical frame state. A promoted cube
    /// must already be out of its old frame's list.
    fn commit(&mut self, cube: Cube, frame: usize, promoted_from: Option<usize>) {
        if let Some(view) = &self.shared.view {
            view.commit(FrameLemma {
                frame,
                cube: cube.clone(),
                promoted_from,
            });
        }
        self.canon.add_frame_clause(cube, frame);
    }

    /// The top-frame bad-state query, cube-and-conquer style: split into
    /// `2^split_registers` branch cubes solved concurrently as pure bits;
    /// the lowest satisfiable branch wins (fixed reduction order) and the
    /// master re-solves under that branch for the canonical model.
    fn solve_bad(&mut self) -> SatResult {
        let top = self.canon.top();
        let splits = (self.shared.options.split_registers as usize).min(self.canon.regs.len());
        let branches = 1usize << splits;
        if branches <= 1 {
            let mut assumptions = self.canon.frame_assumptions(top);
            assumptions.push(self.canon.bad);
            return self.canon.solve(&assumptions);
        }
        let branch_cube = |branch: usize| -> Cube {
            (0..splits)
                .map(|register| (register, (branch >> register) & 1 == 1))
                .collect()
        };
        let tasks = (0..branches)
            .map(|branch| Task::BadBranch {
                frame: top,
                cube: branch_cube(branch),
            })
            .collect();
        let round = self.dispatch(tasks);
        let reachable = (0..branches).any(|branch| {
            matches!(
                round.results[branch].get(),
                Some(TaskVerdict::BadBranch { reachable: true })
            )
        });
        if !reachable {
            return SatResult::Unsat;
        }
        // The branch cubes partition the state space, so the full query is
        // satisfiable iff some branch is. Re-solve it *unguided* on the
        // canonical context: the model then comes from the same query an
        // unsplit run poses, keeping the root-cube trajectory (and so lemma
        // quality) on par with it.
        let mut assumptions = self.canon.frame_assumptions(top);
        assumptions.push(self.canon.bad);
        let result = self.canon.solve(&assumptions);
        debug_assert!(
            result.is_sat(),
            "a satisfiable branch stays satisfiable canonically"
        );
        result
    }

    fn note_push(&mut self, frame: usize, queue_len: usize) {
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(queue_len);
        self.shared.tracer.event(
            "pdr_obligation",
            &[
                ("action", Value::from("push")),
                ("frame", Value::U64(frame as u64)),
                ("queue", Value::U64(queue_len as u64)),
            ],
        );
    }

    fn note_pop(&mut self, frame: usize, queue_len: usize) {
        self.stats.obligations += 1;
        if frame >= self.stats.obligations_per_frame.len() {
            self.stats.obligations_per_frame.resize(frame + 1, 0);
        }
        self.stats.obligations_per_frame[frame] += 1;
        self.shared.tracer.event(
            "pdr_obligation",
            &[
                ("action", Value::from("pop")),
                ("frame", Value::U64(frame as u64)),
                ("queue", Value::U64(queue_len as u64)),
            ],
        );
        self.emit_heartbeat(frame, queue_len);
    }

    fn emit_heartbeat(&mut self, frame: usize, queue_len: usize) {
        if !self.heartbeat.due(&self.shared.tracer) {
            return;
        }
        self.shared.tracer.event(
            "heartbeat",
            &[
                ("engine", Value::from("pdr")),
                ("frame", Value::U64(frame as u64)),
                ("top_frame", Value::U64(self.canon.top() as u64)),
                ("queue", Value::U64(queue_len as u64)),
                ("obligations", Value::U64(self.stats.obligations)),
                ("clauses", Value::U64(self.canon.clauses as u64)),
                ("threads", Value::U64(self.shared.options.threads as u64)),
            ],
        );
    }

    /// Reconstructs the counterexample trace ending at the obligation
    /// `index`: `reset_step` (if any) drives the reset state into the
    /// obligation's state, the parent chain's step inputs walk to the root
    /// bad state, and `window` is the property window observed there.
    fn trace(
        &self,
        arena: &[Obligation],
        index: usize,
        reset_step: Option<BTreeMap<String, bool>>,
        window: &[BTreeMap<String, bool>],
    ) -> Counterexample {
        let mut frames = Vec::new();
        frames.extend(reset_step);
        let mut current = index;
        while let Some(parent) = arena[current].parent {
            frames.push(arena[current].step_inputs.clone());
            current = parent;
        }
        frames.extend(window.iter().cloned());
        Counterexample {
            property: self.shared.property.name.clone(),
            violation_frame: frames.len() - 1,
            frames,
        }
    }

    /// Blocks the bad cube at the top frame, recursively discharging the
    /// proof obligations it spawns, up to [`ParallelPdrOptions::batch`]
    /// heap-ordered obligations per round (min-heap on (frame, arena
    /// index): deepest-from-reset first, FIFO within a frame). `window` is
    /// the decoded input window of the bad-state model (the tail of any
    /// counterexample trace).
    fn block(
        &mut self,
        root: Cube,
        window: Vec<BTreeMap<String, bool>>,
        cancel: Option<&AtomicBool>,
    ) -> BlockOutcome {
        let top = self.canon.top();
        let mut arena: Vec<Obligation> = vec![Obligation {
            cube: root,
            parent: None,
            step_inputs: BTreeMap::new(),
        }];
        let mut queue = ObligationQueue::new();
        self.enqueue(&mut queue, top, 0);

        let mut batch: Vec<(usize, usize)> = Vec::new();
        while !queue.is_empty() {
            if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
                return BlockOutcome::Cancelled;
            }
            // Compose the round's batch in canonical heap order, but only
            // from obligations at ONE frame: co-scheduling a SAT parent
            // with its own (deeper) predecessor chain would re-attack every
            // ancestor each round, inflating the trajectory quadratically.
            // Same-frame siblings are the genuinely independent work.
            batch.clear();
            while batch.len() < self.shared.options.batch.max(1) {
                if let (Some(&(frame, _)), Some(&Reverse((k, _)))) = (batch.first(), queue.peek()) {
                    if k != frame {
                        break;
                    }
                }
                let Some(Reverse((k, index))) = queue.pop() else {
                    break;
                };
                self.note_pop(k, queue.len());
                if k == 0 {
                    // Defensive: frame-0 obligations are initial states and
                    // are caught at creation time by the initiation check.
                    return BlockOutcome::Counterexample(self.trace(&arena, index, None, &window));
                }
                if self.canon.is_blocked(&arena[index].cube, k) {
                    // Already excluded from F_k by a stronger clause.
                    self.advance(&mut queue, k, index, top);
                    continue;
                }
                batch.push((k, index));
            }
            if batch.is_empty() {
                continue;
            }
            // A single-obligation round has no parallelism to harvest:
            // solve it inline on the canonical context (bits AND model in
            // one query, generalisation included) — the sequential IC3
            // step. Whether a round is singleton is a trajectory property,
            // identical at every worker count.
            if let [(k, index)] = batch[..] {
                let cube = arena[index].cube.clone();
                let outcome = match self.canon.consecution(&cube, k) {
                    SatResult::Unsat => {
                        let generalized = self.canon.generalize(cube, k);
                        self.commit(generalized, k, None);
                        self.advance(&mut queue, k, index, top);
                        None
                    }
                    SatResult::Sat(model) => {
                        self.extend_chain(&mut arena, &mut queue, k, index, &model, &window)
                    }
                };
                match outcome {
                    None => continue,
                    Some(outcome) => return outcome,
                }
            }
            let tasks = batch
                .iter()
                .map(|&(k, index)| Task::Obligation {
                    frame: k,
                    cube: arena[index].cube.clone(),
                })
                .collect();
            let round = self.dispatch(tasks);

            // Merge in batch (canonical) order. `max_committed` tracks the
            // highest frame strengthened *this round*: a worker-SAT verdict
            // at frame k is stale iff a commit landed at ≥ k − 1 since its
            // snapshot.
            let mut max_committed: Option<usize> = None;
            for (slot, &(k, index)) in batch.iter().enumerate() {
                let verdict = round.results[slot]
                    .get()
                    .expect("every dispatched task is solved before the end barrier");
                // An earlier slot's commit this round may already block this
                // cube — exactly the case a singleton round prunes with its
                // pre-solve `is_blocked` check. Mirror it at merge time so
                // speculative siblings don't pile up redundant lemmas.
                if self.canon.is_blocked(&arena[index].cube, k) {
                    self.advance(&mut queue, k, index, top);
                    continue;
                }
                match verdict {
                    TaskVerdict::Obligation {
                        blocked: Some(generalized),
                    } => {
                        // UNSAT survives any strengthening, but the worker
                        // generalised against the round snapshot. Re-run
                        // the drop loop on the (already short) lemma
                        // against the freshest canonical state — earlier
                        // slots' commits often let further literals go,
                        // recovering singleton-round lemma quality.
                        let generalized = self.canon.generalize(generalized.clone(), k);
                        self.commit(generalized, k, None);
                        max_committed = Some(max_committed.unwrap_or(0).max(k));
                        self.advance(&mut queue, k, index, top);
                    }
                    TaskVerdict::Obligation { blocked: None } => {
                        if max_committed.is_some_and(|frame| frame + 1 >= k) {
                            // Deferred: the snapshot this SAT was computed
                            // against has been strengthened at ≥ k − 1;
                            // requeue and re-dispatch next round.
                            self.enqueue(&mut queue, k, index);
                            continue;
                        }
                        // Still valid: re-solve canonically for the
                        // predecessor model (worker models are discarded by
                        // design — this is the determinism boundary).
                        let cube = arena[index].cube.clone();
                        match self.canon.consecution(&cube, k) {
                            SatResult::Sat(model) => {
                                if let Some(outcome) = self
                                    .extend_chain(&mut arena, &mut queue, k, index, &model, &window)
                                {
                                    return outcome;
                                }
                            }
                            SatResult::Unsat => {
                                // Semantically impossible (no strengthening
                                // at ≥ k − 1 intervened); requeue rather
                                // than trust a diverged verdict.
                                debug_assert!(false, "worker SAT contradicted canonically");
                                self.enqueue(&mut queue, k, index);
                            }
                        }
                    }
                    _ => unreachable!("obligation rounds produce obligation verdicts"),
                }
            }
        }
        BlockOutcome::Blocked
    }

    /// Queues obligation `index` at `frame`.
    fn enqueue(&mut self, queue: &mut ObligationQueue, frame: usize, index: usize) {
        queue.push(Reverse((frame, index)));
        self.note_push(frame, queue.len());
    }

    /// Moves obligation `index`, excluded from frame `k`, one frame up
    /// towards the top (at the top frame it is discharged).
    fn advance(&mut self, queue: &mut ObligationQueue, k: usize, index: usize, top: usize) {
        if k < top {
            self.enqueue(queue, k + 1, index);
        }
    }

    /// Handles the canonical model of a satisfiable consecution query of
    /// obligation `index` at frame `k`: a predecessor in the reset state
    /// completes a counterexample (returned to unwind with); any other
    /// becomes a new obligation at `k − 1`, and `index` is requeued at `k`.
    fn extend_chain(
        &mut self,
        arena: &mut Vec<Obligation>,
        queue: &mut ObligationQueue,
        k: usize,
        index: usize,
        model: &[bool],
        window: &[BTreeMap<String, bool>],
    ) -> Option<BlockOutcome> {
        let predecessor = self.canon.state_cube(model);
        let step_inputs = self.canon.enc.decode_frame(self.shared.spec, model, 0);
        if self.canon.intersects_init(&predecessor) {
            return Some(BlockOutcome::Counterexample(self.trace(
                arena,
                index,
                Some(step_inputs),
                window,
            )));
        }
        arena.push(Obligation {
            cube: predecessor,
            parent: Some(index),
            step_inputs,
        });
        self.enqueue(queue, k - 1, arena.len() - 1);
        self.enqueue(queue, k, index);
        None
    }

    /// One clause-propagation pass after opening a new top frame: every
    /// clause inductive relative to its own frame moves one frame up.
    /// Returns the fixpoint frame if two adjacent frames became equal.
    ///
    /// Runs entirely on the canonical context. Propagation is deliberately
    /// *not* dispatched to workers: the promotion bits themselves are
    /// semantic, but the clauses the canonical solver learns from these
    /// queries keep its later *models* on the sequential trajectory —
    /// farming them out measurably inflates the search (extra frames)
    /// by more than the ~30% profile share propagation could ever win
    /// back in parallel.
    fn propagate(&mut self) -> Option<usize> {
        let _span = self.shared.tracer.span("pdr.propagate");
        let top = self.canon.top();
        for k in 1..top {
            let cubes = std::mem::take(&mut self.canon.frame_cubes[k]);
            for cube in cubes {
                // F_k ∧ T ∧ cube' unsatisfiable ⇒ ¬cube also holds at k+1.
                let mut assumptions = self.canon.frame_assumptions(k);
                assumptions.extend(cube.iter().map(|&entry| self.canon.cube_lit(entry, true)));
                if self.canon.solve(&assumptions) == SatResult::Unsat {
                    self.commit(cube, k + 1, Some(k));
                } else {
                    self.canon.frame_cubes[k].push(cube);
                }
            }
            if self.canon.frame_cubes[k].is_empty() {
                // F_k = F_{k+1}: the trailing sequence closed.
                return Some(k);
            }
        }
        None
    }

    fn run(&mut self, cancel: Option<&AtomicBool>) -> PdrOutcome {
        let property = self.shared.property;
        // Stateless netlist: the single (empty) state is initial, so the
        // property is the one-window combinational query — no rounds.
        if self.canon.regs.is_empty() {
            let bad = self.canon.bad;
            return match self.canon.solve(&[bad]) {
                SatResult::Unsat => PdrOutcome::Proved {
                    certificate: Certificate {
                        property: property.name.clone(),
                        clauses: Vec::new(),
                    },
                    fixpoint_frame: 0,
                },
                SatResult::Sat(model) => {
                    let frames = self.canon.window(self.shared.spec, property, &model);
                    PdrOutcome::Falsified(Counterexample {
                        property: property.name.clone(),
                        violation_frame: frames.len() - 1,
                        frames,
                    })
                }
            };
        }

        self.canon.push_frame(); // F_1
        loop {
            if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
                return PdrOutcome::Unknown {
                    frames_explored: self.canon.top(),
                };
            }
            // Block every bad state reachable within the current bound.
            loop {
                match self.solve_bad() {
                    SatResult::Unsat => break,
                    SatResult::Sat(model) => {
                        let cube = self.canon.state_cube(&model);
                        let window = self.canon.window(self.shared.spec, property, &model);
                        if self.canon.intersects_init(&cube) {
                            return PdrOutcome::Falsified(Counterexample {
                                property: property.name.clone(),
                                violation_frame: window.len() - 1,
                                frames: window,
                            });
                        }
                        match self.block(cube, window, cancel) {
                            BlockOutcome::Blocked => {}
                            BlockOutcome::Counterexample(cex) => return PdrOutcome::Falsified(cex),
                            BlockOutcome::Cancelled => {
                                return PdrOutcome::Unknown {
                                    frames_explored: self.canon.top(),
                                }
                            }
                        }
                    }
                }
            }
            if self.canon.top() >= self.shared.options.base.max_frames {
                return PdrOutcome::Unknown {
                    frames_explored: self.canon.top(),
                };
            }
            self.canon.push_frame();
            let top = self.canon.top();
            self.emit_heartbeat(top, 0);
            if let Some(fixpoint) = self.propagate() {
                return PdrOutcome::Proved {
                    certificate: self.canon.certificate(&property.name, fixpoint),
                    fixpoint_frame: fixpoint,
                };
            }
        }
    }
}

// ---- entry points -------------------------------------------------------

/// Checks one sequential property on `netlist` against `spec` with IC3/PDR,
/// on one worker with singleton rounds
/// ([`ParallelPdrOptions::for_threads`]`(*options, 1)`).
///
/// See the [`crate::engine`] docs for the algorithm. A
/// [`PdrOutcome::Proved`] verdict carries an explicit inductive-invariant
/// [`Certificate`]; with [`PdrOptions::validate_certificate`] (the default)
/// the certificate has been re-validated by independent SAT checks and the
/// verdicts are in [`PdrResult::validation`]. A [`PdrOutcome::Falsified`]
/// trace replays through `ipcl_rtl::Simulator` (callers assert this, as
/// with BMC).
///
/// # Errors
///
/// As [`ipcl_bmc::check_property`]: [`BmcError::MissingSignals`] if the
/// property's stage has no `moe` signal in the netlist, [`BmcError::Rtl`]
/// if the netlist does not elaborate.
pub fn check_property_pdr(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
    options: &PdrOptions,
) -> Result<PdrResult, BmcError> {
    check_property_pdr_traced(
        spec,
        netlist,
        property,
        &ParallelPdrOptions::for_threads(*options, 1),
        None,
        &Tracer::disabled(),
    )
}

/// As [`check_property_pdr`], with the scheduler's knobs, cooperative
/// cancellation and an observability handle.
///
/// Verdicts, counterexample traces and certificates are bit-identical for
/// every [`ParallelPdrOptions::threads`] value and every run at a given
/// [`ParallelPdrOptions::batch`] (see the module docs). With
/// `threads == 1` the round algorithm executes inline on the calling
/// thread (no spawns). `cancel` is polled between rounds; once it is set
/// the run returns [`PdrOutcome::Unknown`].
///
/// The run executes under a `pdr.check` span (encode under `pdr.encode`,
/// clause propagation under `pdr.propagate`, cube generalisation under
/// `pdr.generalize`, certificate re-checking under `pdr.validate`, SAT
/// queries under the solver's own `sat.solve`), logs one `pdr_obligation`
/// event per obligation push/pop with its frame and queue depth, and folds
/// the run's counters into the tracer's metrics. With two or more workers
/// the master tags its events with `worker = 0`, each worker thread tags
/// everything it records with its own worker id, and per-worker solve time
/// lands under `pdr.w<N>` profile spans.
///
/// # Errors
///
/// As [`check_property_pdr`].
pub fn check_property_pdr_traced(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
    options: &ParallelPdrOptions,
    cancel: Option<&AtomicBool>,
    tracer: &Tracer,
) -> Result<PdrResult, BmcError> {
    let _span = tracer.span("pdr.check");
    let missing = ipcl_bmc::missing_property_signals(spec, netlist, property);
    if !missing.is_empty() {
        return Err(BmcError::MissingSignals(missing));
    }
    let options = ParallelPdrOptions {
        threads: options.threads.max(1),
        ..*options
    };

    // The one fallible construction, before any thread exists: the
    // workers' sibling contexts mirror it.
    let mut canon = FrameCtx::new(spec, netlist, property, &options.base, tracer)?;
    if options.shares() {
        canon.solver.set_clause_sharing(options.share_max_lbd);
    }

    let shared = Shared {
        options,
        spec,
        netlist,
        property,
        tracer: tracer.clone(),
        start: Barrier::new(options.threads),
        end: Barrier::new(options.threads),
        round: Mutex::new(None),
        view: options.dispatches().then(FrameView::new),
        exchange: options
            .shares()
            .then(|| ExchangeBuffer::new(EXCHANGE_CAPACITY)),
        tallies: Mutex::new(Vec::new()),
    };

    let spawns = options.threads > 1;
    let (outcome, mut stats, canon, w0_tally) = std::thread::scope(|scope| {
        for w in 1..shared.options.threads {
            let shared = &shared;
            scope.spawn(move || worker_thread(shared, w));
        }
        if spawns {
            ipcl_trace::set_worker(Some(0));
        }
        let mut engine = Scheduler {
            shared: &shared,
            canon,
            w0: None,
            stats: PdrStats::default(),
            heartbeat: Heartbeat::every_ms(ipcl_sat::HEARTBEAT_MS),
        };
        let outcome = engine.run(cancel);
        if spawns {
            // Shutdown handshake: publish the shutdown round; workers break
            // out before the end barrier and push their tallies.
            *shared.round.lock().expect("round slot lock") = Some(Arc::new(Round::shutdown()));
            shared.start.wait();
            ipcl_trace::set_worker(None);
        }
        let w0_tally = engine.w0.as_ref().map(WorkerState::tally);
        (outcome, engine.stats, engine.canon, w0_tally)
    });

    // Aggregate: canonical counters carry the deterministic trajectory;
    // worker tallies add the (run-variant) bit-solving work.
    let tallies = shared.tallies.lock().expect("tally lock");
    stats.frames = canon.top();
    stats.clauses = canon.clauses;
    stats.solve_calls = canon.solve_calls;
    stats.generalization_drops = canon.generalization_drops;
    stats.conflicts = canon.solver.stats().conflicts;
    stats.propagations = canon.solver.stats().propagations;
    stats.exported_clauses = canon.solver.stats().exported_clauses;
    for tally in tallies.iter().chain(w0_tally.as_ref()) {
        stats.solve_calls += tally.solve_calls;
        stats.generalization_drops += tally.generalization_drops;
        stats.conflicts += tally.conflicts;
        stats.propagations += tally.propagations;
        stats.imported_clauses += tally.imported;
        stats.exported_clauses += tally.exported;
    }
    drop(tallies);

    if tracer.is_enabled() {
        stats.emit(tracer, "pdr");
        canon.solver.stats().emit(tracer, "sat");
        if let Some(exchange) = &shared.exchange {
            tracer.counter("pdr.exchange_dropped", exchange.dropped() as u64);
        }
        let u = canon.enc.unroller().stats();
        tracer.counter("unroll.pdr.frames", u.frames);
        tracer.counter("unroll.pdr.gates", u.gates);
        tracer.counter("unroll.pdr.cache_hits", u.cache_hits);
    }

    let validation = match (&outcome, options.base.validate_certificate) {
        (PdrOutcome::Proved { certificate, .. }, true) => {
            let _validate = tracer.span("pdr.validate");
            Some(certificate.validate(spec, netlist, property)?)
        }
        _ => None,
    };

    Ok(PdrResult {
        property: property.clone(),
        outcome,
        validation,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: u32) -> Lit {
        Lit::new(v, true)
    }

    #[test]
    fn exchange_publishes_and_drains_in_order() {
        let exchange = ExchangeBuffer::new(4);
        for i in 0..3 {
            assert!(exchange.publish(ExchangeClause {
                from: i,
                literals: vec![lit(i as u32)],
                lbd: 2,
            }));
        }
        let mut cursor = 0;
        let drained = exchange.drain_from(&mut cursor);
        assert_eq!(drained.len(), 3);
        assert_eq!(cursor, 3);
        assert!(drained.iter().enumerate().all(|(i, c)| c.from == i));
        // A second drain from the same cursor sees nothing new.
        assert!(exchange.drain_from(&mut cursor).is_empty());
    }

    #[test]
    fn exchange_overflow_drops_and_counts() {
        let exchange = ExchangeBuffer::new(2);
        let clause = |i: u32| ExchangeClause {
            from: 0,
            literals: vec![lit(i)],
            lbd: 1,
        };
        assert!(exchange.publish(clause(0)));
        assert!(exchange.publish(clause(1)));
        assert!(!exchange.publish(clause(2)));
        assert!(!exchange.publish(clause(3)));
        assert_eq!(exchange.dropped(), 2);
        let mut cursor = 0;
        assert_eq!(exchange.drain_from(&mut cursor).len(), 2);
    }

    #[test]
    fn exchange_is_safe_under_concurrent_publish_and_drain() {
        // Stress loop: N publishers race one reader per iteration; every
        // published clause is either stored exactly once (and seen by the
        // reader in slot order) or counted as dropped.
        const PUBLISHERS: usize = 4;
        const PER_PUBLISHER: usize = 64;
        for _ in 0..50 {
            let exchange = ExchangeBuffer::new(PUBLISHERS * PER_PUBLISHER / 2);
            let seen = std::thread::scope(|scope| {
                for publisher in 0..PUBLISHERS {
                    let exchange = &exchange;
                    scope.spawn(move || {
                        for i in 0..PER_PUBLISHER {
                            exchange.publish(ExchangeClause {
                                from: publisher,
                                literals: vec![lit(i as u32)],
                                lbd: publisher as u32,
                            });
                        }
                    });
                }
                let exchange = &exchange;
                scope
                    .spawn(move || {
                        let mut cursor = 0;
                        let mut seen = 0;
                        loop {
                            seen += exchange.drain_from(&mut cursor).len();
                            if seen + exchange.dropped() >= PUBLISHERS * PER_PUBLISHER {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                        seen
                    })
                    .join()
                    .expect("reader thread")
            });
            assert_eq!(seen + exchange.dropped(), PUBLISHERS * PER_PUBLISHER);
            assert_eq!(seen, PUBLISHERS * PER_PUBLISHER / 2);
        }
    }

    #[test]
    fn frame_view_replays_in_commit_order() {
        let view = FrameView::new();
        view.commit(FrameLemma {
            frame: 1,
            cube: vec![(0, true)],
            promoted_from: None,
        });
        view.commit(FrameLemma {
            frame: 2,
            cube: vec![(0, true)],
            promoted_from: Some(1),
        });
        let all = view.since(0);
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].promoted_from, Some(1));
        assert_eq!(view.since(2).len(), 0);
        assert_eq!(view.since(1).len(), 1);
    }
}
