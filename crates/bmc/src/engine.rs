//! The bounded-model-checking and k-induction engine.
//!
//! Following Bryant & German's reduction of processor correctness to
//! propositional SAT, a sequential property over an `ipcl-rtl` netlist is
//! decided by *time-frame unrolling* (see [`ipcl_rtl::unroll`]):
//!
//! * **Falsification (BMC).** Starting from the reset state, frames are
//!   appended one at a time; at each depth the negated property instance of
//!   the newest frame is activated *as a solver assumption* and the
//!   incremental CDCL solver is asked for a model. A model is decoded into a
//!   replayable [`Counterexample`]; because depths are explored in order the
//!   first hit is a minimal-length trace.
//! * **Proof (k-induction).** A second, initial-state-free unrolling asserts
//!   the property for `k` consecutive instances, constrains the path to be
//!   loop-free (pairwise-distinct register states) and asks whether instance
//!   `k+1` can still fail. An UNSAT answer, combined with the base cases
//!   already checked, proves the property for **all** cycles — reset
//!   correctness and "no spurious stall reachable from reset" become
//!   theorems instead of sampled claims.
//!
//! Both unrollings share one [`ipcl_sat::Solver`] each across depths, so
//! learned clauses from depth *d* accelerate depth *d+1*; the
//! `incremental: false` option re-encodes from scratch at every depth and
//! exists to quantify that speedup (see the `bmc` bench and
//! `exp_bmc_depth`).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use ipcl_core::FunctionalSpec;
use ipcl_expr::{Lit, VarId};
use ipcl_rtl::{InitialState, Netlist, RtlError};
use ipcl_sat::{SatResult, Solver, SolverConfig};
use ipcl_trace::{Heartbeat, MetricSink, Tracer, Value};

use crate::encode::{FrameEncoder, SolverSync};
use crate::property::SequentialProperty;
use crate::trace::Counterexample;

/// Errors reported by the BMC engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BmcError {
    /// The netlist failed to elaborate.
    Rtl(RtlError),
    /// The netlist does not implement these specification `moe` signals.
    MissingSignals(Vec<String>),
}

impl fmt::Display for BmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmcError::Rtl(e) => write!(f, "netlist error: {e}"),
            BmcError::MissingSignals(names) => {
                write!(f, "netlist misses moe signals: {}", names.join(", "))
            }
        }
    }
}

impl std::error::Error for BmcError {}

impl From<RtlError> for BmcError {
    fn from(e: RtlError) -> Self {
        BmcError::Rtl(e)
    }
}

/// Knobs of one BMC / k-induction run.
#[derive(Clone, Copy, Debug)]
pub struct BmcOptions {
    /// Maximum unroll depth (frames − 1). `Engine::Bmc { k }` maps here.
    pub max_depth: usize,
    /// Number of leading frames whose inputs are forced to zero. The
    /// post-reset environment of an interlocked pipeline is quiet (the
    /// pipeline is empty, nothing requests), so constraining the first
    /// frame(s) rules out counterfeit "hazard at reset" traces while still
    /// letting bugs that need an event-then-wait pattern surface later.
    pub quiet_cycles: usize,
    /// Reuse one incremental solver across depths (the default). `false`
    /// re-encodes and re-solves from scratch at every depth — kept for the
    /// ablation benchmark.
    pub incremental: bool,
    /// Attempt a k-induction proof after each passed base depth.
    pub induction: bool,
    /// Heuristic configuration of the CDCL solvers (heap decisions,
    /// clause minimization, database reduction, restarts, phase saving —
    /// see [`ipcl_sat::SolverConfig`]). Defaults to the optimized
    /// configuration; [`ipcl_sat::SolverConfig::baseline`] reproduces the
    /// pre-optimization solver for the `exp_solver_opts` ablation.
    pub solver: SolverConfig,
}

impl Default for BmcOptions {
    fn default() -> Self {
        BmcOptions {
            max_depth: 10,
            quiet_cycles: 1,
            incremental: true,
            induction: true,
            solver: SolverConfig::default(),
        }
    }
}

impl BmcOptions {
    /// Options with an explicit depth bound.
    pub fn with_depth(max_depth: usize) -> Self {
        BmcOptions {
            max_depth,
            ..Default::default()
        }
    }
}

/// Aggregate statistics of one property run.
#[derive(Clone, Copy, Debug, Default)]
pub struct BmcStats {
    /// Deepest base frame encoded.
    pub depth_reached: usize,
    /// SAT queries issued (base + induction).
    pub solve_calls: usize,
    /// Clauses in the base unrolling at the end of the run.
    pub base_clauses: usize,
    /// Clauses in the induction unrolling at the end of the run.
    pub induction_clauses: usize,
    /// Conflicts accumulated across both solvers.
    pub conflicts: u64,
    /// Propagations accumulated across both solvers.
    pub propagations: u64,
    /// Conflicts of the **deepest base-case solve alone** (a
    /// [`ipcl_sat::SolverStats::delta`] over the incremental stream, not
    /// the cumulative count).
    pub last_depth_conflicts: u64,
    /// Propagations of the deepest base-case solve alone.
    pub last_depth_propagations: u64,
}

/// The verdict of one property run.
#[derive(Clone, Debug)]
pub enum BmcOutcome {
    /// The property fails; the trace is minimal-length and replayable.
    Falsified(Counterexample),
    /// The property holds on **all** cycles, proved by k-induction at the
    /// given depth.
    Proved {
        /// The `k` at which the inductive step became unsatisfiable.
        induction_depth: usize,
    },
    /// No violation up to `depth_checked`, but no inductive proof either.
    Unknown {
        /// Deepest base case that passed.
        depth_checked: usize,
    },
}

impl BmcOutcome {
    /// Whether the outcome is a proof.
    pub fn is_proved(&self) -> bool {
        matches!(self, BmcOutcome::Proved { .. })
    }

    /// Whether the outcome is a falsification.
    pub fn is_falsified(&self) -> bool {
        matches!(self, BmcOutcome::Falsified(_))
    }

    /// The counterexample, if falsified.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            BmcOutcome::Falsified(cex) => Some(cex),
            _ => None,
        }
    }
}

/// Result of checking one property.
#[derive(Clone, Debug)]
pub struct BmcResult {
    /// The property that was checked.
    pub property: SequentialProperty,
    /// The verdict.
    pub outcome: BmcOutcome,
    /// Search statistics.
    pub stats: BmcStats,
}

/// One unrolling (reset-rooted or free) plus its incremental solver and the
/// bookkeeping to push only newly generated clauses. The property/trace
/// plumbing lives in the shared [`FrameEncoder`] (also used by `ipcl-pdr`).
struct Run {
    enc: FrameEncoder,
    solver: Solver,
    sync: SolverSync,
}

impl Run {
    fn new(
        netlist: &Netlist,
        initial: InitialState,
        options: &BmcOptions,
        tracer: &Tracer,
    ) -> Result<Self, RtlError> {
        let enc = FrameEncoder::new(netlist, initial, options.quiet_cycles)?;
        let mut solver =
            Solver::with_config(enc.unroller().cnf().num_vars as usize, options.solver);
        solver.set_tracer(tracer.clone());
        Ok(Run {
            enc,
            solver,
            sync: SolverSync::default(),
        })
    }

    /// Transfers clauses generated since the last sync into the solver.
    fn sync_solver(&mut self) {
        self.sync.sync(&self.enc, &mut self.solver);
    }
}

/// Validates that every `moe` signal the property portfolio mentions exists
/// in the netlist.
pub fn missing_moe_signals(spec: &FunctionalSpec, netlist: &Netlist) -> Vec<String> {
    spec.stages()
        .iter()
        .filter_map(|stage| {
            let name = spec.pool().name_or_fallback(stage.moe);
            match netlist.find(&name) {
                Some(_) => None,
                None => Some(name),
            }
        })
        .collect()
}

/// As [`missing_moe_signals`], restricted to the stage one `property` talks
/// about — the prologue check shared by the BMC and PDR engines.
pub fn missing_property_signals(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
) -> Vec<String> {
    spec.stages()
        .iter()
        .filter(|stage| stage.stage.prefix() == property.stage)
        .filter_map(|stage| {
            let name = spec.pool().name_or_fallback(stage.moe);
            netlist.find(&name).is_none().then_some(name)
        })
        .collect()
}

/// Checks one sequential property on `netlist` against `spec`.
///
/// See the module docs for the algorithm. The returned counterexample (if
/// any) is of minimal length and replays deterministically through
/// [`ipcl_rtl::Simulator`] (asserted by the caller via
/// [`Counterexample::replay`]).
///
/// # Errors
///
/// [`BmcError::MissingSignals`] if the property's stage has no `moe` signal
/// in the netlist; [`BmcError::Rtl`] if the netlist does not elaborate.
pub fn check_property(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
    options: &BmcOptions,
) -> Result<BmcResult, BmcError> {
    check_property_traced(spec, netlist, property, options, None, &Tracer::disabled())
}

/// As [`check_property`], with cooperative cancellation and an
/// observability handle. `cancel` is polled between depths; once it is set
/// the run returns the current [`BmcOutcome::Unknown`] — the cancellation
/// `ipcl-pdr`'s portfolio uses to stop the losing racer. The run executes
/// under a `bmc.check` span (encode work under `bmc.encode`, SAT queries
/// under the solver's own `sat.solve`), emits one `bmc_depth` event per
/// explored depth with the per-depth solver-stats delta, and folds the
/// unroller's structural-hashing counters into the tracer's metrics.
pub fn check_property_traced(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
    options: &BmcOptions,
    cancel: Option<&AtomicBool>,
    tracer: &Tracer,
) -> Result<BmcResult, BmcError> {
    let _span = tracer.span("bmc.check");
    let missing = missing_property_signals(spec, netlist, property);
    if !missing.is_empty() {
        return Err(BmcError::MissingSignals(missing));
    }

    let moe_vars: BTreeSet<VarId> = spec.moe_vars().into_iter().collect();
    let mut stats = BmcStats::default();

    // Folds a run's solver totals and its unrolling's structural-hashing
    // counters into the metrics (called once per run on every exit path
    // that owns the run).
    let emit_run = |label: &str, run: &Run| {
        if tracer.is_enabled() {
            run.solver.stats().emit(tracer, "sat");
            let u = run.enc.unroller().stats();
            tracer.counter(&format!("unroll.{label}.frames"), u.frames);
            tracer.counter(&format!("unroll.{label}.gates"), u.gates);
            tracer.counter(&format!("unroll.{label}.cache_hits"), u.cache_hits);
        }
    };

    let mut base = if options.incremental {
        Some(Run::new(netlist, InitialState::Reset, options, tracer)?)
    } else {
        None
    };
    let mut induction: Option<Run> = None;
    // `ok` literals of instances already assumed in the induction unrolling.
    let mut induction_assumed: Vec<Lit> = Vec::new();
    // Live-progress beats, once per depth at most (rate-limited): a deep
    // unrolling announces how far it has come while still running.
    let mut heartbeat = Heartbeat::every_ms(ipcl_sat::HEARTBEAT_MS);

    let first = property.latency.first_instance();
    for moe_frame in first..=options.max_depth.max(first) {
        if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
            break;
        }
        stats.depth_reached = moe_frame;
        if heartbeat.due(tracer) {
            tracer.event(
                "heartbeat",
                &[
                    ("engine", Value::from("bmc")),
                    ("depth", Value::U64(moe_frame as u64)),
                    ("max_depth", Value::U64(options.max_depth as u64)),
                    ("solve_calls", Value::U64(stats.solve_calls as u64)),
                ],
            );
        }

        // ---- Base case: a reset-rooted violation at exactly this depth?
        let base_result = if let Some(run) = base.as_mut() {
            {
                let _encode = tracer.span("bmc.encode");
                run.enc.ensure_frames(moe_frame + 1);
            }
            let ok = run
                .enc
                .encode_instance(spec, &moe_vars, property, moe_frame);
            run.sync_solver();
            stats.solve_calls += 1;
            let before = run.solver.stats();
            let result = run.solver.solve_under_assumptions(&[ok.negated()]);
            let depth_delta = run.solver.stats().delta(&before);
            stats.last_depth_conflicts = depth_delta.conflicts;
            stats.last_depth_propagations =
                depth_delta.propagations + depth_delta.binary_propagations;
            stats.base_clauses = run.solver.num_clauses();
            result
        } else {
            // From-scratch mode: fresh unrolling and solver per depth.
            let mut run = Run::new(netlist, InitialState::Reset, options, tracer)?;
            {
                let _encode = tracer.span("bmc.encode");
                run.enc.ensure_frames(moe_frame + 1);
            }
            let ok = run
                .enc
                .encode_instance(spec, &moe_vars, property, moe_frame);
            run.enc.unroller_mut().add_clause([ok.negated()]);
            run.sync_solver();
            stats.solve_calls += 1;
            let result = run.solver.solve();
            stats.base_clauses = run.solver.num_clauses();
            let scratch = run.solver.stats();
            stats.conflicts += scratch.conflicts;
            stats.propagations += scratch.propagations;
            // A fresh solver per depth: its totals are the per-depth delta.
            stats.last_depth_conflicts = scratch.conflicts;
            stats.last_depth_propagations = scratch.propagations + scratch.binary_propagations;
            if result.is_sat() {
                base = Some(run); // keep for trace decoding below
            } else {
                emit_run("base", &run);
            }
            result
        };
        tracer.event(
            "bmc_depth",
            &[
                ("depth", Value::U64(moe_frame as u64)),
                ("sat", Value::Bool(base_result.is_sat())),
                ("conflicts", Value::U64(stats.last_depth_conflicts)),
                ("propagations", Value::U64(stats.last_depth_propagations)),
            ],
        );

        if let SatResult::Sat(model) = base_result {
            let run = base.as_ref().expect("sat base run is retained");
            let frames = run.enc.decode_trace(spec, &model, moe_frame + 1);
            let counterexample = Counterexample {
                property: property.name.clone(),
                frames,
                violation_frame: moe_frame,
            };
            // Scratch mode already recorded this solver's stats above.
            if options.incremental {
                if let Some(run) = base {
                    stats.conflicts += run.solver.stats().conflicts;
                    stats.propagations += run.solver.stats().propagations;
                    emit_run("base", &run);
                }
            } else if let Some(run) = base {
                emit_run("base", &run);
            }
            return Ok(BmcResult {
                property: property.clone(),
                outcome: BmcOutcome::Falsified(counterexample),
                stats,
            });
        }

        // ---- Inductive step: k = number of assumed prior instances.
        if options.induction {
            let run = match induction.as_mut() {
                Some(run) => run,
                None => {
                    induction = Some(Run::new(netlist, InitialState::Free, options, tracer)?);
                    induction.as_mut().expect("just created")
                }
            };
            let k = induction_assumed.len();
            let step_frame = first + k;
            {
                let _encode = tracer.span("bmc.encode");
                run.enc.ensure_frames(step_frame + 1);
            }
            // Loop-free path: the new state must differ from all earlier
            // states (no-op for stateless netlists).
            for earlier in 0..step_frame {
                if let Some(diff) = run.enc.unroller_mut().state_difference(earlier, step_frame) {
                    run.enc.unroller_mut().add_clause([diff]);
                }
            }
            let ok = run
                .enc
                .encode_instance(spec, &moe_vars, property, step_frame);
            run.sync_solver();
            stats.solve_calls += 1;
            let result = run.solver.solve_under_assumptions(&[ok.negated()]);
            stats.induction_clauses = run.solver.num_clauses();
            if result == SatResult::Unsat {
                stats.conflicts += run.solver.stats().conflicts;
                stats.propagations += run.solver.stats().propagations;
                emit_run("induction", run);
                if let Some(run) = base {
                    stats.conflicts += run.solver.stats().conflicts;
                    stats.propagations += run.solver.stats().propagations;
                    emit_run("base", &run);
                }
                return Ok(BmcResult {
                    property: property.clone(),
                    outcome: BmcOutcome::Proved { induction_depth: k },
                    stats,
                });
            }
            // The step failed: assume this instance and deepen.
            run.enc.unroller_mut().add_clause([ok]);
            induction_assumed.push(ok);
        }
    }

    if let Some(run) = base {
        stats.conflicts += run.solver.stats().conflicts;
        stats.propagations += run.solver.stats().propagations;
        emit_run("base", &run);
    }
    if let Some(run) = induction {
        stats.conflicts += run.solver.stats().conflicts;
        stats.propagations += run.solver.stats().propagations;
        emit_run("induction", &run);
    }
    Ok(BmcResult {
        property: property.clone(),
        outcome: BmcOutcome::Unknown {
            depth_checked: stats.depth_reached,
        },
        stats,
    })
}

/// Report of a per-stage stall-escape (deadlock/livelock) check.
#[derive(Clone, Debug)]
pub struct StallEscapeReport {
    /// The stage prefix.
    pub stage: String,
    /// `true` when **every** state (reachable or not) in which the stage is
    /// stalled reaches a non-stalled state within `escape_cycles` quiet
    /// cycles — i.e. a stall can always be released by the environment going
    /// idle, so no deadlock or livelock is possible.
    pub escapable: bool,
    /// When not escapable: a register-state valuation from which the stage
    /// stays stalled throughout the window (a *potential* deadlock — it may
    /// or may not be reachable from reset).
    pub stuck_state: Option<BTreeMap<String, bool>>,
}

/// Proves (or refutes) that every stall of every stage is escapable under a
/// quiet environment.
///
/// The check unrolls `escape_cycles + 1` frames from a **free** initial
/// state, forces all inputs low and asks the solver for a path on which the
/// stage's `moe` stays low throughout. UNSAT means even the worst
/// adversarial state un-stalls once the environment goes idle — which in
/// particular proves there is *some* environment input escaping every stall
/// state, the paper's no-deadlock obligation.
///
/// # Errors
///
/// As [`check_property`].
pub fn check_stall_escape(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    escape_cycles: usize,
) -> Result<Vec<StallEscapeReport>, BmcError> {
    let missing = missing_moe_signals(spec, netlist);
    if !missing.is_empty() {
        return Err(BmcError::MissingSignals(missing));
    }
    let escape_cycles = escape_cycles.max(1);

    // One shared unrolling and solver for every stage: the circuit and the
    // quiet-environment constraints are identical across stages, so only the
    // per-stage "stalled throughout" literals vary — exactly the use case of
    // solving under assumptions (learned clauses carry over between stages).
    let mut run = Run::new(
        netlist,
        InitialState::Free,
        &BmcOptions::default(),
        &Tracer::disabled(),
    )?;
    run.enc.ensure_frames(escape_cycles + 1);
    for frame in 0..=escape_cycles {
        for input in run.enc.unroller().netlist().inputs() {
            let lit = run.enc.unroller().lit(frame, input);
            run.enc.unroller_mut().add_clause([lit.negated()]);
        }
    }
    run.sync_solver();

    let mut reports = Vec::new();
    for stage in spec.stages() {
        let name = spec.pool().name_or_fallback(stage.moe);
        let signal = run
            .enc
            .unroller()
            .netlist()
            .find(&name)
            .expect("missing signals checked above");
        // Stalled (¬moe) at every frame of the window.
        let stalled: Vec<Lit> = (0..=escape_cycles)
            .map(|frame| run.enc.unroller().lit(frame, signal).negated())
            .collect();
        let report = match run.solver.solve_under_assumptions(&stalled) {
            SatResult::Unsat => StallEscapeReport {
                stage: stage.stage.prefix(),
                escapable: true,
                stuck_state: None,
            },
            SatResult::Sat(model) => {
                let lit_value = |lit: Lit| model[lit.var() as usize] == lit.is_positive();
                let unroller = run.enc.unroller();
                let stuck = unroller
                    .netlist()
                    .registers()
                    .into_iter()
                    .map(|r| {
                        (
                            unroller.netlist().signal(r).name.clone(),
                            lit_value(unroller.lit(0, r)),
                        )
                    })
                    .collect();
                StallEscapeReport {
                    stage: stage.stage.prefix(),
                    escapable: false,
                    stuck_state: Some(stuck),
                }
            }
        };
        reports.push(report);
    }
    Ok(reports)
}
