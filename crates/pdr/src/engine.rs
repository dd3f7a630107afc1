//! The IC3 / property-directed reachability vocabulary and frame encoding.
//!
//! Where k-induction strengthens a property by brute unrolling depth, PDR
//! strengthens it clause by clause (Bradley's IC3, in the incremental-SAT
//! formulation of Eén/Mishchenko/Brayton): a *trailing sequence* of frames
//! `F_1 ⊇ F_2 ⊇ … ⊇ F_K` over-approximates the states reachable in at most
//! 1, 2, …, K steps. Whenever a state in `F_K` can violate the property, it
//! becomes a *proof obligation*: either an initial state can reach it — a
//! concrete counterexample trace — or a *relative induction* query blocks a
//! generalisation of it, adding one clause to a frame. When a propagation
//! pass makes two adjacent frames equal, that frame is an inductive
//! invariant: the property is proved **for every cycle, with no unrolling
//! bound**, and the invariant is returned as an explicit
//! [`Certificate`] that [`Certificate::validate`] re-checks independently.
//!
//! ## Encoding
//!
//! One two-frame [`FrameEncoder`] unrolling (free initial state) provides
//! the transition relation: frame-0 registers are the pre-state `s`,
//! frame-1 registers its successor `s'`. All PDR-specific constraints are
//! added under *activation literals* so a single incremental
//! [`ipcl_sat::Solver`] answers every query by assumptions:
//!
//! * the reset state, under `act_init` (assumed when the left-hand side of
//!   a query is `F_0 = Init`);
//! * each frame clause under its frame's `act[k]` — frames are
//!   delta-encoded (a clause is stored at the highest frame it holds at),
//!   so the query "under `F_k`" assumes `act[k..=K]`;
//! * the negated property under the assumption `¬ok`, sampled over the
//!   window `[0, latency.offset()]` (so a registered-latency "bad state"
//!   is a state from which the next `moe` sample answers wrongly for the
//!   current environment).
//!
//! Unlike the BMC base case, PDR has no quiet-cycle discipline: it decides
//! the property *unconditionally* — over every input sequence from reset —
//! which is also what the k-induction step case assumes, so the two engines
//! agree on every design the portfolio races them on.
//!
//! This module holds the options, statistics and verdict types and the
//! `FrameCtx` that answers every frame query. The search loop itself — obligation
//! queue, clause propagation, fixpoint detection — is the round scheduler
//! of [`crate::parallel`], which [`crate::check_property_pdr`] runs with
//! one worker.

use std::collections::{BTreeMap, BTreeSet};

use ipcl_bmc::encode::{FrameEncoder, SolverSync};
use ipcl_bmc::{BmcError, Counterexample, SequentialProperty};
use ipcl_core::FunctionalSpec;
use ipcl_expr::{Lit, VarId};
use ipcl_rtl::{InitialState, Netlist, SignalId, SignalKind};
use ipcl_sat::{SatResult, Solver, SolverConfig};
use ipcl_trace::{MetricSink, Tracer};

use crate::certificate::{Certificate, CertificateCheck, StateLiteral};

/// Knobs of one PDR run.
#[derive(Clone, Copy, Debug)]
pub struct PdrOptions {
    /// Maximum number of frames before giving up with
    /// [`PdrOutcome::Unknown`]. The state spaces of interlock controllers
    /// are small, so running out of frames indicates a diverging
    /// abstraction rather than a hard problem.
    pub max_frames: usize,
    /// Generalise blocked cubes by SAT-checked literal dropping (the
    /// default). `false` blocks the full state cube — kept for the
    /// ablation benchmark.
    pub generalize: bool,
    /// Re-validate the certificate of every proof with independent SAT
    /// checks (the default; see [`Certificate::validate`]).
    pub validate_certificate: bool,
    /// Heuristic configuration of the CDCL solver (heap decisions, clause
    /// minimization, database reduction, restarts, phase saving — see
    /// [`ipcl_sat::SolverConfig`]). PDR leans hardest on the incremental
    /// hot paths: every consecution/generalisation query is one
    /// `solve_under_assumptions` call against the same solver.
    pub solver: SolverConfig,
}

impl Default for PdrOptions {
    fn default() -> Self {
        PdrOptions {
            max_frames: 64,
            generalize: true,
            validate_certificate: true,
            solver: SolverConfig::default(),
        }
    }
}

/// Search statistics of one PDR run.
#[derive(Clone, Debug, Default)]
pub struct PdrStats {
    /// Frames opened (the final `K`).
    pub frames: usize,
    /// Frame clauses learned (before propagation dedup).
    pub clauses: usize,
    /// Proof obligations processed.
    pub obligations: u64,
    /// SAT queries issued.
    pub solve_calls: u64,
    /// Literals dropped by cube generalisation.
    pub generalization_drops: u64,
    /// Conflicts in the underlying CDCL solver.
    pub conflicts: u64,
    /// Propagations in the underlying CDCL solver.
    pub propagations: u64,
    /// Maximum length the proof-obligation queue ever reached — the
    /// shard-sizing input for a work-stealing parallel PDR (ROADMAP
    /// item 1): it bounds how much concurrency the obligation stream
    /// could even feed.
    pub max_queue_depth: usize,
    /// Obligations processed per frame: `obligations_per_frame[k]` counts
    /// pops whose consecution query ran against `F_{k-1}`. Skewed
    /// distributions indicate one frame dominating the search.
    pub obligations_per_frame: Vec<u64>,
    /// Solver-learned clauses imported from sibling workers (0 unless
    /// clause sharing is live: two or more workers).
    pub imported_clauses: u64,
    /// Solver-learned clauses exported to sibling workers (0 unless
    /// clause sharing is live).
    pub exported_clauses: u64,
}

impl PdrStats {
    /// Emits the run's counters as `<prefix>.*` and the queue shape as
    /// gauges into `sink` (the [`MetricSink`] unification shared with
    /// `SolverStats` and `BmcStats`).
    pub fn emit(&self, sink: &dyn MetricSink, prefix: &str) {
        sink.counter(&format!("{prefix}.clauses"), self.clauses as u64);
        sink.counter(&format!("{prefix}.obligations"), self.obligations);
        sink.counter(&format!("{prefix}.solve_calls"), self.solve_calls);
        sink.counter(
            &format!("{prefix}.generalization_drops"),
            self.generalization_drops,
        );
        sink.gauge(&format!("{prefix}.frames"), self.frames as f64);
        sink.gauge(
            &format!("{prefix}.max_queue_depth"),
            self.max_queue_depth as f64,
        );
        if self.imported_clauses > 0 || self.exported_clauses > 0 {
            sink.counter(&format!("{prefix}.imported_clauses"), self.imported_clauses);
            sink.counter(&format!("{prefix}.exported_clauses"), self.exported_clauses);
        }
    }
}

/// The verdict of one PDR run.
#[derive(Clone, Debug)]
pub enum PdrOutcome {
    /// The property holds on every cycle; the certificate is the inductive
    /// invariant that proves it.
    Proved {
        /// The invariant (validated iff
        /// [`PdrOptions::validate_certificate`]; see
        /// [`PdrResult::validation`]).
        certificate: Certificate,
        /// The frame at which the trailing sequence closed.
        fixpoint_frame: usize,
    },
    /// The property fails; the trace is simulator-replayable (but, unlike
    /// BMC's, not necessarily of minimal length).
    Falsified(Counterexample),
    /// Frame budget exhausted or run cancelled.
    Unknown {
        /// Frames explored before giving up.
        frames_explored: usize,
    },
}

impl PdrOutcome {
    /// Whether the outcome is a proof.
    pub fn is_proved(&self) -> bool {
        matches!(self, PdrOutcome::Proved { .. })
    }

    /// Whether the outcome is a falsification.
    pub fn is_falsified(&self) -> bool {
        matches!(self, PdrOutcome::Falsified(_))
    }

    /// The counterexample, if falsified.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            PdrOutcome::Falsified(cex) => Some(cex),
            _ => None,
        }
    }

    /// The certificate, if proved.
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            PdrOutcome::Proved { certificate, .. } => Some(certificate),
            _ => None,
        }
    }
}

/// Result of checking one property with PDR.
#[derive(Clone, Debug)]
pub struct PdrResult {
    /// The property that was checked.
    pub property: SequentialProperty,
    /// The verdict.
    pub outcome: PdrOutcome,
    /// The independent certificate validation (`Some` exactly when the
    /// outcome is a proof and validation was requested).
    pub validation: Option<CertificateCheck>,
    /// Search statistics.
    pub stats: PdrStats,
}

/// A cube over the register state: `(register index, value)` pairs sorted
/// by index. Trace cubes are total (one entry per register); blocked cubes
/// shrink under generalisation.
pub(crate) type Cube = Vec<(usize, bool)>;

/// One committed frame lemma: the clause `¬cube` joined frame `k` of the
/// trailing sequence. `promoted_from` is set when the lemma moved up from a
/// lower frame during propagation (delta encoding: the cube leaves the
/// lower frame's bookkeeping). Replaying a lemma log in order reproduces
/// the frame state exactly — the sharing unit of the round scheduler's
/// [`crate::parallel`] commit log.
#[derive(Clone, Debug)]
pub(crate) struct FrameLemma {
    pub(crate) frame: usize,
    pub(crate) cube: Cube,
    pub(crate) promoted_from: Option<usize>,
}

/// The encoder + incremental solver + trailing frame sequence of one PDR
/// search: everything needed to answer frame queries (consecution,
/// generalisation, propagation, certificates). The round scheduler
/// ([`crate::parallel`]) owns one canonical `FrameCtx` and gives every
/// worker its own — construction is fully deterministic, so all
/// workers allocate identical base encodings (and [`FrameCtx::base_bound`]
/// means the same variable range in each), while frame activation literals
/// beyond the base stay worker-local.
pub(crate) struct FrameCtx {
    pub(crate) enc: FrameEncoder,
    pub(crate) solver: Solver,
    sync: SolverSync,
    /// The registers (state variables), in [`Netlist::registers`] order.
    pub(crate) regs: Vec<SignalId>,
    /// Reset value per register.
    reg_init: Vec<bool>,
    /// Frame-0 literal per register (the pre-state `s`).
    reg0: Vec<Lit>,
    /// Frame-1 literal per register (the post-state `s'`).
    reg1: Vec<Lit>,
    /// Assumption literal of the negated property window.
    pub(crate) bad: Lit,
    /// Activation literal of the reset-state constraints (`F_0`).
    act_init: Lit,
    /// `act[k]` activates the clauses stored at frame `k` (`act[0]` is a
    /// placeholder; `F_0` is `act_init`).
    act: Vec<Lit>,
    /// Delta-encoded frame clauses: `frame_cubes[k]` holds the cubes whose
    /// negations are stored at frame `k`.
    pub(crate) frame_cubes: Vec<Vec<Cube>>,
    /// First CNF variable *beyond* the deterministic base encoding
    /// (transition relation, property window, reset constraints). Every
    /// sibling `FrameCtx` on the same problem allocates the identical base,
    /// so a solver-learned clause whose variables all lie below this bound
    /// is implied by the base encoding alone and sound to import into any
    /// sibling. Clauses touching frame activation or throw-away literals
    /// (allocated after the base, in worker-local order) fail the bound.
    pub(crate) base_bound: u32,
    /// SAT queries issued through this context.
    pub(crate) solve_calls: u64,
    /// Frame clauses committed (before propagation dedup).
    pub(crate) clauses: usize,
    /// Literals dropped by cube generalisation.
    pub(crate) generalization_drops: u64,
    /// [`PdrOptions::generalize`]: `false` makes [`FrameCtx::generalize`]
    /// return the cube unchanged.
    generalize: bool,
    tracer: Tracer,
}

impl FrameCtx {
    pub(crate) fn new(
        spec: &FunctionalSpec,
        netlist: &Netlist,
        property: &SequentialProperty,
        options: &PdrOptions,
        tracer: &Tracer,
    ) -> Result<FrameCtx, BmcError> {
        let _encode = tracer.span("pdr.encode");
        let mut enc = FrameEncoder::new(netlist, InitialState::Free, 0)?;
        // Two frames: the transition `s → s'` and (for registered latency)
        // the property window.
        enc.ensure_frames(2);
        let moe_vars: BTreeSet<VarId> = spec.moe_vars().into_iter().collect();
        let offset = property.latency.offset();
        let bad = enc
            .encode_instance(spec, &moe_vars, property, offset)
            .negated();

        let regs = enc.unroller().netlist().registers();
        let reg_init: Vec<bool> = regs
            .iter()
            .map(|&r| match enc.unroller().netlist().signal(r).kind {
                SignalKind::Register { init, .. } => init,
                _ => unreachable!("registers() yields registers"),
            })
            .collect();
        let reg0: Vec<Lit> = regs.iter().map(|&r| enc.unroller().lit(0, r)).collect();
        let reg1: Vec<Lit> = regs.iter().map(|&r| enc.unroller().lit(1, r)).collect();

        // F_0 = Init: each register at its reset value, under `act_init`.
        let act_init = enc.unroller_mut().fresh_lit();
        for (index, &lit) in reg0.iter().enumerate() {
            let lit = if reg_init[index] { lit } else { lit.negated() };
            enc.unroller_mut().add_clause([act_init.negated(), lit]);
        }
        let base_bound = enc.unroller().cnf().num_vars;

        let placeholder = act_init; // never assumed via `act[0]`
        let mut solver =
            Solver::with_config(enc.unroller().cnf().num_vars as usize, options.solver);
        solver.set_tracer(tracer.clone());
        Ok(FrameCtx {
            enc,
            solver,
            sync: SolverSync::default(),
            regs,
            reg_init,
            reg0,
            reg1,
            bad,
            act_init,
            act: vec![placeholder],
            frame_cubes: vec![Vec::new()],
            base_bound,
            solve_calls: 0,
            clauses: 0,
            generalization_drops: 0,
            generalize: options.generalize,
            tracer: tracer.clone(),
        })
    }

    /// Number of the top frame.
    pub(crate) fn top(&self) -> usize {
        self.act.len() - 1
    }

    /// Opens frame `K+1` (initially unconstrained).
    pub(crate) fn push_frame(&mut self) {
        let act = self.enc.unroller_mut().fresh_lit();
        self.act.push(act);
        self.frame_cubes.push(Vec::new());
    }

    pub(crate) fn solve(&mut self, assumptions: &[Lit]) -> SatResult {
        self.sync.sync(&self.enc, &mut self.solver);
        self.solve_calls += 1;
        self.solver.solve_under_assumptions(assumptions)
    }

    /// Assumptions activating the clauses of `F_k`.
    pub(crate) fn frame_assumptions(&self, k: usize) -> Vec<Lit> {
        if k == 0 {
            vec![self.act_init]
        } else {
            self.act[k..].to_vec()
        }
    }

    /// The literal of `cube[i]` at frame 0 (`prime = false`) or 1.
    pub(crate) fn cube_lit(&self, entry: (usize, bool), prime: bool) -> Lit {
        let (index, value) = entry;
        let lit = if prime {
            self.reg1[index]
        } else {
            self.reg0[index]
        };
        if value {
            lit
        } else {
            lit.negated()
        }
    }

    /// The total register cube of a model's frame 0.
    pub(crate) fn state_cube(&self, model: &[bool]) -> Cube {
        self.reg0
            .iter()
            .enumerate()
            .map(|(index, lit)| (index, model[lit.var() as usize] == lit.is_positive()))
            .collect()
    }

    /// Whether the cube contains the reset state. The reset state is a
    /// single total assignment, so this is a syntactic check: the cube
    /// intersects `Init` iff none of its literals disagrees with a reset
    /// value.
    pub(crate) fn intersects_init(&self, cube: &Cube) -> bool {
        cube.iter()
            .all(|&(index, value)| value == self.reg_init[index])
    }

    /// Stores the clause `¬cube` at frame `k` and encodes it under `act[k]`.
    pub(crate) fn add_frame_clause(&mut self, cube: Cube, k: usize) {
        let mut clause = vec![self.act[k].negated()];
        clause.extend(
            cube.iter()
                .map(|&entry| self.cube_lit(entry, false).negated()),
        );
        self.enc.unroller_mut().add_clause(clause);
        self.frame_cubes[k].push(cube);
        self.clauses += 1;
    }

    /// Replays one committed lemma from a sibling's log: promotions drop
    /// the cube from its previous frame first, then the clause is encoded
    /// at the (new) frame exactly as a local commit would be. Replaying a
    /// log in commit order reproduces `frame_cubes` bit-identically.
    pub(crate) fn apply_lemma(&mut self, lemma: &FrameLemma) {
        while self.top() < lemma.frame {
            self.push_frame();
        }
        if let Some(from) = lemma.promoted_from {
            if let Some(pos) = self.frame_cubes[from].iter().position(|c| *c == lemma.cube) {
                self.frame_cubes[from].remove(pos);
            }
        }
        self.add_frame_clause(lemma.cube.clone(), lemma.frame);
    }

    /// The relative-induction query `F_{k-1} ∧ ¬cube ∧ T ∧ cube'`.
    ///
    /// UNSAT means no `F_{k-1}`-state outside the cube reaches the cube in
    /// one step — together with initiation, the cube is unreachable within
    /// `k` steps and `¬cube` may join `F_k`. SAT yields a predecessor
    /// state (a new proof obligation) in the model's frame 0.
    pub(crate) fn consecution(&mut self, cube: &Cube, k: usize) -> SatResult {
        // ¬cube over frame 0 is a disjunction: encode it once under a
        // throw-away activation literal, assume it for this query, then
        // permanently disable it.
        let tmp = self.enc.unroller_mut().fresh_lit();
        let mut clause = vec![tmp.negated()];
        clause.extend(
            cube.iter()
                .map(|&entry| self.cube_lit(entry, false).negated()),
        );
        self.enc.unroller_mut().add_clause(clause);

        let mut assumptions = self.frame_assumptions(k - 1);
        assumptions.push(tmp);
        assumptions.extend(cube.iter().map(|&entry| self.cube_lit(entry, true)));
        let result = self.solve(&assumptions);
        self.enc.unroller_mut().add_clause([tmp.negated()]);
        result
    }

    /// Shrinks a blocked cube by literal dropping: each literal whose
    /// removal keeps both initiation (the cube still excludes the reset
    /// state) and consecution (the relative-induction query stays UNSAT)
    /// is dropped, giving a clause that blocks exponentially many states
    /// instead of one. With [`PdrOptions::generalize`] off the cube is
    /// returned as is.
    ///
    /// The result depends only on SAT/UNSAT verdict *bits*, never on
    /// models, so it is identical no matter which sibling context computes
    /// it from the same committed frame state — the property the parallel
    /// engine's determinism rests on.
    pub(crate) fn generalize(&mut self, cube: Cube, k: usize) -> Cube {
        if !self.generalize {
            return cube;
        }
        let _span = self.tracer.span_fast("pdr.generalize");
        let mut current = cube.clone();
        for &entry in &cube {
            if current.len() == 1 {
                break;
            }
            let candidate: Cube = current.iter().copied().filter(|&e| e != entry).collect();
            if candidate.len() == current.len() {
                continue; // already dropped
            }
            if self.intersects_init(&candidate) {
                continue; // initiation would break
            }
            if self.consecution(&candidate, k) == SatResult::Unsat {
                self.generalization_drops += 1;
                current = candidate;
            }
        }
        current
    }

    /// Whether `cube` is subsumed by a clause already stored at frame ≥ `k`
    /// (i.e. already excluded from `F_k`). Cubes are sorted by register
    /// index, so subsumption is a linear merge.
    pub(crate) fn is_blocked(&self, cube: &Cube, k: usize) -> bool {
        self.frame_cubes[k..]
            .iter()
            .flatten()
            .any(|blocked| subsumes(blocked, cube))
    }

    /// The invariant at a fixpoint frame `k`: every clause stored at frames
    /// above `k` (delta encoding: that conjunction *is* `F_{k+1} = F_k`).
    /// The same cube can be blocked at several frames above the fixpoint,
    /// so the clause list is deduplicated for the certificate.
    pub(crate) fn certificate(&self, property_name: &str, fixpoint: usize) -> Certificate {
        let mut cubes: Vec<&Cube> = self.frame_cubes[fixpoint + 1..].iter().flatten().collect();
        cubes.sort();
        cubes.dedup();
        let clauses = cubes
            .into_iter()
            .map(|cube| {
                cube.iter()
                    .map(|&(index, value)| StateLiteral {
                        register: self
                            .enc
                            .unroller()
                            .netlist()
                            .signal(self.regs[index])
                            .name
                            .clone(),
                        positive: !value,
                    })
                    .collect()
            })
            .collect();
        Certificate {
            property: property_name.to_owned(),
            clauses,
        }
    }

    /// Decodes the property window (frames `0..=offset`) of a bad-state
    /// model.
    pub(crate) fn window(
        &self,
        spec: &FunctionalSpec,
        property: &SequentialProperty,
        model: &[bool],
    ) -> Vec<BTreeMap<String, bool>> {
        (0..=property.latency.offset())
            .map(|frame| self.enc.decode_frame(spec, model, frame))
            .collect()
    }
}

/// Whether every literal of `smaller` occurs in `larger` (both sorted by
/// register index).
fn subsumes(smaller: &Cube, larger: &Cube) -> bool {
    let mut it = larger.iter();
    smaller
        .iter()
        .all(|entry| it.by_ref().any(|candidate| candidate == entry))
}
