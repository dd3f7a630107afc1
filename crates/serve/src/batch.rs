//! Batch submission: amortising one encoding across properties that share
//! a design.
//!
//! A `submit_batch` request carries many jobs. Jobs over the same problem
//! structure — grouped by the structural digest of the netlist pinned on
//! the *union* of the group's property variables, so grouping follows the
//! shared cone of influence rather than textual identity — are attacked
//! together with a single reset-rooted [`FrameEncoder`] and one incremental
//! SAT solver: every property contributes one assumption literal per frame,
//! and the transition-relation clauses (the bulk of the CNF) are encoded
//! once instead of once per job. This bounded sweep settles the cheap
//! outcomes:
//!
//! * **cache hits** are served exactly as on the single-job path
//!   (revalidated, never trusted);
//! * **shallowly falsifiable properties** are caught even before the
//!   solver: a compiled 64-lane fuzz sweep (`ipcl-bitsim`) drives 64
//!   random scenarios per step through the shared netlist and evaluates
//!   every surviving property word-wide — each violating lane is extracted
//!   into a trace and replayed against *its own job's* netlist before
//!   being served, so the fuzz stage can save SAT queries but never
//!   corrupt a verdict;
//! * **falsifiable properties** the fuzz missed get their counterexample
//!   from the shared unrolling — decoded, replay-checked and cached like
//!   any engine result;
//! * everything else (the properties that need a real proof) is handed to
//!   the worker pool as ordinary queued jobs.
//!
//! The sweep runs on the submitting connection's thread, bounded by the
//! server's `batch_depth`, so a batch of mostly-buggy or mostly-cached
//! properties answers without ever occupying a worker.
//!
//! Grouping costs one digest per *design*, not per job: the jobs of a
//! batch are compared by value, the union interface is derived once per
//! distinct spec and [`structural_digest`] runs once per distinct
//! (netlist, interface) payload. A whole-design batch of N properties
//! therefore pays for one cone refinement, not N.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use ipcl_bitsim::{eval_expr_word, BitSimulator, LANES};
use ipcl_bmc::{Counterexample, FrameEncoder, SequentialProperty, SolverSync};
use ipcl_core::FunctionalSpec;
use ipcl_expr::VarId;
use ipcl_rtl::{structural_digest, InitialState, SignalId, SignalKind};
use ipcl_sat::{SatResult, Solver, SolverConfig};
use ipcl_trace::{MetricSink, Tracer, Value};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::cache::{cache_key, revalidate, ProofCache};
use crate::pool::process_job;
use crate::protocol::{JobOutcome, JobRequest, Verdict};

/// The split a batch pre-solve produces: per input index, either a finished
/// outcome or a leftover for the queue.
pub struct BatchResolution {
    /// `(input index, outcome)` for jobs settled by cache or the shared
    /// sweep.
    pub resolved: Vec<(usize, JobOutcome)>,
    /// Input indices that still need a full engine run.
    pub unresolved: Vec<usize>,
}

/// Pre-solves `jobs` as described in the module docs. `depth` bounds the
/// shared falsification sweep (frames beyond each property's first
/// instance); `0` only serves cache hits.
pub fn presolve_batch(
    jobs: &[Arc<JobRequest>],
    depth: usize,
    cache: &ProofCache,
    tracer: &Tracer,
) -> BatchResolution {
    let mut resolved = Vec::new();
    let mut unresolved = Vec::new();

    // Group indices by shared cone: same netlist structure under the
    // union-interface digest. Properties of one group can share an
    // unrolling; the group representative's spec provides the encoding
    // vocabulary (identical digests from differently-built payloads are
    // caught by the per-job property resolution below). The jobs of one
    // design usually carry equal copies of its spec and netlist, so the
    // union interface is derived once per distinct spec and the digest
    // once per distinct (netlist, interface) payload.
    let mut interfaces: Vec<(usize, Vec<String>)> = Vec::new();
    let mut payloads: Vec<(usize, usize, String)> = Vec::new();
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (index, job) in jobs.iter().enumerate() {
        let spec_slot = match interfaces
            .iter()
            .position(|(at, _)| jobs[*at].spec == job.spec)
        {
            Some(slot) => slot,
            None => {
                interfaces.push((index, spec_interface(&job.spec)));
                interfaces.len() - 1
            }
        };
        let interface = &interfaces[spec_slot].1;
        let known = payloads.iter().find(|(slot, at, _)| {
            interfaces[*slot].1 == *interface && jobs[*at].netlist == job.netlist
        });
        let digest = match known {
            Some((_, _, digest)) => digest.clone(),
            None => {
                let digest = structural_digest(&job.netlist, interface);
                payloads.push((spec_slot, index, digest.clone()));
                digest
            }
        };
        match groups.iter_mut().find(|(key, _)| *key == digest) {
            Some((_, members)) => members.push(index),
            None => groups.push((digest, vec![index])),
        }
    }

    let (designs, group_count) = (payloads.len(), groups.len());
    for (_, members) in groups {
        presolve_group(
            jobs,
            &members,
            depth,
            cache,
            tracer,
            &mut resolved,
            &mut unresolved,
        );
    }
    tracer.event(
        "serve.batch_presolved",
        &[
            ("jobs", Value::U64(jobs.len() as u64)),
            ("designs", Value::U64(designs as u64)),
            ("groups", Value::U64(group_count as u64)),
            ("resolved", Value::U64(resolved.len() as u64)),
        ],
    );
    resolved.sort_by_key(|(index, _)| *index);
    unresolved.sort_unstable();
    BatchResolution {
        resolved,
        unresolved,
    }
}

/// The names a batch groups by: every `moe` flag of `spec` and every
/// variable its stall rules read — the union of its properties' interfaces.
fn spec_interface(spec: &FunctionalSpec) -> Vec<String> {
    let mut vars = BTreeSet::new();
    for stage in spec.stages() {
        vars.insert(stage.moe);
        for rule in &stage.rules {
            rule.condition.collect_vars(&mut vars);
        }
    }
    vars.into_iter()
        .map(|v| spec.pool().name_or_fallback(v))
        .collect()
}

fn presolve_group(
    jobs: &[Arc<JobRequest>],
    members: &[usize],
    depth: usize,
    cache: &ProofCache,
    tracer: &Tracer,
    resolved: &mut Vec<(usize, JobOutcome)>,
    unresolved: &mut Vec<usize>,
) {
    let representative = &jobs[members[0]];

    // Pass 1: cache hits (and malformed property selectors, settled as
    // errors immediately).
    let mut sweep: Vec<(usize, SequentialProperty)> = Vec::new();
    for &index in members {
        let job = &jobs[index];
        let property = match job.resolve_property() {
            Ok(property) => property,
            Err(message) => {
                resolved.push((index, JobOutcome::error("", message)));
                continue;
            }
        };
        let key = cache_key(&job.spec, &job.netlist, &property);
        if let Some(stored) = cache.load(&key) {
            if stored.property == property.name
                && revalidate(&stored, &job.spec, &job.netlist, &property)
            {
                cache.record_hit();
                tracer.counter("serve.cache.hits", 1);
                let mut served = stored;
                served.cached = true;
                resolved.push((index, served));
                continue;
            }
            cache.record_revalidation_failure();
        }
        sweep.push((index, property));
    }

    // Pass 2: the compiled 64-lane fuzz sweep — 64 random scenarios per
    // step, word-wide property evaluation, lane traces replay-verified
    // against each member's own job. Whatever it settles never reaches the
    // solver.
    let mut settled = vec![false; sweep.len()];
    if depth > 0 && !sweep.is_empty() {
        fuzz_group(
            jobs,
            representative,
            &sweep,
            &mut settled,
            depth,
            cache,
            tracer,
            resolved,
        );
    }

    // Pass 3: the shared bounded falsification sweep over one encoder and
    // one incremental solver. Encoded against the representative's spec and
    // netlist — members share the structural digest, and each trace is
    // replay-verified against its own job before being served, so a
    // colliding-but-different member can cost a wasted query, never a wrong
    // verdict.
    if depth > 0 && !sweep.is_empty() {
        if let Ok(mut enc) = FrameEncoder::new(&representative.netlist, InitialState::Reset, 0) {
            let moe_vars: BTreeSet<_> = representative.spec.moe_vars().into_iter().collect();
            let mut solver = Solver::with_config(0, SolverConfig::default());
            let mut sync = SolverSync::default();
            for frame in 0..depth {
                enc.ensure_frames(frame + 1);
                for (slot, (index, property)) in sweep.iter().enumerate() {
                    if settled[slot] || frame < property.latency.first_instance() {
                        continue;
                    }
                    let bad = enc
                        .encode_instance(&representative.spec, &moe_vars, property, frame)
                        .negated();
                    sync.sync(&enc, &mut solver);
                    if let SatResult::Sat(model) = solver.solve_under_assumptions(&[bad]) {
                        let frames = enc.decode_trace(&representative.spec, &model, frame + 1);
                        let counterexample = Counterexample {
                            property: property.name.clone(),
                            frames,
                            violation_frame: frame,
                        };
                        let job = &jobs[*index];
                        let reproduced = counterexample
                            .replay(&job.spec, &job.netlist, property)
                            .map(|replay| replay.violation_reproduced)
                            .unwrap_or(false);
                        if reproduced {
                            let outcome = JobOutcome {
                                property: property.name.clone(),
                                verdict: Verdict::Falsified,
                                detail: format!("trace_frames={}", counterexample.length()),
                                cached: false,
                                certificate: None,
                                counterexample: Some(counterexample),
                            };
                            cache.record_miss();
                            tracer.counter("serve.cache.misses", 1);
                            cache.store(&cache_key(&job.spec, &job.netlist, property), &outcome);
                            resolved.push((*index, outcome));
                            settled[slot] = true;
                        }
                    }
                }
            }
        }
    }
    for (slot, (index, _)) in sweep.iter().enumerate() {
        if !settled[slot] {
            unresolved.push(*index);
        }
    }
}

/// Deterministic seed of the batch fuzz sweep (the stage is a pure
/// accelerator, so reproducible runs matter more than stimulus variety).
const BATCH_FUZZ_SEED: u64 = 0xB175_1B3C;

/// The bit-parallel shallow-falsification stage of a group pre-solve:
/// drives `depth` steps of 64 independent random environment scenarios
/// through a compiled simulator of the group representative's netlist and
/// evaluates every unsettled property word-wide each frame (environment
/// sampled at the property's latency offset, `moe` signals live — exactly
/// the [`Counterexample::replay`] discipline). A violating lane's input
/// history becomes a candidate trace; it is served only if it replays
/// against the member's own job, and marked settled in `settled`.
#[allow(clippy::too_many_arguments)]
fn fuzz_group(
    jobs: &[Arc<JobRequest>],
    representative: &Arc<JobRequest>,
    sweep: &[(usize, SequentialProperty)],
    settled: &mut [bool],
    depth: usize,
    cache: &ProofCache,
    tracer: &Tracer,
    resolved: &mut Vec<(usize, JobOutcome)>,
) {
    let Ok(mut sim) = BitSimulator::new(&representative.netlist) else {
        return;
    };
    let mut rng = StdRng::seed_from_u64(BATCH_FUZZ_SEED);
    let pool = representative.spec.pool();
    let moe_vars: BTreeSet<VarId> = representative.spec.moe_vars().into_iter().collect();
    // Pre-resolve the environment inputs the netlist implements and the
    // signals behind the moe variables (any kind: replay reads them with
    // `value_by_name`, whatever drives them).
    let driven: Vec<(VarId, Option<SignalId>)> = representative
        .spec
        .env_vars()
        .into_iter()
        .map(|var| {
            let signal = representative
                .netlist
                .find(&pool.name_or_fallback(var))
                .filter(|&s| matches!(representative.netlist.signal(s).kind, SignalKind::Input));
            (var, signal)
        })
        .collect();
    let moe_signals: BTreeMap<VarId, SignalId> = moe_vars
        .iter()
        .filter_map(|&var| {
            representative
                .netlist
                .find(&pool.name_or_fallback(var))
                .map(|signal| (var, signal))
        })
        .collect();

    let mut history: Vec<BTreeMap<VarId, u64>> = Vec::with_capacity(depth);
    let mut fuzz_settled = 0u64;
    for frame in 0..depth {
        let mut env = BTreeMap::new();
        for &(var, signal) in &driven {
            let word = rng.next_u64();
            env.insert(var, word);
            if let Some(signal) = signal {
                sim.set_input_word(signal, word);
            }
        }
        history.push(env);
        // One settle serves every moe read of this frame.
        let moe_words: BTreeMap<VarId, u64> = moe_signals
            .iter()
            .map(|(&var, &signal)| (var, sim.value_word(signal)))
            .collect();

        for (slot, (index, property)) in sweep.iter().enumerate() {
            if settled[slot] || frame < property.latency.first_instance() {
                continue;
            }
            let env_frame = frame.saturating_sub(property.latency.offset());
            let lookup = |v: VarId| {
                if moe_vars.contains(&v) {
                    moe_words.get(&v).copied().unwrap_or(0)
                } else {
                    history[env_frame].get(&v).copied().unwrap_or(0)
                }
            };
            let bad = !eval_expr_word(&property.ok, lookup);
            if bad == 0 {
                continue;
            }
            let lane = bad.trailing_zeros() as usize;
            let frames: Vec<_> = history[..=frame]
                .iter()
                .map(|env| {
                    env.iter()
                        .map(|(&var, &word)| (pool.name_or_fallback(var), (word >> lane) & 1 == 1))
                        .collect()
                })
                .collect();
            let counterexample = Counterexample {
                property: property.name.clone(),
                frames,
                violation_frame: frame,
            };
            let job = &jobs[*index];
            let reproduced = counterexample
                .replay(&job.spec, &job.netlist, property)
                .map(|replay| replay.violation_reproduced)
                .unwrap_or(false);
            if !reproduced {
                continue;
            }
            let outcome = JobOutcome {
                property: property.name.clone(),
                verdict: Verdict::Falsified,
                detail: format!("trace_frames={}", counterexample.length()),
                cached: false,
                certificate: None,
                counterexample: Some(counterexample),
            };
            cache.record_miss();
            tracer.counter("serve.cache.misses", 1);
            cache.store(&cache_key(&job.spec, &job.netlist, property), &outcome);
            resolved.push((*index, outcome));
            settled[slot] = true;
            fuzz_settled += 1;
        }
        sim.step();
    }
    if fuzz_settled > 0 || tracer.is_enabled() {
        tracer.event(
            "serve.batch_fuzzed",
            &[
                ("scenarios", Value::U64((depth * LANES) as u64)),
                ("settled", Value::U64(fuzz_settled)),
            ],
        );
    }
}

/// Convenience used by tests and the smoke check: pre-solve, then run the
/// leftovers inline (no queue involved). Returns outcomes in input order.
pub fn solve_batch_inline(
    jobs: &[Arc<JobRequest>],
    depth: usize,
    cache: &ProofCache,
    tracer: &Tracer,
) -> Vec<JobOutcome> {
    let resolution = presolve_batch(jobs, depth, cache, tracer);
    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
    for (index, outcome) in resolution.resolved {
        outcomes[index] = Some(outcome);
    }
    let cancel = AtomicBool::new(false);
    for index in resolution.unresolved {
        outcomes[index] = Some(process_job(&jobs[index], &cancel, cache, tracer));
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("all settled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PropertyRequest;
    use ipcl_bmc::PropertyKind;
    use ipcl_checker::ProofStrategy;
    use ipcl_core::example::ExampleArch;
    use ipcl_pipesim::BrokenVariant;
    use ipcl_synth::synthesize_broken_interlock;

    fn broken_batch() -> Vec<Arc<JobRequest>> {
        let spec = ExampleArch::new().functional_spec();
        let broken = synthesize_broken_interlock(&spec, BrokenVariant::IgnoreScoreboard);
        (0..spec.stages().len())
            .map(|stage_index| {
                Arc::new(JobRequest {
                    spec: spec.clone(),
                    netlist: broken.netlist().clone(),
                    property: PropertyRequest {
                        stage_index,
                        kind: PropertyKind::Functional,
                        latency: None,
                    },
                    strategy: ProofStrategy::Pdr,
                    threads: 1,
                })
            })
            .collect()
    }

    #[test]
    fn shared_sweep_settles_falsifiable_properties() {
        let jobs = broken_batch();
        let cache = ProofCache::new(None);
        let tracer = Tracer::disabled();
        let resolution = presolve_batch(&jobs, 6, &cache, &tracer);
        assert!(
            !resolution.resolved.is_empty(),
            "the scoreboard break must falsify some stage within the sweep"
        );
        for (_, outcome) in &resolution.resolved {
            assert_eq!(outcome.verdict, Verdict::Falsified);
            assert!(outcome.counterexample.is_some());
        }
        assert_eq!(
            resolution.resolved.len() + resolution.unresolved.len(),
            jobs.len()
        );
    }

    #[test]
    fn fuzz_stage_settles_falsifiable_jobs_before_the_solver() {
        let jobs = broken_batch();
        let cache = ProofCache::new(None);
        let tracer = Tracer::new(ipcl_trace::TraceConfig::enabled());
        let resolution = presolve_batch(&jobs, 6, &cache, &tracer);
        assert!(!resolution.resolved.is_empty());
        let snapshot = tracer.snapshot().expect("tracing enabled");
        let fuzzed = snapshot
            .events
            .iter()
            .find(|e| e.kind == "serve.batch_fuzzed")
            .expect("fuzz stage ran");
        let settled = fuzzed
            .fields
            .iter()
            .find(|(k, _)| k == "settled")
            .map(|(_, v)| v.clone());
        assert!(
            matches!(settled, Some(Value::U64(n)) if n > 0),
            "the 64-lane fuzz must catch the scoreboard break: {settled:?}"
        );
        // Fuzz-served traces pass the same replay bar as solver traces.
        for (_, outcome) in &resolution.resolved {
            assert_eq!(outcome.verdict, Verdict::Falsified);
            assert!(outcome.counterexample.is_some());
        }
    }

    #[test]
    fn batch_sweep_agrees_with_the_single_job_path() {
        let jobs = broken_batch();
        let tracer = Tracer::disabled();
        // Batch verdicts…
        let batch_cache = ProofCache::new(None);
        let batch = solve_batch_inline(&jobs, 6, &batch_cache, &tracer);
        // …must match direct per-job engine runs (fresh cache: all cold).
        let direct_cache = ProofCache::new(None);
        let cancel = AtomicBool::new(false);
        for (job, batch_outcome) in jobs.iter().zip(&batch) {
            let direct = process_job(job, &cancel, &direct_cache, &tracer);
            assert_eq!(batch_outcome.verdict, direct.verdict, "{}", direct.property);
        }
    }

    #[test]
    fn second_batch_is_all_hits() {
        let jobs = broken_batch();
        let cache = ProofCache::new(None);
        let tracer = Tracer::disabled();
        let first = solve_batch_inline(&jobs, 6, &cache, &tracer);
        let second = solve_batch_inline(&jobs, 6, &cache, &tracer);
        for (cold, warm) in first.iter().zip(&second) {
            assert_eq!(cold.verdict, warm.verdict);
            assert!(warm.cached, "{}: second round must hit", warm.property);
        }
    }
}
