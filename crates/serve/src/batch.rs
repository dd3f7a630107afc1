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
//!   solver: the checker's 64-lane sweep ([`ipcl_checker::prepass::sweep`])
//!   drives 64 random scenarios per step through the group
//!   representative's netlist and evaluates every surviving property
//!   word-wide — each violating lane's trace is replayed against *its own
//!   job's* netlist before being served, so the sweep can save SAT queries
//!   but never corrupt a verdict;
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

use std::collections::BTreeSet;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use ipcl_bmc::{Counterexample, FrameEncoder, SequentialProperty, SolverSync};
use ipcl_checker::prepass::sweep;
use ipcl_core::FunctionalSpec;
use ipcl_rtl::{structural_digest, InitialState};
use ipcl_sat::{SatResult, Solver, SolverConfig};
use ipcl_trace::{MetricSink, Tracer, Value};

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
    let mut pending: Vec<(usize, SequentialProperty)> = Vec::new();
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
        pending.push((index, property));
    }
    let mut settled = vec![false; pending.len()];

    // Pass 2: the checker's 64-lane sweep over the representative. Each
    // member's selector is resolved against the representative's own spec,
    // so the sweep's replay assertion only judges the compiled design's own
    // properties; a trace is served only if it also replays against the
    // member's own job.
    if depth > 0 && !pending.is_empty() {
        let mut properties: Vec<SequentialProperty> = Vec::new();
        let mut swept: Vec<Option<String>> = Vec::with_capacity(pending.len());
        for (index, _) in &pending {
            let at_representative = jobs[*index]
                .property
                .resolve(&representative.spec, &representative.netlist)
                .ok();
            if let Some(property) = &at_representative {
                if !properties.iter().any(|p| p.name == property.name) {
                    properties.push(property.clone());
                }
            }
            swept.push(at_representative.map(|property| property.name));
        }
        if let Ok(found) = sweep(
            &representative.spec,
            &representative.netlist,
            &properties,
            depth as u64,
            BATCH_FUZZ_SEED,
        ) {
            let mut fuzz_settled = 0u64;
            for (slot, (index, property)) in pending.iter().enumerate() {
                let Some(trace) = swept[slot]
                    .as_ref()
                    .and_then(|name| found.counterexamples.iter().find(|c| c.property == *name))
                else {
                    continue;
                };
                let counterexample = Counterexample {
                    property: property.name.clone(),
                    ..trace.clone()
                };
                if let Some(outcome) =
                    serve_trace(&jobs[*index], property, counterexample, cache, tracer)
                {
                    resolved.push((*index, outcome));
                    settled[slot] = true;
                    fuzz_settled += 1;
                }
            }
            tracer.event(
                "serve.batch_fuzzed",
                &[
                    ("scenarios", Value::U64(found.scenarios)),
                    ("settled", Value::U64(fuzz_settled)),
                ],
            );
        }
    }

    // Pass 3: the shared bounded falsification sweep over one encoder and
    // one incremental solver. Encoded against the representative's spec and
    // netlist — members share the structural digest, and each trace is
    // replay-verified against its own job before being served, so a
    // colliding-but-different member can cost a wasted query, never a wrong
    // verdict.
    if depth > 0 && !pending.is_empty() {
        if let Ok(mut enc) = FrameEncoder::new(&representative.netlist, InitialState::Reset, 0) {
            let moe_vars: BTreeSet<_> = representative.spec.moe_vars().into_iter().collect();
            let mut solver = Solver::with_config(0, SolverConfig::default());
            let mut sync = SolverSync::default();
            for frame in 0..depth {
                enc.ensure_frames(frame + 1);
                for (slot, (index, property)) in pending.iter().enumerate() {
                    if settled[slot] || frame < property.latency.first_instance() {
                        continue;
                    }
                    let bad = enc
                        .encode_instance(&representative.spec, &moe_vars, property, frame)
                        .negated();
                    sync.sync(&enc, &mut solver);
                    if let SatResult::Sat(model) = solver.solve_under_assumptions(&[bad]) {
                        let counterexample = Counterexample {
                            property: property.name.clone(),
                            frames: enc.decode_trace(&representative.spec, &model, frame + 1),
                            violation_frame: frame,
                        };
                        if let Some(outcome) =
                            serve_trace(&jobs[*index], property, counterexample, cache, tracer)
                        {
                            resolved.push((*index, outcome));
                            settled[slot] = true;
                        }
                    }
                }
            }
        }
    }
    for (slot, (index, _)) in pending.iter().enumerate() {
        if !settled[slot] {
            unresolved.push(*index);
        }
    }
}

/// Deterministic seed of the batch's 64-lane sweep (the stage is a pure
/// accelerator, so reproducible runs matter more than stimulus variety).
const BATCH_FUZZ_SEED: u64 = 0xB175_1B3C;

/// The falsified outcome for `job` carrying `counterexample` — if the trace
/// replays against the job's own netlist, in which case it is also counted
/// as a miss and cached. `None` when it does not reproduce.
fn serve_trace(
    job: &JobRequest,
    property: &SequentialProperty,
    counterexample: Counterexample,
    cache: &ProofCache,
    tracer: &Tracer,
) -> Option<JobOutcome> {
    let reproduced = counterexample
        .replay(&job.spec, &job.netlist, property)
        .map(|replay| replay.violation_reproduced)
        .unwrap_or(false);
    if !reproduced {
        return None;
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
    Some(outcome)
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
    use ipcl_core::FunctionalSpecBuilder;
    use ipcl_pipesim::BrokenVariant;
    use ipcl_rtl::Netlist;
    use ipcl_synth::synthesize_broken_interlock;

    /// One functional job per stage of `netlist`, stage `i` asked with
    /// `specs[i]`.
    fn jobs(specs: &[&FunctionalSpec], netlist: &Netlist) -> Vec<Arc<JobRequest>> {
        specs
            .iter()
            .enumerate()
            .map(|(stage_index, spec)| {
                Arc::new(JobRequest {
                    spec: (*spec).clone(),
                    netlist: netlist.clone(),
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

    fn broken_batch() -> Vec<Arc<JobRequest>> {
        let spec = ExampleArch::new().functional_spec();
        let broken = synthesize_broken_interlock(&spec, BrokenVariant::IgnoreScoreboard);
        jobs(&vec![&spec; spec.stages().len()], broken.netlist())
    }

    /// A registered interlock that never stalls: every `moe` flag is a
    /// register (correct reset value) that keeps loading `1`.
    fn never_stalling_registered(spec: &FunctionalSpec) -> Netlist {
        let pool = spec.pool();
        let mut netlist = Netlist::new("never_stalls");
        for var in spec.env_vars() {
            netlist.input(&pool.name_or_fallback(var));
        }
        let one = netlist.constant("one", true);
        for var in spec.moe_vars() {
            let moe = netlist.register(&pool.name_or_fallback(var), true);
            netlist.connect_register(moe, one).unwrap();
            netlist.mark_output(moe);
        }
        netlist
    }

    /// `spec` rebuilt with its variables interned in another order: the
    /// same names and rules under other `VarId`s.
    fn reinterned(spec: &FunctionalSpec) -> FunctionalSpec {
        let mut builder = FunctionalSpecBuilder::new();
        builder.pool_mut().var("unrelated");
        for stage in spec.stages() {
            builder.declare_stage(stage.stage.clone()).unwrap();
        }
        for stage in spec.stages() {
            for rule in &stage.rules {
                let condition = rule.condition.display(spec.pool()).to_string();
                builder
                    .stall_rule_text(&stage.stage, &rule.label, &condition)
                    .unwrap();
            }
        }
        builder.build().unwrap()
    }

    #[test]
    fn fuzz_stage_settles_falsifiable_jobs_before_the_solver() {
        // The combinational scoreboard break; a registered interlock that
        // never stalls (registered latency); and that interlock with its
        // second half of stages asked by renamed members (same names, other
        // VarIds), grouped with the first.
        let spec = ExampleArch::new().functional_spec();
        let renamed = reinterned(&spec);
        assert_ne!(spec.moe_vars(), renamed.moe_vars());
        let stages = spec.stages().len();
        let registered = never_stalling_registered(&spec);
        let mixed: Vec<_> = (0..stages)
            .map(|i| if i < stages / 2 { &spec } else { &renamed })
            .collect();
        for batch in [
            broken_batch(),
            jobs(&vec![&spec; stages], &registered),
            jobs(&mixed, &registered),
        ] {
            let tracer = Tracer::new(ipcl_trace::TraceConfig::enabled());
            let resolution = presolve_batch(&batch, 6, &ProofCache::new(None), &tracer);
            let snapshot = tracer.snapshot().expect("tracing enabled");
            let field = |kind: &str, name: &str| {
                snapshot
                    .events
                    .iter()
                    .find(|e| e.kind == kind)
                    .and_then(|e| e.fields.iter().find(|(k, _)| k == name))
                    .map(|(_, v)| v.clone())
            };
            assert_eq!(
                field("serve.batch_presolved", "groups"),
                Some(Value::U64(1))
            );
            let settled = field("serve.batch_fuzzed", "settled");
            assert!(
                matches!(settled, Some(Value::U64(n)) if n > 0),
                "the 64-lane sweep must catch the break: {settled:?}"
            );
            // Nothing panicked, every job is accounted for, the renamed
            // members were settled too, and every served trace replays
            // against its own job.
            assert_eq!(
                resolution.resolved.len() + resolution.unresolved.len(),
                batch.len()
            );
            let has_renamed = |i: &usize| batch[*i].spec == renamed;
            assert_eq!(
                resolution.resolved.iter().any(|(i, _)| has_renamed(i)),
                (0..batch.len()).any(|i| has_renamed(&i))
            );
            for (index, outcome) in &resolution.resolved {
                assert_eq!(outcome.verdict, Verdict::Falsified);
                let own = &batch[*index];
                let property = own.resolve_property().unwrap();
                let replay = outcome
                    .counterexample
                    .as_ref()
                    .expect("falsified outcomes carry a trace")
                    .replay(&own.spec, &own.netlist, &property)
                    .unwrap();
                assert!(replay.violation_reproduced, "{}", property.name);
            }
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
