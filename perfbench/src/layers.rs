//! The traced run's per-layer figures.
//!
//! Two sources feed them:
//!
//! * the counters and span self-times `ipcl-trace` already records on the
//!   workload's own path ([`SpanTotals`], summed over the traced reports or
//!   diffed from the server's tracer);
//! * the [`probe`]: the benchmark's own code timing calls into each layer's
//!   public function on the workload's designs — one call per design or
//!   per property, so every layer is measured on every workload.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use ipcl_bmc::{check_property_traced, check_stall_escape, BmcOptions, Counterexample, Latency};
use ipcl_checker::prepass::random_falsification_bitsim;
use ipcl_checker::{check_netlist_sequential_with, ProofStrategy, SequentialReport};
use ipcl_pdr::{check_property_pdr, PdrOptions};
use ipcl_rtl::SignalKind;
use ipcl_serve::{
    cache_key, presolve_batch, process_job, revalidate, Client, JobRequest, ProofCache,
    PropertyRequest, Server, ServerConfig,
};
use ipcl_trace::{TraceSnapshot, Tracer};
use ipcl_tracetool::json::Json;

use crate::designs::{deep_chain, Design};
use crate::oracle::Oracle;
use crate::report::{mean, median, ms, Outcome};

/// The counters that must repeat exactly between runs at one seed.
pub const WORK_COUNTERS: [&str; 6] = [
    "pdr.solve_calls",
    "pdr.obligations",
    "pdr.clauses",
    "pdr.generalization_drops",
    "sat.conflicts",
    "sat.propagations",
];

/// Counters and span totals accumulated over traced work.
#[derive(Default)]
pub struct SpanTotals {
    pub counters: BTreeMap<String, u64>,
    /// Span path → (total µs, completed spans).
    pub spans: BTreeMap<Vec<String>, (u64, u64)>,
}

impl SpanTotals {
    pub fn of_reports<'a>(reports: impl Iterator<Item = &'a SequentialReport>) -> SpanTotals {
        let mut totals = SpanTotals::default();
        for snapshot in reports.filter_map(|r| r.trace.as_ref()) {
            totals.add_snapshot(snapshot, 1);
        }
        totals
    }

    /// `after − before` of one tracer's cumulative snapshots.
    pub fn between(before: &TraceSnapshot, after: &TraceSnapshot) -> SpanTotals {
        let mut totals = SpanTotals::default();
        totals.add_snapshot(after, 1);
        totals.add_snapshot(before, -1);
        totals
    }

    fn add_snapshot(&mut self, snapshot: &TraceSnapshot, sign: i64) {
        let spans = snapshot
            .spans
            .iter()
            .map(|s| (s.path.clone(), (s.total_us, s.count)))
            .collect();
        self.add(
            &SpanTotals {
                counters: snapshot.counters.clone(),
                spans,
            },
            sign,
        );
    }

    fn add(&mut self, other: &SpanTotals, sign: i64) {
        let apply = |slot: &mut u64, v: u64| *slot = (*slot as i64 + sign * v as i64) as u64;
        for (name, &value) in &other.counters {
            apply(self.counters.entry(name.clone()).or_default(), value);
        }
        for (path, &(total, count)) in &other.spans {
            let slot = self.spans.entry(path.clone()).or_default();
            apply(&mut slot.0, total);
            apply(&mut slot.1, count);
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of the counters `<prefix>*<suffix>` (e.g. every `unroll.*.gates`).
    pub fn counter_family(&self, prefix: &str, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// The deterministic work counters.
    pub fn work(&self) -> BTreeMap<&'static str, u64> {
        WORK_COUNTERS
            .iter()
            .map(|&n| (n, self.counter(n)))
            .collect()
    }

    fn children_us(&self, path: &[String]) -> u64 {
        self.spans
            .iter()
            .filter(|(p, _)| p.len() == path.len() + 1 && p[..path.len()] == *path)
            .map(|(_, (total, _))| total)
            .sum()
    }

    /// Self time of every span named `name`, wherever it nests, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(path, _)| path.last().is_some_and(|n| n == name))
            .map(|(path, (total, _))| total.saturating_sub(self.children_us(path)))
            .sum::<u64>() as f64
            / 1e3
    }

    /// Completed spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|(path, _)| path.last().is_some_and(|n| n == name))
            .map(|(_, (_, count))| count)
            .sum()
    }

    /// (time inside root spans, time inside their children), in ms.
    pub fn root_and_children_ms(&self) -> (f64, f64) {
        let roots: Vec<&Vec<String>> = self.spans.keys().filter(|p| p.len() == 1).collect();
        let root: u64 = roots.iter().map(|p| self.spans[*p].0).sum();
        let children: u64 = roots.iter().map(|p| self.children_us(p)).sum();
        (root as f64 / 1e3, children as f64 / 1e3)
    }
}

/// Per-call timings (ms) and counts the probe collected.
#[derive(Default)]
pub struct Probe {
    pub elaborate: Vec<f64>,
    pub prepass: Vec<f64>,
    pub lane_violations: u64,
    pub bmc_check: Vec<f64>,
    pub bmc_solve_calls: u64,
    pub stall_escape: Vec<f64>,
    pub replay: Vec<f64>,
    pub replay_agrees: usize,
    pub pdr_check: Vec<f64>,
    pub validate: Vec<f64>,
    pub serialise: Vec<f64>,
    pub parse: Vec<f64>,
    pub request_bytes: Vec<f64>,
    pub key: Vec<f64>,
    pub revalidate: Vec<f64>,
    /// `presolve_batch` on each design's full property set against a cache
    /// holding every outcome of the design (as the warm server's does).
    pub presolve: Vec<f64>,
    /// The same call against an empty cache, per design.
    pub presolve_cold: Vec<f64>,
    /// Jobs, and jobs settled, by the cold calls: what the fuzz and the
    /// shared-unrolling sweep decide without the cache.
    pub presolve_jobs: usize,
    pub presolve_resolved: usize,
    /// `process_job` on cache misses.
    pub solve: Vec<f64>,
    pub wait: Vec<f64>,
    /// The traced report of the reference chain (see [`probe`]).
    pub reference: Option<TraceSnapshot>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_revalidation_failures: u64,
}

fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    samples.push(ms(start.elapsed()));
    value
}

/// The single-property job for `property` of `design` (PDR, one thread).
pub fn job_for(design: &Design, property: &ipcl_bmc::SequentialProperty) -> JobRequest {
    let stage_index = design
        .spec
        .stages()
        .iter()
        .position(|s| s.stage.prefix() == property.stage)
        .expect("property of a spec stage");
    JobRequest {
        spec: design.spec.clone(),
        netlist: design.netlist.clone(),
        property: PropertyRequest {
            stage_index,
            kind: property.kind,
            latency: None,
        },
        strategy: ProofStrategy::Pdr,
        threads: 1,
    }
}

/// A stimulus for properties that have no counterexample: every input
/// high for as many cycles as the design has registers (plus two).
fn stimulus(design: &Design, property: &str) -> Counterexample {
    let inputs: BTreeMap<String, bool> = design
        .netlist
        .iter()
        .filter(|(_, s)| matches!(s.kind, SignalKind::Input))
        .map(|(_, s)| (s.name.clone(), true))
        .collect();
    let frames = design.netlist.registers().len() + 2;
    Counterexample {
        property: property.to_owned(),
        frames: vec![inputs; frames],
        violation_frame: frames - 1,
    }
}

/// The reference PDR problem every traced run decides once, traced: the
/// preset designs never need cube generalisation, so without it the PDR
/// span figures would read zero. Its report goes through the oracle too:
/// a deep chain must prove both properties, and no stall may escape.
pub const REFERENCE_DEPTH: usize = 12;

/// Times every layer's public function on `designs`, and decides the
/// reference chain `deep_pipeline(REFERENCE_DEPTH)` once with tracing on,
/// its verdicts checked by `oracle` into `outcome`.
pub fn probe(
    designs: &[Design],
    prepass_seed: u64,
    oracle: &mut Oracle,
    outcome: &mut Outcome,
) -> Probe {
    let mut probe = Probe::default();
    let reference = deep_chain(REFERENCE_DEPTH);
    let options = crate::library::options(ProofStrategy::Pdr, prepass_seed, true);
    match check_netlist_sequential_with(&reference.spec, &reference.netlist, &options) {
        Ok(report) => {
            let failures = oracle.check_report(&reference, ProofStrategy::Pdr, &report);
            outcome.tally(report.results.len() as u64, failures);
            probe.reference = report.trace;
        }
        Err(error) => outcome.tally(1, vec![format!("{}: {error}", reference.name)]),
    }
    let cache = ProofCache::new(None);
    let tracer = Tracer::disabled();
    let cancel = AtomicBool::new(false);
    let mut warm: Vec<(JobRequest, String, ipcl_serve::JobOutcome, f64)> = Vec::new();

    for design in designs {
        let (spec, netlist) = (&design.spec, &design.netlist);
        let _ = timed(&mut probe.elaborate, || netlist.elaborate());
        if Latency::detect(spec, netlist) == Latency::Combinational {
            if let Ok(sweep) = timed(&mut probe.prepass, || {
                random_falsification_bitsim(spec, netlist, 200, prepass_seed)
            }) {
                probe.lane_violations += sweep
                    .violations
                    .iter()
                    .map(|v| u64::from(v.lane_count()))
                    .sum::<u64>();
            }
        }
        let _ = timed(&mut probe.stall_escape, || {
            check_stall_escape(spec, netlist, 2)
        });

        let mut jobs = Vec::new();
        for property in design.properties() {
            if let Ok(result) = timed(&mut probe.bmc_check, || {
                check_property_traced(
                    spec,
                    netlist,
                    &property,
                    &BmcOptions::with_depth(8),
                    None,
                    &tracer,
                )
            }) {
                probe.bmc_solve_calls += result.stats.solve_calls as u64;
            }
            let pdr = timed(&mut probe.pdr_check, || {
                check_property_pdr(spec, netlist, &property, &PdrOptions::default())
            });
            let (trace, falsified) = match pdr.as_ref().ok().map(|r| &r.outcome) {
                Some(outcome) if outcome.is_falsified() => {
                    (outcome.counterexample().cloned().expect("falsified"), true)
                }
                Some(outcome) => {
                    if let Some(certificate) = outcome.certificate() {
                        let _ = timed(&mut probe.validate, || {
                            certificate.validate(spec, netlist, &property)
                        });
                    }
                    (stimulus(design, &property.name), false)
                }
                None => continue,
            };
            let replay = timed(&mut probe.replay, || trace.replay(spec, netlist, &property));
            if replay.is_ok_and(|r| r.violation_reproduced == falsified) {
                probe.replay_agrees += 1;
            }

            let job = job_for(design, &property);
            let text = timed(&mut probe.serialise, || job.to_json_string());
            probe.request_bytes.push(text.len() as f64);
            let before = probe.parse.len();
            let parsed = timed(&mut probe.parse, || {
                Json::parse(&text).and_then(|json| JobRequest::from_json(&json))
            });
            let parse_ms = probe.parse[before];
            let key = timed(&mut probe.key, || cache_key(spec, netlist, &property));
            // `pool.solve_ms` times misses only: variants of one preset
            // share the cones their bugs leave alone, so a first call can
            // already be a revalidated hit.
            let start = Instant::now();
            let outcome = process_job(&job, &cancel, &cache, &tracer);
            if !outcome.cached {
                probe.solve.push(ms(start.elapsed()));
            }
            let before = probe.revalidate.len();
            timed(&mut probe.revalidate, || {
                revalidate(&outcome, spec, netlist, &property)
            });
            let in_process = parse_ms + probe.key.last().unwrap() + probe.revalidate[before];
            // Ask again: a revalidated hit, counted in the cache's stats.
            process_job(&job, &cancel, &cache, &tracer);
            if parsed.is_ok() {
                warm.push((job.clone(), key, outcome, in_process));
            }
            jobs.push(Arc::new(job));
        }
        timed(&mut probe.presolve, || {
            presolve_batch(&jobs, 5, &cache, &tracer)
        });
        let cold = timed(&mut probe.presolve_cold, || {
            presolve_batch(&jobs, 5, &ProofCache::new(None), &tracer)
        });
        probe.presolve_jobs += jobs.len();
        probe.presolve_resolved += cold.resolved.len();
    }
    let stats = cache.stats();
    probe.cache_hits = stats.hits;
    probe.cache_misses = stats.misses;
    probe.cache_revalidation_failures = stats.revalidation_failures;

    // Transport and queueing: a server whose cache holds every outcome
    // serves each job once; the round trip minus the in-process hit path
    // is the wait.
    if let Ok(server) = Server::start(ServerConfig::default(), Tracer::disabled()) {
        for (_, key, outcome, _) in &warm {
            server.cache().store(key, outcome);
        }
        if let Ok(mut client) = Client::connect(&server.local_addr().to_string()) {
            for (job, _, _, in_process) in &warm {
                let start = Instant::now();
                let served = client.submit(job).and_then(|id| client.wait(id));
                if served.is_ok() {
                    probe.wait.push(ms(start.elapsed()) - in_process);
                }
            }
            let _ = client.shutdown();
        }
        server.shutdown();
    }
    probe
}

/// Where the per-layer figures that are not probe timings come from.
pub struct MainPath<'a> {
    pub totals: &'a SpanTotals,
    /// Per-design (not per-property) synthesis / construction time.
    pub synth_ms: f64,
    /// `(hits, misses, revalidation failures)`; `None` takes the probe's.
    pub cache: Option<(u64, u64, u64)>,
    pub coverage: f64,
    pub overhead: f64,
}

/// Pushes every per-layer metric.
pub fn emit(outcome: &mut Outcome, main: &MainPath, probe: &Probe) {
    let mut t = SpanTotals::default();
    t.add(main.totals, 1);
    if let Some(reference) = &probe.reference {
        t.add_snapshot(reference, 1);
    }
    let t = &t;
    let mut time = |name: &'static str, samples: &[f64]| {
        outcome.push(name, mean(samples), "ms", samples.len());
    };
    time("rtl.elaborate_ms", &probe.elaborate);
    time("bitsim.prepass_ms", &probe.prepass);
    time("bmc.check_ms", &probe.bmc_check);
    time("bmc.stall_escape_ms", &probe.stall_escape);
    time("bmc.replay_ms", &probe.replay);
    time("pdr.check_ms", &probe.pdr_check);
    time("pdr.validate_ms", &probe.validate);
    time("protocol.serialise_ms", &probe.serialise);
    time("protocol.parse_ms", &probe.parse);
    time("cache.key_ms", &probe.key);
    time("cache.revalidate_ms", &probe.revalidate);
    time("batch.presolve_ms", &probe.presolve);
    time("pool.solve_ms", &probe.solve);
    outcome.push("synth.build_ms", main.synth_ms, "ms", 1);
    outcome.push("serve.wait_ms", median(&probe.wait), "ms", probe.wait.len());

    let count = |outcome: &mut Outcome, name: &'static str, value: u64| {
        outcome.push(name, value as f64, "count", 1);
    };
    count(
        outcome,
        "unroll.gates",
        t.counter_family("unroll.", ".gates"),
    );
    count(
        outcome,
        "unroll.frames",
        t.counter_family("unroll.", ".frames"),
    );
    count(outcome, "bitsim.lane_violations", probe.lane_violations);
    count(outcome, "bmc.solve_calls", probe.bmc_solve_calls);
    for name in WORK_COUNTERS {
        count(outcome, name, t.counter(name));
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let generalize_calls = t.calls("pdr.generalize") as f64;
    outcome.push(
        "pdr.drops_per_generalize_call",
        ratio(
            t.counter("pdr.generalization_drops") as f64,
            generalize_calls,
        ),
        "ratio",
        generalize_calls as usize,
    );
    outcome.push(
        "sat.conflicts_per_solve",
        ratio(
            t.counter("sat.conflicts") as f64,
            t.calls("sat.solve") as f64,
        ),
        "ratio",
        t.calls("sat.solve") as usize,
    );
    outcome.push(
        "pdr.generalize_self_ms",
        t.self_ms("pdr.generalize"),
        "ms",
        1,
    );
    outcome.push("pdr.propagate_self_ms", t.self_ms("pdr.propagate"), "ms", 1);
    outcome.push("sat.solve_self_ms", t.self_ms("sat.solve"), "ms", 1);
    outcome.push(
        "bmc.replay_ok_frac",
        ratio(probe.replay_agrees as f64, probe.replay.len() as f64),
        "frac",
        probe.replay.len(),
    );
    outcome.push(
        "protocol.request_bytes",
        mean(&probe.request_bytes),
        "bytes",
        probe.request_bytes.len(),
    );
    let (hits, misses, failures) = main.cache.unwrap_or((
        probe.cache_hits,
        probe.cache_misses,
        probe.cache_revalidation_failures,
    ));
    count(outcome, "cache.hits", hits);
    count(outcome, "cache.misses", misses);
    count(outcome, "cache.revalidation_failures", failures);
    outcome.push(
        "cache.hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "frac",
        (hits + misses) as usize,
    );
    outcome.push(
        "batch.resolved_frac",
        ratio(probe.presolve_resolved as f64, probe.presolve_jobs as f64),
        "frac",
        probe.presolve_jobs,
    );
    outcome.push("layer.coverage", main.coverage, "frac", 1);
    outcome.push("trace.overhead", main.overhead, "ratio", 1);
}
