//! The service workloads: `serve-hits` and `serve-batch`.
//!
//! One process, one client connection, a closed loop against an in-process
//! `ipcl_serve::Server` with the default `ServerConfig` (2 workers, an
//! unbounded memory-only cache, `batch_depth` 5) over loopback TCP. Every
//! job is a `Pdr`, one-thread job over one property of the preset matrix,
//! because only certified proofs can be served from cache.
//!
//! * `serve-hits` sends single jobs (`submit` + `wait`): of every 2,003,
//!   3 never-seen jobs from restructured copies (misses that solve and
//!   store, E15's measured share), 300 renamed copies (structural hits)
//!   and the rest repeats.
//! * `serve-batch` sends a design's whole property set (`submit_batch`,
//!   then `wait` on every id): 60% warm designs, 20% renamed copies and
//!   20% fresh restructured copies — correct or broken, as the design
//!   they copy (3 of each preset's 5 designs are broken variants).
//!
//! A server's job table only grows, so every [`renew_after`] requests the
//! run replaces the server, between requests, by one whose cache holds the
//! set-up's warm answers.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use ipcl_bmc::SequentialProperty;
use ipcl_checker::ProofStrategy;
use ipcl_serve::{cache_key, Client, JobOutcome, JobRequest, Server, ServerConfig, Verdict};
use ipcl_trace::{TraceConfig, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::designs::{self, renamed_copy, shuffle, Design};
use crate::layers::{self, job_for, MainPath, SpanTotals};
use crate::library::options;
use crate::oracle::Oracle;
use crate::report::{self, mean, median, ms, Op, Outcome};
use crate::Args;

/// What the oracle needs to judge the answer to one job.
struct Job {
    property: SequentialProperty,
    key: String,
    /// The in-process verdict of the same property on the base design.
    expected: Verdict,
    /// Names the job in the oracle's memo (`<source>/<index>/<property>`).
    tag: String,
    /// Index of the base design the job was made from.
    design: usize,
}

/// A request: one job (`serve-hits`) or one design's jobs (`serve-batch`),
/// ready to send, with `jobs[k]` judging the answer to `requests[k]`.
struct Unit {
    requests: Vec<JobRequest>,
    jobs: Vec<Job>,
}

impl Unit {
    fn len(&self) -> usize {
        self.jobs.len()
    }

    /// One single-job unit per job.
    fn split(self) -> impl Iterator<Item = Unit> {
        self.requests
            .into_iter()
            .zip(self.jobs)
            .map(|(request, job)| Unit {
                requests: vec![request],
                jobs: vec![job],
            })
    }
}

/// The stream's stored pools, indexed alike: `renamed[i]` is a renamed copy
/// of `base[i]`. Fresh units are made as the stream asks for them, by
/// [`FreshSupply`].
struct Inputs {
    base: Vec<Unit>,
    renamed: Vec<Unit>,
    designs: Vec<Design>,
    verdicts: Vec<BTreeMap<String, Verdict>>,
    /// The cache key of every base job.
    base_keys: HashSet<String>,
    /// Seeds the restructuring of the fresh copies.
    fresh_seed: u64,
    /// Wall time of deriving the specs and synthesising one base design.
    synth_ms: f64,
}

/// Every property of `design` (made from base design `index`) as a unit.
fn jobs_of(
    design: &Design,
    index: usize,
    verdicts: &[BTreeMap<String, Verdict>],
    tag: &str,
) -> Unit {
    let verdicts = &verdicts[index];
    let properties = design.properties();
    Unit {
        requests: properties.iter().map(|p| job_for(design, p)).collect(),
        jobs: properties
            .into_iter()
            .map(|property| Job {
                key: cache_key(&design.spec, &design.netlist, &property),
                expected: verdicts[&property.name],
                tag: format!("{tag}/{}", property.name),
                design: index,
                property,
            })
            .collect(),
    }
}

impl Inputs {
    /// Builds the base and renamed pools from the seed, checking from
    /// outside the server that renamed copies keep every cache key.
    fn build(
        batch: bool,
        smoke: bool,
        verdicts: &[BTreeMap<String, Verdict>],
        seed: u64,
        failures: &mut Vec<String>,
    ) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = Instant::now();
        let designs = serve_designs(batch, smoke);
        let synth_ms = ms(start.elapsed()) / designs.len() as f64;

        let base: Vec<Unit> = designs
            .iter()
            .enumerate()
            .map(|(i, d)| jobs_of(d, i, verdicts, &format!("base/{i}")))
            .collect();
        let base_keys = base
            .iter()
            .flat_map(|u| &u.jobs)
            .map(|j| j.key.clone())
            .collect();
        let mut renamed = Vec::new();
        for (i, design) in designs.iter().enumerate() {
            let unit = jobs_of(
                &renamed_copy(design, &mut rng),
                i,
                verdicts,
                &format!("renamed/{i}"),
            );
            for (job, original) in unit.jobs.iter().zip(&base[i].jobs) {
                if job.key != original.key {
                    failures.push(format!("{}: renamed copy changed the cache key", job.tag));
                }
            }
            renamed.push(unit);
        }
        let singles = |units: Vec<Unit>| -> Vec<Unit> {
            if batch {
                units
            } else {
                units.into_iter().flat_map(Unit::split).collect()
            }
        };
        Inputs {
            base: singles(base),
            renamed: singles(renamed),
            designs,
            verdicts: verdicts.to_vec(),
            base_keys,
            fresh_seed: rng.next_u64(),
            synth_ms,
        }
    }
}

/// Makes never-seen units on demand: restructured copies of the base
/// designs, each copy of a design with a code of its own, so the supply
/// never runs dry and the mix does not depend on how fast the server
/// answers. Copies are made between requests, outside any timed round trip.
struct FreshSupply {
    rng: StdRng,
    /// Copies made of each base design so far.
    copies: Vec<usize>,
    /// `serve-hits`: fresh single jobs sent so far.
    singles: usize,
    failures: Vec<String>,
}

impl FreshSupply {
    fn new(inputs: &Inputs) -> FreshSupply {
        FreshSupply {
            rng: StdRng::seed_from_u64(inputs.fresh_seed),
            copies: vec![0; inputs.designs.len()],
            singles: 0,
            failures: Vec::new(),
        }
    }

    /// The next restructured copy of base design `i`, checked from outside
    /// the server to share no cache key with a base design. Designs of one
    /// preset share the cones their bugs leave alone, so each variant
    /// takes codes of its own. (Presets can still share a cone, e.g. a
    /// stage whose flag is constant.)
    fn copy(&mut self, inputs: &Inputs, i: usize) -> Option<Unit> {
        let c = self.copies[i];
        self.copies[i] += 1;
        let code = 1 + c * designs::VARIANTS + i % designs::VARIANTS;
        if code >= designs::CODES {
            self.failures
                .push(format!("fresh copies of base design {i} exhausted"));
            return None;
        }
        let copy = designs::restructured_copy(&inputs.designs[i], code, &mut self.rng);
        let unit = jobs_of(&copy, i, &inputs.verdicts, &format!("fresh/{i}.{c}"));
        for job in unit
            .jobs
            .iter()
            .filter(|j| inputs.base_keys.contains(&j.key))
        {
            self.failures
                .push(format!("{}: fresh copy kept a base cache key", job.tag));
        }
        Some(unit)
    }

    /// The next fresh single job: a seeded property of a new copy of the
    /// next design in turn. Only the copy in use is held, so the memory
    /// the run samples does not depend on when the first one is sent.
    fn single(&mut self, inputs: &Inputs) -> Option<Unit> {
        let i = self.singles % inputs.designs.len();
        self.singles += 1;
        let unit = self.copy(inputs, i)?;
        let k = self.rng.random_range(0..unit.len());
        unit.split().nth(k)
    }
}

/// A unit the stream hands out: stored in [`Inputs`], or made fresh.
enum Pick<'a> {
    Stored(&'a Unit),
    Fresh(Unit),
}

impl std::ops::Deref for Pick<'_> {
    type Target = Unit;

    fn deref(&self) -> &Unit {
        match self {
            Pick::Stored(unit) => unit,
            Pick::Fresh(unit) => unit,
        }
    }
}

/// `serve-hits` forms by stream position: of every `HITS_PERIOD` requests,
/// `HITS_FRESH` are never-seen jobs and `HITS_RENAMED` renamed copies. The
/// miss share is E15's measured warm round (EXPERIMENTS.md: 3 never-seen
/// designs among 2,003 jobs, a 99.9% hit rate). The renamed share has no
/// measured source; it makes structural hits a visible part of the stream.
const HITS_PERIOD: usize = 2003;
const HITS_FRESH: usize = 3;
const HITS_RENAMED: usize = 300;

/// The seeded request mix, in rounds: each round sends every base unit
/// once, in a seeded order, in one of three forms — fresh (a never-seen
/// unit), renamed (its renamed copy) or warm (itself). `serve-hits` gives
/// the request at stream position `n` the slot `(n + offset) mod 2003`:
/// 3 fresh, 300 renamed, the rest warm. `serve-batch` gives design `v` of
/// preset `p` the slot `(v + p + r + offset) mod 5` in round `r`: one
/// fresh and one renamed design per preset and round (no measured source;
/// see `README.md`). Each unit cycles through the forms from round to
/// round.
struct Stream {
    rng: StdRng,
    batch: bool,
    offset: usize,
    round: usize,
    order: Vec<usize>,
    position: usize,
    sent: usize,
    fresh: FreshSupply,
}

impl Stream {
    fn new(mut rng: StdRng, batch: bool, inputs: &Inputs) -> Stream {
        let offset = rng.random_range(0..HITS_PERIOD);
        Stream {
            rng,
            batch,
            offset,
            round: 0,
            order: (0..inputs.base.len()).collect(),
            position: usize::MAX,
            sent: 0,
            fresh: FreshSupply::new(inputs),
        }
    }

    /// Whether the last unit of a round has been handed out.
    fn round_done(&self) -> bool {
        self.position >= self.order.len()
    }

    /// The next unit to send.
    fn next<'a>(&mut self, inputs: &'a Inputs) -> Pick<'a> {
        if self.position >= self.order.len() {
            shuffle(&mut self.order, &mut self.rng);
            self.position = 0;
            self.round += 1;
        }
        let i = self.order[self.position];
        self.position += 1;
        self.sent += 1;
        let (fresh, renamed) = if self.batch {
            let (p, v) = (i / designs::VARIANTS, i % designs::VARIANTS);
            let slot = (v + p + self.round + self.offset) % designs::VARIANTS;
            (slot == 0, slot == 1)
        } else {
            let slot = (self.sent + self.offset) % HITS_PERIOD;
            (slot < HITS_FRESH, slot < HITS_FRESH + HITS_RENAMED)
        };
        if fresh {
            let unit = if self.batch {
                self.fresh.copy(inputs, i)
            } else {
                self.fresh.single(inputs)
            };
            if let Some(unit) = unit {
                return Pick::Fresh(unit);
            }
        } else if renamed {
            return Pick::Stored(&inputs.renamed[i]);
        }
        Pick::Stored(&inputs.base[i])
    }
}

/// Sends one unit and waits for every answer.
fn send(client: &mut Client, unit: &Unit, batch: bool) -> Result<Vec<JobOutcome>, String> {
    let ids = if batch {
        client.submit_batch(&unit.requests)?.0
    } else {
        vec![client.submit(&unit.requests[0])?]
    };
    ids.into_iter().map(|id| client.wait(id)).collect()
}

/// The oracle and the tally it feeds.
struct Checked {
    oracle: Oracle,
    outcome: Outcome,
}

/// A server with a connected client.
struct Endpoint {
    server: Server,
    client: Client,
    tracer: Tracer,
}

impl Endpoint {
    fn start(traced: bool) -> Result<Endpoint, String> {
        let tracer = if traced {
            Tracer::new(TraceConfig::enabled())
        } else {
            Tracer::disabled()
        };
        let server =
            Server::start(ServerConfig::default(), tracer.clone()).map_err(|e| e.to_string())?;
        let client = Client::connect(&server.local_addr().to_string())?;
        Ok(Endpoint {
            server,
            client,
            tracer,
        })
    }

    /// Sends `unit`, checks every answer; returns the round trip (ms) and
    /// the answers.
    fn request(
        &mut self,
        unit: &Unit,
        batch: bool,
        checked: &mut Checked,
    ) -> (f64, Vec<JobOutcome>) {
        let Checked { oracle, outcome } = checked;
        let start = Instant::now();
        let answers = send(&mut self.client, unit, batch);
        let round_trip = ms(start.elapsed());
        match answers {
            Ok(answers) => {
                let failures = unit
                    .jobs
                    .iter()
                    .zip(&unit.requests)
                    .zip(&answers)
                    .filter_map(|((job, request), answer)| {
                        oracle.check_served(
                            &job.tag,
                            answer,
                            job.expected,
                            (&request.spec, &request.netlist),
                            &job.property,
                        )
                    })
                    .collect();
                outcome.tally(unit.len() as u64, failures);
                (round_trip, answers)
            }
            Err(error) => {
                outcome.tally(unit.len() as u64, vec![format!("request failed: {error}")]);
                (round_trip, Vec::new())
            }
        }
    }

    /// A server whose cache holds the warm answers to `inputs.base`, as a
    /// warmed server's does, with a connected client.
    fn warmed(traced: bool, inputs: &Inputs, warm: &[JobOutcome]) -> Result<Endpoint, String> {
        let endpoint = Endpoint::start(traced)?;
        for (job, answer) in inputs.base.iter().flat_map(|u| &u.jobs).zip(warm) {
            let mut stored = answer.clone();
            stored.cached = false;
            endpoint.server.cache().store(&job.key, &stored);
        }
        Ok(endpoint)
    }

    /// Replaces the server by a [`Endpoint::warmed`] one, between requests.
    /// The job table of a server only grows, by tens of KiB per job; a
    /// fresh server every [`renew_after`] requests keeps the run's memory
    /// bounded. The cache loses only the fresh units' outcomes, and the
    /// stream never sends a fresh unit twice.
    fn renew(&mut self, traced: bool, inputs: &Inputs, warm: &[JobOutcome], checked: &mut Checked) {
        match Endpoint::warmed(traced, inputs, warm) {
            Ok(endpoint) => std::mem::replace(self, endpoint).stop(),
            Err(error) => checked
                .outcome
                .tally(1, vec![format!("server start: {error}")]),
        }
    }

    fn cache_counts(&mut self) -> (u64, u64, u64) {
        let stats = self
            .client
            .stats()
            .unwrap_or(ipcl_tracetool::json::Json::Null);
        let get = |k: &str| stats.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        (
            get("cache_hits"),
            get("cache_misses"),
            get("revalidation_failures"),
        )
    }

    fn stop(mut self) {
        let _ = self.client.shutdown();
        self.server.shutdown();
    }
}

/// The base designs: every preset for `serve-hits`, the large ones for
/// `serve-batch`.
fn serve_designs(batch: bool, smoke: bool) -> Vec<Design> {
    if batch {
        designs::matrix(designs::batch_presets(smoke))
    } else {
        designs::preset_matrix(smoke)
    }
}

/// The in-process verdict of every property of every base design, checked
/// against the oracle table.
fn in_process(
    batch: bool,
    smoke: bool,
    prepass_seed: u64,
    checked: &mut Checked,
) -> Vec<BTreeMap<String, Verdict>> {
    let opts = options(ProofStrategy::Pdr, prepass_seed, false);
    serve_designs(batch, smoke)
        .iter()
        .map(|design| {
            let report =
                ipcl_checker::check_netlist_sequential_with(&design.spec, &design.netlist, &opts)
                    .expect("preset designs check");
            let failures = checked
                .oracle
                .check_report(design, ProofStrategy::Pdr, &report);
            checked.outcome.tally(report.results.len() as u64, failures);
            report
                .results
                .iter()
                .map(|r| {
                    let verdict = if r.outcome.is_falsified() {
                        Verdict::Falsified
                    } else {
                        Verdict::Proved
                    };
                    (r.property.name.clone(), verdict)
                })
                .collect()
        })
        .collect()
}

/// Requests (single jobs or batches) a server answers before it is
/// renewed; `peak_heap_mb` is sampled after this many.
fn renew_after(batch: bool) -> usize {
    if batch {
        40
    } else {
        1000
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One set-up: every pool built, a server started and its cache warmed
/// by one cold pass. Returns the inputs, the endpoint, the warm answers
/// and the set-up's wall time in seconds.
fn set_up(
    batch: bool,
    args: &Args,
    verdicts: &[BTreeMap<String, Verdict>],
    input_seed: u64,
    checked: &mut Checked,
) -> Option<(Inputs, Endpoint, Vec<JobOutcome>, f64)> {
    let start = Instant::now();
    let mut failures = Vec::new();
    let inputs = Inputs::build(batch, args.smoke, verdicts, input_seed, &mut failures);
    checked.outcome.tally(0, failures);
    let mut endpoint = match Endpoint::start(args.trace) {
        Ok(endpoint) => endpoint,
        Err(error) => {
            checked
                .outcome
                .tally(1, vec![format!("server start: {error}")]);
            return None;
        }
    };
    let mut warm = Vec::new();
    for unit in &inputs.base {
        warm.extend(endpoint.request(unit, batch, checked).1);
    }
    let seconds = start.elapsed().as_secs_f64();
    Some((inputs, endpoint, warm, seconds))
}

pub fn run(batch: bool, args: &Args) -> Outcome {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let prepass_seed = rng.next_u64();
    let input_seed = rng.next_u64();
    let mut checked = Checked {
        oracle: Oracle::load(),
        outcome: Outcome::default(),
    };
    let verdicts = in_process(batch, args.smoke, prepass_seed, &mut checked);

    // Set-up: build the pools, start the server and warm its cache with
    // one cold pass. It is repeated after the measured loop, once that
    // server has stopped, so the median (`setup_s`) samples the start and
    // the end of the run, and the memory sampled in the loop holds one
    // set-up only.
    let Some((inputs, mut endpoint, warm, first)) =
        set_up(batch, args, &verdicts, input_seed, &mut checked)
    else {
        return checked.outcome;
    };
    let mut setup_s = vec![first];
    let mut stream = Stream::new(rng, batch, &inputs);

    if args.trace {
        traced(
            &inputs,
            endpoint,
            &warm,
            &mut stream,
            prepass_seed,
            args,
            &mut checked,
        );
        return checked.outcome;
    }

    // The server keeps every finished job (request and outcome) in its job
    // table, so resident memory grows with the number of requests served.
    // Sampling the peak after a fixed number of requests keeps the metric
    // independent of throughput.
    let heap_after = renew_after(batch);
    let mut heap = None;
    let mut ops = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || !stream.round_done() {
        let unit = stream.next(&inputs);
        let (round_trip, _) = endpoint.request(&unit, batch, &mut checked);
        ops.push(Op {
            props: unit.len(),
            ms: round_trip,
        });
        let sent = ops.len();
        if sent == heap_after {
            heap = Some(report::peak_heap_mb());
        }
        if args.smoke && sent >= 8 {
            break;
        }
        if sent % renew_after(batch) == 0 {
            endpoint.renew(false, &inputs, &warm, &mut checked);
        }
    }
    let heap = heap.unwrap_or_else(report::peak_heap_mb);
    endpoint.stop();
    checked
        .outcome
        .tally(0, std::mem::take(&mut stream.fresh.failures));
    drop((stream, inputs));
    for _ in 1..SETUPS {
        if let Some((_, endpoint, _, seconds)) =
            set_up(batch, args, &verdicts, input_seed, &mut checked)
        {
            endpoint.stop();
            setup_s.push(seconds);
        }
        if args.smoke {
            break;
        }
    }
    report::end_to_end(&mut checked.outcome, &setup_s, &ops, heap);
    checked.outcome
}

/// The traced run. The set-up server carries an enabled tracer; a second,
/// untraced server gets the same warm cache by direct stores. A counted
/// prefix of the stream goes to the traced server (its tracer and `stats`
/// diffs are the deterministic work counters), then every chunk of the
/// stream goes to both servers until the budget is spent
/// (`trace.overhead`). The probe runs on the base designs last.
fn traced(
    inputs: &Inputs,
    mut traced_end: Endpoint,
    warm: &[JobOutcome],
    stream: &mut Stream,
    prepass_seed: u64,
    args: &Args,
    checked: &mut Checked,
) {
    let batch = stream.batch;
    let mut plain_end = match Endpoint::warmed(false, inputs, warm) {
        Ok(endpoint) => endpoint,
        Err(error) => {
            checked
                .outcome
                .tally(1, vec![format!("server start: {error}")]);
            traced_end.stop();
            return;
        }
    };

    let chunk = if args.smoke {
        4
    } else if batch {
        12
    } else {
        300
    };
    let before = traced_end.tracer.snapshot().expect("traced server");
    let counts_before = traced_end.cache_counts();
    let units: Vec<Pick> = (0..chunk).map(|_| stream.next(inputs)).collect();
    let mut counted = Vec::new();
    for unit in &units {
        counted.push(traced_end.request(unit, batch, checked));
    }
    let counts_after = traced_end.cache_counts();
    let totals = SpanTotals::between(&before, &traced_end.tracer.snapshot().expect("traced"));
    let cache = (
        counts_after.0 - counts_before.0,
        counts_after.1 - counts_before.1,
        counts_after.2 - counts_before.2,
    );

    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    traced_ms.push(counted.iter().map(|c| c.0).sum::<f64>());
    plain_ms.push(
        units
            .iter()
            .map(|u| plain_end.request(u, batch, checked).0)
            .sum::<f64>(),
    );
    let mut since_renewal = chunk;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds && !args.smoke {
        let chunk_units: Vec<Pick> = (0..chunk).map(|_| stream.next(inputs)).collect();
        traced_ms.push(
            chunk_units
                .iter()
                .map(|u| traced_end.request(u, batch, checked).0)
                .sum::<f64>(),
        );
        plain_ms.push(
            chunk_units
                .iter()
                .map(|u| plain_end.request(u, batch, checked).0)
                .sum::<f64>(),
        );
        since_renewal += chunk;
        if since_renewal >= renew_after(batch) {
            traced_end.renew(true, inputs, warm, checked);
            plain_end.renew(false, inputs, warm, checked);
            since_renewal = 0;
        }
    }
    checked
        .outcome
        .tally(0, std::mem::take(&mut stream.fresh.failures));
    let overhead = traced_ms.iter().sum::<f64>() / plain_ms.iter().sum::<f64>();
    traced_end.stop();
    plain_end.stop();

    let probe = layers::probe(
        &serve_designs(batch, args.smoke),
        prepass_seed,
        &mut checked.oracle,
        &mut checked.outcome,
    );

    // Coverage: the in-process time of each counted request's path, from
    // the probe's means per call — serialise and parse per job, then per
    // single job the key and a revalidation (hit) or a solve (miss), per
    // batch its design's pre-solve (warm if every answer came from the
    // cache, else cold plus a solve per uncached answer) — over the round
    // trips. The rest is transport, queueing and server work the probe
    // does not time.
    let wire = mean(&probe.serialise) + mean(&probe.parse);
    let explained: f64 = units
        .iter()
        .zip(&counted)
        .map(|(unit, (_, answers))| {
            let uncached = answers.iter().filter(|a| !a.cached).count() as f64;
            let served = if batch {
                let design = unit.jobs[0].design;
                if uncached == 0.0 {
                    probe.presolve[design]
                } else {
                    probe.presolve_cold[design] + uncached * mean(&probe.solve)
                }
            } else {
                mean(&probe.key)
                    + (answers.len() as f64 - uncached) * mean(&probe.revalidate)
                    + uncached * mean(&probe.solve)
            };
            unit.len() as f64 * wire + served
        })
        .sum();
    let round_trips: f64 = counted.iter().map(|c| c.0).sum();
    let coverage = explained / round_trips;
    println!(
        "layer.coverage {coverage:.3}; unexplained: transport, queueing and unprobed server work {:.1} ms ({:.1}%); probe wait median {:.3} ms",
        round_trips - explained,
        100.0 * (1.0 - coverage),
        median(&probe.wait)
    );
    let main = MainPath {
        totals: &totals,
        synth_ms: inputs.synth_ms,
        cache: Some(cache),
        coverage,
        overhead,
    };
    layers::emit(&mut checked.outcome, &main, &probe);
}
