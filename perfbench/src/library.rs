//! The library workload, `preset-matrix`.
//!
//! Each operation is one `check_netlist_sequential_with` call on one
//! design with one strategy, run with `parallel: false, threads: 1`. A run
//! repeats whole passes over its (design, strategy) items, each pass in a
//! seeded order, until `--seconds` have elapsed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ipcl_bmc::BmcOptions;
use ipcl_checker::{
    check_netlist_sequential_with, ProofStrategy, SequentialOptions, SequentialReport,
};
use ipcl_trace::TraceConfig;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::designs::{self, shuffle, Design};
use crate::layers::{self, MainPath, SpanTotals};
use crate::oracle::Oracle;
use crate::report::{self, median, ms, Op, Outcome};
use crate::Args;

/// Options of one library operation.
pub fn options(strategy: ProofStrategy, prepass_seed: u64, traced: bool) -> SequentialOptions {
    SequentialOptions {
        strategy,
        bmc: BmcOptions::with_depth(8),
        parallel: false,
        threads: 1,
        prepass_seed,
        trace: if traced {
            TraceConfig::enabled()
        } else {
            TraceConfig::disabled()
        },
        ..Default::default()
    }
}

/// A library workload's inputs.
pub struct Library {
    pub designs: Vec<Design>,
    pub items: Vec<(usize, ProofStrategy)>,
}

pub fn build(smoke: bool) -> Library {
    let designs = designs::preset_matrix(smoke);
    let items = (0..designs.len())
        .flat_map(|d| [ProofStrategy::KInduction, ProofStrategy::Pdr].map(|s| (d, s)))
        .collect();
    Library { designs, items }
}

/// One checked operation.
fn check(design: &Design, options: &SequentialOptions) -> Result<SequentialReport, String> {
    catch_unwind(AssertUnwindSafe(|| {
        check_netlist_sequential_with(&design.spec, &design.netlist, options)
    }))
    .map_err(|_| format!("{}: checker panicked", design.name))?
    .map_err(|e| format!("{}: {e}", design.name))
}

/// The result of one pass over the items.
struct Pass {
    ops: Vec<Op>,
    /// The reports of a traced pass (their trace snapshots).
    traces: Vec<SequentialReport>,
}

impl Pass {
    fn busy_ms(&self) -> f64 {
        self.ops.iter().map(|op| op.ms).sum()
    }

    fn totals(&self) -> SpanTotals {
        SpanTotals::of_reports(self.traces.iter())
    }
}

/// A run in progress: the inputs, the oracle and the tally.
struct Run<'a> {
    library: &'a Library,
    prepass_seed: u64,
    oracle: Oracle,
    outcome: Outcome,
}

pub fn run(args: &Args) -> Outcome {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let prepass_seed = rng.next_u64();

    // Set-up: derive the specs and synthesise every design.
    // The measured loop repeats it after every pass, so the median
    // (`setup_s`) samples the whole run rather than its first instant.
    let start = Instant::now();
    let library = build(args.smoke);
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    let mut order: Vec<usize> = (0..library.items.len()).collect();
    let mut run = Run {
        library: &library,
        prepass_seed,
        oracle: Oracle::load(),
        outcome: Outcome::default(),
    };

    if args.trace {
        let synth_ms = median(&setup_s) * 1e3 / library.designs.len() as f64;
        run.traced(&mut order, synth_ms, args, &mut rng);
        return run.outcome;
    }

    let mut ops = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || ops.is_empty() {
        shuffle(&mut order, &mut rng);
        ops.extend(run.pass(&order, false).ops);
        if args.smoke {
            break;
        }
        let start = Instant::now();
        drop(build(args.smoke));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let heap = report::peak_heap_mb();
    report::end_to_end(&mut run.outcome, &setup_s, &ops, heap);
    run.outcome
}

impl Run<'_> {
    /// One pass over the items in `order`, every report checked.
    fn pass(&mut self, order: &[usize], traced: bool) -> Pass {
        let mut pass = Pass {
            ops: Vec::with_capacity(order.len()),
            traces: Vec::new(),
        };
        for &item in order {
            let (d, strategy) = self.library.items[item];
            let design = &self.library.designs[d];
            let opts = options(strategy, self.prepass_seed, traced);
            let start = Instant::now();
            let result = check(design, &opts);
            let elapsed = ms(start.elapsed());
            match result {
                Ok(report) => {
                    pass.ops.push(Op {
                        props: report.results.len(),
                        ms: elapsed,
                    });
                    let failures = self.oracle.check_report(design, strategy, &report);
                    self.outcome.tally(report.results.len() as u64, failures);
                    if traced {
                        pass.traces.push(report);
                    }
                }
                Err(failure) => self.outcome.tally(1, vec![failure]),
            }
        }
        pass
    }

    /// The traced run: one counted pass (the deterministic work counters
    /// and span self-times), untraced and traced passes alternating for
    /// the rest of the budget (`trace.overhead`, and a check that every
    /// traced pass repeats the counted pass's work counters exactly), then
    /// the layer probe.
    fn traced(&mut self, order: &mut [usize], synth_ms: f64, args: &Args, rng: &mut StdRng) {
        shuffle(order, rng);
        let counted = self.pass(order, true);
        let totals = counted.totals();
        let e2e_ms = counted.busy_ms();

        let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < args.seconds && !args.smoke {
            shuffle(order, rng);
            let plain = self.pass(order, false);
            let again = self.pass(order, true);
            plain_ms.push(plain.busy_ms());
            traced_ms.push(again.busy_ms());
            let repeat = again.totals();
            if repeat.work() != totals.work() {
                self.outcome.tally(
                    1,
                    vec![format!(
                        "work counters differ between passes at one seed: {:?} vs {:?}",
                        totals.work(),
                        repeat.work()
                    )],
                );
            }
        }
        let overhead = if plain_ms.is_empty() {
            1.0
        } else {
            median(&traced_ms) / median(&plain_ms)
        };

        // Layer coverage: time inside the checker's child spans over the
        // time of the calls; the rest is the root span's own time plus
        // work outside any span.
        let (root_ms, children_ms) = totals.root_and_children_ms();
        let coverage = children_ms / e2e_ms;
        println!(
            "layer.coverage {coverage:.3}; unexplained: checker.sequential self {:.1} ms ({:.1}%), outside spans {:.1} ms ({:.1}%)",
            root_ms - children_ms,
            100.0 * (root_ms - children_ms) / e2e_ms,
            e2e_ms - root_ms,
            100.0 * (e2e_ms - root_ms) / e2e_ms,
        );
        let probe = layers::probe(
            &self.library.designs,
            self.prepass_seed,
            &mut self.oracle,
            &mut self.outcome,
        );
        let main = MainPath {
            totals: &totals,
            synth_ms,
            cache: None,
            coverage,
            overhead,
        };
        layers::emit(&mut self.outcome, &main, &probe);
    }
}
