//! Experiment E14: parallel proof-engine scaling.
//!
//! Speedup-versus-cores of the work-stealing PDR round scheduler
//! (`ipcl_pdr::parallel`, which runs every PDR check) on the deep wait-state chain
//! family — the workload whose proofs are dominated by independent
//! consecution / generalisation queries, i.e. exactly the work the
//! scheduler fans out. Each depth runs:
//!
//! * the **sequential** row: `check_property_pdr`'s configuration — one
//!   worker with singleton rounds (`ParallelPdrOptions::for_threads(_, 1)`),
//!   the sequential IC3 trajectory — as the baseline;
//! * the **parallel** rows: batched rounds (the default batch of 16) at
//!   1, 2, 4 and 8 workers.
//!
//! Asserted invariants (the determinism guarantee is checked on every
//! run, the performance claims only where they are measurable):
//!
//! * the certificate renders **bit-identically** across every worker
//!   count — the scheduler's determinism-by-construction claim;
//! * 1-worker batched rounds are within 10% of the sequential row
//!   (asserted in full runs, reported in smoke runs);
//! * ≥ 3× speedup at 8 workers over 1 worker on the deepest chain —
//!   asserted only in full runs on hosts with ≥ 8 available cores, since
//!   wall-clock scaling is meaningless on fewer. When the assertion
//!   cannot run, the deepest chain's 8-worker row says so explicitly
//!   (`"gated": true`, plus a stderr note) rather than passing silently.
//!
//! Per-run attribution metrics (`imported`, `exported`, `speedup`) are
//! *not* deterministic across runs — which worker solves which task is
//! timing-dependent — and are ignored by `baselines/tolerances.json`;
//! the worker-aggregated solver `conflicts` are omitted from parallel
//! rows for the same reason.
//!
//! Emits a `BENCH_*.json` document on stdout; `--smoke` shrinks the sweep
//! for CI; `--threads N` caps the worker sweep; `--trace <dir>` /
//! `--profile` / `--watch` enable the observability layer (the live
//! progress line renders one `pdr:wN` entry per worker).

use std::time::Instant;

use ipcl_bench::{emit_bench_json, median_ms, TraceArgs};
use ipcl_bmc::{Latency, PropertyKind, SequentialProperty};
use ipcl_pdr::deep::deep_pipeline;
use ipcl_pdr::{check_property_pdr_traced, ParallelPdrOptions, PdrOptions, PdrOutcome, PdrResult};

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

struct Measurement {
    verdict: String,
    certificate: String,
    result: PdrResult,
}

fn summarize(name: &str, result: PdrResult) -> Measurement {
    let PdrOutcome::Proved {
        certificate,
        fixpoint_frame,
    } = &result.outcome
    else {
        panic!(
            "{name}: PDR must prove the deep chain, got {:?}",
            result.outcome
        );
    };
    assert!(
        result
            .validation
            .as_ref()
            .expect("validation requested")
            .ok(),
        "{name}: certificate failed independent re-validation"
    );
    Measurement {
        verdict: format!(
            "proved@F{fixpoint_frame} ({} clauses)",
            certificate.clauses.len()
        ),
        certificate: certificate.render(),
        result,
    }
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    // `--threads N` caps the sweep when given explicitly; by default the
    // full 1/2/4/8 sweep runs even on smaller hosts (oversubscribed worker
    // counts still measure — and still must agree bit-for-bit).
    let threads_cap = std::env::args().any(|arg| arg == "--threads");
    let repeats = if smoke { 1 } else { 3 };
    let trace = TraceArgs::from_env();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let depths: &[usize] = if smoke { &[5, 8] } else { &[10, 13, 16] };
    let deepest = *depths.last().expect("non-empty sweep");

    let mut entries: Vec<String> = Vec::new();
    for &depth in depths {
        let name = format!("deep-chain-{depth}");
        let (spec, netlist) = deep_pipeline(depth);
        let property = SequentialProperty::for_stage(
            &spec,
            0,
            PropertyKind::Performance,
            Latency::Combinational,
        );

        // ---- sequential baseline.
        let mut times = Vec::new();
        let mut sequential = None;
        for _ in 0..repeats {
            let start = Instant::now();
            let result = check_property_pdr_traced(
                &spec,
                &netlist,
                &property,
                &ParallelPdrOptions::for_threads(PdrOptions::default(), 1),
                None,
                trace.tracer(),
            )
            .expect("netlist elaborates");
            let ms = start.elapsed().as_secs_f64() * 1e3;
            sequential = Some(summarize(&name, result));
            times.push(ms);
        }
        let sequential = sequential.expect("at least one repeat");
        let sequential_ms = median_ms(times);
        entries.push(format!(
            concat!(
                "  {{\"experiment\": \"parallel_scaling\", \"workload\": \"{}\", ",
                "\"engine\": \"sequential\", \"workers\": 0, \"verdict\": \"{}\", ",
                "\"ms\": {:.3}, \"clauses\": {}, \"obligations\": {}, \"conflicts\": {}}}"
            ),
            name,
            sequential.verdict,
            sequential_ms,
            sequential.result.stats.clauses,
            sequential.result.stats.obligations,
            sequential.result.stats.conflicts,
        ));

        // ---- parallel at each worker count.
        let mut one_worker_ms = f64::NAN;
        let mut reference_certificate: Option<String> = None;
        for workers in WORKER_SWEEP {
            if threads_cap && workers > trace.threads.max(1) {
                eprintln!(
                    "{name}: skipping {workers} workers (--threads {})",
                    trace.threads
                );
                continue;
            }
            let options = ParallelPdrOptions {
                threads: workers,
                ..Default::default()
            };
            let mut times = Vec::new();
            let mut measured = None;
            for _ in 0..repeats {
                let start = Instant::now();
                let result = check_property_pdr_traced(
                    &spec,
                    &netlist,
                    &property,
                    &options,
                    None,
                    trace.tracer(),
                )
                .expect("netlist elaborates");
                let ms = start.elapsed().as_secs_f64() * 1e3;
                let measurement = summarize(&name, result);
                // The determinism guarantee, checked on every repeat at
                // every worker count: one certificate per workload.
                match &reference_certificate {
                    None => reference_certificate = Some(measurement.certificate.clone()),
                    Some(reference) => assert_eq!(
                        &measurement.certificate, reference,
                        "{name}: certificate diverged at {workers} workers"
                    ),
                }
                times.push(ms);
                measured = Some(measurement);
            }
            let measured = measured.expect("at least one repeat");
            let ms = median_ms(times);
            if workers == 1 {
                one_worker_ms = ms;
            }
            let speedup = one_worker_ms / ms;
            let stats = &measured.result.stats;
            // The ≥3× scaling claim only applies to the deepest chain's
            // 8-worker row, and only measures on full runs with ≥8 cores.
            // When it cannot be asserted the row says so explicitly —
            // `"gated": true` — instead of silently passing.
            let scaling_row = workers == 8 && depth == deepest;
            let gated = scaling_row && (smoke || cores < 8);
            let gated_field = if scaling_row {
                format!(", \"gated\": {gated}")
            } else {
                String::new()
            };
            // `clauses`/`obligations` are canonical statistics (identical
            // at every worker count and run); `speedup`/`imported`/
            // `exported` are per-run attribution, ignored by
            // `baselines/tolerances.json`. The solver-internal `conflicts`
            // aggregate over worker solvers whose query mix depends on
            // stealing order, so parallel rows deliberately omit them.
            entries.push(format!(
                concat!(
                    "  {{\"experiment\": \"parallel_scaling\", \"workload\": \"{}\", ",
                    "\"engine\": \"parallel\", \"workers\": {}, \"verdict\": \"{}\", ",
                    "\"ms\": {:.3}, \"speedup\": {:.3}, \"clauses\": {}, \"obligations\": {}, ",
                    "\"imported\": {}, \"exported\": {}{}}}"
                ),
                name,
                workers,
                measured.verdict,
                ms,
                speedup,
                stats.clauses,
                stats.obligations,
                stats.imported_clauses,
                stats.exported_clauses,
                gated_field,
            ));

            // ---- the scaling claims, where measurable.
            if workers == 1 {
                let overhead = ms / sequential_ms;
                eprintln!(
                    "{name}: 1-worker batched {ms:.2}ms vs sequential {sequential_ms:.2}ms \
                     ({overhead:.2}x)"
                );
                if !smoke {
                    assert!(
                        overhead <= 1.10,
                        "{name}: 1-worker batched rounds must stay within 10% of sequential \
                         ({ms:.2}ms vs {sequential_ms:.2}ms)"
                    );
                }
            }
            if scaling_row && !gated {
                assert!(
                    speedup >= 3.0,
                    "{name}: expected ≥3x speedup at 8 workers on an {cores}-core host, \
                     got {speedup:.2}x"
                );
            } else if scaling_row && cores < 8 {
                eprintln!(
                    "{name}: ≥3x @ 8 workers assertion gated: host has {cores} cores (<8), \
                     wall-clock scaling is not measurable"
                );
            }
        }
    }

    emit_bench_json("parallel_scaling", smoke, &entries);
    eprintln!(
        "{} depths × (sequential + {} worker counts): {} points ({cores} cores available)",
        depths.len(),
        WORKER_SWEEP.len(),
        entries.len()
    );
    trace.finish();
}
