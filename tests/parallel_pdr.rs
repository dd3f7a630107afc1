//! Integration tests of the PDR round scheduler across worker counts.
//!
//! The headline guarantee under test: the work-stealing round scheduler is
//! **deterministic by construction** — verdicts, counterexample traces and
//! inductive-invariant certificates are bit-identical for every worker
//! count and across repeated runs, because workers only answer semantic
//! SAT/UNSAT bits while every model comes from the master's canonical
//! solver in canonical order. The suite runs the worker matrix
//! `{1, 2, 4, 8}` (with repeats) over proofs and over the broken-variant
//! falsification matrix, checks the verdicts against an independent BMC
//! run, and re-validates the certificate of every proof.

use ipcl::core::example::ExampleArch;
use ipcl::core::FunctionalSpec;
use ipcl::pdr::deep::deep_pipeline;
use ipcl::pdr::{check_property_pdr_traced, ParallelPdrOptions, PdrOutcome, PdrResult};
use ipcl::pipesim::BrokenVariant;
use ipcl::rtl::Netlist;
use ipcl::synth::{synthesize_broken_interlock, synthesize_interlock};
use ipcl::trace::Tracer;
use ipcl_bmc::{check_property, BmcOptions, Latency, PropertyKind, SequentialProperty};

const WORKER_MATRIX: [usize; 4] = [1, 2, 4, 8];

fn example_spec() -> FunctionalSpec {
    ExampleArch::new().functional_spec()
}

fn options(threads: usize) -> ParallelPdrOptions {
    ParallelPdrOptions {
        threads,
        ..Default::default()
    }
}

fn check(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
    options: &ParallelPdrOptions,
) -> PdrResult {
    check_property_pdr_traced(spec, netlist, property, options, None, &Tracer::disabled())
        .expect("test designs elaborate")
}

/// Proof determinism: the deep-chain certificate renders bit-identically
/// at 1, 2, 4 and 8 workers and across repeated runs, and every proof's
/// certificate re-validates with independent SAT queries.
#[test]
fn certificates_are_bit_identical_across_worker_counts_and_runs() {
    let (spec, netlist) = deep_pipeline(9);
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance, Latency::Combinational);
    let mut renders: Vec<String> = Vec::new();
    for threads in WORKER_MATRIX {
        for run in 0..2 {
            let result = check(&spec, &netlist, &property, &options(threads));
            let PdrOutcome::Proved { certificate, .. } = &result.outcome else {
                panic!(
                    "deep chain must prove at {threads} workers (run {run}), got {:?}",
                    result.outcome
                );
            };
            assert!(!certificate.is_trivial(), "the proof needs real lemmas");
            assert!(
                result.validation.expect("validation on by default").ok(),
                "certificate re-validation failed at {threads} workers"
            );
            renders.push(certificate.render());
        }
    }
    let reference = &renders[0];
    for (i, render) in renders.iter().enumerate() {
        assert_eq!(
            render, reference,
            "certificate diverged at matrix entry {i} (workers × repeats)"
        );
    }
}

/// Falsification determinism and agreement with BMC: on every broken
/// variant × property direction, PDR falsifies at every worker count
/// exactly when an independent BMC run to depth 8 does (both on the
/// unconditional semantics, `quiet_cycles = 0`), and its counterexample
/// trace renders bit-identically across the matrix (and replays on the
/// simulator).
#[test]
fn broken_variant_traces_are_bit_identical_and_agree_with_sequential() {
    let bmc_options = BmcOptions {
        quiet_cycles: 0,
        ..BmcOptions::with_depth(8)
    };
    let spec = example_spec();
    for variant in [
        BrokenVariant::IgnoreScoreboard,
        BrokenVariant::IgnoreCompletionGrant,
        BrokenVariant::BadResetValues { cycles: 2 },
    ] {
        let broken = synthesize_broken_interlock(&spec, variant);
        for property in SequentialProperty::both_directions(&spec, Latency::Combinational) {
            let bmc = check_property(&spec, broken.netlist(), &property, &bmc_options).unwrap();
            let mut renders: Vec<Option<String>> = Vec::new();
            for threads in WORKER_MATRIX {
                let parallel = check(&spec, broken.netlist(), &property, &options(threads));
                assert_eq!(
                    parallel.outcome.is_falsified(),
                    bmc.outcome.is_falsified(),
                    "{variant:?}/{}: PDR at {threads} workers disagrees with BMC",
                    property.name
                );
                if let Some(cex) = parallel.outcome.counterexample() {
                    let replay = cex.replay(&spec, broken.netlist(), &property).unwrap();
                    assert!(
                        replay.violation_reproduced,
                        "{variant:?}/{}: {}",
                        property.name,
                        cex.render()
                    );
                    renders.push(Some(cex.render()));
                } else {
                    renders.push(None);
                }
            }
            let reference = &renders[0];
            for (i, render) in renders.iter().enumerate() {
                assert_eq!(
                    render, reference,
                    "{variant:?}/{}: trace diverged at worker count {}",
                    property.name, WORKER_MATRIX[i]
                );
            }
        }
    }
}

/// The stateless special case (combinational interlock, no registers)
/// short-circuits without scheduling rounds — but still at every worker
/// count, with the trivial certificate.
#[test]
fn stateless_netlists_prove_trivially_at_every_worker_count() {
    let spec = example_spec();
    let synthesized = synthesize_interlock(&spec);
    for property in SequentialProperty::both_directions(&spec, Latency::Combinational) {
        for threads in [1, 4] {
            let result = check(&spec, synthesized.netlist(), &property, &options(threads));
            let PdrOutcome::Proved { certificate, .. } = &result.outcome else {
                panic!("{}: stateless proof failed", property.name);
            };
            assert!(certificate.is_trivial());
            assert!(result.validation.unwrap().ok());
        }
    }
}

/// Cube-and-conquer coverage: with the bad-query split enabled (it
/// defaults to off — branch bits are pure overhead at one worker) the
/// certificate is still bit-identical across worker counts, and on a
/// falsified design the counterexample trace is too.
#[test]
fn cube_and_conquer_split_is_deterministic_across_worker_counts() {
    let split = |threads| ParallelPdrOptions {
        split_registers: 2,
        ..options(threads)
    };

    let (spec, netlist) = deep_pipeline(7);
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance, Latency::Combinational);
    let mut renders: Vec<String> = Vec::new();
    for threads in WORKER_MATRIX {
        let result = check(&spec, &netlist, &property, &split(threads));
        let PdrOutcome::Proved { certificate, .. } = &result.outcome else {
            panic!(
                "split proof failed at {threads} workers: {:?}",
                result.outcome
            );
        };
        assert!(result.validation.unwrap().ok());
        renders.push(certificate.render());
    }
    assert!(
        renders.iter().all(|render| render == &renders[0]),
        "split certificate diverged across worker counts"
    );

    let spec = example_spec();
    let broken = synthesize_broken_interlock(&spec, BrokenVariant::IgnoreScoreboard);
    for property in SequentialProperty::both_directions(&spec, Latency::Combinational) {
        let mut traces: Vec<Option<String>> = Vec::new();
        for threads in [1, 4] {
            let result = check(&spec, broken.netlist(), &property, &split(threads));
            traces.push(result.outcome.counterexample().map(|cex| cex.render()));
        }
        assert_eq!(
            traces[0], traces[1],
            "{}: split trace diverged across worker counts",
            property.name
        );
    }
}

/// Knob robustness: disabling the clause exchange and the bad-query split,
/// or widening the split, must not change any verdict or certificate —
/// only the canonical trajectory knobs (`batch`, `split_registers`) may,
/// and they are pinned per run, never derived from the worker count.
#[test]
fn sharing_knob_does_not_change_the_certificate() {
    let (spec, netlist) = deep_pipeline(7);
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance, Latency::Combinational);
    let reference = {
        let result = check(&spec, &netlist, &property, &options(4));
        result.outcome.certificate().expect("proved").render()
    };
    let unshared = ParallelPdrOptions {
        share_max_lbd: 0,
        ..options(4)
    };
    let result = check(&spec, &netlist, &property, &unshared);
    assert_eq!(
        result.outcome.certificate().expect("proved").render(),
        reference,
        "the clause exchange must be invisible to the canonical trajectory"
    );
    assert_eq!(result.stats.imported_clauses, 0);
    assert_eq!(result.stats.exported_clauses, 0);
}
