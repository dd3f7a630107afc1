//! Golden PDR results: `check_property_pdr` must keep deciding every
//! property along the same trajectory — the same verdicts, certificates,
//! traces and deterministic work counters — for the preset matrix and the
//! deep chain. Benchmark counters (`pdr.clauses`, `pdr.obligations`,
//! `pdr.solve_calls`, `sat.conflicts`) and every persisted proof cache
//! depend on it.
//!
//! `pdr_golden.txt` holds one line per property of the 4-preset ×
//! 5-variant matrix (latency auto-detected, as `check_netlist_sequential`
//! does) and of `deep_pipeline` at depths 5, 7, 9, 12 and 16: the verdict,
//! the fixpoint or violation frame, the SHA-256 of the rendered certificate
//! or counterexample trace, and the frames, clauses, solve-call,
//! obligation, generalisation-drop and conflict counts.

use ipcl::core::{ArchSpec, FunctionalSpec};
use ipcl::pdr::deep::deep_pipeline;
use ipcl::pdr::{check_property_pdr, PdrOptions, PdrOutcome};
use ipcl::pipesim::BrokenVariant;
use ipcl::rtl::{sha256_hex, Netlist};
use ipcl::synth::{
    synthesize_broken_interlock, synthesize_interlock, synthesize_interlock_with, SynthesisOptions,
};
use ipcl_bmc::{Latency, SequentialProperty};

const GOLDEN: &str = include_str!("pdr_golden.txt");

/// Every design of the table, named `<preset>/<variant>` or `deep/<depth>`.
fn designs() -> Vec<(String, FunctionalSpec, Netlist)> {
    let presets = [
        ("paper", ArchSpec::paper_example()),
        ("firepath", ArchSpec::firepath_like()),
        ("syn2x6", ArchSpec::synthetic(2, 6)),
        ("syn4x8", ArchSpec::synthetic(4, 8)),
    ];
    let registered = SynthesisOptions {
        registered_outputs: true,
        reset_value: true,
        ..Default::default()
    };
    let mut designs = Vec::new();
    for (preset, arch) in presets {
        let spec = arch.functional_spec().expect("preset specs are valid");
        let variants = [
            ("comb", synthesize_interlock(&spec)),
            ("reg", synthesize_interlock_with(&spec, registered)),
            (
                "scoreboard",
                synthesize_broken_interlock(&spec, BrokenVariant::IgnoreScoreboard),
            ),
            (
                "grant",
                synthesize_broken_interlock(&spec, BrokenVariant::IgnoreCompletionGrant),
            ),
            (
                "reset2",
                synthesize_broken_interlock(&spec, BrokenVariant::BadResetValues { cycles: 2 }),
            ),
        ];
        for (variant, synthesized) in variants {
            designs.push((
                format!("{preset}/{variant}"),
                spec.clone(),
                synthesized.netlist().clone(),
            ));
        }
    }
    for depth in [5, 7, 9, 12, 16] {
        let (spec, netlist) = deep_pipeline(depth);
        designs.push((format!("deep/{depth}"), spec, netlist));
    }
    designs
}

#[test]
fn pdr_verdicts_artifacts_and_counters_match_the_golden_values() {
    let mut computed = String::new();
    for (name, spec, netlist) in designs() {
        let latency = Latency::detect(&spec, &netlist);
        for property in SequentialProperty::both_directions(&spec, latency) {
            let result = check_property_pdr(&spec, &netlist, &property, &PdrOptions::default())
                .expect("matrix designs elaborate");
            let (verdict, frame, artifact) = match &result.outcome {
                PdrOutcome::Proved {
                    certificate,
                    fixpoint_frame,
                } => ("proved", *fixpoint_frame, certificate.render()),
                PdrOutcome::Falsified(cex) => ("falsified", cex.violation_frame, cex.render()),
                PdrOutcome::Unknown { frames_explored } => {
                    ("unknown", *frames_explored, String::new())
                }
            };
            let stats = &result.stats;
            computed.push_str(&format!(
                "{name} {} {verdict} frame={frame} {} frames={} clauses={} solve_calls={} \
                 obligations={} drops={} conflicts={}\n",
                property.name,
                sha256_hex(artifact.as_bytes()),
                stats.frames,
                stats.clauses,
                stats.solve_calls,
                stats.obligations,
                stats.generalization_drops,
                stats.conflicts,
            ));
        }
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let computed: Vec<&str> = computed.lines().collect();
    for (want, got) in golden.iter().zip(&computed) {
        assert_eq!(got, want, "PDR trajectory changed");
    }
    assert_eq!(computed.len(), golden.len(), "golden table size changed");
}
