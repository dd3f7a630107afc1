//! Full-stack exercise of the bit-parallel pre-pass: every injected bug
//! class is swept 64-wide, each violating lane extracted into a trace that
//! must replay bit-identically through the interpreted simulator, and the
//! sequential checker's verdicts and prepass flags agree with the netlist's
//! bugs.

use ipcl_checker::{
    check_netlist_sequential_with, random_falsification_bitsim, Engine, Latency, SequentialOptions,
    SequentialProperty,
};
use ipcl_core::example::ExampleArch;
use ipcl_pipesim::BrokenVariant;
use ipcl_synth::{synthesize_broken_interlock, synthesize_interlock};

const VARIANTS: [BrokenVariant; 3] = [
    BrokenVariant::IgnoreScoreboard,
    BrokenVariant::IgnoreCompletionGrant,
    BrokenVariant::BadResetValues { cycles: 2 },
];

#[test]
fn every_broken_variant_yields_interpreter_verified_lane_traces() {
    let spec = ExampleArch::new().functional_spec();
    let properties = SequentialProperty::both_directions(&spec, Latency::Combinational);
    for variant in VARIANTS {
        let broken = synthesize_broken_interlock(&spec, variant);
        let sweep = random_falsification_bitsim(&spec, broken.netlist(), 150, 0x1b3c).unwrap();
        assert!(
            !sweep.violations.is_empty(),
            "{variant:?} survived the 64-lane sweep"
        );
        assert!(!sweep.counterexamples.is_empty(), "{variant:?}");
        for cex in &sweep.counterexamples {
            // The extraction already asserts reproduction; replay again here
            // so the discipline is checked end-to-end from the public API.
            let property = properties
                .iter()
                .find(|p| p.name == cex.property)
                .expect("property portfolio covers every extracted trace");
            let replay = cex.replay(&spec, broken.netlist(), property).unwrap();
            assert!(
                replay.violation_reproduced,
                "{variant:?}: lane trace for {} did not reproduce:\n{}",
                cex.property,
                cex.render()
            );
            assert_eq!(cex.violation_frame, cex.length() - 1);
        }
    }
}

#[test]
fn sequential_checker_verdicts_match_the_prepass() {
    let spec = ExampleArch::new().functional_spec();
    let correct = synthesize_interlock(&spec);
    let broken = synthesize_broken_interlock(&spec, BrokenVariant::IgnoreScoreboard);
    let options = SequentialOptions::from(Engine::Bmc { k: 4 });
    for (netlist, buggy) in [(correct.netlist(), false), (broken.netlist(), true)] {
        let report = check_netlist_sequential_with(&spec, netlist, &options).unwrap();
        assert_eq!(report.falsified(), buggy);
        assert_eq!(report.proved(), !buggy);
        // The prepass flags a buggy netlist and never a correct one.
        assert_eq!(report.prepass_violations.is_empty(), !buggy);
    }
}

#[test]
fn bitsim_prepass_events_surface_in_the_trace() {
    let spec = ExampleArch::new().functional_spec();
    let correct = synthesize_interlock(&spec);
    let options = SequentialOptions {
        trace: ipcl_checker::TraceConfig::enabled(),
        ..SequentialOptions::from(Engine::Bmc { k: 4 })
    };
    let report = check_netlist_sequential_with(&spec, correct.netlist(), &options).unwrap();
    let snapshot = report.trace.expect("tracing was enabled");
    assert!(
        snapshot.events.iter().any(|e| e.kind == "bitsim_prepass"),
        "no bitsim_prepass event in the trace"
    );
}
