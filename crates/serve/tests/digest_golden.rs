//! Golden cache keys: `structural_digest` and `cache_key` must stay
//! byte-identical across changes to how the digest is computed, or every
//! persisted proof cache would go cold and renamed designs submitted
//! before and after an upgrade would stop sharing entries.
//!
//! `digest_golden.txt` holds one line per value, `<design> <what> <hex>`,
//! for every design of the 4-preset × 5-variant matrix plus
//! `deep_pipeline(12)`: `<what>` is `*` for the structural digest over the
//! spec's full interface (every `moe` flag and every variable of a stall
//! rule — the interface a batch groups by) and a property name for that
//! property's cache key.

use std::collections::BTreeSet;

use ipcl_bmc::{Latency, SequentialProperty};
use ipcl_core::{ArchSpec, FunctionalSpec};
use ipcl_pdr::deep::deep_pipeline;
use ipcl_pipesim::BrokenVariant;
use ipcl_rtl::{structural_digest, Netlist};
use ipcl_serve::cache_key;
use ipcl_synth::{
    synthesize_broken_interlock, synthesize_interlock, synthesize_interlock_with, SynthesisOptions,
};

const GOLDEN: &str = include_str!("digest_golden.txt");

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
    let (spec, netlist) = deep_pipeline(12);
    designs.push(("deep/12".to_owned(), spec, netlist));
    designs
}

/// Every `moe` flag and every variable a stall rule reads.
fn full_interface(spec: &FunctionalSpec) -> Vec<String> {
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

#[test]
fn digests_and_cache_keys_match_the_golden_values() {
    let mut computed = String::new();
    for (name, spec, netlist) in designs() {
        let digest = structural_digest(&netlist, &full_interface(&spec));
        computed.push_str(&format!("{name} * {digest}\n"));
        let latency = Latency::detect(&spec, &netlist);
        for property in SequentialProperty::both_directions(&spec, latency) {
            let key = cache_key(&spec, &netlist, &property);
            computed.push_str(&format!("{name} {} {key}\n", property.name));
        }
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let computed: Vec<&str> = computed.lines().collect();
    for (want, got) in golden.iter().zip(&computed) {
        assert_eq!(got, want, "digest or cache key changed");
    }
    assert_eq!(computed.len(), golden.len(), "golden table size changed");
}
