//! Golden sweep results: the 64-lane falsification sweep must keep drawing
//! the same random scenarios and reporting the same violations and the same
//! replay-verified counterexamples, in the same order, for a given seed.
//! Seeded CI runs, the checker's flagged-first property order and every
//! benchmark counter built on the prepass depend on it.
//!
//! `sweep_golden.txt` holds one line per combinational-latency design of
//! the 4-preset × 5-variant matrix (the registered variant is swept only at
//! registered latency, so it is left out) and seed: the violation count,
//! the lane total, the counterexample count, and the SHA-256 of the `Debug`
//! rendering of the whole `violations` and `counterexamples` vectors.

use ipcl_checker::random_falsification_bitsim;
use ipcl_core::ArchSpec;
use ipcl_pipesim::BrokenVariant;
use ipcl_rtl::sha256_hex;
use ipcl_synth::{synthesize_broken_interlock, synthesize_interlock};

const GOLDEN: &str = include_str!("sweep_golden.txt");

#[test]
fn sweep_violations_and_counterexamples_match_the_golden_values() {
    let presets = [
        ("paper", ArchSpec::paper_example()),
        ("firepath", ArchSpec::firepath_like()),
        ("syn2x6", ArchSpec::synthetic(2, 6)),
        ("syn4x8", ArchSpec::synthetic(4, 8)),
    ];
    let mut computed = String::new();
    for (preset, arch) in presets {
        let spec = arch.functional_spec().expect("preset specs are valid");
        let variants = [
            ("comb", synthesize_interlock(&spec)),
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
            for seed in [0x1b3c, 0xF00D, 0xB175_1B3C] {
                let sweep = random_falsification_bitsim(&spec, synthesized.netlist(), 200, seed)
                    .expect("preset designs elaborate");
                let lanes: u32 = sweep.violations.iter().map(|v| v.lane_count()).sum();
                computed.push_str(&format!(
                    "{preset}/{variant} {seed:x} violations={} lanes={lanes} cex={} {} {}\n",
                    sweep.violations.len(),
                    sweep.counterexamples.len(),
                    sha256_hex(format!("{:?}", sweep.violations).as_bytes()),
                    sha256_hex(format!("{:?}", sweep.counterexamples).as_bytes()),
                ));
            }
        }
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let computed: Vec<&str> = computed.lines().collect();
    for (want, got) in golden.iter().zip(&computed) {
        assert_eq!(got, want, "sweep results changed");
    }
    assert_eq!(computed.len(), golden.len(), "golden table size changed");
}
