//! Bit-parallel random falsification: the one compiled 64-lane sweep.
//!
//! [`sweep`] drives **64 independent random input sequences at once**
//! through a compiled [`ipcl_bitsim::BitSimulator`] — one `u64` word per
//! signal, bit `i` belonging to scenario `i` — and evaluates each
//! [`SequentialProperty`]'s invariant word-wide with
//! [`ipcl_bitsim::eval_expr_word`], under the same sampling rule as
//! [`Counterexample::replay`]: the environment at the property's latency
//! offset, the `moe` flags live. A sweep of `c` cycles therefore covers
//! `64 × c` scenario-cycles of every property for roughly the cost one
//! interpreted pass pays for `c`.
//!
//! It is the only random-simulation falsifier of the workspace. The
//! sequential checker's prepass ([`random_falsification_bitsim`], the
//! combinational portfolio in stage-major order) and `ipcl-serve`'s batch
//! pre-solver (the batch's own properties at any latency) both call it.
//!
//! **Oracle discipline.** The bit-parallel engine is an accelerator, never
//! an authority: for each violated property, the lowest violating lane of
//! its first violation is extracted into a standard [`Counterexample`] and
//! replayed gate-by-gate through the interpreted [`ipcl_rtl::Simulator`]
//! before the trace is reported. A lane verdict that fails to reproduce
//! under the interpreter would mean the compiled program diverged from the
//! netlist semantics — a simulator bug, not a property verdict — and
//! panics.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use ipcl_bitsim::{eval_expr_word, BitSimulator, LANES};
use ipcl_bmc::{Counterexample, Latency, PropertyKind, SequentialProperty};
use ipcl_core::FunctionalSpec;
use ipcl_expr::VarId;
use ipcl_rtl::{Netlist, RtlError, SignalId, SignalKind};

/// One word-wide property violation: the cycle, the property's stage and
/// direction, and the mask of lanes (scenarios) that violated it
/// simultaneously.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneViolation {
    /// Cycle at which the property failed.
    pub cycle: u64,
    /// Offending stage prefix.
    pub stage: String,
    /// `true` for a missed stall (a [`PropertyKind::Functional`] property),
    /// `false` otherwise (an unnecessary stall).
    pub functional: bool,
    /// Bitmask of the violating lanes (bit `i` = scenario `i`).
    pub lanes: u64,
}

impl LaneViolation {
    /// Number of scenarios that violated this property at this cycle.
    pub fn lane_count(&self) -> u32 {
        self.lanes.count_ones()
    }
}

/// Result of a bit-parallel falsification sweep.
#[derive(Clone, Debug)]
pub struct BitSweep {
    /// Every word-wide violation observed, in cycle order (within a cycle,
    /// in the order of the swept properties).
    pub violations: Vec<LaneViolation>,
    /// One interpreter-verified counterexample per violated property, in
    /// order of first violation — the lowest violating lane of that first
    /// violation, its input history extracted frame by frame and replayed
    /// through [`ipcl_rtl::Simulator`] (reproduction is asserted).
    pub counterexamples: Vec<Counterexample>,
    /// Total scenario-cycles swept (`cycles × 64`).
    pub scenarios: u64,
}

impl BitSweep {
    /// Whether the sweep observed no violation in any lane.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Drives `netlist` with 64 independent random environment sequences of
/// `cycles` cycles each and evaluates every property of `properties`
/// word-wide every cycle from its first instance on.
///
/// Each cycle draws one `u64` per environment variable, in
/// [`FunctionalSpec::env_vars`] order, so the stimulus depends only on
/// `spec`, `cycles` and `seed` — not on which properties are swept. A
/// `moe` flag the netlist does not implement reads as `0`, as in replay.
/// Violating lanes are extracted and interpreter-verified per the
/// module-level oracle discipline.
///
/// # Errors
///
/// Propagates [`RtlError`]s from netlist elaboration/compilation.
///
/// # Panics
///
/// Panics if an extracted counterexample fails to reproduce under the
/// interpreted simulator (a compiled-simulator bug, never a verdict).
pub fn sweep(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    properties: &[SequentialProperty],
    cycles: u64,
    seed: u64,
) -> Result<BitSweep, RtlError> {
    let mut sim = BitSimulator::new(netlist)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = spec.pool();
    let env_vars: Vec<VarId> = spec.env_vars().into_iter().collect();

    // Pre-resolve name lookups once: the environment inputs the netlist
    // implements, and the signal behind each moe flag (any kind — replay
    // reads them by name, whatever drives them).
    let driven: Vec<Option<SignalId>> = env_vars
        .iter()
        .map(|&var| {
            netlist
                .find(&pool.name_or_fallback(var))
                .filter(|&s| matches!(netlist.signal(s).kind, SignalKind::Input))
        })
        .collect();
    let moe_signals: BTreeMap<VarId, Option<SignalId>> = spec
        .moe_vars()
        .into_iter()
        .map(|var| (var, netlist.find(&pool.name_or_fallback(var))))
        .collect();

    // Words are indexed by variable id: one row of environment words per
    // cycle (kept for the latency offset and lane extraction), one row of
    // live moe words.
    let width = env_vars
        .iter()
        .chain(moe_signals.keys())
        .map(|var| var.index() + 1)
        .max()
        .unwrap_or(0);
    let mut is_moe = vec![false; width];
    for var in moe_signals.keys() {
        is_moe[var.index()] = true;
    }
    let mut moe_words = vec![0u64; width];
    let mut history: Vec<Vec<u64>> = Vec::with_capacity(cycles as usize);
    let mut violations = Vec::new();
    // `(property, cycle, lanes)` of each property's first violation.
    let mut firsts: Vec<(usize, u64, u64)> = Vec::new();

    for cycle in 0..cycles {
        // 64 random environments at once: every lane of every word is an
        // independent coin flip. Inputs are driven deferred; the first moe
        // read below pays the single combinational settle.
        let mut words = vec![0u64; width];
        for (&var, &signal) in env_vars.iter().zip(&driven) {
            let word = rng.next_u64();
            words[var.index()] = word;
            if let Some(signal) = signal {
                sim.set_input_word(signal, word);
            }
        }
        history.push(words);
        for (&var, &signal) in &moe_signals {
            if let Some(signal) = signal {
                moe_words[var.index()] = sim.value_word(signal);
            }
        }

        for (index, property) in properties.iter().enumerate() {
            if (cycle as usize) < property.latency.first_instance() {
                continue;
            }
            let env = &history[(cycle as usize).saturating_sub(property.latency.offset())];
            let lookup = |var: VarId| {
                let i = var.index();
                if is_moe.get(i).copied().unwrap_or(false) {
                    moe_words[i]
                } else {
                    env.get(i).copied().unwrap_or(0)
                }
            };
            let lanes = !eval_expr_word(&property.ok, lookup);
            if lanes == 0 {
                continue;
            }
            violations.push(LaneViolation {
                cycle,
                stage: property.stage.clone(),
                functional: property.kind == PropertyKind::Functional,
                lanes,
            });
            if firsts.iter().all(|&(first, _, _)| first != index) {
                firsts.push((index, cycle, lanes));
            }
        }
        sim.step();
    }

    let mut counterexamples = Vec::with_capacity(firsts.len());
    for (index, cycle, lanes) in firsts {
        let property = &properties[index];
        let lane = lanes.trailing_zeros();
        let frames = history[..=cycle as usize]
            .iter()
            .map(|words| {
                env_vars
                    .iter()
                    .map(|&var| {
                        let value = (words[var.index()] >> lane) & 1 == 1;
                        (pool.name_or_fallback(var), value)
                    })
                    .collect()
            })
            .collect();
        let cex = Counterexample {
            property: property.name.clone(),
            frames,
            violation_frame: cycle as usize,
        };
        let replay = cex.replay(spec, netlist, property)?;
        assert!(
            replay.violation_reproduced,
            "bit-parallel counterexample for {} (lane {lane}) failed to replay through \
             the interpreter — the compiled simulator diverged from the netlist \
             semantics:\n{}",
            property.name,
            cex.render()
        );
        counterexamples.push(cex);
    }

    Ok(BitSweep {
        violations,
        counterexamples,
        scenarios: cycles * LANES as u64,
    })
}

/// The checker's prepass: [`sweep`] over the functional and performance
/// properties of every stage at combinational latency (`moe` and
/// environment sampled in the same cycle), in stage-major order — each
/// stage's functional property, then its performance property. Run it on
/// combinational-latency implementations.
///
/// # Errors
///
/// As [`sweep`].
///
/// # Panics
///
/// As [`sweep`].
pub fn random_falsification_bitsim(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    cycles: u64,
    seed: u64,
) -> Result<BitSweep, RtlError> {
    let mut functional = SequentialProperty::both_directions(spec, Latency::Combinational);
    let performance = functional.split_off(spec.stages().len());
    let properties: Vec<SequentialProperty> = functional
        .into_iter()
        .zip(performance)
        .flat_map(|(f, p)| [f, p])
        .collect();
    sweep(spec, netlist, &properties, cycles, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_core::example::ExampleArch;
    use ipcl_synth::{synthesize_interlock, synthesize_interlock_with, SynthesisOptions};

    #[test]
    fn correct_combinational_synthesis_sweeps_clean() {
        let spec = ExampleArch::new().functional_spec();
        let synthesized = synthesize_interlock(&spec);
        let sweep = random_falsification_bitsim(&spec, synthesized.netlist(), 300, 0xF00D).unwrap();
        assert!(sweep.clean(), "{:?}", sweep.violations);
        assert!(sweep.counterexamples.is_empty());
        assert_eq!(sweep.scenarios, 300 * 64);
    }

    #[test]
    fn registered_properties_sample_the_environment_one_cycle_early() {
        // A correct registered synthesis sweeps clean at registered latency;
        // the combinational synthesis, answering one cycle early, does not —
        // and its traces replay at that latency.
        let spec = ExampleArch::new().functional_spec();
        let properties = SequentialProperty::both_directions(&spec, Latency::Registered);
        let registered = SynthesisOptions {
            registered_outputs: true,
            ..Default::default()
        };
        let correct = synthesize_interlock_with(&spec, registered);
        let clean = sweep(&spec, correct.netlist(), &properties, 100, 0xF00D).unwrap();
        assert!(clean.clean(), "{:?}", clean.violations);

        let early = synthesize_interlock(&spec);
        let found = sweep(&spec, early.netlist(), &properties, 100, 0xF00D).unwrap();
        assert!(found.violations.iter().all(|v| v.cycle >= 1));
        assert!(!found.counterexamples.is_empty());
        for cex in &found.counterexamples {
            let property = properties.iter().find(|p| p.name == cex.property).unwrap();
            let replay = cex.replay(&spec, early.netlist(), property).unwrap();
            assert!(replay.violation_reproduced, "{}", cex.render());
        }
    }
}
