//! Typed counterexample traces and deterministic replay.
//!
//! A BMC falsification is only as trustworthy as its interpretation: the
//! solver model lives in CNF-land, so [`Counterexample`] reduces it to what
//! the engineer needs — *the input sequence* — and [`Counterexample::replay`]
//! re-runs that sequence through the cycle-accurate [`ipcl_rtl::Simulator`]
//! and re-evaluates the violated property on real signal values. A
//! counterexample that does not replay indicates an encoding bug, so the
//! checker asserts replayability before reporting.

use std::collections::BTreeMap;

use ipcl_core::FunctionalSpec;
use ipcl_expr::VarId;
use ipcl_rtl::{Netlist, RtlError, SignalKind, Simulator};
use ipcl_trace::json::write_json_string;

use crate::property::SequentialProperty;

/// A falsifying execution: one input valuation per frame, ending at the
/// frame where the property instance evaluates false.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// Name of the violated property (`"long.4/functional"`, …).
    pub property: String,
    /// Per-frame valuations of the primary inputs (and of any specification
    /// environment variables the netlist does not implement), keyed by
    /// signal name.
    pub frames: Vec<BTreeMap<String, bool>>,
    /// The frame at which the property's `moe` sample is violated (always
    /// the last frame of the trace).
    pub violation_frame: usize,
}

/// The signal values observed while replaying a counterexample.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Per-frame values of every specification variable as seen by the
    /// property evaluation (environment from the trace, `moe` from the
    /// simulator), keyed by name.
    pub observations: Vec<BTreeMap<String, bool>>,
    /// Whether the property indeed evaluates false at the violation frame.
    pub violation_reproduced: bool,
}

impl Counterexample {
    /// Number of frames (cycles) in the trace.
    pub fn length(&self) -> usize {
        self.frames.len()
    }

    /// Replays the trace through a fresh [`Simulator`] of `netlist` and
    /// re-evaluates `property` at the violation frame.
    ///
    /// Environment variables are read from the recorded frame at the
    /// property's latency offset; `moe` variables are read from the *live
    /// simulator* at the violation frame — so a reproduced violation really
    /// is a statement about the implementation, not about the solver model.
    ///
    /// # Errors
    ///
    /// Propagates [`RtlError`]s from netlist elaboration.
    pub fn replay(
        &self,
        spec: &FunctionalSpec,
        netlist: &Netlist,
        property: &SequentialProperty,
    ) -> Result<Replay, RtlError> {
        let mut simulator = Simulator::new(netlist)?;
        let moe_vars: std::collections::BTreeSet<VarId> = spec.moe_vars().into_iter().collect();
        let pool = spec.pool();
        let mut observations = Vec::with_capacity(self.frames.len());
        let mut violation_reproduced = false;

        for (frame, inputs) in self.frames.iter().enumerate() {
            // Drive every recorded value that is a primary input — batched,
            // so the frame costs one combinational settle, not one per
            // driven signal.
            simulator.set_inputs(inputs.iter().filter_map(|(name, &value)| {
                let signal = netlist.find(name)?;
                matches!(netlist.signal(signal).kind, SignalKind::Input).then_some((signal, value))
            }));

            // Observe the property's view of this frame.
            let env_frame = frame.saturating_sub(property.latency.offset());
            let lookup = |var: VarId| -> bool {
                let name = pool.name_or_fallback(var);
                if moe_vars.contains(&var) {
                    simulator.value_by_name(&name).unwrap_or(false)
                } else {
                    self.frames[env_frame].get(&name).copied().unwrap_or(false)
                }
            };
            let mut observed = BTreeMap::new();
            for var in property.ok.vars() {
                observed.insert(pool.name_or_fallback(var), lookup(var));
            }
            if frame == self.violation_frame
                && frame >= property.latency.first_instance()
                && !property.ok.eval_with(lookup)
            {
                violation_reproduced = true;
            }
            observations.push(observed);
            simulator.step();
        }

        Ok(Replay {
            observations,
            violation_reproduced,
        })
    }

    /// Serialises the trace as a single-line JSON object:
    ///
    /// ```json
    /// {"property": "long.4/functional", "violation_frame": 3,
    ///  "frames": [{"long.req": true, "c.gnt": false, ...}, ...]}
    /// ```
    ///
    /// The format is the storage side of the `ipcl-serve` result cache;
    /// the matching parser lives there (`ipcl_serve::protocol`). Signal
    /// names are JSON-escaped, so any netlist naming round-trips.
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\"property\": ");
        write_json_string(&mut out, &self.property);
        out.push_str(&format!(
            ", \"violation_frame\": {}, \"frames\": [",
            self.violation_frame
        ));
        for (i, frame) in self.frames.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('{');
            for (j, (name, value)) in frame.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_json_string(&mut out, name);
                out.push_str(&format!(": {value}"));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Renders the trace as a waveform-style table for reports.
    pub fn render(&self) -> String {
        let mut names: Vec<&String> = self.frames.iter().flat_map(|frame| frame.keys()).collect();
        names.sort();
        names.dedup();
        let mut out = format!(
            "counterexample for {} ({} cycle{}):\n",
            self.property,
            self.length(),
            if self.length() == 1 { "" } else { "s" }
        );
        for name in names {
            let values: String = self
                .frames
                .iter()
                .map(|frame| match frame.get(name) {
                    Some(true) => '1',
                    Some(false) => '0',
                    None => '-',
                })
                .collect();
            out.push_str(&format!("  {name:<28} {values}\n"));
        }
        out
    }
}
