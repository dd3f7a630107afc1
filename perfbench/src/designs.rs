//! The benchmark's inputs: the preset × variant matrix, the deep chain,
//! and the two seeded netlist transformations the serve workloads need —
//! renamed copies (structural cache hits) and equivalent-but-restructured
//! copies (fresh designs that miss the cache yet keep a known verdict).
//!
//! Every transformation goes through the public `Netlist` builder API.

use std::collections::{BTreeMap, BTreeSet};

use ipcl_bmc::{Latency, SequentialProperty};
use ipcl_core::{ArchSpec, FunctionalSpec};
use ipcl_pdr::deep::deep_pipeline;
use ipcl_pipesim::BrokenVariant;
use ipcl_rtl::{Gate, Netlist, SignalId, SignalKind};
use ipcl_synth::{
    synthesize_broken_interlock, synthesize_interlock, synthesize_interlock_with, SynthesisOptions,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// One design under verification.
#[derive(Clone)]
pub struct Design {
    /// `<preset>/<variant>` or `deep/<depth>`; the oracle table's key.
    pub name: String,
    pub spec: FunctionalSpec,
    pub netlist: Netlist,
}

impl Design {
    /// Whether the design is one of the injected-bug variants.
    pub fn broken(&self) -> bool {
        ["scoreboard", "grant", "reset2"]
            .iter()
            .any(|v| self.name.ends_with(v))
    }

    /// The property portfolio `check_netlist_sequential` decides.
    pub fn properties(&self) -> Vec<SequentialProperty> {
        let latency = Latency::detect(&self.spec, &self.netlist);
        SequentialProperty::both_directions(&self.spec, latency)
    }
}

/// The preset architectures of the matrix (smoke runs keep the first).
pub fn presets(smoke: bool) -> Vec<(&'static str, ArchSpec)> {
    let all = vec![
        ("paper", ArchSpec::paper_example()),
        ("firepath", ArchSpec::firepath_like()),
        ("syn2x6", ArchSpec::synthetic(2, 6)),
        ("syn4x8", ArchSpec::synthetic(4, 8)),
    ];
    all.into_iter().take(if smoke { 1 } else { 4 }).collect()
}

/// Designs per preset in [`preset_matrix`], consecutive in its order.
pub const VARIANTS: usize = 5;

/// The presets `serve-batch` sends: the two with the largest property
/// sets (48 and 64 properties), so every batch is big enough for the batch
/// pre-solver to dominate. With the small presets in the mix, the median
/// round trip would sit in the gap between small and large batches.
pub fn batch_presets(smoke: bool) -> Vec<(&'static str, ArchSpec)> {
    if smoke {
        presets(true)
    } else {
        vec![
            ("firepath", ArchSpec::firepath_like()),
            ("syn4x8", ArchSpec::synthetic(4, 8)),
        ]
    }
}

/// [`matrix`] of every preset.
pub fn preset_matrix(smoke: bool) -> Vec<Design> {
    matrix(presets(smoke))
}

/// Derives every preset's functional spec and synthesises its five
/// variants: combinational, registered, and the three injected bugs.
pub fn matrix(presets: Vec<(&'static str, ArchSpec)>) -> Vec<Design> {
    let mut designs = Vec::new();
    for (preset, arch) in presets {
        let spec = arch.functional_spec().expect("preset specs are valid");
        let registered = SynthesisOptions {
            registered_outputs: true,
            reset_value: true,
            ..Default::default()
        };
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
            designs.push(Design {
                name: format!("{preset}/{variant}"),
                spec: spec.clone(),
                netlist: synthesized.netlist().clone(),
            });
        }
    }
    designs
}

/// `deep_pipeline(depth)`, the reference chain of the traced runs.
pub fn deep_chain(depth: usize) -> Design {
    let (spec, netlist) = deep_pipeline(depth);
    Design {
        name: format!("deep/{depth}"),
        spec,
        netlist,
    }
}

/// Fisher–Yates shuffle on the compat `rand` generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// The names a specification refers to: every `moe` flag and environment
/// signal. They are the interface a copy must keep.
fn interface_names(spec: &FunctionalSpec) -> BTreeSet<String> {
    let pool = spec.pool();
    spec.moe_vars()
        .into_iter()
        .chain(spec.env_vars())
        .map(|v| pool.name_or_fallback(v))
        .collect()
}

/// How [`rebuild`] alters the copy it makes.
enum Rewrite {
    /// Rename every internal wire and shuffle commutative operands.
    Rename,
    /// Keep names; pass every one of these `moe` signals through the
    /// identity chain that spells `code` (a wire's gate moves to
    /// `<name>__core`, a register's next-state input goes through the
    /// chain on its way in).
    Restructure {
        moe: BTreeSet<SignalId>,
        code: usize,
    },
}

/// Rebuilds `netlist` through the builder API, creating inputs, registers
/// and wires in a seeded (dependency-respecting) order.
///
/// Interface signals and registers keep their names: properties name the
/// interface, and certificates and traces name registers and inputs.
fn rebuild(
    netlist: &Netlist,
    spec: &FunctionalSpec,
    rewrite: Rewrite,
    rng: &mut StdRng,
) -> Netlist {
    let keep = interface_names(spec);
    let mut copy = Netlist::new(netlist.name());
    // Original signal → its copy.
    let mut copy_of: BTreeMap<SignalId, SignalId> = BTreeMap::new();
    let restructured = |id: SignalId| match &rewrite {
        Rewrite::Restructure { moe, code } if moe.contains(&id) => Some(*code),
        _ => None,
    };

    let mut sources: Vec<SignalId> = netlist
        .iter()
        .filter(|(_, s)| !matches!(s.kind, SignalKind::Wire(_)))
        .map(|(id, _)| id)
        .collect();
    shuffle(&mut sources, rng);
    for id in sources {
        let signal = netlist.signal(id);
        let new = match signal.kind {
            SignalKind::Register { init, .. } => copy.register(&signal.name, init),
            _ => copy.input(&signal.name),
        };
        copy_of.insert(id, new);
    }

    // Wires in a random topological order: repeatedly pick a random wire
    // whose operands all exist.
    let mut pending: Vec<SignalId> = netlist
        .iter()
        .filter(|(_, s)| matches!(s.kind, SignalKind::Wire(_)))
        .map(|(id, _)| id)
        .collect();
    let mut fresh_names = 0usize;
    while !pending.is_empty() {
        let ready: Vec<usize> = (0..pending.len())
            .filter(|&i| match &netlist.signal(pending[i]).kind {
                SignalKind::Wire(gate) => gate.inputs().iter().all(|s| copy_of.contains_key(s)),
                _ => unreachable!("only wires are pending"),
            })
            .collect();
        assert!(!ready.is_empty(), "netlist has a combinational cycle");
        let id = pending.swap_remove(ready[rng.random_range(0..ready.len())]);
        let signal = netlist.signal(id);
        let SignalKind::Wire(gate) = &signal.kind else {
            unreachable!("only wires are pending")
        };
        let read = |s: &SignalId| copy_of[s];
        let mut gate = match gate {
            Gate::Const(v) => Gate::Const(*v),
            Gate::Buf(a) => Gate::Buf(read(a)),
            Gate::Not(a) => Gate::Not(read(a)),
            Gate::And(ops) => Gate::And(ops.iter().map(read).collect()),
            Gate::Or(ops) => Gate::Or(ops.iter().map(read).collect()),
            Gate::Xor(a, b) => Gate::Xor(read(a), read(b)),
            Gate::Mux { sel, high, low } => Gate::Mux {
                sel: read(sel),
                high: read(high),
                low: read(low),
            },
        };
        let name = match rewrite {
            Rewrite::Rename if !keep.contains(&signal.name) => {
                if let Gate::And(ops) | Gate::Or(ops) = &mut gate {
                    shuffle(ops, rng);
                }
                fresh_names += 1;
                format!("n{:08x}_{fresh_names}", rng.next_u64() as u32)
            }
            _ => signal.name.clone(),
        };
        let new = match restructured(id) {
            None => copy.wire(&name, gate),
            Some(code) => {
                let core = copy.wire(&format!("{name}__core"), gate);
                identity_chain(&mut copy, &name, core, code, true)
            }
        };
        copy_of.insert(id, new);
    }

    for (id, signal) in netlist.iter() {
        if let SignalKind::Register {
            next: Some(next), ..
        } = signal.kind
        {
            let next = match restructured(id) {
                None => copy_of[&next],
                Some(code) => identity_chain(&mut copy, &signal.name, copy_of[&next], code, false),
            };
            copy.connect_register(copy_of[&id], next)
                .expect("copied register");
        }
    }
    for output in netlist.outputs() {
        copy.mark_output(copy_of[output]);
    }
    copy
}

/// Gadgets in an identity chain; each computes its input unchanged.
const CHAIN_LENGTH: u32 = 5;

/// Distinct codes a restructured copy can carry: each gadget is one of
/// four kinds.
pub const CODES: usize = 4usize.pow(CHAIN_LENGTH);

/// `CHAIN_LENGTH` gadgets in series after `signal`, digit `k` of `code`
/// (base 4) choosing gadget `k`: two inverters, a buffer, `x & x` or
/// `x | x`. Gadgets are named `<name>__g<k>`; with `named`, the last one
/// takes `name` itself. Every code gives the same function and a structure
/// of its own, of the same size.
fn identity_chain(
    copy: &mut Netlist,
    name: &str,
    signal: SignalId,
    code: usize,
    named: bool,
) -> SignalId {
    (0..CHAIN_LENGTH).fold(signal, |x, k| {
        let out = if named && k + 1 == CHAIN_LENGTH {
            name.to_owned()
        } else {
            format!("{name}__g{k}")
        };
        match code / 4usize.pow(k) % 4 {
            0 => {
                let inner = copy.not_gate(&format!("{name}__g{k}n"), x);
                copy.not_gate(&out, inner)
            }
            1 => copy.wire(&out, Gate::Buf(x)),
            2 => copy.wire(&out, Gate::And(vec![x, x])),
            _ => copy.wire(&out, Gate::Or(vec![x, x])),
        }
    })
}

/// A renamed copy: every internal wire renamed, commutative operands and
/// the declaration order shuffled — structurally identical, textually not.
pub fn renamed_copy(design: &Design, rng: &mut StdRng) -> Design {
    Design {
        name: design.name.clone(),
        spec: design.spec.clone(),
        netlist: rebuild(&design.netlist, &design.spec, Rewrite::Rename, rng),
    }
}

/// A fresh design with the same verdicts: every `moe` flag is computed
/// through the identity chain that spells `code` (below [`CODES`]). The
/// function is unchanged; the structure — and so the cache key of every
/// property — is new, and differs from code to code, while the size does
/// not grow with the code.
pub fn restructured_copy(design: &Design, code: usize, rng: &mut StdRng) -> Design {
    let pool = design.spec.pool();
    let moe = design
        .spec
        .moe_vars()
        .into_iter()
        .filter_map(|v| design.netlist.find(&pool.name_or_fallback(v)))
        .collect();
    Design {
        name: design.name.clone(),
        spec: design.spec.clone(),
        netlist: rebuild(
            &design.netlist,
            &design.spec,
            Rewrite::Restructure { moe, code },
            rng,
        ),
    }
}
