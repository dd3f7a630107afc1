//! Instructions, LIW packets, programs and random workload generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One operation bound for a specific pipe of the architecture.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    /// Name of the pipe the operation executes on.
    pub pipe: String,
    /// Destination register written at completion, if any.
    pub dest: Option<u32>,
    /// Source register read at issue, if any.
    pub src: Option<u32>,
    /// Number of cycles the machine stays in the wait state when this
    /// operation reaches the issue stage (0 for ordinary operations). Only
    /// meaningful on pipes that observe the wait state.
    pub wait_cycles: u32,
}

impl Op {
    /// An ordinary operation on `pipe` reading `src` and writing `dest`.
    pub fn new(pipe: &str, src: Option<u32>, dest: Option<u32>) -> Self {
        Op {
            pipe: pipe.to_owned(),
            dest,
            src,
            wait_cycles: 0,
        }
    }

    /// A wait operation on `pipe` freezing issue for `cycles` cycles.
    pub fn wait(pipe: &str, cycles: u32) -> Self {
        Op {
            pipe: pipe.to_owned(),
            dest: None,
            src: None,
            wait_cycles: cycles,
        }
    }

    /// Whether this is a wait operation.
    pub fn is_wait(&self) -> bool {
        self.wait_cycles > 0
    }
}

/// A long-instruction-word packet: at most one operation per pipe, all issued
/// together (the lock-step issue group issues a whole packet or nothing).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Packet {
    /// The operations of the packet.
    pub ops: Vec<Op>,
}

impl Packet {
    /// Creates a packet from operations.
    ///
    /// # Panics
    ///
    /// Panics if two operations target the same pipe.
    pub fn new<I: IntoIterator<Item = Op>>(ops: I) -> Self {
        let ops: Vec<Op> = ops.into_iter().collect();
        for (i, op) in ops.iter().enumerate() {
            assert!(
                !ops[..i].iter().any(|other| other.pipe == op.pipe),
                "packet has two operations for pipe '{}'",
                op.pipe
            );
        }
        Packet { ops }
    }

    /// The operation bound for `pipe`, if any.
    pub fn op_for(&self, pipe: &str) -> Option<&Op> {
        self.ops.iter().find(|op| op.pipe == pipe)
    }

    /// Number of operations in the packet.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the packet carries no operations (a fetch bubble).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A program: an ordered sequence of packets.
pub type Program = Vec<Packet>;

/// Configuration of the random workload generator.
///
/// The generator produces programs whose register dependence and wait-state
/// density stress the scoreboard and wait interlocks; pipe utilisation
/// controls completion-bus contention.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Number of packets to generate.
    pub packets: usize,
    /// Pipes that may receive operations (pipe name, probability that a
    /// packet carries an op for it).
    pub pipe_utilisation: Vec<(String, f64)>,
    /// Probability that a generated operation reads a recently written
    /// register (creating a scoreboard dependence).
    pub dependence_bias: f64,
    /// Probability that a packet is a wait instruction (on the first
    /// wait-observing pipe).
    pub wait_probability: f64,
    /// Wait duration in cycles when a wait instruction is generated.
    pub wait_cycles: u32,
    /// Number of architectural registers.
    pub registers: u32,
}

impl Default for WorkloadConfig {
    /// Defaults match the paper's example architecture: both pipes busy,
    /// moderate register dependence, occasional waits, eight registers.
    fn default() -> Self {
        WorkloadConfig {
            packets: 1_000,
            pipe_utilisation: vec![("long".to_owned(), 0.8), ("short".to_owned(), 0.8)],
            dependence_bias: 0.4,
            wait_probability: 0.02,
            wait_cycles: 3,
            registers: 8,
        }
    }
}

impl WorkloadConfig {
    /// Sets the number of packets.
    pub fn with_packets(mut self, packets: usize) -> Self {
        self.packets = packets;
        self
    }

    /// Sets pipe utilisation probabilities.
    pub fn with_pipes<I: IntoIterator<Item = (String, f64)>>(mut self, pipes: I) -> Self {
        self.pipe_utilisation = pipes.into_iter().collect();
        self
    }

    /// Sets the register-dependence bias.
    pub fn with_dependence_bias(mut self, bias: f64) -> Self {
        self.dependence_bias = bias;
        self
    }

    /// Sets the wait-instruction probability.
    pub fn with_wait_probability(mut self, p: f64) -> Self {
        self.wait_probability = p;
        self
    }

    /// Sets the number of architectural registers.
    pub fn with_registers(mut self, registers: u32) -> Self {
        self.registers = registers;
        self
    }

    /// A configuration matching an [`ipcl_core::ArchSpec`]: every pipe gets
    /// the given utilisation and the register count follows the scoreboard.
    pub fn for_arch(arch: &ipcl_core::ArchSpec, utilisation: f64) -> Self {
        WorkloadConfig {
            pipe_utilisation: arch
                .pipes
                .iter()
                .map(|p| (p.name.clone(), utilisation))
                .collect(),
            registers: arch.scoreboard_registers,
            ..Self::default()
        }
    }

    /// Generates a reproducible random program from `seed`.
    pub fn generate(&self, seed: u64) -> Program {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut recent_dests: Vec<u32> = Vec::new();
        let mut program = Vec::with_capacity(self.packets);
        for _ in 0..self.packets {
            if !self.pipe_utilisation.is_empty() && rng.random_bool(self.wait_probability) {
                let pipe = self.pipe_utilisation[0].0.clone();
                program.push(Packet::new([Op::wait(&pipe, self.wait_cycles)]));
                continue;
            }
            let mut ops = Vec::new();
            for (pipe, utilisation) in &self.pipe_utilisation {
                if !rng.random_bool(*utilisation) {
                    continue;
                }
                let src = if !recent_dests.is_empty() && rng.random_bool(self.dependence_bias) {
                    Some(recent_dests[rng.random_range(0..recent_dests.len())])
                } else if rng.random_bool(0.8) {
                    Some(rng.random_range(0..self.registers))
                } else {
                    None
                };
                let dest = if rng.random_bool(0.85) {
                    Some(rng.random_range(0..self.registers))
                } else {
                    None
                };
                if let Some(d) = dest {
                    recent_dests.push(d);
                    if recent_dests.len() > 4 {
                        recent_dests.remove(0);
                    }
                }
                ops.push(Op::new(pipe, src, dest));
            }
            program.push(Packet::new(ops));
        }
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_constructors() {
        let op = Op::new("long", Some(3), Some(5));
        assert_eq!(op.pipe, "long");
        assert_eq!(op.src, Some(3));
        assert_eq!(op.dest, Some(5));
        assert!(!op.is_wait());
        let wait = Op::wait("long", 4);
        assert!(wait.is_wait());
        assert_eq!(wait.wait_cycles, 4);
    }

    #[test]
    fn packet_rejects_duplicate_pipes() {
        let result = std::panic::catch_unwind(|| {
            Packet::new([Op::new("long", None, None), Op::new("long", None, None)])
        });
        assert!(result.is_err());
    }

    #[test]
    fn packet_lookup() {
        let packet = Packet::new([
            Op::new("long", Some(1), None),
            Op::new("short", None, Some(2)),
        ]);
        assert_eq!(packet.len(), 2);
        assert!(!packet.is_empty());
        assert!(packet.op_for("long").is_some());
        assert!(packet.op_for("mul").is_none());
        assert!(Packet::default().is_empty());
    }

    #[test]
    fn generator_is_reproducible() {
        let config = WorkloadConfig::default().with_packets(100);
        let a = config.generate(42);
        let b = config.generate(42);
        let c = config.generate(43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn generator_respects_register_bound() {
        let config = WorkloadConfig::default()
            .with_packets(300)
            .with_registers(4);
        let program = config.generate(1);
        for packet in &program {
            for op in &packet.ops {
                if let Some(d) = op.dest {
                    assert!(d < 4);
                }
                if let Some(s) = op.src {
                    assert!(s < 4);
                }
            }
        }
    }

    #[test]
    fn generator_produces_waits_when_asked() {
        let config = WorkloadConfig::default()
            .with_packets(500)
            .with_wait_probability(0.3);
        let program = config.generate(9);
        let waits = program
            .iter()
            .filter(|p| p.ops.iter().any(Op::is_wait))
            .count();
        assert!(waits > 50, "expected plenty of wait packets, got {waits}");
        let no_wait = WorkloadConfig::default()
            .with_packets(200)
            .with_wait_probability(0.0)
            .generate(9);
        assert!(no_wait.iter().all(|p| p.ops.iter().all(|o| !o.is_wait())));
    }

    #[test]
    fn for_arch_covers_all_pipes() {
        let arch = ipcl_core::ArchSpec::firepath_like();
        let config = WorkloadConfig::for_arch(&arch, 0.5);
        assert_eq!(config.pipe_utilisation.len(), 6);
        assert_eq!(config.registers, 64);
        let program = config.with_packets(50).generate(3);
        assert_eq!(program.len(), 50);
    }

    #[test]
    fn dependence_bias_creates_raw_dependences() {
        let biased = WorkloadConfig::default()
            .with_packets(400)
            .with_dependence_bias(1.0)
            .generate(5);
        // With full bias, many sources repeat recent destinations.
        let mut dependent = 0;
        let mut recent: Vec<u32> = Vec::new();
        for packet in &biased {
            for op in &packet.ops {
                if let Some(s) = op.src {
                    if recent.contains(&s) {
                        dependent += 1;
                    }
                }
                if let Some(d) = op.dest {
                    recent.push(d);
                    if recent.len() > 4 {
                        recent.remove(0);
                    }
                }
            }
        }
        assert!(
            dependent > 100,
            "expected many dependent ops, got {dependent}"
        );
    }
}
