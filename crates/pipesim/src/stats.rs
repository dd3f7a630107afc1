//! Simulation statistics: throughput, stall accounting and hazard counts.

use std::collections::BTreeMap;
use std::fmt;

/// Ground-truth functional-hazard counters observed by the machine,
/// independent of what the interlock policy claimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HazardCounts {
    /// A stage accepted a new operation while still holding one that did not
    /// move (the overwrite hazard the back-pressure rules prevent).
    pub overwrites: u64,
    /// An operation issued while one of its operands was outstanding and not
    /// bypassed (read-after-write hazard past the scoreboard).
    pub raw_violations: u64,
    /// A completion stage vacated without winning the completion bus (its
    /// result was dropped).
    pub lost_completions: u64,
}

impl HazardCounts {
    /// Total number of hazards of any kind.
    pub fn total(&self) -> u64 {
        self.overwrites + self.raw_violations + self.lost_completions
    }
}

/// Statistics of one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Name of the interlock policy that produced this run.
    pub policy: String,
    /// Elapsed cycles.
    pub cycles: u64,
    /// LIW packets issued.
    pub packets_issued: u64,
    /// Operations completed (retired over a completion bus or drained).
    pub ops_completed: u64,
    /// Cycles spent in the wait state.
    pub wait_cycles: u64,
    /// Per stage (`pipe.stage` prefix): cycles its `moe` flag was clear.
    pub stall_cycles_per_stage: BTreeMap<String, u64>,
    /// Per stall-rule label: stage-cycles in which a stalled stage had that
    /// rule's condition true.
    pub stalls_by_cause: BTreeMap<String, u64>,
    /// Stage-cycles where the policy stalled although the derived maximal
    /// interlock would have allowed the stage to move — the paper's
    /// *performance bugs*.
    pub unnecessary_stalls: u64,
    /// Unnecessary stalls per stage.
    pub unnecessary_by_stage: BTreeMap<String, u64>,
    /// Ground-truth functional hazards.
    pub hazards: HazardCounts,
}

impl SimStats {
    /// Cycles per completed operation (`f64::INFINITY` when nothing
    /// completed).
    pub fn cpi(&self) -> f64 {
        if self.ops_completed == 0 {
            f64::INFINITY
        } else {
            self.cycles as f64 / self.ops_completed as f64
        }
    }

    /// Completed operations per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ops_completed as f64 / self.cycles as f64
        }
    }

    /// Total stage-cycles spent stalled.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_cycles_per_stage.values().sum()
    }

    /// Fraction of stage-stall cycles that were unnecessary.
    pub fn unnecessary_stall_fraction(&self) -> f64 {
        let total = self.total_stall_cycles();
        if total == 0 {
            0.0
        } else {
            self.unnecessary_stalls as f64 / total as f64
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "policy={} cycles={} packets={} ops={} ipc={:.3} stalls={} unnecessary={} hazards={}",
            self.policy,
            self.cycles,
            self.packets_issued,
            self.ops_completed,
            self.ipc(),
            self.total_stall_cycles(),
            self.unnecessary_stalls,
            self.hazards.total()
        )?;
        for (stage, count) in &self.stall_cycles_per_stage {
            let unnecessary = self.unnecessary_by_stage.get(stage).copied().unwrap_or(0);
            writeln!(
                f,
                "  stage {stage}: {count} stall cycles ({unnecessary} unnecessary)"
            )?;
        }
        for (cause, count) in &self.stalls_by_cause {
            writeln!(f, "  cause {cause}: {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hazard_total() {
        let hazards = HazardCounts {
            overwrites: 2,
            raw_violations: 3,
            lost_completions: 4,
        };
        assert_eq!(hazards.total(), 9);
        assert_eq!(HazardCounts::default().total(), 0);
    }

    #[test]
    fn derived_metrics() {
        let mut stats = SimStats {
            policy: "maximal".into(),
            cycles: 100,
            packets_issued: 40,
            ops_completed: 50,
            ..Default::default()
        };
        assert!((stats.cpi() - 2.0).abs() < 1e-9);
        assert!((stats.ipc() - 0.5).abs() < 1e-9);
        stats.stall_cycles_per_stage.insert("long.1".into(), 10);
        stats.stall_cycles_per_stage.insert("long.2".into(), 30);
        stats.unnecessary_stalls = 20;
        assert_eq!(stats.total_stall_cycles(), 40);
        assert!((stats.unnecessary_stall_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn degenerate_metrics() {
        let stats = SimStats::default();
        assert!(stats.cpi().is_infinite());
        assert_eq!(stats.ipc(), 0.0);
        assert_eq!(stats.unnecessary_stall_fraction(), 0.0);
    }

    #[test]
    fn display_contains_key_fields() {
        let mut stats = SimStats {
            policy: "conservative-scoreboard".into(),
            cycles: 10,
            ops_completed: 5,
            ..Default::default()
        };
        stats.stall_cycles_per_stage.insert("long.1".into(), 3);
        stats.stalls_by_cause.insert("scoreboard".into(), 3);
        let rendered = stats.to_string();
        assert!(rendered.contains("conservative-scoreboard"));
        assert!(rendered.contains("stage long.1"));
        assert!(rendered.contains("cause scoreboard"));
    }
}
