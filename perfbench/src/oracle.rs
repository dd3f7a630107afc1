//! The verdict oracle.
//!
//! `expected.txt` records, per (design, strategy), which properties are
//! falsified (every other property must be proved), whether the reset
//! check passes, and which stages' stalls are not escapable. On top of the
//! table, every report is checked from outside:
//!
//! * every `Pdr` proof carries a certificate that `Certificate::validate`
//!   accepts, and every falsification carries a trace that
//!   `Counterexample::replay` reproduces (each distinct certificate or
//!   trace is re-checked once per run);
//! * correct presets are proved outright, each broken variant is falsified
//!   somewhere, and the deep reference chain of the traced runs proves
//!   both properties while no stall is escapable — so the oracle checks
//!   properties one by one and never uses `SequentialReport::proved()`.
//!
//! Served verdicts are compared with the in-process verdict of the same
//! job by the serve workloads.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ipcl_bmc::{BmcOutcome, Counterexample, SequentialProperty};
use ipcl_checker::{ProofStrategy, SequentialReport};
use ipcl_core::FunctionalSpec;
use ipcl_pdr::Certificate;
use ipcl_rtl::Netlist;
use ipcl_serve::{JobOutcome, Verdict};

use crate::designs::Design;

/// The committed verdict table.
const TABLE: &str = include_str!("../expected.txt");

/// Name of a strategy in the table.
pub fn strategy_name(strategy: ProofStrategy) -> &'static str {
    match strategy {
        ProofStrategy::KInduction => "kind8",
        ProofStrategy::Pdr => "pdr",
        ProofStrategy::Portfolio => "portfolio",
    }
}

/// One row of the table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    pub reset_ok: bool,
    /// Stage prefixes whose stall-escape check fails.
    pub stuck: BTreeSet<String>,
    /// Properties expected falsified; the rest must be proved.
    pub falsified: BTreeSet<String>,
}

impl Entry {
    /// The row a report establishes (used to print the table).
    pub fn of_report(report: &SequentialReport) -> Entry {
        Entry {
            reset_ok: report.reset.ok(),
            stuck: report
                .stall_escape
                .iter()
                .filter(|s| !s.escapable)
                .map(|s| s.stage.clone())
                .collect(),
            falsified: report
                .results
                .iter()
                .filter(|r| r.outcome.is_falsified())
                .map(|r| r.property.name.clone())
                .collect(),
        }
    }

    pub fn render(&self, design: &str, strategy: &str) -> String {
        let list = |set: &BTreeSet<String>| {
            if set.is_empty() {
                "-".to_owned()
            } else {
                set.iter().cloned().collect::<Vec<_>>().join(",")
            }
        };
        format!(
            "{design} {strategy} reset={} stuck={} falsified={}",
            if self.reset_ok { "ok" } else { "bad" },
            list(&self.stuck),
            list(&self.falsified)
        )
    }

    /// The verdict the table expects for `property`.
    pub fn verdict(&self, property: &str) -> Verdict {
        if self.falsified.contains(property) {
            Verdict::Falsified
        } else {
            Verdict::Proved
        }
    }
}

/// The parsed table plus the per-run memo of already re-checked
/// certificates and traces.
pub struct Oracle {
    table: BTreeMap<(String, String), Entry>,
    certificates: HashMap<String, Certificate>,
    traces: HashMap<String, Counterexample>,
}

fn parse_list(field: &str, key: &str) -> BTreeSet<String> {
    let value = field
        .strip_prefix(key)
        .unwrap_or_else(|| panic!("expected.txt: '{field}' is not '{key}…'"));
    if value == "-" {
        BTreeSet::new()
    } else {
        value.split(',').map(str::to_owned).collect()
    }
}

impl Oracle {
    pub fn load() -> Oracle {
        let mut table = BTreeMap::new();
        for line in TABLE.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 5, "expected.txt: bad row '{line}'");
            let entry = Entry {
                reset_ok: fields[2] == "reset=ok",
                stuck: parse_list(fields[3], "stuck="),
                falsified: parse_list(fields[4], "falsified="),
            };
            table.insert((fields[0].to_owned(), fields[1].to_owned()), entry);
        }
        Oracle {
            table,
            certificates: HashMap::new(),
            traces: HashMap::new(),
        }
    }

    pub fn entry(&self, design: &str, strategy: ProofStrategy) -> Option<&Entry> {
        self.table
            .get(&(design.to_owned(), strategy_name(strategy).to_owned()))
    }

    /// The independent rules the table itself must satisfy for `design`.
    fn rule_failures(design: &Design, entry: &Entry) -> Vec<String> {
        let mut failures = Vec::new();
        if design.name.starts_with("deep/") {
            if !entry.falsified.is_empty() {
                failures.push(format!("{}: deep chains must be proved", design.name));
            }
            let stages = design.spec.stages().len();
            if entry.stuck.len() != stages {
                failures.push(format!("{}: deep-chain stalls must be stuck", design.name));
            }
        } else if design.broken() {
            if entry.falsified.is_empty() {
                failures.push(format!(
                    "{}: a broken variant must be falsified",
                    design.name
                ));
            }
        } else if !entry.falsified.is_empty() || !entry.reset_ok {
            failures.push(format!("{}: a correct preset must be proved", design.name));
        }
        failures
    }

    /// Checks a certificate once per distinct value.
    pub fn certificate_ok(
        &mut self,
        key: &str,
        certificate: &Certificate,
        (spec, netlist): (&FunctionalSpec, &Netlist),
        property: &SequentialProperty,
    ) -> bool {
        if self.certificates.get(key) == Some(certificate) {
            return true;
        }
        let ok = certificate
            .validate(spec, netlist, property)
            .map(|check| check.ok())
            .unwrap_or(false);
        if ok {
            self.certificates
                .insert(key.to_owned(), certificate.clone());
        }
        ok
    }

    /// Replays a trace once per distinct value.
    pub fn trace_ok(
        &mut self,
        key: &str,
        trace: &Counterexample,
        (spec, netlist): (&FunctionalSpec, &Netlist),
        property: &SequentialProperty,
    ) -> bool {
        if self.traces.get(key) == Some(trace) {
            return true;
        }
        let ok = trace
            .replay(spec, netlist, property)
            .map(|replay| replay.violation_reproduced)
            .unwrap_or(false);
        if ok {
            self.traces.insert(key.to_owned(), trace.clone());
        }
        ok
    }

    /// Checks one library report; returns one message per failed check.
    pub fn check_report(
        &mut self,
        design: &Design,
        strategy: ProofStrategy,
        report: &SequentialReport,
    ) -> Vec<String> {
        let Some(entry) = self.entry(&design.name, strategy).cloned() else {
            return vec![format!(
                "{} {}: no oracle row",
                design.name,
                strategy_name(strategy)
            )];
        };
        let mut failures = Oracle::rule_failures(design, &entry);
        let problem = (&design.spec, &design.netlist);
        let observed = Entry::of_report(report);
        if observed.reset_ok != entry.reset_ok || observed.stuck != entry.stuck {
            failures.push(format!(
                "{}: reset/stall-escape mismatch: {}",
                design.name,
                observed.render(&design.name, strategy_name(strategy))
            ));
        }
        for result in &report.results {
            let name = &result.property.name;
            let key = format!("{}/{}/{name}", design.name, strategy_name(strategy));
            let expected = entry.verdict(name);
            let ok = match &result.outcome {
                BmcOutcome::Proved { .. } if expected == Verdict::Proved => {
                    strategy != ProofStrategy::Pdr
                        || report.certificates.get(name).is_some_and(|certificate| {
                            self.certificate_ok(&key, certificate, problem, &result.property)
                        })
                }
                BmcOutcome::Falsified(trace) if expected == Verdict::Falsified => {
                    self.trace_ok(&key, trace, problem, &result.property)
                }
                _ => false,
            };
            if !ok {
                failures.push(format!("{key}: expected {}", expected.name()));
            }
        }
        failures
    }

    /// Checks a served outcome against the in-process verdict of the same
    /// job; `key` names the job for the per-run memo.
    pub fn check_served(
        &mut self,
        key: &str,
        outcome: &JobOutcome,
        expected: Verdict,
        problem: (&FunctionalSpec, &Netlist),
        property: &SequentialProperty,
    ) -> Option<String> {
        let ok = outcome.property == property.name
            && outcome.verdict == expected
            && match expected {
                Verdict::Proved => outcome
                    .certificate
                    .as_ref()
                    .is_some_and(|c| self.certificate_ok(key, c, problem, property)),
                Verdict::Falsified => outcome
                    .counterexample
                    .as_ref()
                    .is_some_and(|t| self.trace_ok(key, t, problem, property)),
                _ => false,
            };
        (!ok).then(|| {
            format!(
                "{key}: served {} ({}), in-process {}",
                outcome.verdict.name(),
                outcome.detail,
                expected.name()
            )
        })
    }
}
