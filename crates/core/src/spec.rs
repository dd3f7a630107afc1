//! Functional specifications of pipeline interlock logic and the derived
//! performance / combined specifications.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use ipcl_expr::{parse_expr, Expr, ParseError, VarId, VarPool};

use crate::model::StageRef;

/// One stalling constraint of a pipeline stage: *if `condition` holds, the
/// stage must not move* (`condition → ¬moe`).
///
/// The label names the cause (`"completion-bus-lost"`, `"scoreboard"`, …) and
/// is carried through to assertion messages and stall accounting.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StallRule {
    /// Human-readable cause of the stall.
    pub label: String,
    /// The stalling condition, over environment signals and other stages'
    /// `moe` flags.
    pub condition: Expr,
}

/// The specification of one pipeline stage: its `moe` flag and the stall
/// rules constraining it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StageSpec {
    /// Which stage this is.
    pub stage: StageRef,
    /// The interned `moe` flag of the stage.
    pub moe: VarId,
    /// Individual stalling constraints; the stage's overall condition is
    /// their disjunction.
    pub rules: Vec<StallRule>,
}

impl StageSpec {
    /// The stage's overall stall condition (disjunction of rule conditions;
    /// `false` when the stage has no rules, i.e. it never needs to stall).
    pub fn condition(&self) -> Expr {
        Expr::or(self.rules.iter().map(|r| r.condition.clone()))
    }
}

/// Errors reported while building a [`FunctionalSpec`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SpecError {
    /// A stall rule was added for a stage that was never declared.
    UnknownStage(String),
    /// A rule condition references the `moe` flag of its own stage.
    SelfReference(String),
    /// A rule condition references a `*.moe` variable that is not the flag of
    /// any declared stage (usually a typo in the stage name).
    UndeclaredMoe(String),
    /// A textual rule failed to parse.
    Parse(ParseError),
    /// The same stage was declared twice.
    DuplicateStage(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownStage(s) => write!(f, "stall rule for undeclared stage '{s}'"),
            SpecError::SelfReference(s) => write!(
                f,
                "stall condition of stage '{s}' references its own moe flag"
            ),
            SpecError::UndeclaredMoe(v) => {
                write!(
                    f,
                    "condition references moe flag '{v}' of an undeclared stage"
                )
            }
            SpecError::Parse(e) => write!(f, "condition text: {e}"),
            SpecError::DuplicateStage(s) => write!(f, "stage '{s}' declared twice"),
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> Self {
        SpecError::Parse(e)
    }
}

/// A complete functional specification: one [`StageSpec`] per pipeline stage,
/// in the paper's vector order (completion stages first, issue stages last by
/// convention, though any order is accepted).
///
/// Build one with [`FunctionalSpecBuilder`], or use
/// [`crate::example::ExampleArch`] / [`crate::archspec::ArchSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunctionalSpec {
    pool: VarPool,
    stages: Vec<StageSpec>,
    stage_index: HashMap<String, usize>,
}

impl FunctionalSpec {
    /// The per-stage specifications, in declaration (vector) order.
    pub fn stages(&self) -> &[StageSpec] {
        &self.stages
    }

    /// The stage specification for `stage`, if declared.
    pub fn stage(&self, stage: &StageRef) -> Option<&StageSpec> {
        self.stage_index
            .get(&stage.prefix())
            .map(|&i| &self.stages[i])
    }

    /// The `moe` flag of `stage`, if declared.
    pub fn moe_var(&self, stage: &StageRef) -> Option<VarId> {
        self.stage(stage).map(|s| s.moe)
    }

    /// All `moe` flags in vector order.
    pub fn moe_vars(&self) -> Vec<VarId> {
        self.stages.iter().map(|s| s.moe).collect()
    }

    /// Environment variables: every variable mentioned by a stall condition
    /// that is not a `moe` flag (grants, scoreboard bits, `rtm` flags, …).
    pub fn env_vars(&self) -> BTreeSet<VarId> {
        let moe: BTreeSet<VarId> = self.moe_vars().into_iter().collect();
        let mut vars = BTreeSet::new();
        for stage in &self.stages {
            for rule in &stage.rules {
                rule.condition.collect_vars(&mut vars);
            }
        }
        vars.difference(&moe).copied().collect()
    }

    /// The variable pool holding all signal names of this specification.
    pub fn pool(&self) -> &VarPool {
        &self.pool
    }

    /// Mutable access to the pool (e.g. to intern additional monitor signals).
    pub fn pool_mut(&mut self) -> &mut VarPool {
        &mut self.pool
    }

    /// The paper's Figure-2 *functional* specification: the conjunction over
    /// all stages of `condition → ¬moe`.
    pub fn functional_expr(&self) -> Expr {
        Expr::and(self.stages.iter().map(|s| self.functional_implication(s)))
    }

    /// The paper's Figure-3 *maximum performance* specification: the
    /// conjunction over all stages of `¬moe → condition`.
    pub fn performance_expr(&self) -> Expr {
        Expr::and(self.stages.iter().map(|s| self.performance_implication(s)))
    }

    /// The *combined* specification: `condition ↔ ¬moe` for every stage. By
    /// the derivation of Section 3 this characterises the unique most liberal
    /// (maximum performance) interlock behaviour.
    pub fn combined_expr(&self) -> Expr {
        Expr::and(
            self.stages
                .iter()
                .map(|s| Expr::iff(s.condition(), Expr::not(Expr::var(s.moe)))),
        )
    }

    /// The single-stage functional implication `condition → ¬moe`.
    pub fn functional_implication(&self, stage: &StageSpec) -> Expr {
        Expr::implies(stage.condition(), Expr::not(Expr::var(stage.moe)))
    }

    /// The single-stage performance implication `¬moe → condition`.
    pub fn performance_implication(&self, stage: &StageSpec) -> Expr {
        Expr::implies(Expr::not(Expr::var(stage.moe)), stage.condition())
    }

    /// Which stages each stage's condition depends on (through their `moe`
    /// flags). Key and values are indices into [`FunctionalSpec::stages`].
    pub fn stage_dependencies(&self) -> BTreeMap<usize, BTreeSet<usize>> {
        let moe_to_index: HashMap<VarId, usize> = self
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| (s.moe, i))
            .collect();
        self.stages
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let deps = s
                    .condition()
                    .vars()
                    .into_iter()
                    .filter_map(|v| moe_to_index.get(&v).copied())
                    .collect();
                (i, deps)
            })
            .collect()
    }

    /// Whether the stage dependency graph contains a cycle.
    ///
    /// Lock-step issue groups (the example's `long.1 ↔ short.1` coupling)
    /// create two-cycles; the symbolic fixed point still converges, but the
    /// simple "flip `→` into `↔`" reading of the closed form relies on the
    /// iteration order described in Section 3.2.
    pub fn has_cyclic_dependencies(&self) -> bool {
        self.dependency_cycle().is_some()
    }

    /// A stage cycle in the dependency graph, as indices into
    /// [`FunctionalSpec::stages`], or `None` if the graph is acyclic.
    pub fn dependency_cycle(&self) -> Option<Vec<usize>> {
        let deps = self.stage_dependencies();
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks = vec![Mark::White; self.stages.len()];
        let mut path = Vec::new();

        fn visit(
            node: usize,
            deps: &BTreeMap<usize, BTreeSet<usize>>,
            marks: &mut Vec<Mark>,
            path: &mut Vec<usize>,
        ) -> Option<Vec<usize>> {
            marks[node] = Mark::Grey;
            path.push(node);
            for &next in &deps[&node] {
                match marks[next] {
                    Mark::Grey => {
                        let start = path.iter().position(|&n| n == next).unwrap_or(0);
                        return Some(path[start..].to_vec());
                    }
                    Mark::White => {
                        if let Some(cycle) = visit(next, deps, marks, path) {
                            return Some(cycle);
                        }
                    }
                    Mark::Black => {}
                }
            }
            path.pop();
            marks[node] = Mark::Black;
            None
        }

        for node in 0..self.stages.len() {
            if marks[node] == Mark::White {
                if let Some(cycle) = visit(node, &deps, &mut marks, &mut path) {
                    return Some(cycle);
                }
            }
        }
        None
    }

    /// Returns a copy of the specification with one additional stall rule.
    ///
    /// Used by experiments to construct *over-conservative* specifications:
    /// the interlock derived from the augmented specification still satisfies
    /// the original functional specification (it stalls in strictly more
    /// situations), but violates the original performance specification —
    /// i.e. it contains an injected performance bug.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UnknownStage`] if `stage` is not declared and
    /// [`SpecError::SelfReference`] if `condition` mentions the stage's own
    /// `moe` flag.
    pub fn augmented(
        &self,
        stage: &StageRef,
        label: &str,
        condition: Expr,
    ) -> Result<FunctionalSpec, SpecError> {
        let mut copy = self.clone();
        let index = *copy
            .stage_index
            .get(&stage.prefix())
            .ok_or_else(|| SpecError::UnknownStage(stage.prefix()))?;
        if condition.vars().contains(&copy.stages[index].moe) {
            return Err(SpecError::SelfReference(stage.prefix()));
        }
        copy.stages[index].rules.push(StallRule {
            label: label.to_owned(),
            condition,
        });
        Ok(copy)
    }

    /// Renders the specification in the layout of the paper's Figure 2: one
    /// implication per stage, with the stall condition as a disjunction.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (i, stage) in self.stages.iter().enumerate() {
            let connective = if i == 0 { "  " } else { "∧ " };
            let condition = stage.condition();
            out.push_str(&format!(
                "{connective}({} -> !{})\n",
                condition.display(&self.pool),
                self.pool.name_or_fallback(stage.moe)
            ));
        }
        out
    }

    /// Renders the performance specification (Figure 3 layout).
    pub fn performance_text(&self) -> String {
        let mut out = String::new();
        for (i, stage) in self.stages.iter().enumerate() {
            let connective = if i == 0 { "  " } else { "∧ " };
            out.push_str(&format!(
                "{connective}(!{} -> {})\n",
                self.pool.name_or_fallback(stage.moe),
                stage.condition().display(&self.pool)
            ));
        }
        out
    }
}

/// Builder for [`FunctionalSpec`].
///
/// # Example
///
/// ```
/// use ipcl_core::model::StageRef;
/// use ipcl_core::spec::FunctionalSpecBuilder;
///
/// let mut builder = FunctionalSpecBuilder::new();
/// let stage = StageRef::new("long", 4);
/// builder.declare_stage(stage.clone())?;
/// builder.stall_rule_text(&stage, "completion-bus-lost", "long.req & !long.gnt")?;
/// let spec = builder.build()?;
/// assert_eq!(spec.stages().len(), 1);
/// # Ok::<(), ipcl_core::spec::SpecError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct FunctionalSpecBuilder {
    pool: VarPool,
    stages: Vec<StageSpec>,
    stage_index: HashMap<String, usize>,
}

impl FunctionalSpecBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable access to the variable pool (to intern environment signals).
    pub fn pool_mut(&mut self) -> &mut VarPool {
        &mut self.pool
    }

    /// Read access to the variable pool.
    pub fn pool(&self) -> &VarPool {
        &self.pool
    }

    /// Declares a pipeline stage, interning its `moe` flag. Stages appear in
    /// the specification vector in declaration order.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::DuplicateStage`] if the stage was declared before.
    pub fn declare_stage(&mut self, stage: StageRef) -> Result<VarId, SpecError> {
        if self.stage_index.contains_key(&stage.prefix()) {
            return Err(SpecError::DuplicateStage(stage.prefix()));
        }
        let moe = self.pool.var(&stage.moe());
        self.stage_index.insert(stage.prefix(), self.stages.len());
        self.stages.push(StageSpec {
            stage,
            moe,
            rules: Vec::new(),
        });
        Ok(moe)
    }

    /// An expression referencing an environment signal by name.
    pub fn env(&mut self, name: &str) -> Expr {
        Expr::var(self.pool.var(name))
    }

    /// An expression referencing a stage's `moe` flag (the stage need not be
    /// declared yet, but must be by the time [`FunctionalSpecBuilder::build`]
    /// is called).
    pub fn moe(&mut self, stage: &StageRef) -> Expr {
        Expr::var(self.pool.var(&stage.moe()))
    }

    /// Convenience for the ubiquitous `¬moe` ("the downstream stage is
    /// blocking").
    pub fn stalled(&mut self, stage: &StageRef) -> Expr {
        Expr::not(self.moe(stage))
    }

    /// Adds a stall rule for a declared stage.
    ///
    /// # Errors
    ///
    /// * [`SpecError::UnknownStage`] if the stage was not declared.
    /// * [`SpecError::SelfReference`] if the condition mentions the stage's
    ///   own `moe` flag.
    pub fn stall_rule(
        &mut self,
        stage: &StageRef,
        label: &str,
        condition: Expr,
    ) -> Result<&mut Self, SpecError> {
        let index = *self
            .stage_index
            .get(&stage.prefix())
            .ok_or_else(|| SpecError::UnknownStage(stage.prefix()))?;
        if condition.vars().contains(&self.stages[index].moe) {
            return Err(SpecError::SelfReference(stage.prefix()));
        }
        self.stages[index].rules.push(StallRule {
            label: label.to_owned(),
            condition,
        });
        Ok(self)
    }

    /// Adds a stall rule given as specification-language text.
    ///
    /// # Errors
    ///
    /// As [`FunctionalSpecBuilder::stall_rule`], plus [`SpecError::Parse`] if
    /// the text does not parse.
    pub fn stall_rule_text(
        &mut self,
        stage: &StageRef,
        label: &str,
        condition: &str,
    ) -> Result<&mut Self, SpecError> {
        let parsed = parse_expr(condition, &mut self.pool)?;
        self.stall_rule(stage, label, parsed)
    }

    /// Finalises the specification.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UndeclaredMoe`] if any condition references a
    /// `*.moe` variable that is not the flag of a declared stage.
    pub fn build(self) -> Result<FunctionalSpec, SpecError> {
        let declared: BTreeSet<VarId> = self.stages.iter().map(|s| s.moe).collect();
        for stage in &self.stages {
            for rule in &stage.rules {
                for var in rule.condition.vars() {
                    let name = self.pool.name(var).unwrap_or_default();
                    if name.ends_with(".moe") && !declared.contains(&var) {
                        return Err(SpecError::UndeclaredMoe(name.to_owned()));
                    }
                }
            }
        }
        Ok(FunctionalSpec {
            pool: self.pool,
            stages: self.stages,
            stage_index: self.stage_index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_expr::semantically_equal;

    fn two_stage_spec() -> FunctionalSpec {
        // A miniature pipe: stage 2 completes (stalls when no grant), stage 1
        // stalls when it wants to move and stage 2 is stalled.
        let mut b = FunctionalSpecBuilder::new();
        let s2 = StageRef::new("p", 2);
        let s1 = StageRef::new("p", 1);
        b.declare_stage(s2.clone()).unwrap();
        b.declare_stage(s1.clone()).unwrap();
        b.stall_rule_text(&s2, "no-grant", "p.req & !p.gnt")
            .unwrap();
        let rtm = b.env("p.1.rtm");
        let blocked = b.stalled(&s2);
        b.stall_rule(&s1, "downstream", Expr::and([rtm, blocked]))
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_constructs_expected_shape() {
        let spec = two_stage_spec();
        assert_eq!(spec.stages().len(), 2);
        let s2 = spec.stage(&StageRef::new("p", 2)).unwrap();
        assert_eq!(s2.rules.len(), 1);
        assert_eq!(s2.rules[0].label, "no-grant");
        assert_eq!(spec.moe_vars().len(), 2);
        assert_eq!(spec.env_vars().len(), 3); // p.req, p.gnt, p.1.rtm
        assert!(spec.moe_var(&StageRef::new("p", 1)).is_some());
        assert!(spec.moe_var(&StageRef::new("p", 9)).is_none());
    }

    #[test]
    fn functional_performance_combined_relationship() {
        let spec = two_stage_spec();
        let functional = spec.functional_expr();
        let performance = spec.performance_expr();
        let combined = spec.combined_expr();
        // combined == functional ∧ performance
        assert!(semantically_equal(
            &combined,
            &Expr::and([functional.clone(), performance.clone()])
        ));
        // The all-stalled, all-quiet assignment satisfies the functional spec
        // (property P1) but not, in general, the performance spec.
        let all_false = |_: VarId| false;
        assert!(functional.eval_with(all_false));
        assert!(!performance.eval_with(all_false));
    }

    #[test]
    fn per_stage_implications() {
        let spec = two_stage_spec();
        let s2 = spec.stage(&StageRef::new("p", 2)).unwrap();
        let func = spec.functional_implication(s2);
        let perf = spec.performance_implication(s2);
        // func: (req & !gnt) -> !moe ; perf: !moe -> (req & !gnt)
        assert!(matches!(func, Expr::Implies(_, _)));
        assert!(matches!(perf, Expr::Implies(_, _)));
        assert!(!semantically_equal(&func, &perf));
    }

    #[test]
    fn duplicate_stage_rejected() {
        let mut b = FunctionalSpecBuilder::new();
        b.declare_stage(StageRef::new("p", 1)).unwrap();
        assert_eq!(
            b.declare_stage(StageRef::new("p", 1)),
            Err(SpecError::DuplicateStage("p.1".into()))
        );
    }

    #[test]
    fn unknown_stage_rejected() {
        let mut b = FunctionalSpecBuilder::new();
        let err = b
            .stall_rule_text(&StageRef::new("p", 1), "x", "true")
            .unwrap_err();
        assert_eq!(err, SpecError::UnknownStage("p.1".into()));
    }

    #[test]
    fn self_reference_rejected() {
        let mut b = FunctionalSpecBuilder::new();
        let s1 = StageRef::new("p", 1);
        b.declare_stage(s1.clone()).unwrap();
        let own = b.moe(&s1);
        let err = b.stall_rule(&s1, "bad", Expr::not(own)).unwrap_err();
        assert_eq!(err, SpecError::SelfReference("p.1".into()));
    }

    #[test]
    fn undeclared_moe_rejected_at_build() {
        let mut b = FunctionalSpecBuilder::new();
        let s1 = StageRef::new("p", 1);
        b.declare_stage(s1.clone()).unwrap();
        b.stall_rule_text(&s1, "typo", "!q.2.moe").unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            SpecError::UndeclaredMoe("q.2.moe".into())
        );
    }

    #[test]
    fn parse_error_propagates() {
        let mut b = FunctionalSpecBuilder::new();
        let s1 = StageRef::new("p", 1);
        b.declare_stage(s1.clone()).unwrap();
        let err = b.stall_rule_text(&s1, "broken", "a &&& b").unwrap_err();
        assert!(matches!(err, SpecError::Parse(_)));
        assert!(err.to_string().contains("condition text"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn dependencies_and_cycles() {
        let spec = two_stage_spec();
        let deps = spec.stage_dependencies();
        // stage index 1 (p.1) depends on stage index 0 (p.2).
        assert!(deps[&1].contains(&0));
        assert!(deps[&0].is_empty());
        assert!(!spec.has_cyclic_dependencies());
        assert!(spec.dependency_cycle().is_none());

        // Lock-step coupling creates a cycle.
        let mut b = FunctionalSpecBuilder::new();
        let a1 = StageRef::new("a", 1);
        let b1 = StageRef::new("b", 1);
        b.declare_stage(a1.clone()).unwrap();
        b.declare_stage(b1.clone()).unwrap();
        let b_stalled = b.stalled(&b1);
        b.stall_rule(&a1, "lockstep", b_stalled).unwrap();
        let a_stalled = b.stalled(&a1);
        b.stall_rule(&b1, "lockstep", a_stalled).unwrap();
        let cyclic = b.build().unwrap();
        assert!(cyclic.has_cyclic_dependencies());
        let cycle = cyclic.dependency_cycle().unwrap();
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn text_rendering_mentions_every_stage() {
        let spec = two_stage_spec();
        let text = spec.to_text();
        assert!(text.contains("-> !p.2.moe"));
        assert!(text.contains("-> !p.1.moe"));
        let perf = spec.performance_text();
        assert!(perf.contains("!p.2.moe ->"));
        assert!(perf.contains("!p.1.moe ->"));
    }

    #[test]
    fn stage_with_no_rules_has_false_condition() {
        let mut b = FunctionalSpecBuilder::new();
        b.declare_stage(StageRef::new("free", 1)).unwrap();
        let spec = b.build().unwrap();
        assert!(spec.stages()[0].condition().is_false());
        // Its functional implication is vacuous (true).
        assert!(spec.functional_expr().is_true());
    }

    #[test]
    fn error_display_variants() {
        for err in [
            SpecError::UnknownStage("p.1".into()),
            SpecError::SelfReference("p.1".into()),
            SpecError::UndeclaredMoe("q.1.moe".into()),
            SpecError::DuplicateStage("p.1".into()),
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
