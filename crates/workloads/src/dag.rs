//! A generic stage-DAG workload: stages fire when their dependencies
//! complete, and each stage *builds its tasks at fire time* against the
//! live resource view — the mechanism behind the paper's adaptive
//! scheduling ("the number of tasks instantiated by some workflows is
//! adjusted dynamically at runtime based on available system resources").

use rp_core::{Name, ResourceView, TaskDescription, TaskId, TaskRecord, UidGen, WorkloadSource};
use std::collections::HashMap;

/// Builds a stage's tasks when it becomes ready. Receives the live resource
/// view (for adaptive sizing) and the uid generator.
pub type StageBuilder = Box<dyn FnMut(&ResourceView, &mut UidGen) -> Vec<TaskDescription>>;

/// One DAG stage.
pub struct Stage {
    /// Stage name (stamped into task labels).
    pub name: String,
    /// Indices of stages that must complete first.
    pub deps: Vec<usize>,
    /// Task builder, invoked once when the stage fires.
    pub build: StageBuilder,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageStatus {
    Waiting,
    Running { remaining: usize },
    Done,
}

/// A [`WorkloadSource`] driving a stage DAG.
///
/// ```
/// use rp_core::{PilotConfig, SimSession, TaskDescription};
/// use rp_sim::SimDuration;
/// use rp_workloads::{DagWorkload, Stage};
///
/// // prepare -> (two parallel analyses) via stage dependencies.
/// let stages = vec![
///     Stage {
///         name: "prepare".into(),
///         deps: vec![],
///         build: Box::new(|_view, uids| {
///             vec![TaskDescription::dummy(uids.next_id(), SimDuration::from_secs(10))]
///         }),
///     },
///     Stage {
///         name: "analyze".into(),
///         deps: vec![0],
///         build: Box::new(|_view, uids| {
///             (0..2)
///                 .map(|_| TaskDescription::dummy(uids.next_id(), SimDuration::from_secs(5)))
///                 .collect()
///         }),
///     },
/// ];
/// let dag = DagWorkload::new("demo", stages);
/// let report = SimSession::new(PilotConfig::flux(2, 1), Box::new(dag)).run();
/// assert_eq!(report.done_tasks().count(), 3);
/// ```
pub struct DagWorkload {
    name: String,
    stages: Vec<Stage>,
    status: Vec<StageStatus>,
    unmet_deps: Vec<usize>,
    task_stage: HashMap<TaskId, usize>,
    uids: UidGen,
}

impl DagWorkload {
    /// Build a DAG workload. Panics on out-of-range or forward deps are
    /// allowed (any shape), but cycles will simply never fire — use
    /// [`DagWorkload::validate_acyclic`] in tests.
    pub fn new(name: &str, stages: Vec<Stage>) -> Self {
        let unmet = stages.iter().map(|s| s.deps.len()).collect();
        let status = stages.iter().map(|_| StageStatus::Waiting).collect();
        DagWorkload {
            name: name.to_string(),
            stages,
            status,
            unmet_deps: unmet,
            task_stage: HashMap::new(),
            uids: UidGen::new(),
        }
    }

    /// Cheap cycle check (Kahn); true when every stage is reachable.
    pub fn validate_acyclic(&self) -> bool {
        let n = self.stages.len();
        let mut indeg: Vec<usize> = self.stages.iter().map(|s| s.deps.len()).collect();
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, s) in self.stages.iter().enumerate() {
            for &d in &s.deps {
                assert!(d < n, "stage {i} depends on unknown stage {d}");
                out[d].push(i);
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = ready.pop() {
            seen += 1;
            for &j in &out[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    ready.push(j);
                }
            }
        }
        seen == n
    }

    /// Fire every ready stage, cascading through empty stages.
    fn fire_ready(&mut self, view: &ResourceView) -> Vec<TaskDescription> {
        let mut out = Vec::new();
        loop {
            let mut fired_any = false;
            for i in 0..self.stages.len() {
                if self.status[i] == StageStatus::Waiting && self.unmet_deps[i] == 0 {
                    fired_any = true;
                    let name = Name::new(&self.stages[i].name);
                    let mut tasks = (self.stages[i].build)(view, &mut self.uids);
                    for t in &mut tasks {
                        if t.label.is_empty() {
                            t.label = name;
                        }
                        self.task_stage.insert(t.uid, i);
                    }
                    if tasks.is_empty() {
                        self.status[i] = StageStatus::Done;
                        self.complete_stage(i);
                    } else {
                        self.status[i] = StageStatus::Running {
                            remaining: tasks.len(),
                        };
                        out.extend(tasks);
                    }
                }
            }
            if !fired_any {
                break;
            }
        }
        out
    }

    /// Mark `i` done and decrement dependents' unmet counts. Deps are a
    /// multiset: a stage listing the same dep twice decrements twice.
    fn complete_stage(&mut self, i: usize) {
        for (j, s) in self.stages.iter().enumerate() {
            let times = s.deps.iter().filter(|&&d| d == i).count();
            if times > 0 {
                self.unmet_deps[j] = self.unmet_deps[j].saturating_sub(times);
            }
        }
    }
}

impl WorkloadSource for DagWorkload {
    fn initial(&mut self, view: &ResourceView) -> Vec<TaskDescription> {
        self.fire_ready(view)
    }

    fn on_task_done(&mut self, done: &TaskRecord, view: &ResourceView) -> Vec<TaskDescription> {
        let Some(&stage) = self.task_stage.get(&done.uid) else {
            return Vec::new();
        };
        let StageStatus::Running { remaining } = &mut self.status[stage] else {
            panic!("task {} finished for non-running stage {stage}", done.uid);
        };
        *remaining -= 1;
        if *remaining == 0 {
            self.status[stage] = StageStatus::Done;
            self.complete_stage(stage);
            return self.fire_ready(view);
        }
        Vec::new()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_core::{PilotConfig, SimSession, TaskState};
    use rp_sim::SimDuration;

    fn fixed_stage(name: &str, deps: Vec<usize>, count: u64, secs: u64) -> Stage {
        Stage {
            name: name.into(),
            deps,
            build: Box::new(move |_view, uids| {
                (0..count)
                    .map(|_| TaskDescription::dummy(uids.next_id(), SimDuration::from_secs(secs)))
                    .collect()
            }),
        }
    }

    #[test]
    fn chain_executes_in_order() {
        let dag = DagWorkload::new(
            "chain",
            vec![
                fixed_stage("a", vec![], 4, 10),
                fixed_stage("b", vec![0], 4, 10),
                fixed_stage("c", vec![1], 4, 10),
            ],
        );
        assert!(dag.validate_acyclic());
        let report = SimSession::new(PilotConfig::flux(2, 1), Box::new(dag)).run();
        assert_eq!(report.tasks.len(), 12);
        assert!(report.tasks.iter().all(|t| t.state == TaskState::Done));
        // Stage b tasks start only after every stage a task ended.
        let a_end = report
            .tasks
            .iter()
            .filter(|t| t.label == "a")
            .map(|t| t.exec_end.unwrap())
            .max()
            .unwrap();
        let b_start = report
            .tasks
            .iter()
            .filter(|t| t.label == "b")
            .map(|t| t.exec_start.unwrap())
            .min()
            .unwrap();
        assert!(b_start >= a_end, "b must wait for a");
    }

    #[test]
    fn diamond_joins() {
        let dag = DagWorkload::new(
            "diamond",
            vec![
                fixed_stage("src", vec![], 2, 5),
                fixed_stage("left", vec![0], 2, 5),
                fixed_stage("right", vec![0], 2, 50),
                fixed_stage("sink", vec![1, 2], 1, 5),
            ],
        );
        let report = SimSession::new(PilotConfig::flux(2, 1), Box::new(dag)).run();
        let right_end = report
            .tasks
            .iter()
            .filter(|t| t.label == "right")
            .map(|t| t.exec_end.unwrap())
            .max()
            .unwrap();
        let sink_start = report
            .tasks
            .iter()
            .filter(|t| t.label == "sink")
            .map(|t| t.exec_start.unwrap())
            .min()
            .unwrap();
        assert!(sink_start >= right_end, "sink waits for the slow branch");
    }

    #[test]
    fn empty_stages_cascade() {
        let dag = DagWorkload::new(
            "cascade",
            vec![
                Stage {
                    name: "empty".into(),
                    deps: vec![],
                    build: Box::new(|_, _| Vec::new()),
                },
                fixed_stage("after", vec![0], 3, 1),
            ],
        );
        let report = SimSession::new(PilotConfig::flux(1, 1), Box::new(dag)).run();
        assert_eq!(report.tasks.len(), 3);
    }

    #[test]
    fn adaptive_builder_sees_free_resources() {
        // The second stage sizes itself to the free cores the view reports;
        // with an idle 1-node pilot that is 56.
        let dag = DagWorkload::new(
            "adaptive",
            vec![
                fixed_stage("warm", vec![], 1, 1),
                Stage {
                    name: "fill".into(),
                    deps: vec![0],
                    build: Box::new(|view, uids| {
                        (0..view.free_cores)
                            .map(|_| {
                                TaskDescription::dummy(uids.next_id(), SimDuration::from_secs(1))
                            })
                            .collect()
                    }),
                },
            ],
        );
        let report = SimSession::new(PilotConfig::flux(1, 1), Box::new(dag)).run();
        let fill = report.tasks.iter().filter(|t| t.label == "fill").count();
        assert_eq!(fill, 56, "adaptive stage should fill the idle node");
    }

    #[test]
    fn cycle_detected() {
        let dag = DagWorkload::new(
            "cyclic",
            vec![
                fixed_stage("a", vec![1], 1, 1),
                fixed_stage("b", vec![0], 1, 1),
            ],
        );
        assert!(!dag.validate_acyclic());
    }
}
