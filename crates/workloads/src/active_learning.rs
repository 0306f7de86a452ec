//! An active/reinforcement-learning workload — the §2 "emerging use case"
//! the paper argues anticipates future middleware demands: a persistent
//! learner service and replay buffer, generations of short-lived actor
//! (simulation) tasks spawned dynamically, and periodic inference bursts,
//! all without blocking synchronization between learner and actors.
//!
//! The generator is deterministic: "learning progress" is a pure function
//! of completed work, so runs are reproducible while still exercising the
//! adaptive feedback path (actor batch sizes track free resources, and the
//! campaign stops when the target quality is reached — an *open-ended*
//! workload, unlike the fixed DAGs).

use rp_core::{
    Name, ResourceView, ServiceDescription, TaskDescription, TaskId, TaskKind, TaskRecord, UidGen,
    WorkloadSource,
};
use rp_platform::ResourceRequest;
use rp_sim::SimDuration;

/// Shape parameters for the loop.
#[derive(Debug, Clone)]
pub struct ActiveLearningParams {
    /// Cores held by the learner service.
    pub learner_cores: u16,
    /// GPUs held by the learner service.
    pub learner_gpus: u16,
    /// Cores held by the replay-buffer service.
    pub replay_cores: u16,
    /// Fraction of free cores each actor generation claims.
    pub actor_free_frac: f64,
    /// Actor batch bounds per generation.
    pub actors_min: u32,
    /// See [`ActiveLearningParams::actors_min`].
    pub actors_max: u32,
    /// Actor (simulation) task duration.
    pub actor_duration: SimDuration,
    /// Inference tasks per generation (function tasks).
    pub inference_batch: u32,
    /// Inference task duration.
    pub inference_duration: SimDuration,
    /// "Quality" gained per completed actor task; the campaign ends when
    /// accumulated quality reaches 1.0.
    pub quality_per_actor: f64,
    /// Hard cap on generations (safety bound for tests).
    pub max_generations: u32,
}

impl Default for ActiveLearningParams {
    fn default() -> Self {
        ActiveLearningParams {
            learner_cores: 16,
            learner_gpus: 4,
            replay_cores: 4,
            actor_free_frac: 0.5,
            actors_min: 4,
            actors_max: 64,
            actor_duration: SimDuration::from_secs(60),
            inference_batch: 8,
            inference_duration: SimDuration::from_secs(10),
            quality_per_actor: 0.005,
            max_generations: 64,
        }
    }
}

/// The adaptive learn–act loop as a [`WorkloadSource`].
pub struct ActiveLearning {
    params: ActiveLearningParams,
    uids: UidGen,
    quality: f64,
    generation: u32,
    outstanding: usize,
}

impl ActiveLearning {
    /// Build the loop.
    pub fn new(params: ActiveLearningParams) -> Self {
        ActiveLearning {
            params,
            uids: UidGen::new(),
            quality: 0.0,
            generation: 0,
            outstanding: 0,
        }
    }

    /// Current model quality in `[0, 1]`.
    pub fn quality(&self) -> f64 {
        self.quality
    }

    /// Generations dispatched so far.
    pub fn generations(&self) -> u32 {
        self.generation
    }

    fn next_generation(&mut self, view: &ResourceView) -> Vec<TaskDescription> {
        if self.quality >= 1.0 || self.generation >= self.params.max_generations {
            return Vec::new();
        }
        self.generation += 1;
        let gen = self.generation;
        let p = &self.params;
        let by_free = (view.free_cores as f64 * p.actor_free_frac) as u32;
        let actors = by_free.clamp(p.actors_min, p.actors_max);
        let mut tasks = Vec::new();
        let actor = TaskKind::Executable {
            name: Name::new("actor_sim"),
        };
        let actor_label = Name::new(&format!("actor.{gen:02}"));
        for _ in 0..actors {
            tasks.push(TaskDescription {
                uid: TaskId(self.uids.next_id()),
                kind: actor,
                req: ResourceRequest::single(1, 0),
                duration: p.actor_duration,
                backend_hint: None,
                label: actor_label,
            });
        }
        let infer = TaskKind::Function {
            name: Name::new("policy_inference"),
        };
        let infer_label = Name::new(&format!("infer.{gen:02}"));
        for _ in 0..p.inference_batch {
            tasks.push(TaskDescription {
                uid: TaskId(self.uids.next_id()),
                kind: infer,
                req: ResourceRequest::single(1, 0),
                duration: p.inference_duration,
                backend_hint: None,
                label: infer_label,
            });
        }
        self.outstanding += tasks.len();
        tasks
    }
}

impl WorkloadSource for ActiveLearning {
    fn services(&mut self) -> Vec<ServiceDescription> {
        vec![
            ServiceDescription::new(
                0,
                "learner",
                self.params.learner_cores,
                self.params.learner_gpus,
            ),
            ServiceDescription::new(1, "replay-buffer", self.params.replay_cores, 0),
        ]
    }

    fn initial(&mut self, view: &ResourceView) -> Vec<TaskDescription> {
        self.next_generation(view)
    }

    fn on_task_done(&mut self, done: &TaskRecord, view: &ResourceView) -> Vec<TaskDescription> {
        self.outstanding = self.outstanding.saturating_sub(1);
        if done.label.starts_with("actor.") {
            self.quality += self.params.quality_per_actor;
        }
        // Asynchronous pipeline: a new generation launches as soon as the
        // previous one drains — no barrier against the inference stream.
        if self.outstanding == 0 {
            return self.next_generation(view);
        }
        Vec::new()
    }

    fn name(&self) -> &str {
        "active-learning"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_core::{PilotConfig, SimSession, TaskState};

    #[test]
    fn loop_converges_and_services_span_it() {
        let params = ActiveLearningParams {
            quality_per_actor: 0.02, // converge quickly in tests
            ..Default::default()
        };
        let report = SimSession::new(
            PilotConfig::flux_dragon(4, 1).with_seed(8),
            Box::new(ActiveLearning::new(params)),
        )
        .run();
        assert!(!report.tasks.is_empty());
        assert!(report.tasks.iter().all(|t| t.state == TaskState::Done));
        // Both services ran and spanned the whole workload.
        assert_eq!(report.services.len(), 2);
        for s in &report.services {
            assert!(!s.failed, "{} must place", s.name);
            let uptime = s.uptime_s().expect("ran");
            assert!(uptime > 0.0);
        }
        // Actors on Flux (executables), inference on Dragon (functions).
        for t in &report.tasks {
            let expect = if t.is_function {
                rp_core::BackendKind::Dragon
            } else {
                rp_core::BackendKind::Flux
            };
            assert_eq!(t.backend, Some(expect), "{}", t.label);
        }
        // Quality accounting: 0.02 × actors ≥ 1.0 at convergence.
        let actors = report
            .tasks
            .iter()
            .filter(|t| t.label.starts_with("actor."))
            .count();
        assert!(
            actors as f64 * 0.02 >= 1.0,
            "converged with {actors} actors"
        );
    }

    #[test]
    fn generation_cap_bounds_the_loop() {
        let params = ActiveLearningParams {
            quality_per_actor: 0.0, // never converges on quality
            max_generations: 3,
            actors_max: 8,
            ..Default::default()
        };
        let mut al = ActiveLearning::new(params);
        let view = rp_core::ResourceView {
            free_cores: 224,
            free_gpus: 32,
            total_cores: 224,
            total_gpus: 32,
            nodes: 4,
        };
        let mut batch = al.initial(&view);
        let mut total = 0;
        while !batch.is_empty() {
            total += batch.len();
            let mut next = Vec::new();
            for t in &batch {
                let mut rec = rp_core::TaskRecord::new(t, rp_sim::SimTime::ZERO);
                for s in [
                    TaskState::StagingInput,
                    TaskState::Scheduling,
                    TaskState::Submitting,
                    TaskState::Submitted,
                    TaskState::Executing,
                    TaskState::Done,
                ] {
                    rec.advance(s, rp_sim::SimTime::ZERO);
                }
                next.extend(al.on_task_done(&rec, &view));
            }
            batch = next;
        }
        assert_eq!(al.generations(), 3);
        assert!(total > 0);
    }

    #[test]
    fn adaptive_batch_tracks_free_resources() {
        let mut al = ActiveLearning::new(ActiveLearningParams::default());
        let small = rp_core::ResourceView {
            free_cores: 10,
            free_gpus: 0,
            total_cores: 224,
            total_gpus: 32,
            nodes: 4,
        };
        let g1 = al.next_generation(&small);
        let actors_small = g1.iter().filter(|t| !t.kind.is_function()).count();
        assert_eq!(actors_small, 5, "0.5 × 10 free cores");

        let big = rp_core::ResourceView {
            free_cores: 1000,
            free_gpus: 0,
            total_cores: 1000,
            total_gpus: 0,
            nodes: 18,
        };
        let g2 = al.next_generation(&big);
        let actors_big = g2.iter().filter(|t| !t.kind.is_function()).count();
        assert_eq!(actors_big, 64, "clamped at actors_max");
    }
}
