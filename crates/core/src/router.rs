//! Task-type-aware backend routing (§3.1's adaptive mapping).
//!
//! The router encodes the paper's mapping rule: function tasks go to
//! Dragon's in-memory dispatch; executables go to Flux's hierarchical
//! scheduler; srun is the fallback when it is the only deployed backend.
//! Explicit per-task hints override the rule (RP exposes the same knob).

use crate::backend::BackendKind;
use crate::task::TaskDescription;

/// How the agent maps tasks to backend kinds.
///
/// `TypeAware` is the paper's §3.1 static mapping. `LeastLoaded` is the
/// "dynamic backend selection based on workload characteristics" the paper
/// names as future work: any backend able to *host* the task kind is a
/// candidate, and the agent picks the one with the least queue pressure at
/// decision time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Functions → Dragon, executables → Flux (srun as fallback).
    #[default]
    TypeAware,
    /// Route to the candidate backend with the lowest backlog.
    LeastLoaded,
}

/// Routing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The hinted backend is not deployed in this pilot.
    HintUnavailable(BackendKind),
    /// No deployed backend can execute this task kind.
    NoBackend,
}

/// Picks a backend kind for each task given the deployed set.
#[derive(Debug, Clone)]
pub struct Router {
    deployed: Vec<BackendKind>,
}

impl Router {
    /// A router over the deployed backend kinds.
    pub fn new(deployed: Vec<BackendKind>) -> Self {
        Router { deployed }
    }

    /// Whether `kind` is deployed.
    pub fn has(&self, kind: BackendKind) -> bool {
        self.deployed.contains(&kind)
    }

    /// Backends able to host this task kind, in static preference order
    /// (used by `LeastLoaded` to enumerate candidates).
    pub fn candidates(&self, task: &TaskDescription) -> Vec<BackendKind> {
        preference(task.kind.is_function())
            .iter()
            .copied()
            .filter(|k| self.has(*k))
            .collect()
    }

    /// Route one task.
    pub fn route(&self, task: &TaskDescription) -> Result<BackendKind, RouteError> {
        if let Some(hint) = task.backend_hint {
            return if self.has(hint) {
                Ok(hint)
            } else {
                Err(RouteError::HintUnavailable(hint))
            };
        }
        self.route_kind(task.kind.is_function())
    }

    /// Route an unhinted task by kind alone: what [`Router::route`]
    /// answers for any task of that kind without a backend hint.
    pub(crate) fn route_kind(&self, is_function: bool) -> Result<BackendKind, RouteError> {
        preference(is_function)
            .iter()
            .copied()
            .find(|k| self.has(*k))
            .ok_or(RouteError::NoBackend)
    }
}

/// Every backend able to host a task kind, most preferred first.
fn preference(is_function: bool) -> &'static [BackendKind] {
    if is_function {
        // Functions prefer Dragon; Flux can run them via a wrapper process
        // at executable cost; neither srun nor the scheduler-less DVM host
        // in-process functions.
        &[BackendKind::Dragon, BackendKind::Flux]
    } else {
        // Executables prefer Flux's placement; PRRTE's fast DVM comes
        // next; Dragon supports them in spawn mode; srun is the baseline
        // path.
        &[
            BackendKind::Flux,
            BackendKind::Prrte,
            BackendKind::Dragon,
            BackendKind::Srun,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskDescription;
    use rp_sim::SimDuration;

    fn exec_task() -> TaskDescription {
        TaskDescription::dummy(1, SimDuration::ZERO)
    }

    fn func_task() -> TaskDescription {
        TaskDescription::function(2, "f", SimDuration::ZERO)
    }

    #[test]
    fn hybrid_routes_by_kind() {
        let r = Router::new(vec![BackendKind::Flux, BackendKind::Dragon]);
        assert_eq!(r.route(&exec_task()), Ok(BackendKind::Flux));
        assert_eq!(r.route(&func_task()), Ok(BackendKind::Dragon));
    }

    #[test]
    fn dragon_only_runs_execs_in_spawn_mode() {
        let r = Router::new(vec![BackendKind::Dragon]);
        assert_eq!(r.route(&exec_task()), Ok(BackendKind::Dragon));
    }

    #[test]
    fn srun_cannot_host_functions() {
        let r = Router::new(vec![BackendKind::Srun]);
        assert_eq!(r.route(&exec_task()), Ok(BackendKind::Srun));
        assert_eq!(r.route(&func_task()), Err(RouteError::NoBackend));
    }

    #[test]
    fn hint_overrides_and_validates() {
        let r = Router::new(vec![BackendKind::Flux, BackendKind::Dragon]);
        let mut t = func_task();
        t.backend_hint = Some(BackendKind::Flux);
        assert_eq!(r.route(&t), Ok(BackendKind::Flux));
        t.backend_hint = Some(BackendKind::Srun);
        assert_eq!(
            r.route(&t),
            Err(RouteError::HintUnavailable(BackendKind::Srun))
        );
    }

    #[test]
    fn functions_fall_back_to_flux() {
        let r = Router::new(vec![BackendKind::Flux]);
        assert_eq!(r.route(&func_task()), Ok(BackendKind::Flux));
    }
}
