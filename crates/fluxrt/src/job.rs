//! Flux job descriptions: the job id and the jobspec RP's Flux executor
//! submits. The lifecycle RP subscribes to (start, finish, exception) is
//! the shared [`rp_sim::Action`] vocabulary every backend sim emits.

use rp_platform::ResourceRequest;
use rp_sim::SimDuration;
use std::fmt;

/// Identifies a job within one Flux instance (the submitting RP executor's
/// task uid, so event correlation is trivial).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ƒ{}", self.0)
    }
}

/// A jobspec: what RP's Flux executor serializes a task into (Fig. 2 ②).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Job identity.
    pub id: JobId,
    /// Resource shape.
    pub req: ResourceRequest,
    /// Payload runtime (the walltime estimate; also used by EASY backfill).
    pub duration: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_platform::ResourceRequest;

    #[test]
    fn jobspec_shape() {
        let j = JobSpec {
            id: JobId(3),
            req: ResourceRequest::single(1, 0),
            duration: SimDuration::from_secs(180),
        };
        assert_eq!(j.req.total_cores(), 1);
        assert_eq!(format!("{}", j.id), "ƒ3");
    }
}
