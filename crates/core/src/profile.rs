//! The runtime profile as a rendering of the lineage stream.
//!
//! A profiled session records lineage (every task-state transition and
//! backend annotation) plus periodic utilization gauges; at the end of the
//! run the lineage events are mapped, in time order, into RP-profile
//! instants and merged with the gauge rows. Task states and pilot states
//! land on the `agent` track under their RP names; every other lineage
//! event keeps its lineage name on its backend's track.

use crate::agent::state_event_name;
use crate::task::TaskState;
use rp_lineage::{Event as LineageEvent, Lineage, EVENT_NAMES, META_UID, NO_BACKEND, NO_VALUE};
use rp_profiler::{Event, Phase, ProfileData, Sym, NO_UID};

/// The agent-track task state a lineage milestone enters (`submit` enters
/// `STAGING_INPUT` after a `NEW` row of its own).
pub(crate) fn agent_state(kind: u8) -> Option<TaskState> {
    use rp_lineage::*;
    Some(match kind {
        EV_SUBMIT | EV_RETRY => TaskState::StagingInput,
        EV_STAGE_DONE => TaskState::Scheduling,
        EV_SCHED_DONE => TaskState::Submitting,
        EV_HANDOFF => TaskState::Submitted,
        EV_EXEC => TaskState::Executing,
        EV_DONE => TaskState::Done,
        EV_FAILED => TaskState::Failed,
        EV_CANCELED => TaskState::Canceled,
        _ => return None,
    })
}

/// Lazily interned row names, so the name table (and the Chrome trace's
/// track metadata) lists only what the run used.
struct Names {
    agent: Sym,
    /// Row name per lineage kind: the RP state name for state milestones,
    /// the lineage name otherwise.
    what: [Option<Sym>; EVENT_NAMES.len()],
    new: Option<Sym>,
    pilot: [Option<Sym>; rp_lineage::PILOT_STATE_NAMES.len()],
    /// Track per backend kind and partition (srun has one track).
    tracks: [Vec<Option<Sym>>; rp_lineage::BACKEND_NAMES.len()],
}

fn interned(data: &mut ProfileData, slot: &mut Option<Sym>, name: impl FnOnce() -> String) -> Sym {
    *slot.get_or_insert_with(|| data.intern(&name()))
}

/// Render `lineage` into `data`, whose events must be the run's gauge
/// samples in time order. A gauge row sorts before the instants that
/// share its timestamp, as the engine samples a boundary before it
/// delivers the events at that time.
pub(crate) fn render(lineage: &Lineage, mut data: ProfileData) -> ProfileData {
    let mut samples = std::mem::take(&mut data.events).into_iter().peekable();
    let mut rows = samples.len();
    lineage.for_each_in_time_order(|e| rows += 1 + usize::from(e.kind == rp_lineage::EV_SUBMIT));
    data.events.reserve_exact(rows);
    let mut names = Names {
        agent: data.intern("agent"),
        what: [None; EVENT_NAMES.len()],
        new: None,
        pilot: [None; rp_lineage::PILOT_STATE_NAMES.len()],
        tracks: Default::default(),
    };
    lineage.for_each_in_time_order(|e: &LineageEvent| {
        while let Some(g) = samples.next_if(|g| g.at <= e.t) {
            data.events.push(g);
        }
        let uid = if e.uid == META_UID { NO_UID } else { e.uid };
        let row = |data: &mut ProfileData, comp, what, detail| {
            data.events.push(Event {
                at: e.t,
                comp,
                uid,
                what,
                phase: Phase::Instant,
                detail,
            })
        };
        let kind = e.kind as usize;
        if let Some(state) = agent_state(e.kind) {
            if e.kind == rp_lineage::EV_SUBMIT {
                let new = interned(&mut data, &mut names.new, || "NEW".into());
                row(&mut data, names.agent, new, 0.0);
            }
            let what = interned(&mut data, &mut names.what[kind], || {
                state_event_name(state).into()
            });
            row(&mut data, names.agent, what, 0.0);
        } else if e.kind == rp_lineage::EV_PILOT {
            let name = rp_lineage::PILOT_STATE_NAMES[e.detail as usize];
            let what = interned(&mut data, &mut names.pilot[e.detail as usize], || {
                format!("PILOT_{}", name.to_uppercase())
            });
            row(&mut data, names.agent, what, 0.0);
        } else {
            let comp = if e.backend == NO_BACKEND {
                names.agent
            } else {
                let backend = rp_lineage::BACKEND_NAMES[e.backend as usize];
                let part = if backend == "srun" {
                    0
                } else {
                    e.partition as usize
                };
                let tracks = &mut names.tracks[e.backend as usize];
                if tracks.len() <= part {
                    tracks.resize(part + 1, None);
                }
                interned(&mut data, &mut tracks[part], || match backend {
                    "srun" => backend.into(),
                    _ => format!("{backend}.{part}"),
                })
            };
            let what = interned(&mut data, &mut names.what[kind], || {
                EVENT_NAMES[kind].into()
            });
            let detail = if e.value == NO_VALUE {
                0.0
            } else {
                e.value as f64
            };
            row(&mut data, comp, what, detail);
        }
    });
    data.events.extend(samples);
    data
}
