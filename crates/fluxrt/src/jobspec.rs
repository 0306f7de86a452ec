//! Canonical jobspec serialization.
//!
//! The RP→Flux submission path "serializes tasks into Flux job
//! descriptions and submits them via the Flux RPC interface" (Fig. 2 ②).
//! The real system uses jobspec V1 (YAML/JSON); this module defines a
//! compact canonical text form with an exact round-trip, so the
//! serialization boundary is a real, testable artifact rather than an
//! in-memory handoff. The calibrated `flux_ingest` cost models the time
//! this crossing takes at rank 0.

use crate::job::{JobId, JobSpec};
use rp_platform::{PlacementPolicy, ResourceRequest};
use rp_sim::SimDuration;

/// Jobspec format version tag.
pub const JOBSPEC_VERSION: u32 = 1;

/// Errors from [`parse_jobspec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobspecError {
    /// Missing or malformed field.
    Field(&'static str),
    /// Unknown version.
    Version(String),
    /// Unknown placement policy token.
    Policy(String),
}

/// Serialize a jobspec into its canonical single-line form:
/// `jobspec/1 id=<n> ranks=<n> cores=<n> gpus=<n> mem_gb=<n> policy=<p> walltime_us=<n>`
pub fn jobspec_string(job: &JobSpec) -> String {
    let policy = match job.req.policy {
        PlacementPolicy::Pack => "pack",
        PlacementPolicy::Spread => "spread",
        PlacementPolicy::NodeExclusive => "exclusive",
    };
    format!(
        "jobspec/{JOBSPEC_VERSION} id={} ranks={} cores={} gpus={} mem_gb={} policy={policy} walltime_us={}",
        job.id.0,
        job.req.ranks,
        job.req.cores_per_rank,
        job.req.gpus_per_rank,
        job.req.mem_per_rank_gb,
        job.duration.as_micros()
    )
}

/// Parse the canonical form back into a jobspec.
pub fn parse_jobspec(s: &str) -> Result<JobSpec, JobspecError> {
    let mut parts = s.split_whitespace();
    let head = parts.next().ok_or(JobspecError::Field("header"))?;
    let version = head
        .strip_prefix("jobspec/")
        .ok_or(JobspecError::Field("header"))?;
    if version != JOBSPEC_VERSION.to_string() {
        return Err(JobspecError::Version(version.to_string()));
    }

    let mut id = None;
    let mut ranks = None;
    let mut cores = None;
    let mut gpus = None;
    let mut mem = 0u32;
    let mut policy = None;
    let mut walltime = None;
    for kv in parts {
        let (k, v) = kv.split_once('=').ok_or(JobspecError::Field("pair"))?;
        match k {
            "id" => id = v.parse::<u64>().ok(),
            "ranks" => ranks = v.parse::<u32>().ok(),
            "cores" => cores = v.parse::<u16>().ok(),
            "gpus" => gpus = v.parse::<u16>().ok(),
            "mem_gb" => {
                mem = v
                    .parse::<u32>()
                    .map_err(|_| JobspecError::Field("mem_gb"))?
            }
            "policy" => {
                policy = Some(match v {
                    "pack" => PlacementPolicy::Pack,
                    "spread" => PlacementPolicy::Spread,
                    "exclusive" => PlacementPolicy::NodeExclusive,
                    other => return Err(JobspecError::Policy(other.to_string())),
                })
            }
            "walltime_us" => walltime = v.parse::<u64>().ok(),
            _ => {} // forward-compatible: unknown keys ignored
        }
    }
    Ok(JobSpec {
        id: JobId(id.ok_or(JobspecError::Field("id"))?),
        req: ResourceRequest {
            ranks: ranks.ok_or(JobspecError::Field("ranks"))?,
            cores_per_rank: cores.ok_or(JobspecError::Field("cores"))?,
            gpus_per_rank: gpus.ok_or(JobspecError::Field("gpus"))?,
            mem_per_rank_gb: mem,
            policy: policy.ok_or(JobspecError::Field("policy"))?,
        },
        duration: SimDuration::from_micros(walltime.ok_or(JobspecError::Field("walltime_us"))?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(ranks: u32, cores: u16, gpus: u16, policy: PlacementPolicy) -> JobSpec {
        JobSpec {
            id: JobId(1234),
            req: ResourceRequest {
                ranks,
                cores_per_rank: cores,
                gpus_per_rank: gpus,
                mem_per_rank_gb: 0,
                policy,
            },
            duration: SimDuration::from_secs(180),
        }
    }

    #[test]
    fn roundtrip_all_policies() {
        for p in [
            PlacementPolicy::Pack,
            PlacementPolicy::Spread,
            PlacementPolicy::NodeExclusive,
        ] {
            let j = spec(4, 56, 8, p);
            let s = jobspec_string(&j);
            assert_eq!(parse_jobspec(&s).unwrap(), j, "{s}");
        }
    }

    #[test]
    fn canonical_form_is_stable() {
        let j = spec(2, 1, 0, PlacementPolicy::Pack);
        assert_eq!(
            jobspec_string(&j),
            "jobspec/1 id=1234 ranks=2 cores=1 gpus=0 mem_gb=0 policy=pack walltime_us=180000000"
        );
    }

    #[test]
    fn unknown_keys_ignored_for_forward_compat() {
        let s = "jobspec/1 id=7 ranks=1 cores=1 gpus=0 policy=pack walltime_us=0 queue=prod";
        let j = parse_jobspec(s).unwrap();
        assert_eq!(j.id, JobId(7));
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(
            parse_jobspec("jobspec/2 id=1"),
            Err(JobspecError::Version("2".into()))
        );
        assert_eq!(
            parse_jobspec("jobspec/1 ranks=1 cores=1 gpus=0 policy=pack walltime_us=0"),
            Err(JobspecError::Field("id"))
        );
        assert_eq!(
            parse_jobspec("jobspec/1 id=1 ranks=1 cores=1 gpus=0 policy=wat walltime_us=0"),
            Err(JobspecError::Policy("wat".into()))
        );
        assert_eq!(parse_jobspec("nope"), Err(JobspecError::Field("header")));
        assert_eq!(
            parse_jobspec(
                "jobspec/1 id=1 ranks=1 cores=1 gpus=0 mem_gb=lots policy=pack walltime_us=0"
            ),
            Err(JobspecError::Field("mem_gb"))
        );
    }

    /// Seeded xorshift stream for the mutation test (std only).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// `seed` with 1–8 byte-level edits: flips, inserts of the grammar's
    /// tokens and multi-byte text, deletions, truncation and spliced
    /// copies. The result is made UTF-8 lossily, so it can hold U+FFFD.
    fn mutate(seed: &str, rng: &mut Rng) -> String {
        const PIECES: [&str; 16] = [
            "=",
            " ",
            "\t",
            "\n",
            "/",
            "-",
            "+",
            "0",
            "9",
            "jobspec/1",
            "spread",
            "exclusive",
            " mem_gb=4",
            "18446744073709551616",
            "é",
            "\u{1F600}",
        ];
        let mut b = seed.as_bytes().to_vec();
        for _ in 0..1 + rng.below(8) {
            let at = rng.below(b.len() + 1);
            match rng.below(5) {
                0 if at < b.len() => b[at] ^= 1 << rng.below(8),
                1 => {
                    let piece = PIECES[rng.below(PIECES.len())].as_bytes();
                    b.splice(at..at, piece.iter().copied());
                }
                2 if at < b.len() => {
                    let end = (at + 1 + rng.below(16)).min(b.len());
                    b.drain(at..end);
                }
                3 => b.truncate(at),
                _ => {
                    let from = rng.below(b.len() + 1);
                    let end = (from + rng.below(64)).min(b.len());
                    let copy = b[from..end].to_vec();
                    b.splice(at..at, copy);
                }
            }
        }
        String::from_utf8_lossy(&b).into_owned()
    }

    #[test]
    fn parser_never_panics_and_round_trips_what_it_accepts() {
        let seed = jobspec_string(&spec(4, 56, 8, PlacementPolicy::Spread));
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut accepted = 0;
        for _ in 0..4000 {
            let text = mutate(&seed, &mut rng);
            let Ok(job) = parse_jobspec(&text) else {
                continue;
            };
            accepted += 1;
            assert_eq!(parse_jobspec(&jobspec_string(&job)), Ok(job), "{text:?}");
        }
        // The mutations must leave both accepting and rejecting inputs.
        assert!((1..4000).contains(&accepted), "{accepted} jobspecs parsed");
    }
}
