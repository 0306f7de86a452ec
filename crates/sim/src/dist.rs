//! Latency and service-time distributions.
//!
//! The platform calibration expresses every primitive cost (RPC ingest,
//! scheduler match, process spawn, bootstrap) as one of these distributions.
//! Samples are **seconds** and are truncated at zero: a latency model may be
//! noisy but can never refund time. Normal/LogNormal sampling is hand-rolled
//! (Box–Muller) over [`RngStream`], so the crate has no dependencies.

use crate::rng::RngStream;
use crate::time::SimDuration;

/// A non-negative distribution over durations, in seconds.
///
/// ```
/// use rp_sim::{Dist, RngStream};
///
/// let launch_latency = Dist::log_normal(0.010, 0.3);
/// let mut rng = RngStream::derive(42, "example");
/// let sample = launch_latency.sample(&mut rng);
/// assert!(sample.as_secs_f64() > 0.0);
/// assert!((launch_latency.mean_secs() - 0.01046).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing parameters
pub enum Dist {
    /// Always exactly `secs`.
    Constant(f64),
    /// Uniform on `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Normal with the given mean and standard deviation, truncated at zero.
    Normal { mean: f64, sd: f64 },
    /// Log-normal; build it with [`Dist::log_normal`]. Heavy right tail —
    /// the right shape for launch latencies, which the paper observes to
    /// have rare large excursions.
    LogNormal(LogNormal),
    /// Exponential with the given mean.
    Exp { mean: f64 },
}

/// A log-normal's parameters: the **linear-scale** median, a
/// multiplicative spread `sigma` (the sd of the underlying normal in log
/// space) and `mu = ln(median)`, kept so a draw takes no logarithm of its
/// own. The fields are private so that `mu` always matches `median`.
#[derive(Debug, Clone, PartialEq)]
pub struct LogNormal {
    median: f64,
    sigma: f64,
    mu: f64,
}

impl Dist {
    /// A distribution that always samples zero.
    pub const ZERO: Dist = Dist::Constant(0.0);

    /// The log-normal with linear-scale `median` and log-space sd `sigma`.
    pub fn log_normal(median: f64, sigma: f64) -> Dist {
        Dist::LogNormal(LogNormal {
            median,
            sigma,
            mu: median.ln(),
        })
    }

    /// Draw one sample, in seconds (always finite and `>= 0`).
    pub fn sample_secs(&self, rng: &mut RngStream) -> f64 {
        let x = match *self {
            Dist::Constant(s) => s,
            Dist::Uniform { lo, hi } => rng.uniform_range(lo, hi),
            Dist::Normal { mean, sd } => mean + sd * standard_normal(rng),
            Dist::LogNormal(LogNormal { median, sigma, mu }) => {
                if median <= 0.0 {
                    0.0
                } else {
                    (mu + sigma * standard_normal(rng)).exp()
                }
            }
            Dist::Exp { mean } => {
                if mean <= 0.0 {
                    0.0
                } else {
                    // Inverse CDF; 1-u avoids ln(0).
                    -mean * (1.0 - rng.uniform()).ln()
                }
            }
        };
        if x.is_finite() && x > 0.0 {
            x
        } else {
            0.0
        }
    }

    /// Draw one sample as a [`SimDuration`].
    pub fn sample(&self, rng: &mut RngStream) -> SimDuration {
        SimDuration::from_secs_f64(self.sample_secs(rng))
    }

    /// The distribution mean, in seconds (exact, not estimated).
    pub fn mean_secs(&self) -> f64 {
        match *self {
            Dist::Constant(s) => s.max(0.0),
            Dist::Uniform { lo, hi } => ((lo + hi) / 2.0).max(0.0),
            // Truncation bias is negligible for the calibrated sd/mean
            // ratios used here (< 1e-3 for sd <= mean/3).
            Dist::Normal { mean, .. } => mean.max(0.0),
            Dist::LogNormal(LogNormal { median, sigma, .. }) => {
                if median <= 0.0 {
                    0.0
                } else {
                    median * (sigma * sigma / 2.0).exp()
                }
            }
            Dist::Exp { mean } => mean.max(0.0),
        }
    }

    /// Scale the distribution by a non-negative factor (scales every sample,
    /// hence the mean, by `k`). Used to derive contention-inflated costs from
    /// a base calibration.
    pub fn scaled(&self, k: f64) -> Dist {
        let k = k.max(0.0);
        match *self {
            Dist::Constant(s) => Dist::Constant(s * k),
            Dist::Uniform { lo, hi } => Dist::Uniform {
                lo: lo * k,
                hi: hi * k,
            },
            Dist::Normal { mean, sd } => Dist::Normal {
                mean: mean * k,
                sd: sd * k,
            },
            Dist::LogNormal(LogNormal { median, sigma, .. }) => Dist::log_normal(median * k, sigma),
            Dist::Exp { mean } => Dist::Exp { mean: mean * k },
        }
    }
}

/// One standard-normal draw via Box–Muller.
///
/// The second variate of each pair is discarded: statelessness keeps
/// streams decoupled. Draws are about a third of the DES's wall time on
/// the hybrid mixes, most of it in `ln`, `cos` and `exp`; a cheaper
/// normal would move every stream, so it waits for a deliberate re-pin of
/// the goldens.
fn standard_normal(rng: &mut RngStream) -> f64 {
    // u1 in (0, 1] so ln(u1) is finite.
    let u1 = 1.0 - rng.uniform();
    let u2 = rng.uniform();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(d: &Dist, n: usize) -> f64 {
        let mut rng = RngStream::derive(123, "dist-test");
        (0..n).map(|_| d.sample_secs(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Dist::Constant(2.5);
        let mut rng = RngStream::derive(1, "c");
        for _ in 0..10 {
            assert_eq!(d.sample_secs(&mut rng), 2.5);
        }
    }

    #[test]
    fn samples_are_non_negative() {
        let dists = [
            Dist::Normal {
                mean: 0.001,
                sd: 0.01,
            },
            Dist::Uniform { lo: -1.0, hi: 0.5 },
            Dist::Exp { mean: 0.1 },
            Dist::log_normal(0.01, 1.0),
        ];
        let mut rng = RngStream::derive(5, "nn");
        for d in &dists {
            for _ in 0..5_000 {
                assert!(d.sample_secs(&mut rng) >= 0.0, "{d:?}");
            }
        }
    }

    #[test]
    fn empirical_means_match_analytic() {
        let cases = [
            Dist::Uniform { lo: 1.0, hi: 3.0 },
            Dist::Normal { mean: 2.0, sd: 0.3 },
            Dist::Exp { mean: 0.5 },
            Dist::log_normal(1.0, 0.25),
        ];
        for d in &cases {
            let emp = mean_of(d, 60_000);
            let ana = d.mean_secs();
            assert!(
                (emp - ana).abs() / ana < 0.03,
                "{d:?}: empirical {emp} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn lognormal_has_right_tail() {
        let d = Dist::log_normal(1.0, 0.8);
        let mut rng = RngStream::derive(77, "tail");
        let samples: Vec<f64> = (0..20_000).map(|_| d.sample_secs(&mut rng)).collect();
        let above = samples.iter().filter(|&&x| x > 3.0).count();
        let below = samples.iter().filter(|&&x| x < 1.0 / 3.0).count();
        // Symmetric in log space around the median.
        assert!(above > 0);
        let ratio = above as f64 / below as f64;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn scaled_scales_mean() {
        let d = Dist::Normal { mean: 2.0, sd: 0.1 };
        assert!((d.scaled(3.0).mean_secs() - 6.0).abs() < 1e-12);
        assert_eq!(d.scaled(-1.0).mean_secs(), 0.0);
    }

    #[test]
    fn sample_duration_matches_secs_scale() {
        let d = Dist::Constant(0.25);
        let mut rng = RngStream::derive(2, "d");
        assert_eq!(d.sample(&mut rng).as_micros(), 250_000);
    }

    /// The first draws of each variant from one seed, pinned as literals:
    /// a change to sampling or rounding that moves a single microsecond
    /// of any stream fails here and has to re-pin on purpose.
    #[test]
    fn draw_streams_are_pinned() {
        let cases: [(Dist, [u64; 16]); 6] = [
            (Dist::Constant(0.25), [250_000; 16]),
            (
                Dist::Uniform {
                    lo: 0.001,
                    hi: 0.005,
                },
                [
                    1391, 2869, 1453, 1351, 4434, 1309, 3588, 3563, 4181, 4500, 2462, 2331, 2009,
                    4105, 1195, 1954,
                ],
            ),
            (
                Dist::Normal {
                    mean: 0.002,
                    sd: 0.0005,
                },
                [
                    1778, 2209, 2875, 1542, 2630, 1763, 2063, 2011, 1141, 2286, 2530, 2882, 830,
                    2275, 1589, 2499,
                ],
            ),
            (
                Dist::log_normal(0.00095, 0.30),
                [
                    832, 1077, 1605, 722, 1386, 824, 986, 956, 567, 1128, 1306, 1613, 471, 1121,
                    742, 1282,
                ],
            ),
            (
                Dist::Exp { mean: 0.001 },
                [
                    103, 630, 120, 92, 1955, 80, 1041, 1023, 1585, 2080, 455, 404, 291, 1498, 50,
                    273,
                ],
            ),
            (
                Dist::log_normal(0.70, 0.30).scaled(3.7),
                [
                    2266982, 2935818, 4377038, 1968142, 3778847, 2247026, 2689368, 2607627,
                    1547182, 3073986, 3560049, 4397981, 1283501, 3055043, 2023458, 3494554,
                ],
            ),
        ];
        for (d, want) in &cases {
            let mut rng = RngStream::derive(2025, "dist-golden");
            let got: Vec<u64> = (0..16).map(|_| d.sample(&mut rng).as_micros()).collect();
            assert_eq!(got, want, "{d:?}");
        }
    }

    #[test]
    fn scaled_log_normal_recomputes_mu() {
        let d = Dist::log_normal(0.70, 0.30).scaled(3.7);
        assert_eq!(d, Dist::log_normal(0.70 * 3.7, 0.30));
    }
}
