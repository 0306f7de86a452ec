//! OpenMetrics text rendering, parsing, and snapshot diffing.
//!
//! The exposition format is the Prometheus/OpenMetrics text format:
//! `# TYPE` / `# HELP` per family, one `name{labels} value` sample per
//! line, histograms as cumulative `_bucket{le=…}` series plus `_sum` and
//! `_count`, terminated by `# EOF`. Output is byte-deterministic for a
//! deterministic run — families appear in registration order and label
//! sets in first-registration order — so checked-in baselines diff
//! cleanly.
//!
//! The parser deliberately accepts exactly what the renderer emits (plus
//! arbitrary comment lines); it exists so `compare_metrics` and CI can
//! validate and diff snapshot files without any external dependency.

use crate::hist::{HistData, BUCKETS};
use crate::registry::{MetricMeta, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a label value per the OpenMetrics text format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render `name{k="v",…}` (just `name` when unlabeled).
pub fn sample_name(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{name}{{{}}}", inner.join(","))
}

fn sample_name_extra(name: &str, labels: &[(String, String)], extra: (&str, &str)) -> String {
    let mut labels = labels.to_vec();
    labels.push((extra.0.to_string(), extra.1.to_string()));
    sample_name(name, &labels)
}

struct Family {
    kind: &'static str,
    help: String,
    lines: Vec<String>,
}

fn render_hist(meta: &MetricMeta, h: &HistData, lines: &mut Vec<String>) {
    // Emit cumulative buckets up to the first one that covers every
    // sample, then the mandatory +Inf bucket; empty tails are elided.
    let mut cum = 0u64;
    for i in 0..BUCKETS - 1 {
        cum += h.buckets()[i];
        let le = format!("{}", HistData::bucket_upper(i));
        lines.push(format!(
            "{} {cum}",
            sample_name_extra(&format!("{}_bucket", meta.name), &meta.labels, ("le", &le))
        ));
        if cum == h.count() {
            break;
        }
    }
    lines.push(format!(
        "{} {}",
        sample_name_extra(
            &format!("{}_bucket", meta.name),
            &meta.labels,
            ("le", "+Inf")
        ),
        h.count()
    ));
    lines.push(format!(
        "{} {}",
        sample_name(&format!("{}_sum", meta.name), &meta.labels),
        h.sum()
    ));
    lines.push(format!(
        "{} {}",
        sample_name(&format!("{}_count", meta.name), &meta.labels),
        h.count()
    ));
}

impl Snapshot {
    /// Render all instruments as OpenMetrics text *without* the trailing
    /// `# EOF`, so callers can append derived families before closing.
    pub fn openmetrics_body(&self) -> String {
        let mut order: Vec<String> = Vec::new();
        let mut fams: BTreeMap<String, Family> = BTreeMap::new();
        let mut push = |name: &str, kind: &'static str, help: &str, line: String| {
            let fam = fams.entry(name.to_string()).or_insert_with(|| {
                order.push(name.to_string());
                Family {
                    kind,
                    help: help.to_string(),
                    lines: Vec::new(),
                }
            });
            fam.lines.push(line);
        };
        for (meta, v) in &self.counters {
            push(
                &meta.name,
                "counter",
                &meta.help,
                format!("{} {v}", meta.sample_name()),
            );
        }
        for (meta, v) in &self.gauges {
            push(
                &meta.name,
                "gauge",
                &meta.help,
                format!("{} {v}", meta.sample_name()),
            );
        }
        for (meta, h) in &self.histograms {
            let mut lines = Vec::new();
            render_hist(meta, h, &mut lines);
            for line in lines {
                push(&meta.name, "histogram", &meta.help, line);
            }
        }
        let mut out = String::new();
        for name in &order {
            let fam = &fams[name];
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind);
            if !fam.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", fam.help);
            }
            for line in &fam.lines {
                let _ = writeln!(out, "{line}");
            }
        }
        out
    }

    /// Render a complete OpenMetrics document (body plus `# EOF`).
    pub fn openmetrics(&self) -> String {
        let mut out = self.openmetrics_body();
        out.push_str("# EOF\n");
        out
    }

    /// Human-readable summary: counters and gauges as `name value`,
    /// histograms as count / mean / p50 / p90 / p99 / max rows.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("-- counters --\n");
            for (meta, v) in &self.counters {
                let _ = writeln!(out, "{:<56} {v}", meta.sample_name());
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("-- gauges --\n");
            for (meta, v) in &self.gauges {
                let _ = writeln!(out, "{:<56} {v:.6}", meta.sample_name());
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("-- histograms --\n");
            let _ = writeln!(
                out,
                "{:<56} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
                "name", "count", "mean", "p50", "p90", "p99", "max"
            );
            for (meta, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:<56} {:>8} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
                    meta.sample_name(),
                    h.count(),
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.9),
                    h.quantile(0.99),
                    h.max()
                );
            }
        }
        out
    }
}

/// Parse an OpenMetrics text document into `sample identity → value`.
///
/// Comment lines (`#`) and blank lines are skipped; every other line must
/// be `name[{labels}] value`. Later duplicates of a sample overwrite
/// earlier ones. Errors carry the 1-based line number.
pub fn parse_openmetrics(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, val) = if let Some(brace) = line.find('{') {
            let close = brace
                + line[brace..]
                    .find('}')
                    .ok_or_else(|| format!("line {}: unclosed label set", idx + 1))?;
            (&line[..=close], line[close + 1..].trim())
        } else {
            line.split_once(' ')
                .map(|(k, v)| (k, v.trim()))
                .ok_or_else(|| format!("line {}: expected 'name value'", idx + 1))?
        };
        if key.is_empty() || val.is_empty() {
            return Err(format!("line {}: expected 'name value'", idx + 1));
        }
        let v: f64 = val
            .parse()
            .map_err(|_| format!("line {}: bad value {val:?}", idx + 1))?;
        out.insert(key.to_string(), v);
    }
    Ok(out)
}

/// One sample whose value moved between two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Sample identity (`name{labels}`).
    pub key: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub cand: f64,
    /// Relative change `(cand − base) / max(|base|, ε)`.
    pub rel: f64,
}

/// Result of diffing two OpenMetrics snapshots.
#[derive(Debug, Clone, Default)]
pub struct MetricsDiff {
    /// Higher-is-worse samples that increased beyond tolerance.
    pub regressions: Vec<DiffEntry>,
    /// Higher-is-worse samples that decreased beyond tolerance.
    pub improvements: Vec<DiffEntry>,
    /// Other samples that moved beyond tolerance (direction-neutral).
    pub changed: Vec<DiffEntry>,
    /// Samples present only in the baseline.
    pub only_base: Vec<String>,
    /// Samples present only in the candidate.
    pub only_cand: Vec<String>,
}

impl MetricsDiff {
    /// Whether the candidate shows no regressions.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Whether an increase in this sample is a performance regression.
/// Latency/overhead families (`_seconds`), drop counts, failures, retries
/// and contended submits all read "bigger is worse".
fn higher_is_worse(key: &str) -> bool {
    let name = key.split('{').next().unwrap_or(key);
    ["_seconds", "dropped", "failed", "contended", "retries"]
        .iter()
        .any(|pat| name.contains(pat))
}

/// Per-metric tolerance overrides for [`diff_openmetrics_with`].
///
/// Entries map a sample key to the relative tolerance that replaces the
/// default for that sample. A key with labels (e.g.
/// `rp_launch_seconds_sum{backend="flux"}`) matches exactly that sample; a
/// bare family name (e.g. `rp_launch_seconds_sum`) matches every sample of
/// the family regardless of labels. Exact matches win over family matches.
#[derive(Debug, Clone, Default)]
pub struct Tolerances {
    entries: BTreeMap<String, f64>,
}

impl Tolerances {
    /// Parse a tolerance file: one `<sample-or-family> <tolerance>` pair
    /// per line, `#` comments and blank lines ignored. Tolerances are
    /// relative (`0.25` allows a 25% increase). Rejects negative values
    /// and malformed lines with the offending line number.
    pub fn parse(text: &str) -> Result<Tolerances, String> {
        let mut entries = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, val)) = line.rsplit_once(char::is_whitespace) else {
                return Err(format!("line {}: expected `<metric> <tolerance>`", idx + 1));
            };
            let tol: f64 = val
                .parse()
                .map_err(|_| format!("line {}: `{val}` is not a number", idx + 1))?;
            if !tol.is_finite() || tol < 0.0 {
                return Err(format!(
                    "line {}: tolerance must be finite and non-negative",
                    idx + 1
                ));
            }
            entries.insert(key.trim().to_string(), tol);
        }
        Ok(Tolerances { entries })
    }

    /// Number of overrides.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no overrides.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The tolerance for `key`, or `default` when no override matches.
    pub fn for_key(&self, key: &str, default: f64) -> f64 {
        if let Some(&t) = self.entries.get(key) {
            return t;
        }
        let family = key.split('{').next().unwrap_or(key);
        self.entries.get(family).copied().unwrap_or(default)
    }
}

/// Diff two OpenMetrics documents.
///
/// Histogram `_bucket` series are excluded (bucket occupancy shifts with
/// harmless timing jitter; `_sum` / `_count` carry the signal). Samples
/// whose relative change exceeds `tolerance` are classified as
/// regression / improvement (for higher-is-worse families) or neutral
/// change.
pub fn diff_openmetrics(base: &str, cand: &str, tolerance: f64) -> Result<MetricsDiff, String> {
    diff_openmetrics_with(base, cand, tolerance, &Tolerances::default())
}

/// [`diff_openmetrics`] with per-metric tolerance overrides: each sample
/// is judged against `overrides.for_key(key, tolerance)`, so noisy
/// families can be held to a looser bound without loosening the whole
/// gate.
pub fn diff_openmetrics_with(
    base: &str,
    cand: &str,
    tolerance: f64,
    overrides: &Tolerances,
) -> Result<MetricsDiff, String> {
    let base = parse_openmetrics(base).map_err(|e| format!("baseline: {e}"))?;
    let cand = parse_openmetrics(cand).map_err(|e| format!("candidate: {e}"))?;
    let mut diff = MetricsDiff::default();
    let is_bucket = |k: &str| k.split('{').next().unwrap_or(k).ends_with("_bucket");
    for (key, &b) in &base {
        if is_bucket(key) {
            continue;
        }
        let Some(&c) = cand.get(key) else {
            diff.only_base.push(key.clone());
            continue;
        };
        if b == 0.0 && c == 0.0 {
            continue;
        }
        let rel = (c - b) / b.abs().max(1e-9);
        if rel.abs() <= overrides.for_key(key, tolerance) {
            continue;
        }
        let entry = DiffEntry {
            key: key.clone(),
            base: b,
            cand: c,
            rel,
        };
        if higher_is_worse(key) {
            if rel > 0.0 {
                diff.regressions.push(entry);
            } else {
                diff.improvements.push(entry);
            }
        } else {
            diff.changed.push(entry);
        }
    }
    for key in cand.keys() {
        if !is_bucket(key) && !base.contains_key(key) {
            diff.only_cand.push(key.clone());
        }
    }
    Ok(diff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let reg = crate::Registry::new();
        reg.counter("rp_tasks_total", &[("backend", "flux")], "tasks")
            .add(5);
        reg.gauge("rp_nodes", &[], "nodes").set(4.0);
        let h = reg.histogram("rp_launch_seconds", &[], "launch latency");
        h.observe(0.25);
        h.observe(0.5);
        let text = reg.snapshot().openmetrics();
        assert!(text.ends_with("# EOF\n"));
        let parsed = parse_openmetrics(&text).unwrap();
        assert_eq!(parsed["rp_tasks_total{backend=\"flux\"}"], 5.0);
        assert_eq!(parsed["rp_nodes"], 4.0);
        assert_eq!(parsed["rp_launch_seconds_count"], 2.0);
        assert!((parsed["rp_launch_seconds_sum"] - 0.75).abs() < 1e-12);
        let inf = parsed
            .iter()
            .find(|(k, _)| k.starts_with("rp_launch_seconds_bucket") && k.contains("+Inf"))
            .map(|(_, v)| *v);
        assert_eq!(inf, Some(2.0));
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let err = parse_openmetrics("ok 1\nbad line here{\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse_openmetrics("name notanumber\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn diff_flags_latency_regressions_only_when_worse() {
        let base = "rp_launch_seconds_sum 1.0\nrp_tasks_total 100\n";
        let worse = "rp_launch_seconds_sum 1.2\nrp_tasks_total 100\n";
        let better = "rp_launch_seconds_sum 0.8\nrp_tasks_total 90\n";
        let d = diff_openmetrics(base, worse, 0.05).unwrap();
        assert_eq!(d.regressions.len(), 1);
        assert!(!d.is_clean());
        let d = diff_openmetrics(base, better, 0.05).unwrap();
        assert!(d.regressions.is_empty());
        assert_eq!(d.improvements.len(), 1);
        assert_eq!(d.changed.len(), 1);
        assert!(d.is_clean());
    }

    #[test]
    fn contended_submit_growth_is_a_regression() {
        let key = "rp_backend_contended_submits_total{backend=\"flux\"}";
        let d = diff_openmetrics(&format!("{key} 100\n"), &format!("{key} 120\n"), 0.05).unwrap();
        assert_eq!(d.regressions.len(), 1, "{d:?}");
        assert_eq!(d.regressions[0].key, key);
        assert!(d.changed.is_empty());
        let d = diff_openmetrics(&format!("{key} 100\n"), &format!("{key} 80\n"), 0.05).unwrap();
        assert_eq!(d.improvements.len(), 1, "{d:?}");
    }

    /// Seeded xorshift stream for the mutation tests (std only).
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
    /// punctuation and multi-byte text, deletions, truncation and spliced
    /// copies. The result is made UTF-8 lossily, so it can hold U+FFFD.
    fn mutate(seed: &str, rng: &mut Rng) -> String {
        const PIECES: [&str; 16] = [
            "{",
            "}",
            "\"",
            " ",
            "\t",
            "\n",
            "#",
            "=",
            ",",
            "-",
            "e",
            "NaN",
            "inf",
            "1e309",
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

    fn same_values(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|((ka, va), (kb, vb))| ka == kb && (va == vb || (va.is_nan() && vb.is_nan())))
    }

    #[test]
    fn parsers_never_panic_and_reparse_what_they_accept() {
        let reg = crate::Registry::new();
        reg.counter("rp_tasks_total", &[("backend", "flux")], "tasks")
            .add(5);
        reg.gauge("rp_nodes", &[], "nodes").set(4.5);
        let h = reg.histogram("rp_launch_seconds", &[("backend", "a\"b")], "launch");
        h.observe(0.25);
        h.observe(3.0);
        let om = reg.snapshot().openmetrics();
        let tol =
            "# comment\n\nrp_launch_seconds_sum 0.5\nrp_exec_seconds_sum{backend=\"flux\"}\t0.1\n";
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let (mut om_ok, mut tol_ok) = (0, 0);
        for _ in 0..4000 {
            let text = mutate(&om, &mut rng);
            if let Ok(parsed) = parse_openmetrics(&text) {
                om_ok += 1;
                let rendered: String = parsed.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
                let again = parse_openmetrics(&rendered).expect("a parsed snapshot re-parses");
                assert!(same_values(&parsed, &again), "{text:?}");
            }
            let text = mutate(tol, &mut rng);
            if let Ok(parsed) = Tolerances::parse(&text) {
                tol_ok += 1;
                let rendered: String = parsed
                    .entries
                    .iter()
                    .map(|(k, v)| format!("{k} {v}\n"))
                    .collect();
                let again = Tolerances::parse(&rendered).expect("parsed tolerances re-parse");
                assert!(same_values(&parsed.entries, &again.entries), "{text:?}");
            }
        }
        // The mutations must leave both accepting and rejecting inputs.
        assert!((1..4000).contains(&om_ok), "{om_ok} snapshots parsed");
        assert!(
            (1..4000).contains(&tol_ok),
            "{tol_ok} tolerance files parsed"
        );
    }

    #[test]
    fn tolerances_parse_and_match() {
        let t = Tolerances::parse(
            "# comment\n\nrp_launch_seconds_sum 0.5\nrp_exec_seconds_sum{backend=\"flux\"}\t0.1\n",
        )
        .unwrap();
        assert_eq!(t.len(), 2);
        // Family match covers any labels.
        assert_eq!(
            t.for_key("rp_launch_seconds_sum{backend=\"srun\"}", 0.05),
            0.5
        );
        assert_eq!(t.for_key("rp_launch_seconds_sum", 0.05), 0.5);
        // Exact (labeled) match only covers that sample.
        assert_eq!(
            t.for_key("rp_exec_seconds_sum{backend=\"flux\"}", 0.05),
            0.1
        );
        assert_eq!(
            t.for_key("rp_exec_seconds_sum{backend=\"srun\"}", 0.05),
            0.05
        );
        // No match falls back to the default.
        assert_eq!(t.for_key("rp_other_seconds_sum", 0.05), 0.05);
    }

    #[test]
    fn tolerances_reject_malformed_lines() {
        assert!(Tolerances::parse("rp_x\n").unwrap_err().contains("line 1"));
        assert!(Tolerances::parse("rp_x nope\n")
            .unwrap_err()
            .contains("not a number"));
        assert!(Tolerances::parse("rp_x -0.1\n")
            .unwrap_err()
            .contains("non-negative"));
    }

    #[test]
    fn per_metric_override_loosens_one_family_only() {
        let base = "rp_launch_seconds_sum 1.0\nrp_exec_seconds_sum 1.0\n";
        let cand = "rp_launch_seconds_sum 1.2\nrp_exec_seconds_sum 1.2\n";
        // Default 5%: both regress.
        let d = diff_openmetrics(base, cand, 0.05).unwrap();
        assert_eq!(d.regressions.len(), 2);
        // Loosen only launch: exec still regresses.
        let t = Tolerances::parse("rp_launch_seconds_sum 0.5\n").unwrap();
        let d = diff_openmetrics_with(base, cand, 0.05, &t).unwrap();
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].key, "rp_exec_seconds_sum");
    }
}
