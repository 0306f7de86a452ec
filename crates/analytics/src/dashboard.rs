//! Self-contained HTML dashboard for a run's streaming telemetry.
//!
//! Renders the telemetry time-series as inline SVG charts plus the SLO
//! percentiles, the flight-recorder alarm log, and (when lineage was
//! recorded) the blame totals and critical path — one HTML file with zero
//! external assets, so it can ship as a CI artifact and open anywhere.
//! Output is deterministic: fixed float formatting, fixed section order,
//! no timestamps other than the ones in the data.

use crate::blame::{fmt_us, BlameReport, PHASES};
use rp_telemetry::{ExemplarSet, Sample, TelemetryData, BACKEND_NAMES, STATE_NAMES};
use std::fmt::Write as _;

/// Chart canvas geometry (viewBox units; the SVGs scale to fit).
const W: f64 = 640.0;
const H: f64 = 180.0;
const PAD_L: f64 = 56.0;
const PAD_R: f64 = 12.0;
const PAD_T: f64 = 12.0;
const PAD_B: f64 = 28.0;

/// Line colors, reused across charts in series order.
const COLORS: [&str; 6] = [
    "#2563eb", "#dc2626", "#059669", "#d97706", "#7c3aed", "#475569",
];

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Compact fixed-precision number for labels and table cells.
fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// One named series for [`svg_chart`].
struct Series<'a> {
    name: &'a str,
    points: Vec<(f64, f64)>,
}

/// Render one SVG line chart with axes, y-grid, and a legend.
fn svg_chart(title: &str, series: &[Series<'_>]) -> String {
    let mut out = String::new();
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y1,) = (f64::NEG_INFINITY,);
    for s in series {
        for &(x, y) in &s.points {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y1 = y1.max(y);
        }
    }
    if !x0.is_finite() || x1 <= x0 {
        x0 = 0.0;
        x1 = 1.0;
    }
    // Always anchor y at 0 — every plotted quantity is non-negative, and a
    // shared baseline keeps charts comparable.
    let y0 = 0.0;
    if !y1.is_finite() || y1 <= y0 {
        y1 = 1.0;
    }
    let sx = |x: f64| PAD_L + (x - x0) / (x1 - x0) * (W - PAD_L - PAD_R);
    let sy = |y: f64| H - PAD_B - (y - y0) / (y1 - y0) * (H - PAD_T - PAD_B);

    let _ = write!(
        out,
        "<figure><figcaption>{}</figcaption>\
         <svg viewBox=\"0 0 {W:.0} {H:.0}\" role=\"img\">",
        esc(title)
    );
    // y grid: 0, 1/2, max.
    for frac in [0.0, 0.5, 1.0] {
        let yv = y0 + frac * (y1 - y0);
        let y = sy(yv);
        let _ = write!(
            out,
            "<line x1=\"{PAD_L:.1}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\" class=\"grid\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\" text-anchor=\"end\">{}</text>",
            W - PAD_R,
            PAD_L - 4.0,
            y + 3.0,
            num(yv)
        );
    }
    // x labels: start and end of the window, in seconds.
    for (xv, anchor) in [(x0, "start"), (x1, "end")] {
        let _ = write!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\" text-anchor=\"{}\">{}s</text>",
            sx(xv),
            H - PAD_B + 14.0,
            anchor,
            num(xv)
        );
    }
    for (i, s) in series.iter().enumerate() {
        if s.points.is_empty() {
            continue;
        }
        let color = COLORS[i % COLORS.len()];
        let mut pts = String::with_capacity(s.points.len() * 12);
        for &(x, y) in &s.points {
            let _ = write!(pts, "{:.1},{:.1} ", sx(x), sy(y.max(0.0).min(y1)));
        }
        let _ = write!(
            out,
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\"/>",
            pts.trim_end()
        );
    }
    out.push_str("</svg><div class=\"legend\">");
    for (i, s) in series.iter().enumerate() {
        let color = COLORS[i % COLORS.len()];
        let _ = write!(
            out,
            "<span><i style=\"background:{color}\"></i>{}</span>",
            esc(s.name)
        );
    }
    out.push_str("</div></figure>\n");
    out
}

fn pick<F: Fn(&Sample) -> f64>(samples: &[Sample], f: F) -> Vec<(f64, f64)> {
    samples.iter().map(|s| (s.t.as_secs_f64(), f(s))).collect()
}

/// Render a tail-exemplar ring as `12, 34` (or `—` when the feed carried
/// no task identities, e.g. the rt plane's completion records).
fn exemplar_uids(ex: &ExemplarSet) -> String {
    if ex.is_empty() {
        "—".into()
    } else {
        ex.uids()
            .iter()
            .map(|u| u.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

fn slo_table(tel: &TelemetryData) -> String {
    let s = &tel.slo;
    let mut out = String::from(
        "<h2>SLO percentiles</h2>\n<table><tr><th>metric</th><th>n</th>\
         <th>p50</th><th>p99</th><th>p999</th><th>max</th>\
         <th>p99 exemplars</th><th>p999 exemplars</th></tr>",
    );
    let _ = write!(
        out,
        "<tr><td>time-to-launch (s)</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
        s.launches,
        num(s.launch_p50),
        num(s.launch_p99),
        num(s.launch_p999),
        num(s.launch_max),
        esc(&exemplar_uids(&s.launch_p99_exemplars)),
        esc(&exemplar_uids(&s.launch_p999_exemplars)),
    );
    let _ = write!(
        out,
        "<tr><td>time-to-completion (s)</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
        s.completions,
        num(s.completion_p50),
        num(s.completion_p99),
        num(s.completion_p999),
        num(s.completion_max),
        esc(&exemplar_uids(&s.completion_p99_exemplars)),
        esc(&exemplar_uids(&s.completion_p999_exemplars)),
    );
    out.push_str(
        "</table>\n<p>Exemplars are real task uids from the tail buckets; \
         narrate one with <code>rp-explain &lt;uid&gt;</code> against the \
         run's <code>--lineage-dir</code>.</p>\n",
    );
    out
}

/// Alarm rows rendered into the dashboard table. A wedged run can emit
/// thousands of straggler alarms; the full log is in the flight-recorder
/// JSONL, the dashboard shows the head and says what it elided.
const MAX_ALARM_ROWS: usize = 200;

fn alarms_table(tel: &TelemetryData) -> String {
    let mut out = String::from("<h2>Flight recorder</h2>\n");
    if tel.alarms.is_empty() {
        out.push_str("<p class=\"ok\">No alarms: no stragglers, saturation, queue growth, or utilization collapse detected.</p>\n");
        return out;
    }
    let shown = tel.alarms.len().min(MAX_ALARM_ROWS);
    let _ = write!(
        out,
        "<p>{} alarm(s){}{}.</p>\n<table><tr><th>t (s)</th><th>kind</th>\
         <th>severity</th><th>value</th><th>threshold</th><th>context</th>\
         <th>detail</th></tr>",
        tel.alarms.len(),
        if tel.alarms_dropped > 0 {
            format!(", {} dropped at capacity", tel.alarms_dropped)
        } else {
            String::new()
        },
        if shown < tel.alarms.len() {
            format!("; showing the first {shown}, see the flight-recorder JSONL for the rest")
        } else {
            String::new()
        }
    );
    for a in &tel.alarms[..shown] {
        let mut ctx = Vec::new();
        if let Some(uid) = a.uid {
            ctx.push(format!("task {uid}"));
        }
        if let Some(s) = a.state {
            ctx.push(STATE_NAMES[s as usize].to_string());
        }
        if let Some(b) = a.backend {
            ctx.push(BACKEND_NAMES[b as usize].to_string());
        }
        if let Some(p) = a.partition {
            ctx.push(format!("partition {p}"));
        }
        let _ = write!(
            out,
            "<tr class=\"sev-{sev}\"><td>{t}</td><td>{kind}</td><td>{sev}</td>\
             <td>{val}</td><td>{thr}</td><td>{ctx}</td><td>{msg}</td></tr>",
            sev = a.severity.as_str(),
            t = num(a.t.as_secs_f64()),
            kind = esc(a.kind),
            val = num(a.value),
            thr = num(a.threshold),
            ctx = esc(&ctx.join(", ")),
            msg = esc(&a.message),
        );
    }
    out.push_str("</table>\n");
    out
}

fn critical_path_section(rep: &BlameReport) -> String {
    let mut out = String::from("<h2>Critical path</h2>\n");
    let _ = writeln!(
        out,
        "<p>{} task(s), {}s task-time.</p>",
        rep.tasks,
        fmt_us(rep.total_us)
    );
    // Phase totals as a horizontal bar list.
    let max = rep.phase_total_us.iter().copied().max().unwrap_or(0).max(1);
    out.push_str("<table><tr><th>phase</th><th>total (s)</th><th></th></tr>");
    for (name, &us) in PHASES.iter().zip(&rep.phase_total_us) {
        let pct = us as f64 / max as f64 * 100.0;
        let _ = write!(
            out,
            "<tr><td>{name}</td><td>{}</td>\
             <td class=\"barcell\"><div class=\"bar\" style=\"width:{pct:.1}%\"></div></td></tr>",
            fmt_us(us)
        );
    }
    out.push_str("</table>\n");
    if let Some(cp) = &rep.critical {
        let _ = write!(
            out,
            "<p>Deciding chain (makespan {}s): task {} ({}s pending, then ",
            fmt_us(cp.makespan_us),
            cp.task.uid,
            fmt_us(cp.pending_us)
        );
        let segs: Vec<String> = cp
            .task
            .segments
            .iter()
            .map(|s| format!("{} {}s", s.phase, fmt_us(s.duration_us)))
            .collect();
        let _ = writeln!(out, "{}).</p>", segs.join(" → "));
    }
    out
}

/// Render the serving-plane books: conservation counters, per-client
/// admission split, and the client-perceived SLO percentiles measured
/// from *arrival* (admission queue wait included).
fn serving_table(s: &rp_core::ServingReport) -> String {
    let mut out = String::from("<h2>Serving plane</h2>\n<table><tr>");
    for h in [
        "offered",
        "admitted",
        "shed",
        "queued",
        "done",
        "failed",
        "canceled",
        "peak queue",
        "peak inflight",
    ] {
        let _ = write!(out, "<th>{h}</th>");
    }
    out.push_str("</tr><tr>");
    for v in [
        s.offered,
        s.admitted,
        s.shed,
        s.queued,
        s.done,
        s.failed,
        s.canceled,
        s.peak_queue,
        s.peak_inflight,
    ] {
        let _ = write!(out, "<td>{v}</td>");
    }
    out.push_str("</tr></table>\n");
    out.push_str("<h2>Serving clients</h2>\n<table><tr><th>client</th><th>weight</th><th>offered</th><th>admitted</th><th>shed</th></tr>");
    for (i, c) in s.clients.iter().enumerate() {
        let _ = write!(
            out,
            "<tr><td>{i}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            c.weight, c.offered, c.admitted, c.shed
        );
    }
    out.push_str("</table>\n");
    let slo = &s.slo;
    out.push_str(
        "<h2>Serving SLO (from arrival)</h2>\n<table><tr><th>metric</th><th>n</th>\
         <th>p50</th><th>p99</th><th>p999</th><th>max</th><th>p999 exemplars</th></tr>",
    );
    let _ = write!(
        out,
        "<tr><td>time-to-launch (s)</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
        slo.launches,
        num(slo.launch_p50),
        num(slo.launch_p99),
        num(slo.launch_p999),
        num(slo.launch_max),
        esc(&exemplar_uids(&slo.launch_p999_exemplars)),
    );
    let _ = write!(
        out,
        "<tr><td>time-to-completion (s)</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
        slo.completions,
        num(slo.completion_p50),
        num(slo.completion_p99),
        num(slo.completion_p999),
        num(slo.completion_max),
        esc(&exemplar_uids(&slo.completion_p999_exemplars)),
    );
    out.push_str("</table>\n");
    out
}

/// Render a self-contained HTML dashboard: summary counters, time-series
/// charts, SLO table, serving books (when the run carried open-loop
/// traffic), flight-recorder log, and (optionally) the lineage blame
/// totals with the critical path. `title` names the run (e.g. the
/// experiment label).
pub fn render_dashboard(
    title: &str,
    tel: &TelemetryData,
    blame: Option<&BlameReport>,
    serving: Option<&rp_core::ServingReport>,
) -> String {
    let mut html = String::with_capacity(32 * 1024);
    let _ = write!(
        html,
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>{t}</title>\n<style>\
         body{{font:14px system-ui,sans-serif;margin:24px auto;max-width:720px;color:#1e293b}}\
         h1{{font-size:20px}}h2{{font-size:16px;margin-top:28px}}\
         table{{border-collapse:collapse;width:100%;font-size:13px}}\
         th,td{{border:1px solid #cbd5e1;padding:3px 8px;text-align:left}}\
         th{{background:#f1f5f9}}\
         figure{{margin:16px 0}}figcaption{{font-weight:600;margin-bottom:4px}}\
         svg{{width:100%;height:auto;background:#fff;border:1px solid #e2e8f0}}\
         .grid{{stroke:#e2e8f0;stroke-width:1}}.tick{{font-size:10px;fill:#64748b}}\
         .legend span{{margin-right:14px;font-size:12px}}\
         .legend i{{display:inline-block;width:10px;height:10px;margin-right:4px;border-radius:2px}}\
         .sev-critical td{{background:#fee2e2}}.sev-warning td{{background:#fef3c7}}\
         .ok{{color:#059669}}\
         .barcell{{width:40%}}.bar{{background:#2563eb;height:10px;border-radius:2px}}\
         .kpi{{display:inline-block;margin-right:22px}}\
         .kpi b{{display:block;font-size:18px}}\
         </style></head><body>\n<h1>Telemetry dashboard — {t}</h1>\n",
        t = esc(title)
    );

    // Headline counters.
    let kpis = [
        ("submitted", tel.submitted as f64),
        ("completed", tel.completed as f64),
        ("failed", tel.failed as f64),
        ("in flight", tel.in_flight as f64),
        ("samples", tel.samples.len() as f64),
        ("alarms", tel.alarms.len() as f64),
    ];
    html.push_str("<p>");
    for (name, v) in kpis {
        let _ = write!(html, "<span class=\"kpi\"><b>{}</b>{}</span>", num(v), name);
    }
    html.push_str("</p>\n");
    let _ = writeln!(
        html,
        "<p>Sampling period {}s; {} sample(s) dropped at ring capacity.</p>",
        num(tel.period.as_secs_f64()),
        tel.samples_dropped
    );

    if tel.samples.is_empty() {
        html.push_str("<p>No samples collected (run shorter than one sampling period).</p>\n");
    } else {
        let s = &tel.samples;
        html.push_str(&svg_chart(
            "Throughput (tasks/s) and utilization",
            &[
                Series {
                    name: "throughput",
                    points: pick(s, |r| r.throughput),
                },
                Series {
                    name: "util × max(throughput)",
                    points: {
                        let peak = s.iter().map(|r| r.throughput).fold(0.0f64, f64::max);
                        let scale = if peak > 0.0 { peak } else { 1.0 };
                        pick(s, move |r| r.util * scale)
                    },
                },
            ],
        ));
        html.push_str(&svg_chart(
            "Queue depth and srun in-flight",
            &[
                Series {
                    name: "agent queue",
                    points: pick(s, |r| r.queue_depth),
                },
                Series {
                    name: "srun in-flight",
                    points: pick(s, |r| r.srun_inflight),
                },
            ],
        ));
        let backend_series: Vec<Series<'_>> = BACKEND_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| Series {
                name,
                points: pick(s, move |r| r.backend_queues[i]),
            })
            .collect();
        html.push_str(&svg_chart("Backend-local queues", &backend_series));
        html.push_str(&svg_chart(
            "Busy cores / GPUs",
            &[
                Series {
                    name: "busy cores",
                    points: pick(s, |r| r.busy_cores),
                },
                Series {
                    name: "busy GPUs",
                    points: pick(s, |r| r.busy_gpus),
                },
            ],
        ));
        // Task-state populations: plot the states that were ever occupied.
        let pop_series: Vec<Series<'_>> = STATE_NAMES
            .iter()
            .enumerate()
            .filter(|(i, _)| s.iter().any(|r| r.populations[*i] > 0))
            .map(|(i, name)| Series {
                name,
                points: pick(s, move |r| f64::from(r.populations[i])),
            })
            .collect();
        if !pop_series.is_empty() {
            html.push_str(&svg_chart("Task-state populations", &pop_series));
        }
        // Running SLO tails.
        html.push_str(&svg_chart(
            "Running p99 latencies (s)",
            &[
                Series {
                    name: "time-to-launch p99",
                    points: pick(s, |r| r.ttl_p99),
                },
                Series {
                    name: "time-to-completion p99",
                    points: pick(s, |r| r.ttc_p99),
                },
            ],
        ));
    }

    html.push_str(&slo_table(tel));

    if let Some(s) = serving {
        html.push_str(&serving_table(s));
    }

    // Backend queue high-waters.
    html.push_str("<h2>Backend queue high-waters</h2>\n<table><tr>");
    for name in BACKEND_NAMES {
        let _ = write!(html, "<th>{name}</th>");
    }
    html.push_str("</tr><tr>");
    for peak in tel.backend_queue_peaks {
        let _ = write!(html, "<td>{}</td>", num(peak));
    }
    html.push_str("</tr></table>\n");

    html.push_str(&alarms_table(tel));

    if let Some(rep) = blame {
        html.push_str(&critical_path_section(rep));
    }

    html.push_str("</body></html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_sim::{SimClock, SimDuration, SimTime};
    use rp_telemetry::{SampleInput, Telemetry, TelemetryConfig};

    fn collect(n_samples: u64) -> TelemetryData {
        let clock = SimClock::new();
        let tel = Telemetry::new(
            clock.clone(),
            TelemetryConfig::with_period(SimDuration::from_secs(1)),
        );
        tel.on_submitted(1);
        tel.on_transition(1, 1, 2, Some(1), Some(0));
        tel.on_transition(1, 2, 3, Some(1), Some(0));
        for k in 1..=n_samples {
            let now = SimTime::from_secs(k);
            clock.set(now);
            tel.on_sample(
                now,
                &SampleInput {
                    queue_depth: k as f64,
                    busy_cores: 4.0,
                    capacity_cores: 8.0,
                    backend_queues: [0.0, k as f64, 0.0, 0.0],
                    backend_queue_peaks: [0.0, k as f64, 0.0, 0.0],
                    ..SampleInput::default()
                },
            );
        }
        tel.snapshot()
    }

    #[test]
    fn dashboard_is_selfcontained_html() {
        let data = collect(5);
        let html = render_dashboard("unit <test>", &data, None, None);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</body></html>\n"));
        // Title is escaped.
        assert!(html.contains("unit &lt;test&gt;"));
        assert!(!html.contains("unit <test>"));
        // Charts rendered with data.
        assert!(html.contains("<polyline"));
        assert!(html.contains("Backend-local queues"));
        assert!(html.contains("Task-state populations"));
        // No external references — self-contained means no http(s) fetches.
        assert!(!html.contains("http://"));
        assert!(!html.contains("https://"));
        assert!(html.contains("No alarms"));
        // Tail rows carry the exemplar columns linking to rp-explain.
        assert!(html.contains("p999 exemplars"));
        assert!(html.contains("rp-explain"));
    }

    #[test]
    fn dashboard_renders_empty_telemetry() {
        let data = collect(0);
        let html = render_dashboard("empty", &data, None, None);
        assert!(html.contains("No samples collected"));
        assert!(html.ends_with("</body></html>\n"));
    }

    #[test]
    fn dashboard_renders_serving_section() {
        use rp_core::{PilotConfig, ServingSpec, SimSession};
        let report = SimSession::with_tasks(PilotConfig::dragon(2).with_seed(3), vec![])
            .with_telemetry(rp_sim::SimDuration::from_secs(5))
            .with_serving(
                ServingSpec::parse("rate=20,horizon=10,clients=2,weights=2:1").expect("parses"),
                7,
            )
            .run();
        let tel = report.telemetry.as_ref().expect("telemetry attached");
        let serving = report.serving.as_ref().expect("serving books attached");
        let html = render_dashboard("serving", tel, None, Some(serving));
        assert!(html.contains("Serving plane"));
        assert!(html.contains("Serving clients"));
        assert!(html.contains("Serving SLO (from arrival)"));
        // Both clients render with their weights.
        assert!(html.contains("<td>0</td><td>2</td>"));
        assert!(html.contains("<td>1</td><td>1</td>"));
        // Without books the section is absent.
        let bare = render_dashboard("serving", tel, None, None);
        assert!(!bare.contains("Serving plane"));
    }

    #[test]
    fn dashboard_renders_critical_path_from_blame() {
        let report = rp_core::SimSession::with_tasks(
            rp_core::PilotConfig::flux(2, 1).with_seed(3),
            (0..8)
                .map(|i| rp_core::TaskDescription::dummy(i, SimDuration::from_secs(2)))
                .collect(),
        )
        .with_telemetry(SimDuration::from_secs(1))
        .with_lineage()
        .run();
        let rep = crate::blame_report(report.lineage.as_ref().expect("lineage attached"));
        let cp = rep.critical.as_ref().expect("tasks finished");
        let tel = report.telemetry.as_ref().expect("telemetry attached");
        let html = render_dashboard("cp", tel, Some(&rep), None);
        assert!(html.contains("<h2>Critical path</h2>"));
        assert!(html.contains(&format!(
            "Deciding chain (makespan {}s): task {}",
            fmt_us(cp.makespan_us),
            cp.task.uid
        )));
        for phase in PHASES {
            assert!(html.contains(&format!("<tr><td>{phase}</td>")), "{phase}");
        }
        assert!(!render_dashboard("cp", tel, None, None).contains("Critical path"));
    }

    #[test]
    fn dashboard_is_deterministic() {
        let a = render_dashboard("same", &collect(3), None, None);
        let b = render_dashboard("same", &collect(3), None, None);
        assert_eq!(a, b);
    }
}
