//! The metric catalog and the two kinds of run: untraced (end-to-end
//! metrics) and traced (per-layer metrics).

use powerburst_scenario::ObsConfig;

use crate::calib::{Reference, REFERENCE_S};
use crate::floors;
use crate::span::Tracer;
use crate::stats::{iqr_pct, median, peak_rss_mib, percentile};
use crate::workload::{
    batch_untraced, check_outcome, city_run, run_traced, run_untraced, Spec, Tally, Workload,
};

/// End-to-end metrics, `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("client_s_per_s", "client-s/s"),
    ("run_s.p50", "s"),
    ("run_s.p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("saved_pct", "%"),
    ("loss_pct", "%"),
];

/// Per-layer metrics, `(name, unit)`, printed by a traced run. Layers
/// are named after crates; `bench.*` describes the tracing itself.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("scenario.assemble_s", "s"),
    ("scenario.collect_s", "s"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.shards", "count"),
    ("sim.speedup_t2", "x"),
    ("sim.speedup_t2.t1_iqr_pct", "%"),
    ("sim.speedup_t2.t2_iqr_pct", "%"),
    ("sim.queue_ns_per_event", "ns"),
    ("sim.queue_cancel_ns_per_event", "ns"),
    ("net.trace_frames", "count"),
    ("net.medium_drop_ratio", "ratio"),
    ("net.faults_injected", "count"),
    ("net.forward_ns_per_pkt", "ns"),
    ("core.schedules", "count"),
    ("core.unchanged_ratio", "ratio"),
    ("core.queue_drop_ratio", "ratio"),
    ("core.splices", "count"),
    ("core.tcp_bytes_fed", "B"),
    ("core.slot_overrun_ratio", "ratio"),
    ("core.policy_build_ns.fixed", "ns"),
    ("core.policy_build_ns.variable", "ns"),
    ("core.policy_build_ns.channel", "ns"),
    ("core.policy_build_ns.buffer", "ns"),
    ("core.schedule_codec_ns", "ns"),
    ("core.marking_ns_per_burst", "ns"),
    ("client.schedule_miss_ratio", "ratio"),
    ("client.missed_frames", "count"),
    ("coord.reports", "count"),
    ("coord.grants", "count"),
    ("energy.wnic_ns_per_cycle", "ns"),
    ("transport.tcp_mb_per_s.lossless", "MB/s"),
    ("transport.tcp_mb_per_s.loss5", "MB/s"),
    ("trace.postmortem_s", "s"),
    ("trace.ns_per_frame_client", "ns"),
    ("obs.export_s", "s"),
    ("obs.events_recorded", "count"),
    ("obs.events_dropped", "count"),
    ("obs.overhead_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.layer_sum_ratio", "ratio"),
];

/// A metric name is 1–64 of `[A-Za-z0-9_.-]`, starting with a letter or
/// a digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// What one invocation measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Runs attempted.
    pub attempted: usize,
    /// Runs whose invariant log was not clean.
    pub failed: usize,
    /// `(name, value, unit)`, in catalog order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines, printed before the result.
    pub notes: Vec<String>,
    /// Extra report-file fields: `(key, raw JSON value)`.
    pub extra: Vec<(&'static str, String)>,
}

impl Report {
    fn set(&mut self, catalog: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(name, unit) =
            catalog.iter().find(|(n, _)| *n == name).expect("metric is in the catalog");
        if !value.is_finite() {
            self.correct = false;
            self.notes.push(format!("error: {name} is not finite"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    /// The one-line JSON result printed last.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The report file: spec, host facts, commit, result, notes and the
    /// extra fields (samples, floors, spans).
    pub fn file_json(&self, spec: &Spec, commit: &str, traced: bool) -> String {
        let host = std::thread::available_parallelism().map_or(0, |n| n.get());
        let notes: Vec<String> = self.notes.iter().map(|n| json_str(n)).collect();
        let mut out = format!(
            "{{\"spec\":{},\"host\":{{\"available_parallelism\":{host}}},\"commit\":{},\"traced\":{traced},\"result\":{},\"notes\":[{}]",
            spec.to_json(),
            json_str(commit),
            self.result_json(),
            notes.join(",")
        );
        for (k, v) in &self.extra {
            out.push_str(&format!(",\"{k}\":{v}"));
        }
        out.push_str("}\n");
        out
    }

    fn error(&mut self, msg: String) {
        self.correct = false;
        self.notes.push(format!("error: {msg}"));
    }
}

/// A JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64s(v: &[f64]) -> String {
    let s: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", s.join(","))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The untraced run: every end-to-end metric. Each scenario run is
/// bracketed by reference samples (see [`crate::calib`]); the time metrics
/// are calibrated by them, and the raw wall-clock figures go to the notes
/// and the report file.
pub fn end_to_end(spec: &Spec) -> Report {
    let mut rep = Report { correct: true, ..Report::default() };
    let (mut raw, mut cal) = (Tally::default(), Tally::default());
    let mut reference = Reference::new();
    let mut samples = vec![reference.sample_s()];
    for i in 0..spec.runs {
        let o = run_untraced(spec, i);
        samples.push(reference.sample_s());
        if let Err(e) = check_outcome(spec, &o) {
            rep.error(format!("run {i}: {e}"));
        }
        let scale = REFERENCE_S / ((samples[i] + samples[i + 1]) / 2.0);
        raw.add(&o);
        cal.add(&o.scaled(scale));
    }
    // Same seed, same bytes: repeat the first batch run outside the
    // measurement and compare digests. (A city-live repeat would cost a
    // whole run; its traced run checks determinism across thread counts.)
    if spec.workload.is_batch() && run_untraced(spec, 0).digest != raw.digests[0] {
        rep.error("run 0 repeated with a different digest".into());
    }
    let rss = peak_rss_mib().unwrap_or_else(|| {
        rep.error("VmHWM unavailable in /proc/self/status".into());
        0.0
    });
    let (p90, above) = percentile(&cal.run_s, 90.0);
    rep.set(&END_TO_END, "client_s_per_s", cal.client_s_per_s());
    rep.set(&END_TO_END, "run_s.p50", median(&cal.run_s));
    rep.set(&END_TO_END, "run_s.p90", p90);
    rep.set(&END_TO_END, "setup_s", cal.setup_s);
    rep.set(&END_TO_END, "peak_rss_mib", rss);
    rep.set(&END_TO_END, "saved_pct", cal.saved_pct());
    rep.set(&END_TO_END, "loss_pct", cal.loss_pct());
    rep.attempted = cal.attempted;
    rep.failed = cal.failed;
    rep.notes.push(format!(
        "run_s: {} samples, {above} above p90; calibrated wall {:.3} s, raw wall {:.3} s",
        cal.run_s.len(),
        cal.wall_s(),
        raw.wall_s()
    ));
    rep.notes.push(format!(
        "raw (uncalibrated): client_s_per_s {:.1}, run_s.p50 {:.5} s, setup_s {:.5} s; reference sample median {:.3} ms (IQR {:.1} %)",
        raw.client_s_per_s(),
        median(&raw.run_s),
        raw.setup_s,
        median(&samples) * 1e3,
        iqr_pct(&samples)
    ));
    rep.notes.push(format!(
        "fail_pct {:.2} ({} of {} runs with a non-clean invariant log)",
        cal.fail_pct(),
        cal.failed,
        cal.attempted
    ));
    rep.notes.push(format!("sim.events {} digest {:016x}", cal.counts.events, cal.digest()));
    rep.extra.push(("run_s", json_f64s(&cal.run_s)));
    rep.extra.push(("raw_run_s", json_f64s(&raw.run_s)));
    rep.extra.push(("reference_s", json_f64s(&samples)));
    rep.extra.push(("digest", json_str(&format!("{:016x}", cal.digest()))));
    rep
}

/// The traced run: every per-layer metric. Each run is done untraced and
/// then traced (interleaved, so host drift hits both alike); the traced
/// digests must equal the untraced ones. `tcp-faulted` also runs each
/// config with the recorder off, and `city-live` repeats each traced run
/// on two threads, which must reproduce the one-thread digest.
pub fn per_layer(spec: &Spec) -> Report {
    let mut rep = Report { correct: true, ..Report::default() };
    let (mut tr, mut tr2) = (Tracer::on(), Tracer::on());
    let (mut base, mut traced, mut obs_off, mut t2) =
        (Tally::default(), Tally::default(), Tally::default(), Tally::default());
    for i in 0..spec.runs {
        let u = run_untraced(spec, i);
        base.add(&u);
        let t = run_traced(spec, i, &mut tr);
        if let Err(e) = check_outcome(spec, &t) {
            rep.error(format!("run {i}: {e}"));
        }
        if t.digest != u.digest {
            rep.error(format!("run {i}: traced digest differs from untraced"));
        }
        traced.add(&t);
        match spec.workload {
            Workload::PaperGrid => {}
            Workload::TcpFaulted => {
                obs_off.add(&batch_untraced(&spec.config(i).with_obs(ObsConfig::OFF)));
            }
            Workload::CityLive => {
                tr2.set_run(i as u32);
                let o = city_run(&spec.config(i).with_threads(2), &mut tr2);
                if o.digest != t.digest || o.counts.events != t.counts.events {
                    rep.error(format!("run {i}: 2-thread run differs from 1-thread run"));
                }
                t2.add(&o);
            }
        }
    }
    let floors = floors::run_all(spec.tiny).unwrap_or_else(|e| {
        rep.error(e);
        Vec::new()
    });

    let layers = tr.self_s_by_name();
    let layer = |n: &str| layers.get(n).copied().unwrap_or(0.0);
    let c = traced.counts;
    let sim_run = layer("sim.run_until");
    let untraced_wall = base.wall_s();
    let self_sum: f64 = layers.values().sum();
    let (d1, d2) = (tr.durations_s("sim.run_until"), tr2.durations_s("sim.run_until"));
    let (speedup, t1_iqr, t2_iqr) = if spec.workload == Workload::CityLive {
        (median(&d1) / median(&d2), iqr_pct(&d1), iqr_pct(&d2))
    } else {
        (0.0, 0.0, 0.0)
    };
    let obs_overhead = if spec.workload == Workload::TcpFaulted {
        (untraced_wall - obs_off.wall_s()) / obs_off.wall_s() * 100.0
    } else {
        0.0
    };
    let floor = |n: &str| floors.iter().find(|f| f.name == n).map_or(0.0, |f| f.value);

    let m = &PER_LAYER;
    rep.set(m, "scenario.assemble_s", layer("scenario.assemble"));
    rep.set(m, "scenario.collect_s", layer("scenario.collect"));
    rep.set(m, "sim.run_s", sim_run);
    rep.set(m, "sim.events", c.events as f64);
    rep.set(m, "sim.events_per_s", c.events as f64 / sim_run);
    rep.set(m, "sim.shards", c.shards as f64);
    rep.set(m, "sim.speedup_t2", speedup);
    rep.set(m, "sim.speedup_t2.t1_iqr_pct", t1_iqr);
    rep.set(m, "sim.speedup_t2.t2_iqr_pct", t2_iqr);
    for name in ["sim.queue_ns_per_event", "sim.queue_cancel_ns_per_event"] {
        rep.set(m, name, floor(name));
    }
    rep.set(m, "net.trace_frames", c.trace_frames as f64);
    rep.set(m, "net.medium_drop_ratio", ratio(c.medium_drops, c.trace_frames));
    rep.set(m, "net.faults_injected", c.faults_injected as f64);
    rep.set(m, "net.forward_ns_per_pkt", floor("net.forward_ns_per_pkt"));
    rep.set(m, "core.schedules", c.schedules as f64);
    rep.set(m, "core.unchanged_ratio", ratio(c.unchanged, c.schedules));
    rep.set(m, "core.queue_drop_ratio", ratio(c.queue_drops, c.udp_sent));
    rep.set(m, "core.splices", c.splices as f64);
    rep.set(m, "core.tcp_bytes_fed", c.tcp_bytes_fed as f64);
    rep.set(m, "core.slot_overrun_ratio", ratio(c.slot_overruns, c.bursts_started));
    for name in [
        "core.policy_build_ns.fixed",
        "core.policy_build_ns.variable",
        "core.policy_build_ns.channel",
        "core.policy_build_ns.buffer",
        "core.schedule_codec_ns",
        "core.marking_ns_per_burst",
    ] {
        rep.set(m, name, floor(name));
    }
    rep.set(
        m,
        "client.schedule_miss_ratio",
        ratio(c.sched_missed, c.sched_missed + c.sched_applied),
    );
    rep.set(m, "client.missed_frames", c.missed_frames as f64);
    rep.set(m, "coord.reports", c.coord_reports as f64);
    rep.set(m, "coord.grants", c.coord_grants as f64);
    for name in [
        "energy.wnic_ns_per_cycle",
        "transport.tcp_mb_per_s.lossless",
        "transport.tcp_mb_per_s.loss5",
    ] {
        rep.set(m, name, floor(name));
    }
    let postmortem = layer("trace.postmortem");
    rep.set(m, "trace.postmortem_s", postmortem);
    rep.set(
        m,
        "trace.ns_per_frame_client",
        if c.frame_clients == 0 { 0.0 } else { postmortem * 1e9 / c.frame_clients as f64 },
    );
    rep.set(m, "obs.export_s", layer("obs.export"));
    rep.set(m, "obs.events_recorded", c.obs_events as f64);
    rep.set(m, "obs.events_dropped", c.obs_dropped as f64);
    rep.set(m, "obs.overhead_pct", obs_overhead);
    rep.set(
        m,
        "bench.trace_overhead_pct",
        (traced.wall_s() - untraced_wall) / untraced_wall * 100.0,
    );
    rep.set(m, "bench.layer_sum_ratio", self_sum / untraced_wall);
    rep.attempted = traced.attempted;
    rep.failed = traced.failed;

    rep.notes.push(format!(
        "untraced wall {untraced_wall:.3} s, traced wall {:.3} s, layer self-times sum {self_sum:.3} s",
        traced.wall_s()
    ));
    for (name, s) in &layers {
        rep.notes
            .push(format!("layer {name:<20} self {s:>9.4} s  {:>5.1} %", s / self_sum * 100.0));
    }
    for f in &floors {
        rep.notes
            .push(format!("floor {:<34} {:>12.3} {} over {} ops", f.name, f.value, f.unit, f.ops));
    }
    rep.notes.push(format!(
        "digest untraced {:016x} traced {:016x}; sim.events {}",
        base.digest(),
        traced.digest(),
        c.events
    ));
    if spec.workload == Workload::CityLive {
        rep.notes.push(format!(
            "threads t1 run_until median {:.4} s (IQR {t1_iqr:.1} %), t2 median {:.4} s (IQR {t2_iqr:.1} %), speedup {speedup:.3}; t2 digest {:016x}",
            median(&d1),
            median(&d2),
            t2.digest()
        ));
    }
    let floors_json: Vec<String> = floors
        .iter()
        .map(|f| {
            format!(
                "{{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"ops\":{}}}",
                f.name, f.value, f.unit, f.ops
            )
        })
        .collect();
    rep.extra.push(("floors", format!("[{}]", floors_json.join(","))));
    rep.extra.push(("untraced_run_s", json_f64s(&base.run_s)));
    rep.extra.push(("digest", json_str(&format!("{:016x}", traced.digest()))));
    rep.extra.push(("spans", tr.to_json()));
    if spec.workload == Workload::CityLive {
        rep.extra.push(("spans_t2", tr2.to_json()));
    }
    rep
}
