//! Metrics and the result line.

use crate::micro::SamplerTimings;
use crate::sample::{E2eSample, Fingerprint, TracedSample};
use crate::trace::CallClass;
use crate::workload::Instance;
use pop_proto::EngineTelemetry;
use usd_core::Backend;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
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

/// The median (upper median for an even count) of a nonempty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Effective interactions per second of drive wall time, summed over the
/// samples.
pub fn eff_per_s<'a>(samples: impl Iterator<Item = (&'a EngineTelemetry, f64)>) -> f64 {
    let (eff, secs) = samples.fold((0.0, 0.0), |(e, s), (t, d)| (e + t.effective as f64, s + d));
    ratio(eff, secs)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(samples: &[E2eSample], peak_rss_mb: f64) -> Vec<Metric> {
    let setups: Vec<f64> = samples.iter().flat_map(|s| s.setup_s.clone()).collect();
    vec![
        metric(
            "eff_per_s",
            eff_per_s(samples.iter().map(|s| (&s.telemetry, s.drive_s))),
            "1/s",
        ),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// The per-layer metrics of a traced run. `untraced_eff_per_s` comes from
/// the untraced pass over the same samples.
pub fn per_layer(
    inst: &Instance,
    traced: &[TracedSample],
    untraced_eff_per_s: f64,
    sampler: SamplerTimings,
) -> Vec<Metric> {
    let count = traced.len() as f64;
    let sum = |f: &dyn Fn(&TracedSample) -> f64| traced.iter().map(f).sum::<f64>();
    let tele = |f: &dyn Fn(&EngineTelemetry) -> u64| {
        traced.iter().map(|s| f(&s.telemetry) as f64).sum::<f64>()
    };
    let block_s = sum(&|s| s.class_s[CallClass::Block as usize]);
    let sparse_s = sum(&|s| s.class_s[CallClass::Sparse as usize]);
    let blocks = tele(&|t| t.blocks);
    let block_draws = tele(&|t| t.block_draws);
    let applied = tele(&|t| t.block_applied);
    let fallback = tele(&|t| t.fallback_literal);
    let events = tele(&|t| t.sparse.events);
    let cancelled = tele(&|t| t.sparse.entries_cancelled);
    let flushed = tele(&|t| t.sparse.entries_applied) + cancelled;
    // The block counters are shared by both block engines; each family
    // of names reports its own engine and reads 0 on the other.
    let (batch, graph) = (
        inst.backend == Backend::Batch,
        inst.backend == Backend::BatchGraph,
    );
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    let traced_eff_per_s = eff_per_s(traced.iter().map(|s| (&s.telemetry, s.drive_s)));
    vec![
        metric("topology.build_s", sum(&|s| s.topology_s) / count, "s"),
        metric(
            "simulator.placement_s",
            sum(&|s| s.placement_s) / count,
            "s",
        ),
        metric("simulator.new_s", sum(&|s| s.new_s) / count, "s"),
        metric(
            "runspec.other_s",
            sum(&|s| s.setup_unattributed_s()) / count,
            "s",
        ),
        metric(
            "batched.us_per_block",
            only(batch, ratio(block_s * 1e6, blocks)),
            "us",
        ),
        metric("batched.blocks", only(batch, blocks), "count"),
        metric(
            "batched.table_draws_per_block",
            only(batch, ratio(tele(&|t| t.table_draws), blocks)),
            "draws/block",
        ),
        metric("batched.fallback_literal", only(batch, fallback), "count"),
        metric(
            "batched.skip_draws",
            only(batch, tele(&|t| t.skip_draws)),
            "count",
        ),
        metric("multinomial.block_us", sampler.block_us, "us"),
        metric("multinomial.mvhg_us", sampler.mvhg_us, "us"),
        metric("rng.below_ns", sampler.below_ns, "ns"),
        metric(
            "batched_graph.ns_per_draw",
            only(graph, ratio(block_s * 1e9, block_draws)),
            "ns",
        ),
        metric(
            "batched_graph.block_draws",
            only(graph, block_draws),
            "count",
        ),
        metric(
            "batched_graph.applied_ratio",
            only(graph, ratio(applied, block_draws)),
            "ratio",
        ),
        metric(
            "batched_graph.fallback_rate",
            only(graph, ratio(fallback, applied + fallback)),
            "ratio",
        ),
        metric("sparse.ns_per_event", ratio(sparse_s * 1e9, events), "ns"),
        metric("sparse.events", events, "count"),
        metric("sparse.flushes", tele(&|t| t.sparse.flushes), "count"),
        metric("sparse.cancel_rate", ratio(cancelled, flushed), "ratio"),
        metric("sparse.enters", tele(&|t| t.sparse_enters), "count"),
        metric(
            "drive.calls",
            traced
                .iter()
                .map(|s| s.class_calls.iter().sum::<u64>() as f64)
                .sum(),
            "count",
        ),
        metric("drive.block_s", block_s, "s"),
        metric("drive.sparse_s", sparse_s, "s"),
        metric(
            "drive.other_s",
            sum(&|s| s.class_s[CallClass::Other as usize]),
            "s",
        ),
        metric(
            "drive.unattributed_s",
            sum(&|s| s.drive_unattributed_s()),
            "s",
        ),
        metric(
            "trace.overhead",
            ratio(untraced_eff_per_s - traced_eff_per_s, untraced_eff_per_s),
            "ratio",
        ),
    ]
}

/// FNV-1a over every sample's fingerprint, in sample order: one number
/// two runs of a commit must agree on.
pub fn fingerprint_digest(fps: &[Fingerprint]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for fp in fps {
        for v in [
            fp.scheduled,
            fp.effective,
            fp.blocks,
            fp.table_draws,
            fp.sparse_events,
        ] {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
