//! Perf-regression gate over `bench_backends --json` output.
//!
//! ```text
//! cargo run --release -p usd-bench --bin bench_compare -- \
//!     --baseline <baseline.json> --candidate <candidate.json>
//!     [--threshold <frac>] [--summary <path>]
//! cargo run --release -p usd-bench --bin bench_compare -- \
//!     --assert-telemetry <run.json>
//! cargo run --release -p usd-bench --bin bench_compare -- \
//!     --assert-timeline <run.jsonl>
//! cargo run --release -p usd-bench --bin bench_compare -- \
//!     --assert-checkpoint <run.ckpt>
//! ```
//!
//! Each `--assert-*` mode takes its one path and no other flag. An
//! unknown, repeated or stray argument, or a flag the chosen mode does not
//! read, exits 2 naming it.
//!
//! `--summary <path>` additionally **appends** a markdown per-scenario
//! ratio table to `path` (created if missing) — pass
//! `"$GITHUB_STEP_SUMMARY"` in CI and the gate verdict renders on the run
//! page, pass or fail, without downloading artifacts. The summary is
//! written before the exit code is decided, so a failing gate still
//! reports its table. When the candidate rows carry telemetry blocks, a
//! second table of key telemetry rates (effective fraction, sparse cancel
//! rate, literal-fallback rate) per scenario is appended after the ratio
//! table; when they carry event-histogram blocks (`bench_backends` always
//! embeds them since the flight-recorder PR), a third table trends each
//! histogram's p50/p90/p99 against the baseline's quantiles. The
//! quantile trends are advisory, not gated: the values are power-of-two
//! bin lower edges, so any movement is a genuine bucket shift worth
//! eyeballing in review, but distribution shape is too workload-coupled
//! for a hard threshold.
//!
//! `--assert-telemetry <run.json>` is a separate smoke mode: it checks
//! that **every** row of the document carries a non-empty telemetry block
//! with `scheduled > 0`, and exits `1` listing the offending rows
//! otherwise. CI runs it on the fresh bench output so a backend that
//! silently stops reporting telemetry (a new engine forgetting to
//! instrument, a refactor dropping the counters) fails the build instead
//! of quietly degrading the run reports.
//!
//! `--assert-timeline <run.jsonl>` is the same idea for the flight
//! recorder: every line of a `usd-sim run --timeline` JSONL must be a
//! record carrying the full schema key set **in emission order**, with
//! `sample` counting up from 0 and the cumulative `scheduled`/`effective`
//! clocks monotone. Exit `1` lists every violating line; an unreadable or
//! empty file is exit `2` (an empty timeline means the recorder never
//! sampled — a wiring bug, not a schema drift).
//!
//! `--assert-checkpoint <run.ckpt>` validates a `usd-sim run --checkpoint`
//! file end to end: the sealed container header (magic, format version,
//! CRC-32 of the body) and the full structural decode of the run
//! checkpoint behind it — identity echo, RNG stream words, optional
//! flight recorder, engine payload. Exit `0` prints a one-line summary of
//! the run the file would resume; a corrupt, truncated, or
//! wrong-versioned file is exit `1` with the validation error; an
//! unreadable path is exit `2`. CI runs it on the checkpoint the
//! kill-and-resume smoke job leaves behind, so a schema drift between
//! writer and validator fails the build.
//!
//! Matches rows by `(backend, topology, n, mode)` and, for every
//! **stabilization** row present in both files, compares the candidate's
//! effective-interaction throughput against the baseline's. Exit codes:
//!
//! * `0` — every compared row is within `threshold` (default 0.40, i.e. a
//!   row may lose at most 40% of its baseline stabilization rate);
//! * `1` — at least one row regressed past the threshold;
//! * `2` — usage or parse error, or any baseline stabilization row is
//!   missing from the candidate (a misconfigured gate must fail loudly,
//!   not silently lose coverage — this is what catches a quick-mode or
//!   `--backend`-filtered candidate being compared against the committed
//!   full-mode baseline). Extra candidate rows are fine: new scenarios
//!   join the gate when the baseline is regenerated.
//!
//! `target`-mode rows (fixed scheduled-interaction drives) are reported
//! for context but not gated: their wall time is dominated by the
//! scheduled-throughput extremes the sparse skipper produces, which swing
//! orders of magnitude with trivial phase-boundary shifts. The JSON
//! parser is hand-rolled for exactly the object layout `bench_backends`
//! writes: rows are split by balanced-brace scanning (each row embeds a
//! nested `telemetry` object), and the row's own scalar fields are found
//! by first occurrence, which is safe because `bench_backends` emits the
//! telemetry object as the row's **last** key.

use sim_stats::flags::Flags;

/// The telemetry summary a row may carry (`None` when the row predates
/// telemetry, or its block is empty/unparseable — the distinction only
/// matters to `--assert-telemetry`, which treats all three as failures).
#[derive(Debug, Clone, Copy, PartialEq)]
struct TelemetrySummary {
    scheduled: u64,
    effective_fraction: f64,
    cancel_rate: f64,
    fallback_rate: f64,
}

/// One histogram field's quantile summary, as `EventHistograms::to_json`
/// emits it: power-of-two bin lower edges plus the event count.
#[derive(Debug, Clone, PartialEq)]
struct HistField {
    name: String,
    p50: f64,
    p90: f64,
    p99: f64,
    n: u64,
}

/// One parsed benchmark row (the fields the gate needs).
#[derive(Debug, Clone, PartialEq)]
struct CmpRow {
    backend: String,
    topology: String,
    n: u64,
    mode: String,
    scheduled_per_s: f64,
    effective_per_s: f64,
    /// Per-event histogram quantiles in schema order (empty when the row
    /// predates the flight-recorder PR, or the block is malformed).
    histograms: Vec<HistField>,
    telemetry: Option<TelemetrySummary>,
}

impl CmpRow {
    fn key(&self) -> String {
        format!(
            "{}/{} n={} [{}]",
            self.backend, self.topology, self.n, self.mode
        )
    }
}

fn str_field(obj: &str, key: &str) -> Result<String, String> {
    let pat = format!("\"{key}\":\"");
    let start = obj
        .find(&pat)
        .ok_or_else(|| format!("missing string field '{key}' in row {obj:?}"))?
        + pat.len();
    let end = obj[start..]
        .find('"')
        .ok_or_else(|| format!("unterminated string field '{key}'"))?
        + start;
    Ok(obj[start..end].to_string())
}

fn num_field(obj: &str, key: &str) -> Result<f64, String> {
    let pat = format!("\"{key}\":");
    let start = obj
        .find(&pat)
        .ok_or_else(|| format!("missing numeric field '{key}' in row {obj:?}"))?
        + pat.len();
    let tail = &obj[start..];
    let end = tail
        .find(|c: char| {
            c != '-' && c != '.' && c != 'e' && c != 'E' && c != '+' && !c.is_ascii_digit()
        })
        .unwrap_or(tail.len());
    tail[..end]
        .parse()
        .map_err(|e| format!("field '{key}': {e}"))
}

/// Byte range (inclusive of both braces) of the balanced `{...}` object
/// starting at byte `at` (which must be `{`). String-aware, so a `{` or
/// `}` inside a quoted topology label cannot desynchronize the scan.
fn balanced_object(s: &str, at: usize) -> Result<(usize, usize), String> {
    let bytes = s.as_bytes();
    if bytes.get(at) != Some(&b'{') {
        return Err("expected '{' at object start".to_string());
    }
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (off, &b) in bytes[at..].iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_str => escaped = true,
            b'"' => in_str = !in_str,
            b'{' if !in_str => depth += 1,
            b'}' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return Ok((at, at + off + 1));
                }
            }
            _ => {}
        }
    }
    Err("unterminated object".to_string())
}

/// Extract and summarize a row's nested `telemetry` object. `None` when
/// the key is absent or the block lacks the expected counters/rates.
fn parse_telemetry(obj: &str) -> Option<TelemetrySummary> {
    let at = obj.find("\"telemetry\":")?;
    let open = at + obj[at..].find('{')?;
    let (start, end) = balanced_object(obj, open).ok()?;
    let t = &obj[start..end];
    Some(TelemetrySummary {
        scheduled: num_field(t, "scheduled").ok()? as u64,
        effective_fraction: num_field(t, "effective_fraction").ok()?,
        cancel_rate: num_field(t, "cancel_rate").ok()?,
        fallback_rate: num_field(t, "fallback_rate").ok()?,
    })
}

/// Extract a row's nested `histograms` object into its per-field
/// quantile summaries, in the order the block lists them. Empty when the
/// key is absent or any structure is off — histograms are advisory, so a
/// malformed block degrades to "no columns", unlike the row's own scalar
/// fields whose absence is a parse error.
fn parse_histograms(obj: &str) -> Vec<HistField> {
    let Some(at) = obj.find("\"histograms\":") else {
        return Vec::new();
    };
    let Some(open) = obj[at..].find('{') else {
        return Vec::new();
    };
    let Ok((start, end)) = balanced_object(obj, at + open) else {
        return Vec::new();
    };
    let block = &obj[start..end];
    let mut out = Vec::new();
    let mut i = 1; // past the opening '{'
    while let Some(q) = block[i..].find('"') {
        let key_start = i + q + 1;
        let Some(qe) = block[key_start..].find('"') else {
            break;
        };
        let key_end = key_start + qe;
        let Some(ob) = block[key_end..].find('{') else {
            break;
        };
        let Ok((fs, fe)) = balanced_object(block, key_end + ob) else {
            break;
        };
        let field = &block[fs..fe];
        if let (Ok(p50), Ok(p90), Ok(p99), Ok(n)) = (
            num_field(field, "p50"),
            num_field(field, "p90"),
            num_field(field, "p99"),
            num_field(field, "n"),
        ) {
            out.push(HistField {
                name: block[key_start..key_end].to_string(),
                p50,
                p90,
                p99,
                n: n as u64,
            });
        }
        i = fe;
    }
    out
}

/// The row objects of the `rows` array of a `bench_backends --json`
/// document, as raw JSON text.
fn row_objects(doc: &str) -> Result<Vec<&str>, String> {
    let rows_at = doc.find("\"rows\"").ok_or("no \"rows\" key")?;
    let open = doc[rows_at..].find('[').ok_or("no rows array")? + rows_at;
    let bytes = doc.as_bytes();
    let mut objects = Vec::new();
    let mut i = open + 1;
    loop {
        while i < bytes.len() && bytes[i] != b'{' && bytes[i] != b']' {
            i += 1;
        }
        if i >= bytes.len() {
            return Err("unterminated rows array".to_string());
        }
        if bytes[i] == b']' {
            break;
        }
        let (start, end) = balanced_object(doc, i)?;
        objects.push(&doc[start..end]);
        i = end;
    }
    Ok(objects)
}

/// Parse the `rows` array of a `bench_backends --json` document.
fn parse_rows(doc: &str) -> Result<Vec<CmpRow>, String> {
    row_objects(doc)?
        .into_iter()
        .map(|obj| {
            Ok(CmpRow {
                backend: str_field(obj, "backend")?,
                topology: str_field(obj, "topology")?,
                n: num_field(obj, "n")? as u64,
                mode: str_field(obj, "mode")?,
                scheduled_per_s: num_field(obj, "scheduled_per_s")?,
                effective_per_s: num_field(obj, "effective_per_s")?,
                histograms: parse_histograms(obj),
                telemetry: parse_telemetry(obj),
            })
        })
        .collect()
}

/// `--assert-telemetry` check: every row must carry a telemetry block
/// with `scheduled > 0`. Returns the keys of the rows that fail.
fn missing_telemetry(rows: &[CmpRow]) -> Vec<String> {
    rows.iter()
        .filter(|r| !matches!(r.telemetry, Some(t) if t.scheduled > 0))
        .map(|r| r.key())
        .collect()
}

/// Schema keys every flight-recorder JSONL record must carry, in the
/// order `TimelineSample::to_json` emits them.
const TIMELINE_KEYS: [&str; 15] = [
    "\"sample\":",
    "\"scheduled\":",
    "\"effective\":",
    "\"phase\":\"",
    "\"d_scheduled\":",
    "\"d_effective\":",
    "\"d_dense_steps\":",
    "\"d_blocks\":",
    "\"d_block_applied\":",
    "\"d_fallback_literal\":",
    "\"d_sparse_enters\":",
    "\"d_sparse_exits\":",
    "\"d_sparse_events\":",
    "\"d_sparse_flushes\":",
    "\"rates\":{\"effective_fraction\":",
];

/// `--assert-timeline` check over one flight-recorder JSONL document:
/// every line is a `{...}` record carrying the full schema key set in
/// emission order, `sample` counts up from 0, and the cumulative
/// `scheduled`/`effective` clocks never go backwards. Ok carries the
/// sample count; Err lists every violation found (all lines are checked
/// so one bad record does not mask the rest).
fn assert_timeline(doc: &str) -> Result<usize, Vec<String>> {
    let mut problems = Vec::new();
    let mut count = 0usize;
    let (mut last_scheduled, mut last_effective) = (0.0f64, 0.0f64);
    for (lineno, line) in doc.lines().enumerate() {
        let ln = lineno + 1;
        let index = count as f64;
        count += 1;
        if !(line.starts_with('{') && line.ends_with('}')) {
            problems.push(format!("line {ln}: not a one-line JSON record"));
            continue;
        }
        // Keys must appear in emission order: each search resumes where
        // the previous key matched, so a reordered schema fails even if
        // every key is present somewhere in the line.
        let mut at = 0usize;
        let mut ordered = true;
        for key in TIMELINE_KEYS {
            match line[at..].find(key) {
                Some(rel) => at += rel + key.len(),
                None => {
                    problems.push(format!("line {ln}: missing or out-of-order key {key}"));
                    ordered = false;
                    break;
                }
            }
        }
        if !ordered {
            continue;
        }
        match num_field(line, "sample") {
            Ok(s) if s == index => {}
            Ok(s) => problems.push(format!("line {ln}: sample index {s} (expected {index})")),
            Err(e) => problems.push(format!("line {ln}: {e}")),
        }
        let scheduled = num_field(line, "scheduled").unwrap_or(-1.0);
        let effective = num_field(line, "effective").unwrap_or(-1.0);
        if scheduled < last_scheduled {
            problems.push(format!(
                "line {ln}: scheduled clock went backwards ({last_scheduled} -> {scheduled})"
            ));
        }
        if effective < last_effective {
            problems.push(format!(
                "line {ln}: effective clock went backwards ({last_effective} -> {effective})"
            ));
        }
        last_scheduled = scheduled;
        last_effective = effective;
    }
    if problems.is_empty() {
        Ok(count)
    } else {
        Err(problems)
    }
}

/// `--assert-checkpoint` check over raw checkpoint-file bytes: the sealed
/// header must validate (magic, version, CRC) and the body must decode as
/// a complete run checkpoint. Ok carries the summary line printed on
/// success; Err the validation failure.
fn assert_checkpoint(bytes: &[u8]) -> Result<String, String> {
    let ckpt = usd_core::RunCheckpoint::from_bytes(bytes)
        .map_err(|e| format!("invalid checkpoint: {e}"))?;
    let id = &ckpt.identity;
    Ok(format!(
        "valid checkpoint: backend={} n={} k={} seed={} topology={} \
         recorder={} engine-payload={}B sealed={}B",
        id.backend,
        id.n,
        id.k,
        id.seed,
        if id.topology.is_empty() {
            "clique"
        } else {
            &id.topology
        },
        if ckpt.recorder.is_some() { "yes" } else { "no" },
        ckpt.engine.len(),
        bytes.len()
    ))
}

/// One gated comparison.
#[derive(Debug)]
struct Comparison {
    key: String,
    baseline: f64,
    candidate: f64,
    /// candidate / baseline (1.0 = parity, < 1 = slower).
    ratio: f64,
    regressed: bool,
}

/// Compare every stabilization row of the baseline against the candidate.
/// Errors when any baseline stabilization row is missing from the
/// candidate — a partially overlapping candidate (quick vs full scenario
/// set, a `--backend`/`--topology`-filtered run, a scenario silently
/// dropped from the grid) must fail the gate loudly, not shrink its
/// coverage.
fn compare(
    baseline: &[CmpRow],
    candidate: &[CmpRow],
    threshold: f64,
) -> Result<Vec<Comparison>, String> {
    let mut out = Vec::new();
    let mut missing = Vec::new();
    for b in baseline.iter().filter(|r| r.mode == "stabilize") {
        let Some(c) = candidate.iter().find(|r| {
            r.backend == b.backend && r.topology == b.topology && r.n == b.n && r.mode == b.mode
        }) else {
            missing.push(b.key());
            continue;
        };
        if b.effective_per_s <= 0.0 {
            continue; // a zero-rate baseline row cannot be regressed against
        }
        let ratio = c.effective_per_s / b.effective_per_s;
        out.push(Comparison {
            key: b.key(),
            baseline: b.effective_per_s,
            candidate: c.effective_per_s,
            ratio,
            regressed: ratio < 1.0 - threshold,
        });
    }
    if !missing.is_empty() {
        return Err(format!(
            "{} baseline stabilization row(s) have no candidate counterpart — \
             the gate would silently lose coverage (quick vs full scenario \
             set, or a filtered/renamed grid?):\n  {}",
            missing.len(),
            missing.join("\n  ")
        ));
    }
    if out.is_empty() {
        return Err("baseline contains no stabilization rows — nothing to gate".to_string());
    }
    Ok(out)
}

/// Append `doc` to the summary file (`$GITHUB_STEP_SUMMARY` is append-
/// oriented: other steps may have written before us). Creates the file if
/// missing; a write failure is reported but does not change the gate
/// verdict.
fn append_summary(path: &str, doc: &str) {
    use std::io::Write;
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(doc.as_bytes()));
    match written {
        Ok(()) => println!("wrote summary to {path}"),
        Err(e) => eprintln!("cannot write summary {path}: {e}"),
    }
}

/// Render the gate verdict as a markdown document (one table row per
/// gated scenario, most-regressed first), for `$GITHUB_STEP_SUMMARY`.
fn summary_markdown(comparisons: &[Comparison], threshold: f64) -> String {
    let regressions = comparisons.iter().filter(|c| c.regressed).count();
    let mut doc = String::from("## Perf-regression gate (`bench_compare`)\n\n");
    doc.push_str(&format!(
        "**{}** — {} stabilization row(s) gated against the committed \
         baseline, {} regression(s) past the {:.0}% threshold.\n\n",
        if regressions == 0 {
            "PASS ✅"
        } else {
            "FAIL ❌"
        },
        comparisons.len(),
        regressions,
        threshold * 100.0
    ));
    doc.push_str("| scenario | baseline eff/s | candidate eff/s | ratio | verdict |\n");
    doc.push_str("|---|---:|---:|---:|---|\n");
    let mut rows: Vec<&Comparison> = comparisons.iter().collect();
    rows.sort_by(|a, b| a.ratio.total_cmp(&b.ratio));
    for c in rows {
        doc.push_str(&format!(
            "| `{}` | {:.3e} | {:.3e} | {:.3} | {} |\n",
            c.key,
            c.baseline,
            c.candidate,
            c.ratio,
            if c.regressed { "**REGRESSED**" } else { "ok" }
        ));
    }
    doc.push('\n');
    doc
}

/// Render the candidate rows' telemetry rates as a markdown table (every
/// row, both modes — the rates characterize the run even where wall time
/// is not gated). Empty string when no row carries telemetry, so old
/// documents produce no stub section.
fn telemetry_markdown(rows: &[CmpRow]) -> String {
    if rows.iter().all(|r| r.telemetry.is_none()) {
        return String::new();
    }
    let mut doc = String::from("### Candidate telemetry rates\n\n");
    doc.push_str("| scenario | effective frac | cancel rate | fallback rate |\n");
    doc.push_str("|---|---:|---:|---:|\n");
    for r in rows {
        match r.telemetry {
            Some(t) => doc.push_str(&format!(
                "| `{}` | {:.4} | {:.4} | {:.4} |\n",
                r.key(),
                t.effective_fraction,
                t.cancel_rate,
                t.fallback_rate
            )),
            None => doc.push_str(&format!("| `{}` | — | — | — |\n", r.key())),
        }
    }
    doc.push('\n');
    doc
}

/// Histogram-quantile trend table: one markdown row per (scenario,
/// histogram field) with events in the candidate, alongside the
/// baseline's quantiles for the same field where present ("—" when the
/// committed baseline predates histograms — regenerating it picks the
/// column up). Advisory only: quantiles are power-of-two bin lower
/// edges, so any movement is a real bucket shift worth a look in review,
/// but the shapes are too workload-coupled to gate on. Empty string when
/// no candidate row recorded any events.
fn histogram_markdown(baseline: &[CmpRow], candidate: &[CmpRow]) -> String {
    if candidate
        .iter()
        .all(|r| r.histograms.iter().all(|f| f.n == 0))
    {
        return String::new();
    }
    let mut doc = String::from("### Event-histogram quantile trends\n\n");
    doc.push_str(
        "| scenario | histogram | p50 | p90 | p99 | events | baseline p50/p90/p99 |\n\
         |---|---|---:|---:|---:|---:|---:|\n",
    );
    for r in candidate {
        let base = baseline.iter().find(|b| {
            b.backend == r.backend && b.topology == r.topology && b.n == r.n && b.mode == r.mode
        });
        for f in r.histograms.iter().filter(|f| f.n > 0) {
            let base_cell = base
                .and_then(|b| b.histograms.iter().find(|bf| bf.name == f.name && bf.n > 0))
                .map_or("—".to_string(), |bf| {
                    format!("{:.0}/{:.0}/{:.0}", bf.p50, bf.p90, bf.p99)
                });
            doc.push_str(&format!(
                "| `{}` | {} | {:.0} | {:.0} | {:.0} | {} | {} |\n",
                r.key(),
                f.name,
                f.p50,
                f.p90,
                f.p99,
                f.n,
                base_cell
            ));
        }
    }
    doc.push('\n');
    doc
}

/// The usage line, printed when the gate is missing one of its paths.
const USAGE: &str = "usage: bench_compare --baseline <baseline.json> --candidate \
    <candidate.json> [--threshold <frac>] [--summary <path>] | bench_compare \
    --assert-telemetry <run.json> | bench_compare --assert-timeline <run.jsonl> | \
    bench_compare --assert-checkpoint <run.ckpt>";

/// The smoke modes: each checks one file and takes no other flag.
const SMOKE: [&str; 3] = ["assert-telemetry", "assert-timeline", "assert-checkpoint"];

/// The gate's flags.
const GATE: [&str; 4] = ["baseline", "candidate", "threshold", "summary"];

/// What one invocation asks for.
#[derive(Debug, PartialEq)]
enum Mode {
    /// `--assert-telemetry <run.json>`.
    AssertTelemetry(String),
    /// `--assert-timeline <run.jsonl>`.
    AssertTimeline(String),
    /// `--assert-checkpoint <run.ckpt>`.
    AssertCheckpoint(String),
    /// The perf-regression gate.
    Gate {
        baseline: String,
        candidate: String,
        threshold: f64,
        summary: Option<String>,
    },
}

/// The mode `args` ask for, or the one-line error naming the flag at fault.
fn parse_args(args: &[String]) -> Result<Mode, String> {
    let flags = Flags::parse(args, &[&SMOKE[..], &GATE[..]].concat(), &[])?;
    let path = |name: &str| match flags.get::<String>(name)? {
        Some(p) if p.is_empty() => Err(format!("--{name} needs a non-empty path")),
        p => Ok(p),
    };
    let given: Vec<&str> = SMOKE
        .iter()
        .chain(&GATE)
        .copied()
        .filter(|f| flags.get_opt(f).is_some())
        .collect();
    if let Some(&smoke) = SMOKE.iter().find(|f| given.contains(f)) {
        if given.len() > 1 {
            return Err(format!(
                "--{smoke} takes one path and no other flag (got --{})",
                given.join(", --")
            ));
        }
        let path = path(smoke)?.expect("the flag was given");
        return Ok(match smoke {
            "assert-telemetry" => Mode::AssertTelemetry(path),
            "assert-timeline" => Mode::AssertTimeline(path),
            _ => Mode::AssertCheckpoint(path),
        });
    }
    let (Some(baseline), Some(candidate)) = (path("baseline")?, path("candidate")?) else {
        return Err(USAGE.to_string());
    };
    let threshold = match flags.get::<f64>("threshold")? {
        None => 0.40,
        Some(t) if (0.0..1.0).contains(&t) => t,
        Some(_) => return Err("--threshold needs a fraction in [0, 1)".to_string()),
    };
    Ok(Mode::Gate {
        baseline,
        candidate,
        threshold,
        summary: path("summary")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let (baseline, candidate, threshold, summary) = match mode {
        Mode::Gate {
            baseline,
            candidate,
            threshold,
            summary,
        } => (baseline, candidate, threshold, summary),
        Mode::AssertCheckpoint(path) => {
            let bytes = std::fs::read(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            match assert_checkpoint(&bytes) {
                Ok(summary) => {
                    println!("{path}: {summary}");
                    return;
                }
                Err(e) => {
                    eprintln!("{path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        Mode::AssertTimeline(path) => {
            let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            match assert_timeline(&doc) {
                Ok(0) => {
                    eprintln!("{path}: empty timeline — the recorder never sampled");
                    std::process::exit(2);
                }
                Ok(samples) => {
                    println!(
                        "{path}: {samples} schema-conforming timeline sample(s), clocks monotone"
                    );
                    return;
                }
                Err(problems) => {
                    eprintln!(
                        "{path}: {} timeline schema violation(s):\n  {}",
                        problems.len(),
                        problems.join("\n  ")
                    );
                    std::process::exit(1);
                }
            }
        }
        Mode::AssertTelemetry(path) => {
            let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            let rows = parse_rows(&doc).unwrap_or_else(|e| {
                eprintln!("cannot parse {path}: {e}");
                std::process::exit(2);
            });
            if rows.is_empty() {
                eprintln!("{path}: no rows — nothing to assert telemetry on");
                std::process::exit(2);
            }
            let missing = missing_telemetry(&rows);
            if missing.is_empty() {
                println!(
                    "{path}: all {} row(s) report a telemetry block with scheduled > 0",
                    rows.len()
                );
                return;
            }
            eprintln!(
                "{path}: {} of {} row(s) missing a live telemetry block:\n  {}",
                missing.len(),
                rows.len(),
                missing.join("\n  ")
            );
            std::process::exit(1);
        }
    };
    // Every exit-2 path below reports through this, so a mis-set-up gate
    // (unreadable/corrupt JSON, disjoint scenario sets) is visible on the
    // run page too, not just in the step log.
    let fail_setup = |e: String| -> ! {
        if let Some(path) = &summary {
            let doc = format!("## Perf-regression gate (`bench_compare`)\n\n**ERROR** — {e}\n");
            append_summary(path, &doc);
        }
        eprintln!("{e}");
        std::process::exit(2);
    };
    let read = |path: &str| -> Vec<CmpRow> {
        let doc = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail_setup(format!("cannot read {path}: {e}")));
        parse_rows(&doc).unwrap_or_else(|e| fail_setup(format!("cannot parse {path}: {e}")))
    };
    let baseline = read(&baseline);
    let candidate = read(&candidate);
    let comparisons = compare(&baseline, &candidate, threshold).unwrap_or_else(|e| fail_setup(e));
    if let Some(path) = &summary {
        let doc = summary_markdown(&comparisons, threshold)
            + &telemetry_markdown(&candidate)
            + &histogram_markdown(&baseline, &candidate);
        append_summary(path, &doc);
    }

    println!(
        "{:<40} {:>14} {:>14} {:>8}  verdict (gate: ratio >= {:.2})",
        "stabilization row",
        "baseline eff/s",
        "candidate eff/s",
        "ratio",
        1.0 - threshold
    );
    let mut regressions = 0usize;
    for c in &comparisons {
        println!(
            "{:<40} {:>14.3e} {:>14.3e} {:>8.3}  {}",
            c.key,
            c.baseline,
            c.candidate,
            c.ratio,
            if c.regressed { "REGRESSED" } else { "ok" }
        );
        regressions += c.regressed as usize;
    }
    println!(
        "{} rows gated, {} regression(s) past the {:.0}% threshold",
        comparisons.len(),
        regressions,
        threshold * 100.0
    );
    if regressions > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A telemetry block in the `EngineTelemetry::to_json` layout (the
    /// fields the parser extracts, inside the same nesting).
    fn telemetry_json(scheduled: u64) -> String {
        format!(
            "{{\"scheduled\":{scheduled},\"effective\":7,\"dense_steps\":3,\
             \"sparse\":{{\"events\":2,\"entries_applied\":5,\"entries_cancelled\":5}},\
             \"spans\":{{\"dense_ns\":0,\"sparse_ns\":0}},\
             \"rates\":{{\"effective_fraction\":0.070000,\"cancel_rate\":0.500000,\
             \"fallback_rate\":0.125000}}}}"
        )
    }

    /// A histograms block in the `EventHistograms::to_json` layout: two
    /// live fields, the rest empty (an engine never exercises them all).
    fn histograms_json(p99: u64) -> String {
        format!(
            "{{\"skip_len\":{{\"p50\":2,\"p90\":16,\"p99\":{p99},\"n\":523}},\
             \"block_total\":{{\"p50\":0,\"p90\":0,\"p99\":0,\"n\":0}},\
             \"block_size\":{{\"p50\":4,\"p90\":8,\"p99\":8,\"n\":12}},\
             \"flush_size\":{{\"p50\":0,\"p90\":0,\"p99\":0,\"n\":0}},\
             \"flush_occupancy\":{{\"p50\":0,\"p90\":0,\"p99\":0,\"n\":0}},\
             \"fallback_run\":{{\"p50\":0,\"p90\":0,\"p99\":0,\"n\":0}}}}"
        )
    }

    fn doc_with_blocks(
        rows: &[(&str, &str, u64, &str, f64)],
        histograms: Option<&str>,
        telemetry: Option<&str>,
    ) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(b, t, n, m, eff)| {
                let hist = histograms.map_or(String::new(), |h| format!(",\"histograms\":{h}"));
                let tail = telemetry.map_or(String::new(), |t| format!(",\"telemetry\":{t}"));
                format!(
                    "  {{\"backend\":\"{b}\",\"topology\":\"{t}\",\"n\":{n},\"mode\":\"{m}\",\
                     \"wall_s\":1.0,\"scheduled\":100,\"effective\":50,\
                     \"scheduled_per_s\":{:.1},\"effective_per_s\":{eff:.1}{hist}{tail}}}",
                    eff * 2.0
                )
            })
            .collect();
        format!(
            "{{\n\"workload\": \"bench_backends\",\n\"quick\": false,\n\"rows\": [\n{}\n]\n}}\n",
            body.join(",\n")
        )
    }

    fn doc_with_telemetry(
        rows: &[(&str, &str, u64, &str, f64)],
        telemetry: Option<&str>,
    ) -> String {
        doc_with_blocks(rows, None, telemetry)
    }

    fn doc(rows: &[(&str, &str, u64, &str, f64)]) -> String {
        doc_with_telemetry(rows, None)
    }

    #[test]
    fn parses_the_bench_backends_layout() {
        let rows = parse_rows(&doc(&[
            ("agent", "regular:8", 100_000, "stabilize", 5.0e6),
            ("graph", "cycle-frontier", 65_536, "target", 4.6e3),
        ]))
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].backend, "agent");
        assert_eq!(rows[0].topology, "regular:8");
        assert_eq!(rows[0].n, 100_000);
        assert_eq!(rows[0].mode, "stabilize");
        assert!((rows[0].effective_per_s - 5.0e6).abs() < 1.0);
        assert_eq!(rows[1].mode, "target");
    }

    #[test]
    fn self_comparison_passes() {
        let rows = parse_rows(&doc(&[
            ("agent", "regular:8", 100_000, "stabilize", 5.0e6),
            ("batchgraph", "regular:8", 100_000, "stabilize", 1.5e7),
        ]))
        .unwrap();
        let cmp = compare(&rows, &rows, 0.40).unwrap();
        assert_eq!(cmp.len(), 2);
        assert!(cmp.iter().all(|c| !c.regressed));
        assert!(cmp.iter().all(|c| (c.ratio - 1.0).abs() < 1e-9));
    }

    #[test]
    fn regression_past_threshold_is_flagged_and_target_rows_are_not_gated() {
        let base = parse_rows(&doc(&[
            ("agent", "regular:8", 100_000, "stabilize", 5.0e6),
            ("graph", "cycle-frontier", 65_536, "target", 1.0e10),
        ]))
        .unwrap();
        let cand = parse_rows(&doc(&[
            ("agent", "regular:8", 100_000, "stabilize", 2.0e6), // -60%
            ("graph", "cycle-frontier", 65_536, "target", 1.0e3), // not gated
        ]))
        .unwrap();
        let cmp = compare(&base, &cand, 0.40).unwrap();
        assert_eq!(cmp.len(), 1, "target rows must not be gated");
        assert!(cmp[0].regressed);
        // A 40% loss exactly at the threshold still passes.
        let cand_ok = parse_rows(&doc(&[(
            "agent",
            "regular:8",
            100_000,
            "stabilize",
            3.0e6, // -40%
        )]))
        .unwrap();
        let cmp = compare(&base, &cand_ok, 0.40).unwrap();
        assert!(!cmp[0].regressed);
    }

    #[test]
    fn disjoint_scenario_sets_fail_loudly() {
        let base = parse_rows(&doc(&[(
            "agent",
            "regular:8",
            1_000_000,
            "stabilize",
            5.0e6,
        )]))
        .unwrap();
        let cand = parse_rows(&doc(&[(
            "agent",
            "regular:8",
            20_000, // quick-mode n: no overlap
            "stabilize",
            5.0e6,
        )]))
        .unwrap();
        assert!(compare(&base, &cand, 0.40).is_err());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(parse_rows("{}").is_err());
        assert!(parse_rows("{\"rows\": [{\"backend\":\"agent\"}]}").is_err());
        assert!(parse_rows("{\"rows\": [{\"backend\":\"agent\"").is_err());
    }

    #[test]
    fn nested_telemetry_blocks_parse_and_do_not_break_row_splitting() {
        let spec: &[(&str, &str, u64, &str, f64)] = &[
            ("graph", "torus-endgame", 65_536, "stabilize", 3.5e6),
            ("batchgraph", "cycle-frontier", 65_536, "target", 4.6e3),
        ];
        let rows = parse_rows(&doc_with_telemetry(spec, Some(&telemetry_json(100)))).unwrap();
        assert_eq!(rows.len(), 2, "balanced scan must split rows, not braces");
        for r in &rows {
            let t = r.telemetry.expect("telemetry block parsed");
            assert_eq!(t.scheduled, 100);
            assert!((t.effective_fraction - 0.07).abs() < 1e-9);
            assert!((t.cancel_rate - 0.5).abs() < 1e-9);
            assert!((t.fallback_rate - 0.125).abs() < 1e-9);
        }
        // The row's own top-level fields still resolve by first
        // occurrence even though the telemetry block repeats their names.
        assert_eq!(rows[0].n, 65_536);
        assert!((rows[0].effective_per_s - 3.5e6).abs() < 1.0);
        // Rows without telemetry parse as None, and an empty block also
        // summarizes to None rather than a half-filled struct.
        let bare = parse_rows(&doc(spec)).unwrap();
        assert!(bare.iter().all(|r| r.telemetry.is_none()));
        let empty = parse_rows(&doc_with_telemetry(spec, Some("{}"))).unwrap();
        assert!(empty.iter().all(|r| r.telemetry.is_none()));
    }

    #[test]
    fn assert_telemetry_flags_missing_and_dead_blocks() {
        let spec: &[(&str, &str, u64, &str, f64)] =
            &[("graph", "torus-endgame", 65_536, "stabilize", 3.5e6)];
        let live = parse_rows(&doc_with_telemetry(spec, Some(&telemetry_json(100)))).unwrap();
        assert!(missing_telemetry(&live).is_empty());
        let absent = parse_rows(&doc(spec)).unwrap();
        assert_eq!(missing_telemetry(&absent).len(), 1);
        // A block that parses but never scheduled anything is equally dead.
        let zeroed = parse_rows(&doc_with_telemetry(spec, Some(&telemetry_json(0)))).unwrap();
        let missing = missing_telemetry(&zeroed);
        assert_eq!(missing.len(), 1);
        assert!(missing[0].contains("torus-endgame"), "{missing:?}");
    }

    #[test]
    fn telemetry_markdown_lists_rates_and_skips_bare_documents() {
        let spec: &[(&str, &str, u64, &str, f64)] = &[
            ("graph", "torus-endgame", 65_536, "stabilize", 3.5e6),
            ("agent", "regular:8", 100_000, "target", 5.0e6),
        ];
        let bare = parse_rows(&doc(spec)).unwrap();
        assert!(telemetry_markdown(&bare).is_empty());
        let mut rows = parse_rows(&doc_with_telemetry(spec, Some(&telemetry_json(100)))).unwrap();
        rows[1].telemetry = None; // one instrumented row is enough for a table
        let md = telemetry_markdown(&rows);
        assert!(md.contains("| scenario | effective frac | cancel rate | fallback rate |"));
        assert!(
            md.contains("| `graph/torus-endgame n=65536 [stabilize]` | 0.0700 | 0.5000 | 0.1250 |")
        );
        assert!(md.contains("| `agent/regular:8 n=100000 [target]` | — | — | — |"));
    }

    #[test]
    fn histogram_blocks_parse_in_schema_order_and_tolerate_absence() {
        let spec: &[(&str, &str, u64, &str, f64)] =
            &[("batch", "clique", 1_000_000, "stabilize", 5.0e6)];
        let rows = parse_rows(&doc_with_blocks(
            spec,
            Some(&histograms_json(64)),
            Some(&telemetry_json(100)),
        ))
        .unwrap();
        assert_eq!(rows.len(), 1);
        let h = &rows[0].histograms;
        assert_eq!(h.len(), 6, "all six schema fields parse: {h:?}");
        assert_eq!(h[0].name, "skip_len");
        assert_eq!(
            (h[0].p50, h[0].p90, h[0].p99, h[0].n),
            (2.0, 16.0, 64.0, 523)
        );
        assert_eq!(h[2].name, "block_size");
        assert_eq!(h[2].n, 12);
        // The row's own scalar fields are unaffected by the extra nesting
        // (the block repeats "n"), and telemetry still parses after it.
        assert_eq!(rows[0].n, 1_000_000);
        assert_eq!(rows[0].telemetry.unwrap().scheduled, 100);
        // A pre-histogram document parses to empty quantile lists.
        let bare = parse_rows(&doc(spec)).unwrap();
        assert!(bare[0].histograms.is_empty());
    }

    #[test]
    fn histogram_markdown_trends_against_baseline_and_skips_empty() {
        let spec: &[(&str, &str, u64, &str, f64)] =
            &[("batch", "clique", 1_000_000, "stabilize", 5.0e6)];
        let base_old = parse_rows(&doc(spec)).unwrap();
        let base_new =
            parse_rows(&doc_with_blocks(spec, Some(&histograms_json(32)), None)).unwrap();
        let cand = parse_rows(&doc_with_blocks(spec, Some(&histograms_json(64)), None)).unwrap();
        // No candidate histograms (or all-empty ones) → no section.
        assert!(histogram_markdown(&base_new, &base_old).is_empty());
        // Baseline predates histograms → candidate columns, "—" baseline.
        let md = histogram_markdown(&base_old, &cand);
        assert!(md.contains("### Event-histogram quantile trends"), "{md}");
        assert!(md.contains(
            "| `batch/clique n=1000000 [stabilize]` | skip_len | 2 | 16 | 64 | 523 | — |"
        ));
        // Zero-count fields are dropped, not rendered as all-zero rows.
        assert!(!md.contains("flush_size"));
        // Baseline with quantiles → diff column.
        let md = histogram_markdown(&base_new, &cand);
        assert!(
            md.contains("| skip_len | 2 | 16 | 64 | 523 | 2/16/32 |"),
            "{md}"
        );
    }

    #[test]
    fn assert_timeline_accepts_conforming_jsonl() {
        let line = |i: u64, sched: u64, eff: u64| {
            format!(
                "{{\"sample\":{i},\"scheduled\":{sched},\"effective\":{eff},\
                 \"phase\":\"dense\",\"d_scheduled\":{sched},\"d_effective\":{eff},\
                 \"d_dense_steps\":1,\"d_blocks\":0,\"d_block_applied\":0,\
                 \"d_fallback_literal\":0,\"d_sparse_enters\":0,\
                 \"d_sparse_exits\":0,\"d_sparse_events\":0,\
                 \"d_sparse_flushes\":0,\
                 \"rates\":{{\"effective_fraction\":0.5,\"cancel_rate\":0.0,\
                 \"fallback_rate\":0.0}}}}\n"
            )
        };
        let good = line(0, 65_536, 100) + &line(1, 131_072, 250) + &line(2, 140_000, 250);
        assert_eq!(assert_timeline(&good), Ok(3));
        assert_eq!(assert_timeline(""), Ok(0), "empty file: caller decides");
    }

    #[test]
    fn assert_timeline_flags_schema_and_monotonicity_violations() {
        let good = "{\"sample\":0,\"scheduled\":10,\"effective\":5,\
             \"phase\":\"dense\",\"d_scheduled\":10,\"d_effective\":5,\
             \"d_dense_steps\":1,\"d_blocks\":0,\"d_block_applied\":0,\
             \"d_fallback_literal\":0,\"d_sparse_enters\":0,\
             \"d_sparse_exits\":0,\"d_sparse_events\":0,\
             \"d_sparse_flushes\":0,\
             \"rates\":{\"effective_fraction\":0.5,\"cancel_rate\":0.0,\
             \"fallback_rate\":0.0}}";
        // A dropped key fails even though every other key is present.
        let missing = good.replace("\"d_blocks\":0,", "");
        let problems = assert_timeline(&missing).unwrap_err();
        assert!(problems[0].contains("d_blocks"), "{problems:?}");
        // A reordered schema fails: same keys, wrong emission order.
        let reordered = good.replace("\"d_blocks\":0,", "").replace(
            "\"d_sparse_flushes\":0,",
            "\"d_sparse_flushes\":0,\"d_blocks\":0,",
        );
        assert!(assert_timeline(&reordered).is_err());
        // Sample indices must count up from zero...
        let renumbered = good.replace("\"sample\":0", "\"sample\":7");
        assert!(assert_timeline(&renumbered).unwrap_err()[0].contains("sample index"));
        // ...and the cumulative clocks must never go backwards.
        let second = good
            .replace("\"sample\":0", "\"sample\":1")
            .replace("\"scheduled\":10", "\"scheduled\":4");
        let doc = format!("{good}\n{second}\n");
        let problems = assert_timeline(&doc).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("backwards")),
            "{problems:?}"
        );
        // Junk lines are reported with their line number.
        let doc = format!("{good}\nnot json\n");
        assert!(assert_timeline(&doc).unwrap_err()[0].contains("line 2"));
    }

    #[test]
    fn assert_checkpoint_validates_sealed_files_and_rejects_corruption() {
        use pop_proto::checkpoint::SnapshotWriter;
        let config = usd_core::UsdConfig::decided(vec![60, 40]);
        let mut sim = usd_core::make_simulator(usd_core::Backend::Count, &config);
        let mut rng = sim_stats::rng::SimRng::new(5);
        sim.run_until(&mut rng, 400, &mut |_| false);
        let mut w = SnapshotWriter::new();
        sim.snapshot_state(&mut w);
        let ckpt = usd_core::RunCheckpoint {
            identity: usd_core::RunIdentity::new("count", 100, 2, 5, ""),
            rng: rng.state(),
            recorder: None,
            engine: w.into_bytes(),
        };
        let bytes = ckpt.to_bytes();
        let summary = assert_checkpoint(&bytes).expect("pristine file validates");
        assert!(summary.contains("backend=count"), "{summary}");
        assert!(summary.contains("topology=clique"), "{summary}");
        assert!(summary.contains("recorder=no"), "{summary}");
        // Any bit flip or truncation fails the CRC/structure gate.
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0x10;
        assert!(assert_checkpoint(&bad).is_err());
        assert!(assert_checkpoint(&bytes[..bytes.len() - 3]).is_err());
        assert!(assert_checkpoint(b"not a checkpoint").is_err());
    }

    #[test]
    fn summary_markdown_renders_verdicts_most_regressed_first() {
        let base = parse_rows(&doc(&[
            ("agent", "regular:8", 100_000, "stabilize", 5.0e6),
            ("graph", "cycle-frontier", 4_096, "stabilize", 1.2e7),
            ("batchgraph", "torus-endgame", 65_536, "stabilize", 3.5e6),
        ]))
        .unwrap();
        let cand = parse_rows(&doc(&[
            ("agent", "regular:8", 100_000, "stabilize", 5.2e6), // ok
            ("graph", "cycle-frontier", 4_096, "stabilize", 4.0e6), // -67%
            ("batchgraph", "torus-endgame", 65_536, "stabilize", 3.4e6), // ok
        ]))
        .unwrap();
        let cmp = compare(&base, &cand, 0.40).unwrap();
        let md = summary_markdown(&cmp, 0.40);
        assert!(md.contains("FAIL ❌"), "{md}");
        assert!(md.contains("1 regression(s) past the 40% threshold"));
        assert!(md.contains("| scenario | baseline eff/s | candidate eff/s | ratio | verdict |"));
        assert!(md.contains("**REGRESSED**"));
        // Most-regressed row sorts first.
        let first_row = md
            .lines()
            .find(|l| l.starts_with("| `"))
            .expect("a data row");
        assert!(
            first_row.contains("cycle-frontier"),
            "worst ratio not first: {first_row}"
        );
        // A clean comparison renders PASS.
        let clean = compare(&base, &base, 0.40).unwrap();
        let md = summary_markdown(&clean, 0.40);
        assert!(md.contains("PASS ✅"), "{md}");
        assert!(!md.contains("REGRESSED"));
    }

    /// `x` rounded to as many decimals as `printed` shows.
    fn rounded_like(printed: &str, x: f64) -> String {
        let decimals = printed.split_once('.').map_or(0, |(_, d)| d.len());
        format!("{x:.decimals$}")
    }

    /// A README population: digits with space separators, or a power of
    /// ten written with a superscript exponent (`10⁶`).
    fn readme_count(s: &str) -> u64 {
        const SUPERSCRIPTS: &str = "⁰¹²³⁴⁵⁶⁷⁸⁹";
        let digit = |c: char| SUPERSCRIPTS.chars().position(|d| d == c);
        match s.strip_prefix("10") {
            Some(exp) if exp.chars().next().and_then(digit).is_some() => 10u64.pow(
                exp.chars()
                    .fold(0, |e, c| 10 * e + digit(c).unwrap() as u32),
            ),
            _ => s.replace(' ', "").parse().unwrap(),
        }
    }

    /// The README's graph-topology Scale table quotes the committed
    /// baseline: every row's wall time and rate equal the
    /// `BENCH_backends.json` row with the same topology, n and backend,
    /// rounded as printed.
    #[test]
    fn readme_scale_table_quotes_the_committed_baseline() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let readme = std::fs::read_to_string(format!("{root}/README.md")).unwrap();
        let doc = std::fs::read_to_string(format!("{root}/BENCH_backends.json")).unwrap();
        let objects = row_objects(&doc).unwrap();
        let (_, table) = readme
            .split_once("| topology | n | backend | wall | effective/s |")
            .expect("README has the graph Scale table");
        let mut checked = 0;
        for line in table.lines().skip(2).take_while(|l| l.starts_with('|')) {
            let cells: Vec<String> = line
                .trim_matches('|')
                .split('|')
                .map(|c| c.replace("**", "").trim().to_string())
                .collect();
            let [topology, n, backend, wall, rate] = &cells[..] else {
                panic!("malformed Scale row {line:?}");
            };
            // "cycle frontier (target drive)" is the `cycle-frontier` row in
            // `target` mode; every other label names a stabilization row.
            let label = topology.split(" (").next().unwrap().replace(' ', "-");
            let mode = if topology.ends_with("(target drive)") {
                "target"
            } else {
                "stabilize"
            };
            let n = readme_count(n);
            let obj = objects
                .iter()
                .find(|o| {
                    str_field(o, "backend").unwrap() == *backend
                        && str_field(o, "topology").unwrap() == label
                        && num_field(o, "n").unwrap() as u64 == n
                        && str_field(o, "mode").unwrap() == mode
                })
                .unwrap_or_else(|| panic!("no baseline row for {line:?}"));
            // A target drive's wall time is its fixed work, not a result.
            if mode == "target" {
                assert_eq!(wall, "—", "{line:?}");
            } else {
                let wall = wall.strip_suffix(" s").expect("wall in seconds");
                let want = rounded_like(wall, num_field(obj, "wall_s").unwrap());
                assert_eq!(wall, want, "wall of {line:?}");
            }
            let mut parts = rate.split_whitespace();
            let (value, prefix) = (parts.next().unwrap(), parts.next().unwrap());
            let scale = match prefix.chars().next() {
                Some('M') => 1e6,
                Some('G') => 1e9,
                _ => panic!("unknown rate unit {prefix:?} in {line:?}"),
            };
            let field = if rate.contains("scheduled") {
                "scheduled_per_s"
            } else {
                "effective_per_s"
            };
            let want = rounded_like(value, num_field(obj, field).unwrap() / scale);
            assert_eq!(value, want, "rate of {line:?}");
            checked += 1;
        }
        assert!(checked > 0, "the Scale table has no rows");
    }

    #[test]
    fn append_summary_creates_and_appends() {
        let dir =
            std::env::temp_dir().join(format!("bench_compare_summary_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("summary.md");
        let path_str = path.to_str().unwrap();
        append_summary(path_str, "first\n");
        append_summary(path_str, "second\n");
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            content, "first\nsecond\n",
            "summary must append, not truncate"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flags_select_one_mode_and_refuse_the_rest() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            parse_args(&args)
        };
        assert_eq!(
            parse("--baseline a.json --candidate b.json --summary s.md"),
            Ok(Mode::Gate {
                baseline: "a.json".into(),
                candidate: "b.json".into(),
                threshold: 0.40,
                summary: Some("s.md".into()),
            })
        );
        assert_eq!(
            parse("--assert-timeline t.jsonl"),
            Ok(Mode::AssertTimeline("t.jsonl".into()))
        );
        for (line, why) in [
            ("a.json b.json", "unexpected argument 'a.json'"),
            ("--baseline a.json", USAGE),
            (
                "--baseline a.json --candidate b.json --threshold 1.5",
                "--threshold needs a fraction in [0, 1)",
            ),
            (
                "--assert-checkpoint c.ckpt --threshold 0.4",
                "--assert-checkpoint takes one path and no other flag \
                 (got --assert-checkpoint, --threshold)",
            ),
            (
                "--assert-telemetry a.json --assert-telemetry b.json",
                "--assert-telemetry given twice",
            ),
            (
                "--summary= --baseline a.json --candidate b.json",
                "--summary needs a non-empty path",
            ),
        ] {
            assert_eq!(parse(line), Err(why.to_string()), "{line}");
        }
    }
}
