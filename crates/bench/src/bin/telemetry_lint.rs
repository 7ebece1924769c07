//! CI gate for telemetry artifacts: validates every journal and metrics
//! dump a `--telemetry` run produced.
//!
//! Checks, per file in the target directory:
//!
//! * `*.jsonl` — every line parses as a JSON object whose first field is
//!   the monotonically increasing `seq` and whose second is a non-empty
//!   `kind` string, and the first record is the `schema` header carrying
//!   a `schema_version`; every `health` event must carry non-empty
//!   `detector` and `verdict` strings (schema v2 monitor records), and
//!   every spatial-builder `sparse_ratios` event non-negative integer
//!   `links`, `nnz`, `examined` and `resident_bytes` with
//!   `nnz ≤ examined`.
//!   Journals are streamed through
//!   [`rayfade_telemetry::JournalReader`], so linting a 100 MB journal
//!   needs memory for one line, not the file;
//! * `*_health.jsonl` — all of the above, plus at least one `health`
//!   event (an empty health journal means the monitor never reported);
//! * `*_metrics.prom` — non-empty, every non-comment line is
//!   `name value`, and at least one `rayfade_`-prefixed sample exists;
//! * `*_metrics.csv` — non-empty with the `kind,name,value` header;
//! * `*_trace.json` — a Chrome-trace JSON with balanced `B`/`E` events
//!   and per-thread monotone timestamps
//!   (via [`rayfade_telemetry::trace::parse_chrome_trace`]), in which no
//!   dynamic engine `dynamic/setup` span overlaps a `dynamic/replication`
//!   span on its thread (set-up must close before the slot loop opens);
//!   a trace whose `otherData.dropped_spans` is positive draws a warning
//!   (the file is structurally valid but incomplete).
//!
//! All problems are reported, not just the first. With `--json` the
//! report is a single machine-readable JSON document on stdout
//! (`problems` and `warnings` arrays with `file` / `message` fields)
//! instead of human-readable lines on stderr.
//!
//! Exit codes: `0` all artifacts clean, `1` violations found (or no
//! artifacts at all), `2` usage error.
//!
//! Usage: `telemetry_lint --telemetry <dir> [--json]`
//! (falls back to `--out <dir>`, default `results`).

use rayfade_telemetry::trace::{parse_chrome_trace, SpanRecord};
use rayfade_telemetry::{JournalReader, Json};
use std::path::{Path, PathBuf};

/// A machine-readable non-fatal warning.
struct Warning {
    file: String,
    kind: &'static str,
    message: String,
    value: i64,
}

/// Validate one JSONL journal in a single streaming pass; returns
/// problem messages (without the path prefix). When `require_health` is
/// set (for `*_health.jsonl` monitor artifacts), the journal must
/// contain at least one `health` event.
fn lint_journal(path: &Path, require_health: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let reader = match JournalReader::open(path) {
        Ok(reader) => reader,
        Err(e) => return vec![format!("unreadable journal: {e}")],
    };
    let mut health_events = 0usize;
    let mut count = 0usize;
    for (i, event) in reader.enumerate() {
        let ev = match event {
            Ok(ev) => ev,
            Err(e) => {
                // A malformed line poisons everything after it; stop.
                problems.push(format!("unreadable journal: {e}"));
                break;
            }
        };
        count += 1;
        if i == 0 {
            if ev.get("kind").and_then(|v| v.as_str()) != Some("schema") {
                problems.push("first record is not the schema header".to_string());
            } else {
                match ev.get("schema_version").and_then(|v| v.as_i64()) {
                    Some(v) if v >= 1 => {}
                    _ => problems
                        .push("schema header has no positive integer schema_version".to_string()),
                }
            }
        }
        match ev.get("seq").and_then(|v| v.as_i64()) {
            Some(seq) if seq == i as i64 => {}
            Some(seq) => problems.push(format!("event {i} has seq {seq}, expected {i}")),
            None => problems.push(format!("event {i} has no integer seq")),
        }
        match ev.get("kind").and_then(|v| v.as_str()) {
            Some(kind) if !kind.is_empty() => {}
            _ => problems.push(format!("event {i} has no non-empty kind")),
        }
        match ev.get("kind").and_then(|v| v.as_str()) {
            Some("health") => {
                health_events += 1;
                for field in ["detector", "verdict"] {
                    match ev.get(field).and_then(|v| v.as_str()) {
                        Some(value) if !value.is_empty() => {}
                        _ => problems.push(format!("health event {i} has no non-empty {field}")),
                    }
                }
            }
            Some("sparse_ratios") => problems.extend(lint_sparse_ratios(&ev, i)),
            _ => {}
        }
    }
    if count == 0 && problems.is_empty() {
        problems.push("journal is empty".to_string());
    }
    if require_health && health_events == 0 {
        problems.push("health journal contains no health events".to_string());
    }
    problems
}

/// Checks the size fields of a spatial-builder `sparse_ratios` event
/// (the `i`-th of its journal).
fn lint_sparse_ratios(ev: &Json, i: usize) -> Vec<String> {
    let mut problems = Vec::new();
    let mut field = |name: &str| match ev.get(name).and_then(|v| v.as_i64()) {
        Some(v) if v >= 0 => Some(v),
        _ => {
            problems.push(format!(
                "sparse_ratios event {i} has no non-negative integer {name}"
            ));
            None
        }
    };
    let nnz = field("nnz");
    let examined = field("examined");
    field("links");
    field("resident_bytes");
    if let (Some(nnz), Some(examined)) = (nnz, examined) {
        if nnz > examined {
            problems.push(format!(
                "sparse_ratios event {i} retains {nnz} pairs of {examined} examined"
            ));
        }
    }
    problems
}

/// Validate one Prometheus-text metrics dump.
fn lint_prom(path: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return vec![format!("unreadable: {e}")],
    };
    let mut samples = 0usize;
    let mut rayfade_samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Sample lines are `name[{labels}] value`.
        let Some((name, value)) = line.rsplit_once(' ') else {
            problems.push(format!(
                "line {}: not a `name value` sample: {line:?}",
                lineno + 1
            ));
            continue;
        };
        if value.parse::<f64>().is_err() {
            problems.push(format!(
                "line {}: non-numeric sample value {value:?}",
                lineno + 1
            ));
        }
        samples += 1;
        if name.starts_with("rayfade_") {
            rayfade_samples += 1;
        }
    }
    if samples == 0 {
        problems.push("no metric samples".to_string());
    } else if rayfade_samples == 0 {
        problems.push(format!("no rayfade_-prefixed samples among {samples}"));
    }
    problems
}

/// Validate one CSV metrics dump.
fn lint_csv(path: &Path) -> Vec<String> {
    match std::fs::read_to_string(path) {
        Ok(text) => {
            let mut lines = text.lines();
            match lines.next() {
                Some("kind,name,value") => {
                    if lines.next().is_none() {
                        vec!["header but no metric rows".to_string()]
                    } else {
                        Vec::new()
                    }
                }
                _ => vec!["missing `kind,name,value` header".to_string()],
            }
        }
        Err(e) => vec![format!("unreadable: {e}")],
    }
}

/// Validate one Chrome-trace JSON export; dropped spans are a warning,
/// not a problem (the file is valid but the profile is incomplete).
fn lint_trace(path: &Path, warnings: &mut Vec<Warning>) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return vec![format!("unreadable: {e}")],
    };
    let problems = match parse_chrome_trace(&text) {
        Ok(records) if records.is_empty() => vec!["trace contains no spans".to_string()],
        Ok(records) => setup_outside_replications(&records),
        Err(e) => vec![format!("invalid trace: {e}")],
    };
    let dropped = Json::parse(&text)
        .ok()
        .and_then(|doc| doc.get("otherData")?.get("dropped_spans")?.as_i64())
        .unwrap_or(0);
    if dropped > 0 {
        warnings.push(Warning {
            file: path.display().to_string(),
            kind: "dropped_spans",
            message: format!("trace reports {dropped} dropped span(s); profile is incomplete"),
            value: dropped,
        });
    }
    problems
}

/// The engine's set-up span must close before its slot-loop span opens:
/// on one thread, no `dynamic/setup` span may overlap a
/// `dynamic/replication` span (spans on a thread nest or are disjoint, so
/// any overlap is one inside the other).
fn setup_outside_replications(records: &[SpanRecord]) -> Vec<String> {
    let named = |name: &'static str| records.iter().filter(move |r| r.name == name);
    named("dynamic/setup")
        .filter_map(|s| {
            named("dynamic/replication")
                .find(|r| r.tid == s.tid && s.start_ns < r.end_ns && r.start_ns < s.end_ns)
                .map(|r| {
                    format!(
                        "dynamic/setup span [{}, {}] ns overlaps dynamic/replication span \
                         [{}, {}] ns on thread {}: set-up must close before the slot loop opens",
                        s.start_ns, s.end_ns, r.start_ns, r.end_ns, s.tid
                    )
                })
        })
        .collect()
}

fn usage() -> ! {
    eprintln!("usage: telemetry_lint [--telemetry <dir>] [--out <dir>] [--json]");
    std::process::exit(2)
}

/// Parsed options: the directory to lint and the output format.
struct Options {
    dir: PathBuf,
    json: bool,
}

fn parse_args() -> Options {
    let mut telemetry: Option<PathBuf> = None;
    let mut out = PathBuf::from("results");
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--telemetry" => match args.next() {
                Some(dir) => telemetry = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--out" => match args.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => usage(),
            },
            "--json" => json = true,
            // Accepted for `all`-runner compatibility; no effect here.
            "--quick" => {}
            _ => usage(),
        }
    }
    Options {
        dir: telemetry.unwrap_or(out),
        json,
    }
}

fn main() {
    let opts = parse_args();
    let dir = &opts.dir;
    let mut entries: Vec<_> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .map(|entry| entry.expect("directory entry").path())
            .collect(),
        Err(e) => {
            eprintln!("telemetry_lint: cannot read {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    entries.sort();

    // (file, message) pairs so the JSON report can attribute cleanly.
    let mut problems: Vec<(String, String)> = Vec::new();
    let mut warnings: Vec<Warning> = Vec::new();
    let mut checked = 0usize;
    for path in &entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let file_problems = if name.ends_with(".jsonl") {
            lint_journal(path, name.ends_with("_health.jsonl"))
        } else if name.ends_with("_metrics.prom") {
            lint_prom(path)
        } else if name.ends_with("_metrics.csv") {
            lint_csv(path)
        } else if name.ends_with("_trace.json") {
            lint_trace(path, &mut warnings)
        } else {
            continue;
        };
        checked += 1;
        if !opts.json {
            if file_problems.is_empty() {
                eprintln!("ok   {}", path.display());
            } else {
                for p in &file_problems {
                    eprintln!("FAIL {}: {p}", path.display());
                }
            }
        }
        let file = path.display().to_string();
        problems.extend(file_problems.into_iter().map(|p| (file.clone(), p)));
    }

    if checked == 0 {
        problems.push((
            dir.display().to_string(),
            "no telemetry artifacts (*.jsonl, *_metrics.prom, *_metrics.csv, *_trace.json) found"
                .to_string(),
        ));
    }

    if opts.json {
        let entry = |file: &str, message: &str| {
            Json::Obj(vec![
                ("file".to_string(), Json::Str(file.to_string())),
                ("message".to_string(), Json::Str(message.to_string())),
            ])
        };
        let doc = Json::Obj(vec![
            ("schema_version".to_string(), Json::Num(1.0)),
            ("dir".to_string(), Json::Str(dir.display().to_string())),
            ("checked".to_string(), Json::Num(checked as f64)),
            ("clean".to_string(), Json::Bool(problems.is_empty())),
            (
                "problems".to_string(),
                Json::Arr(problems.iter().map(|(f, m)| entry(f, m)).collect()),
            ),
            (
                "warnings".to_string(),
                Json::Arr(
                    warnings
                        .iter()
                        .map(|w| {
                            Json::Obj(vec![
                                ("file".to_string(), Json::Str(w.file.clone())),
                                ("kind".to_string(), Json::Str(w.kind.to_string())),
                                ("message".to_string(), Json::Str(w.message.clone())),
                                ("value".to_string(), Json::Num(w.value as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{doc}");
    } else {
        for w in &warnings {
            eprintln!("warn {}: {}", w.file, w.message);
        }
        eprintln!(
            "\nchecked {checked} telemetry artifact(s) in {}: {}",
            dir.display(),
            if problems.is_empty() {
                "all clean".to_string()
            } else {
                format!("{} problem(s)", problems.len())
            }
        );
    }
    if !problems.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            tid,
            start_ns,
            end_ns,
        }
    }

    fn sparse_event(fields: &[(&str, i64)]) -> Json {
        let mut pairs = vec![("kind".to_string(), Json::Str("sparse_ratios".to_string()))];
        pairs.extend(
            fields
                .iter()
                .map(|&(k, v)| (k.to_string(), Json::Num(v as f64))),
        );
        Json::Obj(pairs)
    }

    #[test]
    fn sparse_ratios_sizes_are_checked() {
        let full = [
            ("links", 100),
            ("nnz", 20),
            ("examined", 900),
            ("resident_bytes", 4496),
        ];
        assert!(lint_sparse_ratios(&sparse_event(&full), 3).is_empty());
        let problems = lint_sparse_ratios(&sparse_event(&full[..3]), 3);
        assert_eq!(
            problems,
            ["sparse_ratios event 3 has no non-negative integer resident_bytes"]
        );
        let mut inverted = full;
        inverted[1].1 = 901;
        let problems = lint_sparse_ratios(&sparse_event(&inverted), 3);
        assert_eq!(
            problems,
            ["sparse_ratios event 3 retains 901 pairs of 900 examined"]
        );
    }

    #[test]
    fn setup_before_each_replication_is_clean() {
        let records = [
            span("dynamic/setup", 1, 0, 10),
            span("dynamic/replication", 1, 10, 50),
            span("dynamic/setup", 1, 50, 60),
            span("dynamic/replication", 1, 60, 90),
            // Another thread's replication may overlap this set-up.
            span("dynamic/replication", 2, 5, 55),
        ];
        assert!(setup_outside_replications(&records).is_empty());
    }

    #[test]
    fn setup_inside_or_around_a_replication_is_flagged() {
        let inside = [
            span("dynamic/replication", 1, 0, 50),
            span("dynamic/setup", 1, 5, 10),
        ];
        let around = [
            span("dynamic/setup", 3, 0, 50),
            span("dynamic/replication", 3, 20, 40),
        ];
        for records in [&inside[..], &around[..]] {
            let problems = setup_outside_replications(records);
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert!(problems[0].contains("set-up must close before the slot loop opens"));
        }
    }
}
