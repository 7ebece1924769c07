//! The committed stability journal must *reproduce* the committed
//! stability verdicts.
//!
//! `results/stability_journal.jsonl` is the raw observability record of
//! the full S1 run (written by `stability_exp --telemetry`); `results/
//! stability.csv` is its published summary. This test closes the loop:
//! it recomputes every cell's backlog drift from the journal's per-slot
//! `dyn_slot` records alone — the same least-squares slope and threshold
//! the engine uses — and checks that the recomputed drift, verdict and
//! per-curve λ* all agree with the journal's own `stability_cell` /
//! `lambda_star` events *and* with the committed CSV. If either artifact
//! is regenerated without the other, or the drift-test semantics drift
//! (pun intended) from what the journal records, this fails.
//!
//! The journal is consumed in one streaming pass through
//! [`JournalReader`] — only the per-cell aggregates are retained, so the
//! test's memory footprint is independent of journal length.
//!
//! The spatial builder's `sparse_ratios` event is checked the same way
//! against the cache it describes.

use rayfade_dynamic::{least_squares_slope, DRIFT_TOLERANCE};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::{PowerAssignment, SinrParams};
use rayfade_spatial::build_sparse_ratios_stats;
use rayfade_telemetry::{JournalReader, Json, Telemetry};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

fn str_field<'a>(ev: &'a Json, key: &str) -> &'a str {
    ev.get(key)
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| panic!("event missing string field {key:?}: {ev:?}"))
}

fn num_field(ev: &Json, key: &str) -> f64 {
    ev.get(key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("event missing numeric field {key:?}: {ev:?}"))
}

/// λ appears as an f64 in journal events and with 4 decimals in the CSV;
/// keying on micro-λ units makes the two collide exactly.
fn lambda_key(lambda: f64) -> i64 {
    (lambda * 1e6).round() as i64
}

type CellKey = (String, String, i64);
/// Per-cell replication traces: net index → (slot xs, backlog ys).
type CellTraces = BTreeMap<i64, (Vec<f64>, Vec<f64>)>;

/// What the single streaming pass over the journal retains.
#[derive(Default)]
struct JournalSummary {
    links: Option<f64>,
    traces: BTreeMap<CellKey, CellTraces>,
    /// (cell key, journaled drift, journaled verdict == "stable").
    cells: Vec<(CellKey, f64, bool)>,
    /// (policy, model, λ* key when claimed, `none: true` flag).
    stars: Vec<(String, String, Option<i64>, bool)>,
}

fn cell_key(ev: &Json) -> CellKey {
    (
        str_field(ev, "policy").to_string(),
        str_field(ev, "model").to_string(),
        lambda_key(num_field(ev, "lambda")),
    )
}

fn scan_journal(path: &std::path::Path) -> JournalSummary {
    let reader =
        JournalReader::open(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut summary = JournalSummary::default();
    let mut count = 0usize;
    for event in reader {
        let ev = event.unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        count += 1;
        match str_field(&ev, "kind") {
            "stability_config" => {
                assert!(summary.links.is_none(), "duplicate stability_config header");
                summary.links = Some(num_field(&ev, "links"));
            }
            "dyn_slot" => {
                let net = num_field(&ev, "net") as i64;
                let (slots, backlogs) = summary
                    .traces
                    .entry(cell_key(&ev))
                    .or_default()
                    .entry(net)
                    .or_default();
                slots.push(num_field(&ev, "slot"));
                backlogs.push(num_field(&ev, "backlog"));
            }
            "stability_cell" => summary.cells.push((
                cell_key(&ev),
                num_field(&ev, "drift"),
                str_field(&ev, "verdict") == "stable",
            )),
            "lambda_star" => summary.stars.push((
                str_field(&ev, "policy").to_string(),
                str_field(&ev, "model").to_string(),
                ev.get("lambda_star")
                    .and_then(|v| v.as_f64())
                    .map(lambda_key),
                ev.get("none").and_then(|v| v.as_bool()) == Some(true),
            )),
            _ => {}
        }
    }
    assert!(count > 0, "committed journal is empty");
    summary
}

#[test]
fn committed_journal_reproduces_committed_stability_verdicts() {
    let dir = results_dir();
    let journal_path = dir.join("stability_journal.jsonl");
    let csv_path = dir.join("stability.csv");
    let summary = scan_journal(&journal_path);

    // -- Header: the sweep's shape.
    let links = summary
        .links
        .expect("journal has a stability_config header");
    assert!(links > 0.0, "header links must be positive");
    assert!(
        !summary.traces.is_empty(),
        "journal has no dyn_slot records"
    );

    // -- Recompute each cell's drift and verdict from the traces alone.
    let mut recomputed: BTreeMap<CellKey, (f64, bool)> = BTreeMap::new();
    for (key, nets) in &summary.traces {
        let drift = nets
            .values()
            .map(|(xs, ys)| least_squares_slope(xs, ys))
            .sum::<f64>()
            / nets.len() as f64;
        let lambda = key.2 as f64 / 1e6;
        let stable = drift <= DRIFT_TOLERANCE * lambda * links;
        recomputed.insert(key.clone(), (drift, stable));
    }

    // -- The journal's own stability_cell events must agree exactly.
    assert_eq!(
        summary.cells.len(),
        recomputed.len(),
        "one stability_cell event per traced cell"
    );
    for (key, journaled_drift, journaled_stable) in &summary.cells {
        let (drift, stable) = recomputed
            .get(key)
            .unwrap_or_else(|| panic!("stability_cell {key:?} has no dyn_slot trace"));
        assert!(
            (journaled_drift - drift).abs() <= 1e-9 * drift.abs().max(1.0),
            "{key:?}: journaled drift {journaled_drift} != recomputed {drift}"
        );
        assert_eq!(
            journaled_stable, stable,
            "{key:?}: journaled verdict disagrees with recomputed drift test"
        );
    }

    // -- The committed CSV must tell the same story, row for row.
    let csv = std::fs::read_to_string(&csv_path).unwrap_or_else(|e| panic!("cannot read CSV: {e}"));
    let mut lines = csv.lines();
    let head: Vec<&str> = lines.next().expect("CSV header").split(',').collect();
    let col = |name: &str| {
        head.iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("CSV missing column {name}"))
    };
    let (pc, mc, lc, dc, vc) = (
        col("policy"),
        col("model"),
        col("lambda"),
        col("drift"),
        col("verdict"),
    );
    let mut rows = 0;
    for line in lines.filter(|l| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split(',').collect();
        let key = (
            f[pc].to_string(),
            f[mc].to_string(),
            lambda_key(f[lc].parse::<f64>().expect("λ parses")),
        );
        let (drift, stable) = recomputed
            .get(&key)
            .unwrap_or_else(|| panic!("CSV row {key:?} missing from journal"));
        let csv_drift: f64 = f[dc].parse().expect("drift parses");
        // The CSV prints drift with 4 decimals; allow half an ulp of that.
        assert!(
            (csv_drift - drift).abs() <= 5e-5 + 1e-6 * drift.abs(),
            "{key:?}: CSV drift {csv_drift} vs journal-recomputed {drift}"
        );
        assert_eq!(
            f[vc] == "stable",
            *stable,
            "{key:?}: CSV verdict {} disagrees with journal-recomputed drift test",
            f[vc]
        );
        rows += 1;
    }
    assert_eq!(rows, recomputed.len(), "CSV covers every journaled cell");

    // -- λ* (stable-from-below) recomputed per curve must match the
    //    journal's lambda_star events.
    let mut curves: BTreeMap<(String, String), Vec<(i64, bool)>> = BTreeMap::new();
    for (key, (_, stable)) in &recomputed {
        curves
            .entry((key.0.clone(), key.1.clone()))
            .or_default()
            .push((key.2, *stable));
    }
    assert_eq!(summary.stars.len(), curves.len(), "one λ* event per curve");
    for (policy, model, claimed, none) in &summary.stars {
        let curve = curves
            .get(&(policy.clone(), model.clone()))
            .expect("λ* event for a traced curve");
        let mut sorted = curve.clone();
        sorted.sort_unstable();
        let mut star = None;
        for (lk, stable) in sorted {
            if stable {
                star = Some(lk);
            } else {
                break;
            }
        }
        match star {
            Some(lk) => assert_eq!(*claimed, Some(lk), "λ* mismatch for {policy}/{model}"),
            None => assert!(*none, "journal claims a λ* where recomputation finds none"),
        }
    }
}

/// The journaled `sparse_ratios` event carries the sizes of the cache the
/// builder returned, and the journal passes `telemetry_lint`.
#[test]
fn sparse_ratios_event_matches_the_built_cache() {
    let dir = std::env::temp_dir().join(format!("rayfade-sparse-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("sparse_journal.jsonl");
    let net = PaperTopology {
        links: 600,
        side: (600.0f64 * 1e6).sqrt(),
        min_length: 20.0,
        max_length: 40.0,
    }
    .generate(0x5ba7);
    let params = SinrParams::new(4.0, 2.5, 4e-7);
    let power = PowerAssignment::figure1_uniform();
    let tele = Telemetry::with_journal(&path).expect("open journal");
    let (ratios, stats) = build_sparse_ratios_stats(&net, &power, &params, 1e-2, Some(&tele));
    tele.flush();
    drop(tele);

    let events: Vec<Json> = JournalReader::open(&path)
        .expect("read journal")
        .map(|ev| ev.expect("parse event"))
        .filter(|ev| ev.get("kind").and_then(|v| v.as_str()) == Some("sparse_ratios"))
        .collect();
    assert_eq!(events.len(), 1, "one sparse_ratios event per build");
    let ev = &events[0];
    let int = |key: &str| num_field(ev, key) as u64;
    assert_eq!(int("links"), ratios.len() as u64);
    assert_eq!(int("nnz"), stats.retained);
    assert_eq!(int("nnz"), ratios.nnz() as u64);
    assert_eq!(int("examined"), stats.examined);
    assert_eq!(int("resident_bytes"), ratios.resident_bytes() as u64);
    assert_eq!(num_field(ev, "tau_max").to_bits(), stats.tau_max.to_bits());

    let lint = std::process::Command::new(env!("CARGO_BIN_EXE_telemetry_lint"))
        .arg("--telemetry")
        .arg(&dir)
        .output()
        .expect("run telemetry_lint");
    assert!(
        lint.status.success(),
        "telemetry_lint rejects the journal: {}",
        String::from_utf8_lossy(&lint.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
