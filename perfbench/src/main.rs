//! `perfbench`: the end-to-end and per-layer benchmark of the rayfade
//! workspace (see `perfbench/README.md` for the workloads, the metrics
//! and the layer → metric → workload predictions).
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <maxweight_10k|stability_sweep|static_100k|fig1_paper> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload through the public entry points with
//! tracing off and reports the end-to-end metrics; `--trace 1` replays
//! the same inputs through the public layer functions, timing each call
//! from outside, and reports the per-layer metrics. Either way the last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it carries the
//! output digest and the machine stamp.

mod dynamic;
mod fig1;
mod static_eval;
mod sys;

use std::process::ExitCode;
use sys::Line;

/// The end-to-end metrics every `--trace 0` run reports, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("slots_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("cpu_s", "s"),
];

/// The per-layer metrics every `--trace 1` run reports, with units. A
/// layer a workload never reaches reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("geometry.generate_s", "s"),
    ("sinr.gain_s", "s"),
    ("sinr.gain_mb", "MB"),
    ("dynamic.resolver_setup_s", "s"),
    ("dynamic.policy_setup_s", "s"),
    ("dynamic.policy_setup_mb", "MB"),
    ("spatial.build_s", "s"),
    ("spatial.pairs_examined", "count"),
    ("spatial.nnz", "count"),
    ("spatial.retained_frac", "ratio"),
    ("spatial.tau_max", "nats"),
    ("spatial.csr_mb", "MB"),
    ("core.eval_s", "s"),
    ("core.evals", "count"),
    ("cert_width_rel", "ratio"),
    ("scheduling.candidates_scored", "count"),
    ("scheduling.accepted", "count"),
    ("scheduling.accept_frac", "ratio"),
    ("dynamic.policy_s.rayleigh_max_weight", "s"),
    ("dynamic.policy_s.max_weight", "s"),
    ("dynamic.policy_s.aloha", "s"),
    ("dynamic.policy_s.regret", "s"),
    ("dynamic.resolve_s", "s"),
    ("dynamic.flips", "count"),
    ("dynamic.resolve_ns_per_flip", "ns"),
    ("dynamic.transmissions", "count"),
    ("dynamic.successes", "count"),
    ("dynamic.success_frac", "ratio"),
    ("dynamic.arrivals_s", "s"),
    ("dynamic.queue_s", "s"),
    ("sim.rayleigh_point_s", "s"),
    ("sim.nonfading_point_s", "s"),
    ("sim.analytic_s", "s"),
    ("sim.points", "count"),
    ("rayon.busy_frac", "ratio"),
    ("unattributed_s", "s"),
    ("coverage", "ratio"),
    ("trace_overhead_s", "s"),
];

const WORKLOADS: [&str; 4] = [
    "maxweight_10k",
    "stability_sweep",
    "static_100k",
    "fig1_paper",
];

/// The machine the committed numbers were measured on; results from a
/// different one are stamped and warned about, never compared silently.
const REFERENCE_NPROC: usize = 2;
const REFERENCE_CPU: &str = "Intel(R) Xeon(R) Processor";
const REFERENCE_THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Pin the pool to the machine's core count before anything reads it:
    // an inherited RAYFADE_THREADS would otherwise change the work split.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("RAYFADE_THREADS", nproc.to_string());
    let threads = rayon::current_num_threads();
    let cpu = sys::cpu_model();
    if (nproc, cpu.as_str(), threads) != (REFERENCE_NPROC, REFERENCE_CPU, REFERENCE_THREADS) {
        eprintln!(
            "perfbench: warning: this machine (nproc {nproc}, {cpu:?}, {threads} threads) \
             differs from the reference (nproc {REFERENCE_NPROC}, {REFERENCE_CPU:?}, \
             {REFERENCE_THREADS} threads); compare medians only with runs from this machine"
        );
    }

    let mut out = Line::default();
    match (args.workload.as_str(), args.trace) {
        ("maxweight_10k", false) => dynamic::run(
            dynamic::Workload::MaxWeight,
            args.seed,
            args.seconds,
            &mut out,
        ),
        ("maxweight_10k", true) => {
            dynamic::trace(dynamic::Workload::MaxWeight, args.seed, &mut out)
        }
        ("stability_sweep", false) => {
            dynamic::run(dynamic::Workload::Sweep, args.seed, args.seconds, &mut out)
        }
        ("stability_sweep", true) => dynamic::trace(dynamic::Workload::Sweep, args.seed, &mut out),
        ("static_100k", false) => static_eval::run(args.seed, args.seconds, &mut out),
        ("static_100k", true) => static_eval::trace(args.seed, &mut out),
        ("fig1_paper", false) => fig1::run(args.seed, args.seconds, &mut out),
        ("fig1_paper", true) => fig1::trace(args.seed, &mut out),
        _ => unreachable!("workload validated by parse_args"),
    }
    out.num("peak_rss_mb", sys::peak_rss_mb());

    let attempted = out.get("attempted") as u64;
    let failed = out.get("failed") as u64;
    let mut info = out.strings().clone();
    info.insert("workload".into(), args.workload.clone());
    info.insert("seed".into(), args.seed.to_string());
    info.insert("nproc".into(), nproc.to_string());
    info.insert("cpu_model".into(), cpu);
    info.insert("threads".into(), threads.to_string());
    info.insert("commit".into(), sys::commit());
    info.insert("source_digest".into(), sys::source_digest());
    info.insert("reps".into(), format!("{}", out.get("reps")));
    println!(
        "{}",
        sys::json_object(info.iter().map(|(k, v)| (k.as_str(), sys::json_str(v))))
    );

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = table.iter().map(|&(name, unit)| {
        let value = out.get(name);
        assert!(value.is_finite(), "{name} is not finite: {value}");
        assert!(
            args.trace || (out.has(name) && value > 0.0),
            "end-to-end metric {name} was not measured"
        );
        (
            name,
            format!(
                "{{\"value\": {value:?}, \"unit\": {}}}",
                sys::json_str(unit)
            ),
        )
    });
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted > 0 && failed == 0,
        sys::json_object(metrics)
    );
    ExitCode::SUCCESS
}
