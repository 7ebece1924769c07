//! Process-level probes (CPU time, resident memory), the output-digest
//! hash, and the flat JSON line every mode prints.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const CLOCK_TICKS: f64 = 100.0;

/// User plus system CPU seconds of this process, from `/proc/self/stat`.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis start at field 3 (state).
    let rest = &stat[stat.rfind(')').expect("malformed /proc/self/stat") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |k: usize| fields[k].parse::<f64>().expect("numeric stat field");
    // utime and stime are fields 14 and 15 (indices 11 and 12 here).
    (ticks(11) + ticks(12)) / CLOCK_TICKS
}

fn status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with(key))
        .unwrap_or_else(|| panic!("{key} missing from /proc/self/status"));
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("numeric status field")
}

/// Peak resident set size of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") * 1024.0 / 1e6
}

/// Current resident set size (`VmRSS`), in MB (10^6 bytes).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") * 1024.0 / 1e6
}

/// Seconds elapsed since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Times `f`, adding its wall seconds to `*acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += since(start);
    out
}

/// Times the set-up probe `f` (a workload's entry point cut to its
/// first slot or evaluation): once, then again up to five times in all
/// while the probes have taken under half a second, so cheap set-ups
/// report a median and a 16-second one costs a single probe.
pub fn setup_probes(mut f: impl FnMut()) -> Vec<f64> {
    let begin = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || (samples.len() < 5 && since(begin) < 0.5) {
        let start = Instant::now();
        f();
        samples.push(since(start));
    }
    samples
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// FNV-1a over the bits of a workload's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One flat JSON object of named numbers plus a few string fields,
/// printed as a single line.
#[derive(Debug, Default)]
pub struct Line {
    nums: BTreeMap<String, f64>,
    strs: BTreeMap<String, String>,
}

impl Line {
    pub fn num(&mut self, key: &str, v: f64) {
        assert!(v.is_finite(), "{key} is not finite: {v}");
        self.nums.insert(key.to_string(), v);
    }

    pub fn get(&self, key: &str) -> f64 {
        self.nums.get(key).copied().unwrap_or(0.0)
    }

    pub fn has(&self, key: &str) -> bool {
        self.nums.contains_key(key)
    }

    pub fn str(&mut self, key: &str, v: String) {
        self.strs.insert(key.to_string(), v);
    }

    pub fn strings(&self) -> &BTreeMap<String, String> {
        &self.strs
    }
}

/// A JSON string literal (the values printed here never need more than
/// quote and backslash escapes).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A JSON object from already-encoded values, in the given order.
pub fn json_object<'a>(fields: impl Iterator<Item = (&'a str, String)>) -> String {
    let parts: Vec<String> = fields
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// The CPU model from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the working directory, or `unknown` outside a git
/// checkout (a source archive).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// builds (`crates/` and `vendor/`, build outputs skipped, in path
/// order): names the measured code where no git metadata is at hand.
pub fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for path in &files {
        h.bytes(path.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(path).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}
