#![forbid(unsafe_code)]
//! `exea-perfbench`: end-to-end and per-layer benchmark of ExEA.
//!
//! ```text
//! exea-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds one workload's inputs from the seed, measures the
//! workload for the given number of seconds, checks every output, and
//! prints a report followed by one JSON line: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones; with `--trace 1` the run records spans around every layer call
//! and the metrics are the per-layer ones. See `README.md` beside this
//! crate for the workloads, metrics and reference figures.

mod inputs;
mod layers;
mod offline;
mod serve;
mod stats;
mod trace;

use stats::Metric;
use std::process::ExitCode;
use std::time::Duration;

/// Worker threads every run uses (capped at the host's CPU count).
const THREADS: usize = 2;

/// Environment overrides that silently swap candidate engines underneath
/// `TrainConfig::default()` and `ExeaConfig::default()`.
const REFUSED_ENV: [&str; 2] = ["EXEA_CANDIDATE_SEARCH", "EXEA_MAPPED_BACKEND"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineRepair,
    OfflineExplain,
    ServeRead,
    ServeWrite,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::OfflineRepair,
        Workload::OfflineExplain,
        Workload::ServeRead,
        Workload::ServeWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineRepair => "offline-repair",
            Workload::OfflineExplain => "offline-explain",
            Workload::ServeRead => "serve-read",
            Workload::ServeWrite => "serve-write",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// The end-to-end metrics (the JSON line of an untraced run).
    pub end_to_end: Vec<Metric>,
    /// Workload-specific figures printed in the report only.
    pub detail: Vec<Metric>,
    /// Report-only lines (input make-up, notes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed check (at most a few messages are kept per check).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.errors.len() < 20 {
            self.errors.push(what());
        }
    }
}

/// Host, CPU count, thread count and revision, for every output.
pub struct Stamp {
    pub host: String,
    pub nproc: usize,
    pub threads: usize,
    pub rev: String,
}

impl Stamp {
    fn json(&self) -> String {
        format!(
            "{{\"host\": \"{}\", \"nproc\": {}, \"threads\": {}, \"rev\": \"{}\"}}",
            self.host, self.nproc, self.threads, self.rev
        )
    }
}

/// The git revision of the source tree the benchmark was built from, read
/// from `.git` without running git; `unknown` outside a repository.
fn git_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(git.join("packed-refs"))
                    .ok()?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .map(|l| l.split(' ').next().unwrap_or("").to_string())
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

/// Pins the rayon worker count before any parallel call reads it.
fn pin_threads(nproc: usize) -> Result<usize, String> {
    let threads = THREADS.min(nproc).max(1);
    match std::env::var("RAYON_NUM_THREADS") {
        Ok(v) if v != threads.to_string() => {
            return Err(format!(
                "RAYON_NUM_THREADS={v} is set; this benchmark runs {threads} threads"
            ))
        }
        Ok(_) => {}
        Err(_) => std::env::set_var("RAYON_NUM_THREADS", threads.to_string()),
    }
    if rayon::current_num_threads() != threads {
        return Err(format!(
            "rayon reports {} threads, want {threads}",
            rayon::current_num_threads()
        ));
    }
    Ok(threads)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exea-perfbench: {e}");
            eprintln!(
                "usage: exea-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("exea-perfbench: refusing to run with {var} set: it swaps the candidate engine under every default configuration");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match pin_threads(nproc) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("exea-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = Stamp {
        host: std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|h| h.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        nproc,
        threads,
        rev: git_rev(),
    };
    println!(
        "# exea-perfbench workload={} seed={} seconds={} trace={} host={} nproc={} threads={} rev={}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        stamp.host,
        stamp.nproc,
        stamp.threads,
        stamp.rev
    );

    trace::set_enabled(args.trace);
    let mut out = Outcome::default();
    let probe = match args.workload {
        Workload::OfflineRepair => offline::repair(&args, &mut out),
        Workload::OfflineExplain => offline::explain(&args, &mut out),
        Workload::ServeRead => serve::read(&args, &mut out),
        Workload::ServeWrite => serve::write(&args, &mut out),
    };

    let mut layer_metrics = Vec::new();
    if !args.trace {
        probe.close();
    } else {
        layer_metrics = layers::probe(probe, &mut out);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.json", args.workload.name(), args.seed));
        match trace::write(&path, &stamp.json()) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => out.errors.push(format!("writing {}: {e}", path.display())),
        }
    }

    for note in &out.notes {
        println!("# {note}");
    }
    for m in out
        .detail
        .iter()
        .chain(&out.end_to_end)
        .chain(&layer_metrics)
    {
        println!("{}", m.line());
    }
    for e in &out.errors {
        eprintln!("exea-perfbench: check failed: {e}");
    }
    let shown = if args.trace {
        &layer_metrics
    } else {
        &out.end_to_end
    };
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
