//! `mapcomp-perfbench`: the repository's service-level benchmark.
//!
//! ```text
//! mapcomp-perfbench --server <mapcomp binary> --workload <read-warm|evolve|migrate>
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it starts a fresh `mapcomp serve`, drives it over
//! loopback as a closed loop for `--seconds`, checks every reply and prints
//! the end-to-end metrics. With `--trace 1` it prints the per-layer split
//! instead (see `trace.rs`). Normally started through `perfbench/run.sh`,
//! which builds both binaries first; `perfbench/README.md` documents the
//! workloads and metrics. The last stdout line is the JSON result; the exit
//! code is non-zero on any wrong output, refused request or early server
//! exit.

mod calibrate;
mod drive;
mod server;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};

use calibrate::Placement;
use drive::{E2e, Env, CONNECTIONS};
use stats::{median, percentile, result_line, tail_percentile, Metric};
use workload::{Shape, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
}

const USAGE: &str = "usage: mapcomp-perfbench --server <mapcomp binary> \
    --workload <read-warm|evolve|migrate> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let parsed = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed > 0.0 && parsed <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--server" => server = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        server: server.ok_or("--server is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Read before pinning, which narrows it to one CPU.
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let placement = calibrate::Placement::choose();
    let scratch = PathBuf::from(".perfbench_tmp");
    let work_dir = scratch.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = run(&args, (parallelism, placement), &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(&scratch);
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(1);
        }
    }
}

/// Run and print; `Ok(false)` when a reply was wrong or refused.
fn run(
    args: &Args,
    (parallelism, placement): (usize, Option<Placement>),
    work_dir: &Path,
) -> Result<bool, String> {
    if !args.server.is_file() {
        return Err(format!("server binary {} not found", args.server.display()));
    }
    let env = Env {
        server_bin: args.server.clone(),
        work_dir: work_dir.to_path_buf(),
        seed: args.seed,
        seconds: args.seconds,
        shape: Shape::full(),
        setup_reps: if args.trace { 1 } else { SETUP_REPS },
        placement,
    };
    println!(
        "perfbench {} seed {}: closed loop, {CONNECTIONS} loopback connections, {} s window, \
         trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (e2e, layers) = if args.trace {
        let (e2e, layers) = trace::run(args.workload, &env)?;
        (e2e, Some(layers))
    } else {
        (drive::run(args.workload, &env)?, None)
    };
    println!("fingerprint {}", fingerprint(args, parallelism, placement, &e2e));
    let metrics = match layers {
        Some(layers) => layers,
        None => end_to_end(args.workload, &e2e),
    };
    for metric in &metrics {
        let exact = if metric.exact { "  [exact]" } else { "" };
        println!("  {:<34} {:>14.4} {}{exact}", metric.name, metric.value, metric.unit);
    }
    let tally = &e2e.tally;
    let correct = tally.failed == 0 && tally.busy == 0 && e2e.server.busy_rejected == 0.0;
    for error in &tally.errors {
        println!("  error: {error}");
    }
    println!("{}", result_line(correct, tally.attempted.max(1), tally.failed, &metrics));
    Ok(correct)
}

/// The end-to-end metrics of `BENCHMARK.json`, after a report of every
/// latency class (`read`, `edit_cycle`, `migrate`, ...) and the ungated
/// figures on the lines above the result.
fn end_to_end(workload: Workload, e2e: &E2e) -> Vec<Metric> {
    let tally = &e2e.tally;
    for (class, samples) in &tally.latencies_ms {
        let tail = tail_percentile(samples.len());
        println!(
            "  {class:<12} p50 {:>9.4} ms  p{tail} {:>9.4} ms  ({} samples)",
            median(samples),
            percentile(samples, tail),
            samples.len()
        );
    }
    println!(
        "  error_rate {:.6} ({} failed, {} busy, {} wrong of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.busy,
        tally.wrong,
        tally.attempted
    );
    let primary = tally.latencies_ms.get(E2e::primary_class(workload)).cloned().unwrap_or_default();
    let requests = tally.completed as f64;
    println!(
        "  compose calls {} and memo hits {} over composed replies; {} compactions in the window",
        tally.compose_calls, tally.cache_hits, e2e.server.compactions
    );
    if primary.len() < 1000 {
        println!("  warning: {} samples do not support a p99", primary.len());
    }
    println!(
        "  ops_per_s {:.3} 1/s; {} p99 {:.4} ms; peak RSS {:.1} MB; setup times {:?} s",
        requests / e2e.window_s,
        E2e::primary_class(workload),
        percentile(&primary, 99.0),
        e2e.peak_rss_mb,
        e2e.setup_s
    );
    println!(
        "  sidecar: {} appends, {} B appended, {} compactions, {} B compacted in the window; \
         disk_bytes_per_op counted over its first {} requests",
        e2e.server.appends,
        e2e.server.append_bytes,
        e2e.server.compactions,
        e2e.server.compaction_bytes,
        e2e.disk_requests
    );
    let yardstick_ms: Vec<f64> = e2e.yardstick.iter().map(|&(_, ms)| ms).collect();
    println!(
        "  {} p50 {:.4} ms against a yardstick p50 of {:.4} ms ({} runs); ratio of the two {:.4}",
        E2e::primary_class(workload),
        median(&primary),
        median(&yardstick_ms),
        yardstick_ms.len(),
        median(&primary) / median(&yardstick_ms)
    );
    let op_yardsticks =
        calibrate::in_yardsticks(&tally.timed(E2e::primary_class(workload)), &e2e.yardstick);
    vec![
        Metric::new("setup_s", median(&e2e.setup_s), "s"),
        Metric::new("op_p50_yardsticks", op_yardsticks, "ratio"),
        Metric::new("disk_bytes_per_op", e2e.disk_bytes_per_op(), "B"),
        Metric::new("server_rss_mb", median(&e2e.rss_mb), "MB"),
    ]
}

/// What a result must carry so that numbers from different machines or
/// builds are never compared silently.
fn fingerprint(args: &Args, parallelism: usize, placement: Option<Placement>, e2e: &E2e) -> String {
    let (server_cpu, client_cpu) = placement.map_or_else(
        || ("null".to_string(), "null".to_string()),
        |place| (place.server.to_string(), place.client.to_string()),
    );
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map_or_else(
            || "none".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    format!(
        "{{\"available_parallelism\": {parallelism}, \"server_cpu\": {server_cpu}, \"client_cpu\": {client_cpu}, \
         \"profile\": \"{}\", \
         \"commit\": \"{commit}\", \
         \"source_digest\": \"{:016x}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"catalog_mappings\": {}, \"source_rows_per_session\": {}, \"connections\": {CONNECTIONS}}}",
        if cfg!(debug_assertions) { "debug" } else { "release" },
        source_digest(),
        args.workload.name(),
        args.seed,
        args.seconds,
        e2e.mapping_count,
        e2e.source_rows,
    )
}

/// FNV-1a over the program's sources (path and content, sorted by path):
/// identifies the code under test when the checkout carries no git
/// metadata.
fn source_digest() -> u64 {
    fn walk(path: &Path, files: &mut Vec<PathBuf>) {
        if path.is_file() {
            files.push(path.to_path_buf());
        } else if let Ok(entries) = std::fs::read_dir(path) {
            for entry in entries.flatten() {
                let child = entry.path();
                if child.file_name().is_some_and(|name| name != "target") {
                    walk(&child, files);
                }
            }
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for byte in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}
