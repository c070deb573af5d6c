//! `perfbench` — one benchmark for the whole survey pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-web|heavy-scripts|fabric> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. It builds the workload's inputs from the
//! seed (set-up, repeated and reported as the median), runs
//! timed passes for `--seconds`, checks every output, and prints the
//! metrics as the last line of standard output. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the same workload with spans
//! recorded around calls into each layer and prints the per-layer metrics.
//! A failed check exits non-zero and prints no metrics. See `README.md`.

mod decor;
mod metrics;
mod probe;
mod stats;
mod trace;
mod workload;

use metrics::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Kind;

/// Seed whose dataset fingerprints are pinned in [`PINNED`].
const DEFAULT_SEED: u64 = 1;

/// Dataset fingerprints of each workload at [`DEFAULT_SEED`]. A change to
/// the program that moves one of these changed what the survey measures.
const PINNED: &[(&str, u64)] = &[
    ("paper-web", 0x8bec_6c7d_4abc_05b1),
    ("heavy-scripts", 0x7401_9682_bc86_147f),
    ("fabric", 0xa28c_b9e2_fed5_f425),
];

/// Command-line arguments.
pub struct Args {
    /// The workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The directory this run may write to: beside the build output, so it
/// stays inside the checkout and out of version control.
fn run_dir(args: &Args) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("executable has no build directory")?;
    let name = format!(
        "{}-seed{}-trace{}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    workload::fresh_dir(&target.join("perfbench-runs"), &name)
}

/// The commit of the checkout, read from `.git` without leaving it;
/// `unknown` when the checkout is not a git repository.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &Args) -> Result<(Metrics, String), String> {
    let dir = run_dir(args)?;
    let pinned = (args.seed == DEFAULT_SEED)
        .then(|| PINNED.iter().find(|(n, _)| *n == args.kind.name()))
        .flatten()
        .map(|&(_, fp)| fp);
    let (metrics, detail) = if args.trace {
        metrics::traced(args, &dir, pinned)?
    } else {
        metrics::untraced(args, &dir, pinned)?
    };
    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"threads_or_workers\": {}, \"sites\": {}, \"script_weight\": {}, \"git_commit\": \"{}\"{}}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workload::parallelism(),
        args.kind.sites(),
        args.kind.script_weight(),
        git_commit(),
        detail,
    );
    let record = format!(
        "{{\"meta\": {meta}, \"result\": {}}}\n",
        metrics.result_json()
    );
    std::fs::write(dir.join("result.json"), record)
        .map_err(|e| format!("write result.json: {e}"))?;
    Ok((metrics, meta))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok((metrics, meta)) => {
            println!("# meta {meta}");
            for line in metrics.describe() {
                println!("# {line}");
            }
            println!("{}", metrics.result_json());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.kind.name());
            ExitCode::FAILURE
        }
    }
}
