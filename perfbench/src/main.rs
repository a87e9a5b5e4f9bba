//! The repository benchmark: closed-loop AMC workloads driven through
//! the public APIs, with end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod layers;
mod run;
mod stats;
mod workload;

use run::{Harness, Metric, Tally};
use workload::Kind;

/// Environment knobs that switch the program off its production path.
/// `GPU_SIM_THREADS` is refused too: the benchmark sets the pool cap itself.
const DEBUG_KNOBS: [&str; 6] = [
    "GPU_SIM_OPT",
    "GPU_SIM_BATCH",
    "GPU_SIM_FUSE",
    "GPU_SIM_TRACE",
    "GPU_SIM_DEVICES",
    "GPU_SIM_THREADS",
];

const USAGE: &str = "usage: perfbench --workload <hybrid_warm|fleet_pair|all> \
     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let set: Vec<&str> = DEBUG_KNOBS
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "error: refusing to run with debug knob(s) set: {}; the benchmark measures \
             the production path only",
            set.join(", ")
        );
        std::process::exit(2);
    }
    if args.workload == "all" {
        std::process::exit(run_all(&argv));
    }
    let Some(kind) = Kind::from_name(&args.workload) else {
        eprintln!("error: unknown workload `{}`\n{USAGE}", args.workload);
        std::process::exit(2);
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{}", host_line(kind, &args, nproc));
    // The shading pool is capped at the host's core count for every
    // workload, the fleet included.
    let result = rayon::with_threads(nproc, || measure(kind, &args));
    match result {
        Ok((metrics, notes, tally)) => {
            for n in notes {
                println!("# {n}");
            }
            for m in &metrics {
                println!("{:<28} {:>16} {}", m.name, m.value, m.unit);
            }
            for e in tally.errors.iter().take(5) {
                println!("# FAILED {e}");
            }
            println!("{}", result_json(&metrics, tally.attempted, tally.failed));
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn measure(kind: Kind, args: &Args) -> Result<(Vec<Metric>, Vec<String>, Tally), String> {
    let seconds = args.seconds as f64;
    let mut harness = Harness::setup(kind, args.seed)?;
    let (metrics, notes) = if args.trace {
        layers::traced(&mut harness, seconds)?
    } else {
        let walls = harness.timed_loop(seconds, |_, _| {});
        harness.finish_check();
        run::end_to_end(&harness, &walls)?
    };
    let bad = metrics.iter().find(|m| !m.value.is_finite());
    if let Some(m) = bad {
        return Err(format!("metric {} is not a finite number", m.name));
    }
    Ok((metrics, notes, harness.tally))
}

fn result_json(metrics: &[Metric], attempted: u64, failed: u64) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

/// `--workload all`: each workload in a child process of its own, so each
/// reports its own peak memory. Returns the exit code.
fn run_all(argv: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for kind in Kind::ALL {
        let mut child_args = argv.to_vec();
        let pos = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed arguments include --workload");
        child_args[pos + 1] = kind.name().to_owned();
        println!("## workload {}", kind.name());
        let status = std::process::Command::new(&exe).args(&child_args).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("error: workload {} exited with {s}", kind.name());
                code = 1;
            }
            Err(e) => {
                eprintln!("error: cannot start workload {}: {e}", kind.name());
                code = 1;
            }
        }
    }
    code
}

/// The host fingerprint recorded with every result.
fn host_line(kind: Kind, args: &Args, nproc: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "# host: workload={} seed={} seconds={} trace={} nproc={nproc} pool_cap={nproc} \
         rustc=\"{}\" cpu=\"{cpu}\" commit={}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC_VERSION"),
        git_commit().unwrap_or_else(|| "unknown".to_owned())
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}
