//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object with the metrics. Exits non-zero without a
//! result if any output check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::heap::Counting;
use perfbench::report::{end_to_end, json_line, traced};
use perfbench::spec::{WorkloadId, ALL};

#[global_allocator]
static HEAP: Counting = Counting;

struct Args {
    workload: WorkloadId,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadId::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} ({} CPUs)",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let result = if args.trace {
        // The probe store and the span file live in the working directory
        // (the checkout the benchmark runs from), never in a system temp dir.
        let out_dir = PathBuf::from(".perfbench_run");
        std::fs::create_dir_all(&out_dir)
            .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))
            .and_then(|()| traced(w, args.seed, args.seconds, &out_dir))
    } else {
        end_to_end(w, args.seed, args.seconds)
    };
    let (outcome, line) = match result.and_then(|o| json_line(&o).map(|line| (o, line))) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        eprintln!(
            "  {:<34} {:>14.4} {:<14} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    eprintln!(
        "  attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{line}");
    ExitCode::SUCCESS
}
