//! `benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics. A traced
//! run also writes its spans to `.bench_trace/<workload>.jsonl` under the
//! working directory. Exits 1 when an output was wrong or a check failed,
//! 2 on a usage error.

use edd_benchmark::trace::Trace;
use edd_benchmark::{report, run_workload, Run, KERNEL_THREADS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    run: Run,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload,
        run: Run { seed, seconds },
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    edd_tensor::kernel::pool::set_num_threads(KERNEL_THREADS);
    let host = report::host_context();
    println!(
        "workload {} seed {} seconds {} trace {}; host {host}",
        args.workload, args.run.seed, args.run.seconds, args.trace as u8
    );
    let mut trace = args.trace.then(Trace::default);
    let mut outcome =
        run_workload(&args.workload, &args.run, trace.as_mut()).expect("workload name validated");
    match report::peak_rss_mib() {
        Some(mib) => outcome.set("peak_rss_mib", mib),
        None => outcome.problem("peak RSS unreadable (/proc/self/status)"),
    }
    outcome.finish(args.trace);
    if let Some(t) = &trace {
        let path = PathBuf::from(".bench_trace").join(format!("{}.jsonl", args.workload));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"host\":\"{host}\"}}",
            args.workload, args.run.seed, args.run.seconds
        );
        match t.write_jsonl(&path, &header) {
            Ok(()) => println!("trace: {} spans in {}", t.spans().len(), path.display()),
            Err(e) => outcome.problem(format!("write {}: {e}", path.display())),
        }
    }
    for p in &outcome.problems {
        println!("problem: {p}");
    }
    println!("{}", outcome.result_line(args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
