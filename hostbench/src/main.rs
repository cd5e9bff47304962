//! `quartz-hostbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints each metric as `name value unit`, then one JSON result line.
//! Traced runs also write their spans to `out/spans-<workload>-<seed>.json`
//! under the benchmark's directory.

use std::process::ExitCode;

use quartz_hostbench::run::{result_json, run, Options};
use quartz_hostbench::workloads::{Workload, DEFAULT_SEED};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::Chase,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: quartz-hostbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    if let Some(spans) = &report.spans {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-{}.json", opts.workload.name(), opts.seed);
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("spans written to {path}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
