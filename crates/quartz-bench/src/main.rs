//! `repro` — regenerates every table and figure of the paper's
//! evaluation section (§4) on the simulated testbed.
//!
//! ```text
//! repro [--quick] [--out DIR] [--jobs N] [--filter SUBSTR[,SUBSTR...]]
//!       [--keep-going | --fail-fast] [--inject-fail NAME] <experiment>...
//! repro all
//! repro --list
//! ```
//!
//! Exit status: `0` when every selected experiment completed with all
//! its claims holding, `1` when any experiment was quarantined or
//! failed a claim (or on I/O error), `2` on usage errors.
//! `--keep-going` (the default) runs the rest of the selection past a
//! failed experiment; `--fail-fast` stops at the first.
//!
//! The experiment set lives in `quartz_bench::registry`; `--list` prints
//! it. Selection, the parallel grid runner, and result/manifest writing
//! all live in the library so they stay testable — this binary is only
//! argument parsing.

use std::path::PathBuf;

use quartz_bench::harness::{run_experiments, RunOptions};
use quartz_bench::registry;

fn usage() {
    println!(
        "usage: repro [--quick] [--out DIR] [--jobs N] [--filter SUBSTR[,SUBSTR...]] \
         [--keep-going | --fail-fast] [--inject-fail NAME] <experiment>... | all"
    );
    println!("       repro --list");
    println!(
        "exit status: 0 all ok, 1 any experiment quarantined or a claim failed, 2 usage error"
    );
    println!(
        "experiments: {}",
        registry::all()
            .iter()
            .map(|e| e.name())
            .collect::<Vec<_>>()
            .join(" ")
    );
}

fn main() {
    let mut opts = RunOptions::default();
    let mut names: Vec<String> = Vec::new();
    let mut filter: Option<String> = None;
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--list" => list = true,
            "--out" => {
                opts.out_dir = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                }));
            }
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| {
                    eprintln!("--jobs needs a number");
                    std::process::exit(2);
                });
                opts.jobs = match v.parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("--jobs needs a positive number, got '{v}'");
                        std::process::exit(2);
                    }
                };
            }
            "--filter" => {
                filter = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--filter needs a comma-separated substring list");
                    std::process::exit(2);
                }));
            }
            "--keep-going" => opts.fail_fast = false,
            "--fail-fast" => opts.fail_fast = true,
            "--inject-fail" => {
                opts.inject_fail = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--inject-fail needs an experiment name");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other => names.push(other.to_string()),
        }
    }
    if list {
        for e in registry::all() {
            println!("{:<22} {:<16} {}", e.name(), e.paper_ref(), e.description());
        }
        return;
    }
    let selection = match registry::select(&names, filter.as_deref()) {
        Ok(sel) => sel,
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(2);
        }
    };
    if let Some(name) = &opts.inject_fail {
        if !selection.iter().any(|e| e.name() == name) {
            eprintln!("--inject-fail '{name}' is not in the selected experiment set");
            std::process::exit(2);
        }
    }
    let stdout = std::io::stdout();
    match run_experiments(&selection, &opts, &mut stdout.lock()) {
        Err(err) => {
            eprintln!("repro: {err}");
            std::process::exit(1);
        }
        Ok(manifest) => {
            if manifest.any_failed() {
                std::process::exit(1);
            }
        }
    }
}
