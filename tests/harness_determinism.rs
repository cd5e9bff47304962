//! Golden tests for the repro harness and the CLI.
//!
//! * every registered experiment, run quick at `--jobs 1` and then at
//!   `--jobs 8`, completes with every claim it states holding, prints
//!   the same console section and writes the same bytes to every file
//!   at both job counts; both output directories hold exactly the files
//!   the manifests name. That one run is shared, and the
//!   per-experiment tests read their experiment's part of it;
//! * the committed `results/` holds exactly the CSVs that run writes;
//! * `repro --list` must cover the whole registry;
//! * usage errors exit with status 2, a quarantined experiment with 1.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use quartz_bench::exp::Experiment;
use quartz_bench::harness::{run_experiments, RunOptions};
use quartz_bench::manifest::{ExperimentRecord, Manifest, RunStatus};
use quartz_bench::registry;

/// Every bench file the registry writes in quick mode: the experiment,
/// the file, and the literal prefix it always starts with (schema
/// version, bench name and fixed parameters).
const BENCHES: [(&str, &str, &str); 3] = [
    (
        "asymmetry_ablation",
        "BENCH_asymmetry.json",
        r#"{"schema":1,"bench":"asymmetry_ablation","quick":true,"read_ns":300,"write_ns":900,"cells":[{"workload":"chase","kind":"read_only","#,
    ),
    (
        "overload_matrix",
        "BENCH_overload.json",
        r#"{"schema":2,"bench":"overload_matrix","quick":true,"nvm_target":"optane_dcpmm","nvm_read_ns":169,"deadline_us":100,"fault_bounds":[{"fault":"none","goodput_bound_pct":0.5},{"fault":"slow_worker","goodput_bound_pct":60},{"fault":"stuck_worker","goodput_bound_pct":60}],"cells":["#,
    ),
    (
        "lockfree_sweep",
        "BENCH_lockfree.json",
        r#"{"schema":1,"bench":"lockfree_sweep","quick":true,"threads":3,"pushes":6,"rows":["#,
    ),
];

/// Runs `selection` quick at `jobs` into a fresh `dir`, returning the
/// console output and the manifest.
fn run(selection: &[&dyn Experiment], jobs: usize, dir: &Path) -> (String, Manifest) {
    let _ = std::fs::remove_dir_all(dir);
    let opts = RunOptions {
        quick: true,
        out_dir: dir.to_path_buf(),
        jobs,
        ..RunOptions::default()
    };
    let mut buf = Vec::new();
    let manifest = run_experiments(selection, &opts, &mut buf).unwrap();
    (String::from_utf8(buf).unwrap(), manifest)
}

/// The whole registry, run quick at `--jobs 1` and then at `--jobs 8`
/// in this process: once, whichever golden test asks first.
struct Golden {
    dirs: [PathBuf; 2],
    consoles: [String; 2],
    manifests: [Manifest; 2],
}

fn golden() -> &'static Golden {
    static GOLDEN: OnceLock<Golden> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let base = std::env::temp_dir().join("quartz_bench_golden");
        let dirs = [base.join("j1"), base.join("j8")];
        let (console1, m1) = run(registry::all(), 1, &dirs[0]);
        let (console8, m8) = run(registry::all(), 8, &dirs[1]);
        Golden {
            dirs,
            consoles: [console1, console8],
            manifests: [m1, m8],
        }
    })
}

/// One experiment's console section: its banner up to its wall-time
/// line, the only host-dependent line in it.
fn section<'a>(console: &'a str, name: &str) -> &'a str {
    let start = console
        .find(&format!("=== {name} — "))
        .unwrap_or_else(|| panic!("{name} printed its banner"));
    let rest = &console[start..];
    &rest[..rest
        .find(&format!("\n[{name} took "))
        .unwrap_or_else(|| panic!("{name} printed its wall time"))]
}

/// Every file one experiment wrote: its row file, CSVs and bench files.
fn written(record: &ExperimentRecord) -> Vec<String> {
    let mut names = vec![format!("{}.json", record.name)];
    names.extend(record.tables.iter().map(|t| format!("{t}.csv")));
    names.extend(record.benches.iter().cloned());
    names
}

/// Asserts `record`'s experiment printed the same console section and
/// wrote the same bytes to every file in two runs (one console and one
/// directory each).
fn assert_same_outputs(record: &ExperimentRecord, consoles: [&str; 2], dirs: [&Path; 2]) {
    let name = &record.name;
    assert_eq!(
        section(consoles[0], name),
        section(consoles[1], name),
        "{name}: same console section in both runs"
    );
    for file in written(record) {
        let [b0, b1] = dirs.map(|d| std::fs::read(d.join(&file)).unwrap());
        assert!(b0 == b1, "{name}: {file} differs between the two runs");
    }
}

/// Checks `name`'s part of the shared run: every claim holds at both
/// job counts, the manifest lists exactly its bench files (each with
/// its literal prefix), and its console section and files are the same
/// bytes at both. Returns its `--jobs 1` console section.
fn assert_golden(name: &str) -> &'static str {
    let g = golden();
    let [r1, r8] = g.manifests.each_ref().map(|m| {
        m.experiments
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("{name} ran"))
    });
    let bench = BENCHES.iter().find(|(e, _, _)| *e == name);
    let files: Vec<String> = bench.iter().map(|(_, f, _)| f.to_string()).collect();
    for (r, jobs) in [(r1, 1), (r8, 8)] {
        assert_eq!(r.status, RunStatus::Ok, "{name} at --jobs {jobs}");
        assert!(r.wall_ms > 0.0, "{name}: wall time at --jobs {jobs}");
        assert_eq!(r.benches, files, "{name}: bench files at --jobs {jobs}");
    }
    if let Some((_, file, prefix)) = bench {
        let body = std::fs::read_to_string(g.dirs[1].join(file)).unwrap();
        assert!(
            body.starts_with(prefix),
            "{file} starts with {prefix}:\n{body}"
        );
    }
    assert_eq!(written(r1), written(r8), "{name}: same files written");
    let consoles = g.consoles.each_ref().map(String::as_str);
    assert_same_outputs(r1, consoles, g.dirs.each_ref().map(PathBuf::as_path));
    section(&g.consoles[0], name)
}

/// [`assert_golden`], and `name` states each of `claims` (a prefix of
/// its `what` text) as holding.
fn assert_claims(name: &str, claims: &[&str]) {
    let console = assert_golden(name);
    for claim in claims {
        assert!(
            console.contains(&format!("\nclaim ok: {claim}")),
            "{name} must claim {claim}:\n{console}"
        );
    }
}

#[test]
fn jobs_1_and_jobs_8_are_byte_identical() {
    let g = golden();
    // Every status at both job counts, so one failure lists them all.
    let failures: Vec<String> = g
        .manifests
        .iter()
        .flat_map(|m| {
            m.experiments
                .iter()
                .filter(|e| e.status != RunStatus::Ok)
                .map(move |e| format!("{} at --jobs {}: {:?}", e.name, m.jobs, e.status))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "every experiment must complete with its claims holding:\n{}",
        failures.join("\n")
    );
    let names: Vec<&str> = registry::all().iter().map(|e| e.name()).collect();
    for m in &g.manifests {
        let ran: Vec<&str> = m.experiments.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(ran, names, "the manifest lists the registry in order");
    }
    // Each directory holds exactly the files its manifest names, so
    // the per-experiment comparisons below cover every file but the
    // manifest: a file written without being recorded fails here.
    for (m, dir) in g.manifests.iter().zip(&g.dirs) {
        let mut named: Vec<String> = m.experiments.iter().flat_map(written).collect();
        named.push("manifest.json".to_string());
        named.sort();
        let mut present: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        present.sort();
        assert_eq!(present, named, "files in {}", dir.display());
    }
    for name in names {
        assert_golden(name);
    }
}

/// The committed `results/` holds one CSV per table a run writes, and
/// no other: a quick run names the same tables as a full one, so a new
/// experiment or a renamed table fails here without a full run. CI
/// checks the CSVs' contents against a full run.
#[test]
fn committed_results_hold_every_table_a_run_writes() {
    let mut written: Vec<String> = golden().manifests[0]
        .experiments
        .iter()
        .flat_map(|e| e.tables.iter().map(|t| format!("{t}.csv")))
        .collect();
    written.sort();
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut committed: Vec<String> = std::fs::read_dir(&results)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".csv"))
        .collect();
    committed.sort();
    assert_eq!(committed, written, "CSVs in {}", results.display());
}

#[test]
fn repeated_serial_runs_are_byte_identical() {
    let base = std::env::temp_dir().join("quartz_bench_golden_repeat");
    let exp = [registry::find("ablation_pcommit").expect("registered")];
    let dirs = [base.join("a"), base.join("b")];
    let (console_a, m) = run(&exp, 1, &dirs[0]);
    let (console_b, _) = run(&exp, 1, &dirs[1]);
    let dirs = dirs.each_ref().map(PathBuf::as_path);
    assert_same_outputs(&m.experiments[0], [&console_a, &console_b], dirs);
}

/// One test per experiment: its part of the shared run checks out
/// ([`assert_golden`]) and it states each listed claim as holding.
macro_rules! claims_tests {
    ($($test:ident: $name:literal => $claims:expr;)+) => {$(
        #[test]
        fn $test() {
            assert_claims($name, &$claims);
        }
    )+};
}

claims_tests! {
    crash_sweep_is_byte_identical_at_any_jobs_count: "crash_sweep" =>
        ["false positives 0 == 0", "false negatives 0 == 0"];
    fault_matrix_is_byte_identical_at_any_jobs_count: "fault_matrix" => [
        "bound violations 0 == 0",
        "silent fault classes 0 == 0",
        "control (none) cells with a nonzero degradation counter 0 == 0",
    ];
    // A scenario's claim holds only if it was classified as expected and
    // its diagnostic names the lock cycle, payload, budget or holder.
    failure_modes_is_byte_identical_and_classifies_all_modes: "failure_modes" => [
        "clean/control: ", "deadlock/abba: ", "panic/child: ", "hang/virtual_spin: ",
        "livelock/cas_storm: ", "deadlock/quartz_reap: ", "timeout/recv_expiry: ",
    ];
    overload_matrix_bench_file_is_byte_identical_at_any_jobs_count: "overload_matrix" =>
        ["offered == served + shed + expired + failed in "];
    lockfree_sweep_is_byte_identical_at_any_jobs_count: "lockfree_sweep" =>
        ["false positives 0 == 0", "false negatives 0 == 0"];
    asymmetry_ablation_is_byte_identical_at_any_jobs_count: "asymmetry_ablation" =>
        ["chase (control): asymmetric write term 0 ns == 0"];
}

#[test]
fn cli_list_covers_the_whole_registry() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .output()
        .expect("spawn repro");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for exp in registry::all() {
        assert!(
            stdout
                .lines()
                .any(|l| l.split_whitespace().next() == Some(exp.name())),
            "--list is missing {}",
            exp.name()
        );
    }
    assert_eq!(stdout.lines().count(), registry::all().len());
}

#[test]
fn cli_unknown_experiment_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig99")
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("fig99"));
    assert_eq!(stderr.matches("known:").count(), 1, "{stderr}");
}

#[test]
fn cli_bad_jobs_value_exits_2() {
    for jobs in ["many", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--jobs", jobs, "table1"])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "--jobs {jobs}");
    }
}

#[test]
fn cli_inject_fail_exits_1_and_marks_exactly_one_failed() {
    // The quarantine contract, end to end: an injected failure must not
    // stop the healthy experiment, must be recorded in the manifest as
    // `status: failed`, and must flip the process exit status to 1.
    let dir = std::env::temp_dir().join("quartz_bench_inject_fail");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--quick",
            "--jobs",
            "2",
            "--out",
            dir.to_str().unwrap(),
            "--inject-fail",
            "failure_modes",
            "failure_modes",
            "ablation_pcommit",
        ])
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(1),
        "a quarantined experiment must make repro exit 1: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("failure_modes QUARANTINED"), "{stdout}");
    assert!(stdout.contains("quarantined: failure_modes"), "{stdout}");

    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest written");
    assert_eq!(
        manifest.matches("\"status\":\"failed\"").count(),
        1,
        "exactly the injected experiment fails: {manifest}"
    );
    assert_eq!(
        manifest.matches("\"status\":\"ok\"").count(),
        1,
        "the healthy experiment stays ok: {manifest}"
    );
    assert!(
        manifest.contains("injected failure (--inject-fail)"),
        "{manifest}"
    );
    // Quarantined experiments save no result rows; healthy ones do.
    assert!(!dir.join("failure_modes.json").exists());
    assert!(dir.join("ablation_pcommit.json").exists());
}

#[test]
fn cli_inject_fail_unselected_name_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--inject-fail", "fig8", "table1"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("fig8"), "{stderr}");
}

#[test]
fn cli_filter_splits_commas_before_selection() {
    // --inject-fail validates its name against the selected set before
    // running anything, so it doubles as a cheap probe of what a
    // comma-separated --filter actually chose.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--quick",
            "--filter",
            "ablation_pcommit,failure",
            "--inject-fail",
            "table1",
        ])
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(2),
        "'table1' must not be selected by --filter ablation_pcommit,failure"
    );
    // The probe passes once the second comma term matches it (the
    // injected failure quarantines failure_modes before it runs, so the
    // run stays cheap and exits 1, not 2).
    let dir = std::env::temp_dir().join("quartz_bench_filter_probe");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--quick",
            "--jobs",
            "2",
            "--out",
            dir.to_str().unwrap(),
            "--filter",
            "ablation_pcommit,failure",
            "--inject-fail",
            "failure_modes",
        ])
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(1),
        "'failure_modes' must be selected by the second filter term: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("ablation_pcommit"), "{stdout}");
    assert!(stdout.contains("failure_modes QUARANTINED"), "{stdout}");
}
