//! Golden tests for the repro harness determinism contract and the CLI.
//!
//! * a quick run of a representative grid experiment must produce
//!   byte-identical console output, CSVs, and JSON row files at
//!   `--jobs 1` and `--jobs 8`;
//! * `repro --list` must cover the whole registry;
//! * unknown experiment names must exit with status 2.

use std::path::Path;
use std::process::Command;

use quartz_bench::harness::{run_experiments, RunOptions};
use quartz_bench::registry;

/// Runs one quick experiment at the given job count, returning the
/// console output (wall-time and manifest lines stripped — those are the
/// only host-dependent parts) plus every result file as (name, bytes).
fn golden_run(name: &str, jobs: usize, dir: &Path) -> (String, Vec<(String, Vec<u8>)>) {
    let _ = std::fs::remove_dir_all(dir);
    let exp = registry::find(name).expect("registered");
    let opts = RunOptions {
        quick: true,
        out_dir: dir.to_path_buf(),
        jobs,
        ..RunOptions::default()
    };
    let mut buf = Vec::new();
    run_experiments(&[exp], &opts, &mut buf).unwrap();
    let console: String = String::from_utf8(buf)
        .unwrap()
        .lines()
        .filter(|l| !l.starts_with('[') && !l.starts_with("manifest:"))
        .map(|l| format!("{l}\n"))
        .collect();

    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        // manifest.json records wall times and the job count by design.
        .filter(|(name, _)| name != "manifest.json")
        .collect();
    files.sort();
    (console, files)
}

/// Runs a deterministic experiment quick at `--jobs 1` and `--jobs 8`
/// under `base`, asserts the console output and every result file are
/// byte-identical, and returns the `--jobs 1` console and files.
fn assert_jobs_invariant(name: &str, base: &Path) -> (String, Vec<(String, Vec<u8>)>) {
    assert!(
        registry::find(name).expect("registered").deterministic(),
        "{name} must advertise determinism"
    );
    let (console1, files1) = golden_run(name, 1, &base.join("j1"));
    let (console8, files8) = golden_run(name, 8, &base.join("j8"));
    assert_eq!(
        console1, console8,
        "{name}: console output must not depend on --jobs"
    );
    assert!(
        !files1.is_empty(),
        "{name}: expected CSV + JSON row outputs"
    );
    assert_eq!(files1.len(), files8.len());
    for ((n1, b1), (n8, b8)) in files1.iter().zip(&files8) {
        assert_eq!(n1, n8);
        assert_eq!(b1, b8, "{n1} differs between --jobs 1 and --jobs 8");
    }
    (console1, files1)
}

/// The text of result file `name`.
fn file_text(files: &[(String, Vec<u8>)], name: &str) -> String {
    let (_, bytes) = files
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} emitted"));
    String::from_utf8(bytes.clone()).unwrap()
}

#[test]
fn jobs_1_and_jobs_8_are_byte_identical() {
    let base = std::env::temp_dir().join("quartz_bench_golden");
    assert_jobs_invariant("ablation_pcommit", &base);
}

#[test]
fn crash_sweep_is_byte_identical_at_any_jobs_count() {
    // The crash-consistency sweep must uphold the determinism
    // contract: same seed => byte-identical durable-line fingerprints,
    // recovery verdicts, and JSON rows regardless of worker count.
    let base = std::env::temp_dir().join("quartz_bench_golden_crash");
    let (console1, _) = assert_jobs_invariant("crash_sweep", &base);
    assert!(
        console1.contains("false_negatives=0 false_positives=0"),
        "the sweep verdict line must report a clean checker:\n{console1}"
    );
}

#[test]
fn fault_matrix_is_byte_identical_at_any_jobs_count() {
    // The fault matrix runs seeded fault injectors whose decision
    // streams are pure functions of (seed, seam, sequence); the permit-
    // handoff engine makes the sequences themselves deterministic. The
    // experiment must therefore uphold the same byte-identity contract
    // as every virtual-time study — faults included.
    let base = std::env::temp_dir().join("quartz_bench_golden_faults");
    let (console1, files1) = assert_jobs_invariant("fault_matrix", &base);
    assert!(
        console1.contains("bound_violations=0 silent_fault_classes=0"),
        "every cell must hold its declared bound and trip its seam:\n{console1}"
    );
    // The control row proves the A/B methodology: zero drift, zero
    // faults.
    assert!(console1.contains("memlat/none"), "{console1}");
    // Every cell's stats carry the DegradationStats block; the control
    // cell's is all-zero and the storm cell's counts its faults.
    let json = file_text(&files1, "fault_matrix.json");
    assert_eq!(total_faults(&json, "memlat/none"), 0, "{json}");
    assert!(total_faults(&json, "memlat/storm") >= 1, "{json}");
}

/// The `degradation.total_faults` value in one cell's `quartz_stats`.
fn total_faults(json: &str, cell: &str) -> u64 {
    let needle = "\"degradation\":{\"total_faults\":";
    let at = json
        .find(&format!("\"{cell}\":{{"))
        .unwrap_or_else(|| panic!("{cell} has stats"));
    let rest = &json[at..];
    let rest = &rest[rest.find(needle).expect("degradation block") + needle.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap();
    rest[..end].parse().unwrap()
}

#[test]
fn failure_modes_is_byte_identical_and_classifies_all_modes() {
    // The failure-taxonomy self-test deliberately deadlocks, panics, and
    // hangs micro-workloads; the containment machinery must classify
    // each with a named diagnostic, and the printed table must be
    // byte-identical at any --jobs (hang detection is host-timed but its
    // classification output is not).
    let base = std::env::temp_dir().join("quartz_bench_golden_failure_modes");
    let (console1, _) = assert_jobs_invariant("failure_modes", &base);
    // Every scenario row present, classified as expected.
    for scenario in [
        "clean/control",
        "deadlock/abba",
        "panic/child",
        "hang/virtual_spin",
        "livelock/cas_storm",
        "deadlock/quartz_reap",
        "timeout/recv_expiry",
    ] {
        assert!(
            console1.contains(scenario),
            "missing {scenario}:\n{console1}"
        );
    }
    assert!(
        console1.contains("7/7 scenarios classified as expected"),
        "verdict line must confirm full classification:\n{console1}"
    );
    // The deadlock diagnostics name the actual lock cycle.
    assert!(
        console1.contains("t1 -(m1)-> t2") && console1.contains("t2 -(m0)-> t1"),
        "deadlock cycle must be named edge by edge:\n{console1}"
    );
    // The panic diagnostic carries the original payload; the hang
    // diagnostic names the token holder and configured budget.
    assert!(console1.contains("\"injected fault\""), "{console1}");
    assert!(
        console1.contains("t0 exceeded 25ms watchdog budget"),
        "{console1}"
    );
    // The livelock diagnostic names the spinning thread set and the
    // configured streak threshold.
    assert!(
        console1.contains("t1+t2 failed 400 consecutive CAS without progress"),
        "{console1}"
    );
    // Emulator-side containment after a deadlock with Quartz attached.
    assert!(console1.contains("reaped=3 anomalies=1"), "{console1}");
}

#[test]
fn repeated_serial_runs_are_byte_identical() {
    let base = std::env::temp_dir().join("quartz_bench_golden_repeat");
    let (c1, f1) = golden_run("ablation_pcommit", 1, &base.join("a"));
    let (c2, f2) = golden_run("ablation_pcommit", 1, &base.join("b"));
    assert_eq!(c1, c2);
    assert_eq!(f1, f2);
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
}

#[test]
fn cli_bad_jobs_value_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--jobs", "many", "table1"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
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

/// Blanks the value after every host-timing key in a `BENCH_*.json`
/// document, leaving the deterministic fields (access counts, config
/// lists, trace event counts, the equivalence flag) for comparison.
fn strip_timing_fields(json: &str) -> String {
    const KEYS: [&str; 5] = [
        "\"wall_ms\":",
        "\"accesses_per_sec\":",
        "\"live_ms\":",
        "\"replay_ms\":",
        "\"speedup\":",
    ];
    let mut out = String::new();
    let mut rest = json;
    'outer: while !rest.is_empty() {
        for k in KEYS {
            if rest.starts_with(k) {
                out.push_str(k);
                out.push('_');
                rest = &rest[k.len()..];
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                rest = &rest[end..];
                continue 'outer;
            }
        }
        let mut chars = rest.chars();
        out.push(chars.next().unwrap());
        rest = chars.as_str();
    }
    out
}

#[test]
fn overload_matrix_bench_file_is_byte_identical_at_any_jobs_count() {
    // The overload matrix layers seeded service faults, retries with
    // seeded backoff, and breaker state on top of the service scenario;
    // every one of those decisions is a pure function of the seed, so
    // the whole matrix — counters, goodput, percentiles — upholds the
    // byte-identity contract.
    let base = std::env::temp_dir().join("quartz_bench_golden_overload");
    let (_, files1) = assert_jobs_invariant("overload_matrix", &base);
    let bench = file_text(&files1, "BENCH_overload.json");
    for needle in [
        "\"schema\":2",
        "\"bench\":\"overload_matrix\"",
        "\"nvm_target\":\"optane_dcpmm\"",
        "\"memory\":\"dram\"",
        "\"memory\":\"optane\"",
        "\"mode\":\"unprotected\"",
        "\"mode\":\"protected\"",
        "\"fault\":\"slow_worker\"",
        "\"fault\":\"stuck_worker\"",
        "\"goodput_rps\":",
        "\"mean_ns\":",
        "\"p999_ns\":",
        "\"batch_factor\":",
        "\"conservation_ok\":true",
        "\"fault_bounds\":",
    ] {
        assert!(bench.contains(needle), "missing {needle} in {bench}");
    }
    assert!(
        !bench.contains("\"conservation_ok\":false"),
        "every cell must conserve requests:\n{bench}"
    );
    assert_eq!(
        strip_timing_fields(&bench),
        bench,
        "overload_matrix must not record host timing in its bench file"
    );
    let manifest = std::fs::read_to_string(base.join("j8").join("manifest.json")).unwrap();
    assert!(
        manifest.contains("\"benches\":[\"BENCH_overload.json\"]"),
        "{manifest}"
    );
}

#[test]
fn lockfree_sweep_is_byte_identical_at_any_jobs_count() {
    // The lock-free sweep replays recorded executions of the
    // detectable stack and queue at derived crash points (winning
    // CASes included); every quantity is virtual-time, so the console
    // table, the JSON rows, and the whole BENCH file uphold the
    // byte-identity contract.
    let base = std::env::temp_dir().join("quartz_bench_golden_lockfree");
    let (console1, files1) = assert_jobs_invariant("lockfree_sweep", &base);
    assert!(
        console1.contains("false_negatives=0 false_positives=0"),
        "the sweep verdict line must report a clean checker:\n{console1}"
    );
    let bench = file_text(&files1, "BENCH_lockfree.json");
    for needle in [
        "\"schema\":1",
        "\"bench\":\"lockfree_sweep\"",
        "\"structure\":\"treiber_stack\"",
        "\"structure\":\"ms_queue\"",
        "\"variant\":\"missing_flush\"",
        "\"variant\":\"lost_checkpoint\"",
        "\"false_negatives\":0",
        "\"false_positives\":0",
    ] {
        assert!(bench.contains(needle), "missing {needle} in {bench}");
    }
    // No host-timed fields: the timing scrubber must be a no-op here.
    assert_eq!(
        strip_timing_fields(&bench),
        bench,
        "lockfree_sweep must not record host timing in its bench file"
    );
    let manifest = std::fs::read_to_string(base.join("j8").join("manifest.json")).unwrap();
    assert!(
        manifest.contains("\"benches\":[\"BENCH_lockfree.json\"]"),
        "{manifest}"
    );
}

#[test]
fn asymmetry_ablation_is_byte_identical_at_any_jobs_count() {
    // The asymmetry ablation is pure virtual time (jitter off, perfect
    // counters, fixed seed), so the console table and the whole
    // BENCH_asymmetry.json — deltas and write terms included — uphold
    // the byte-identity contract.
    let base = std::env::temp_dir().join("quartz_bench_golden_asymmetry");
    let (_, files1) = assert_jobs_invariant("asymmetry_ablation", &base);
    let bench = file_text(&files1, "BENCH_asymmetry.json");
    for needle in [
        "\"schema\":1",
        "\"bench\":\"asymmetry_ablation\"",
        "\"kind\":\"read_only\"",
        "\"kind\":\"write_heavy\"",
        "\"write_term_ns_asym\":",
    ] {
        assert!(bench.contains(needle), "missing {needle} in {bench}");
    }
    // The read-only control cell accrues exactly zero write term even
    // under the asymmetric model: no stores, nothing to price.
    assert!(
        bench.contains("\"kind\":\"read_only\",\"sym_ns\""),
        "control cell present: {bench}"
    );
    let control = bench
        .split("\"kind\":\"read_only\"")
        .nth(1)
        .expect("control cell");
    let control = &control[..control.find('}').unwrap()];
    assert!(
        control.contains("\"write_term_ns_asym\":0"),
        "control cell write term must be exactly zero: {control}"
    );
    // No host-timed fields: the timing scrubber must be a no-op here.
    assert_eq!(
        strip_timing_fields(&bench),
        bench,
        "asymmetry_ablation must not record host timing in its bench file"
    );
    let manifest = std::fs::read_to_string(base.join("j8").join("manifest.json")).unwrap();
    assert!(
        manifest.contains("\"benches\":[\"BENCH_asymmetry.json\"]"),
        "{manifest}"
    );
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

#[test]
fn memsim_throughput_bench_file_is_deterministic_modulo_timing() {
    // The experiment is host-timed, so it opts out of the byte-identity
    // contract — but everything in BENCH_memsim.json except the timing
    // numbers (access counts, mix names, sweep configs, trace event
    // count, the replay-equivalence flag) must still be identical at
    // any --jobs count.
    let exp = registry::find("memsim_throughput").expect("registered");
    assert!(!exp.deterministic(), "host-timed experiments opt out");
    let base = std::env::temp_dir().join("quartz_bench_golden_memsim");
    let (_, files1) = golden_run("memsim_throughput", 1, &base.join("j1"));
    let (_, files8) = golden_run("memsim_throughput", 8, &base.join("j8"));
    let (b1, b8) = (
        file_text(&files1, "BENCH_memsim.json"),
        file_text(&files8, "BENCH_memsim.json"),
    );
    for b in [&b1, &b8] {
        for needle in [
            "\"schema\":1",
            "\"mix\":\"l1_hit\"",
            "\"mix\":\"l3_miss\"",
            "\"mix\":\"stream\"",
            "\"equivalent\":true",
        ] {
            assert!(b.contains(needle), "missing {needle} in {b}");
        }
    }
    assert_eq!(
        strip_timing_fields(&b1),
        strip_timing_fields(&b8),
        "non-timing BENCH fields must not depend on --jobs"
    );
    // The manifest must index the bench file.
    let manifest = std::fs::read_to_string(base.join("j8").join("manifest.json")).unwrap();
    assert!(
        manifest.contains("\"benches\":[\"BENCH_memsim.json\"]"),
        "{manifest}"
    );
}
