//! The experiment inventory: every reproduced table/figure/study,
//! registered once, discoverable by name.
//!
//! This replaces the seed's `ALL` const and the giant `match` in
//! `main.rs`: adding an experiment is now one `impl Experiment` plus
//! one line here, and the CLI (`--list`, `--filter`, name resolution,
//! order-preserving dedupe) works off the same table the tests
//! validate.

use crate::exp::Experiment;
use crate::experiments::{
    ablations, asymmetry, crash, extensions, failure_modes, faults, fig11, fig12, fig13, fig14,
    fig15, fig16, fig8, lockfree_sweep, overhead, overload, pagerank_validation, table1, table2,
};

/// Every registered experiment, in canonical `repro all` order.
static REGISTRY: &[&dyn Experiment] = &[
    &table1::Table1,
    &table2::Table2,
    &fig8::Fig8,
    &fig11::Fig11,
    &fig12::Fig12,
    &fig13::Fig13,
    &fig14::Fig14,
    &fig15::Fig15,
    &pagerank_validation::PagerankValidation,
    &fig16::Fig16,
    &overhead::Overhead,
    &ablations::AblationModel,
    &ablations::AblationPcommit,
    &ablations::AblationDvfs,
    &ablations::AblationEpoch,
    &asymmetry::AsymmetryAblation,
    &extensions::Graph500,
    &extensions::ParallelPagerank,
    &extensions::LoadedLatency,
    &crash::CrashSweep,
    &faults::FaultMatrix,
    &failure_modes::FailureModes,
    &overload::OverloadMatrix,
    &lockfree_sweep::LockfreeSweep,
];

/// All registered experiments in canonical order.
pub fn all() -> &'static [&'static dyn Experiment] {
    REGISTRY
}

/// Looks an experiment up by exact name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    REGISTRY.iter().copied().find(|e| e.name() == name)
}

/// A name the registry does not know.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownExperiment(pub String);

impl std::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown experiment '{}'; known: {}",
            self.0,
            REGISTRY
                .iter()
                .map(|e| e.name())
                .collect::<Vec<_>>()
                .join(" ")
        )
    }
}

impl std::error::Error for UnknownExperiment {}

/// Resolves a CLI selection to an ordered, duplicate-free experiment
/// list.
///
/// * each entry in `names` must be a registered name or the keyword
///   `all` (which expands to the whole registry);
/// * `filter` is a comma-separated list of substrings; each term
///   appends every experiment whose name contains it, in registry
///   order per term (empty terms are ignored, so trailing commas are
///   harmless);
/// * an empty selection (no names, no filter) means everything;
/// * duplicates are dropped while preserving first-occurrence order, so
///   `repro all fig8` runs `fig8` exactly once.
pub fn select(
    names: &[String],
    filter: Option<&str>,
) -> Result<Vec<&'static dyn Experiment>, UnknownExperiment> {
    let mut chosen: Vec<&'static dyn Experiment> = Vec::new();
    let mut push = |e: &'static dyn Experiment| {
        if !chosen.iter().any(|c| c.name() == e.name()) {
            chosen.push(e);
        }
    };
    for name in names {
        if name == "all" {
            for e in REGISTRY {
                push(*e);
            }
        } else {
            push(find(name).ok_or_else(|| UnknownExperiment(name.clone()))?);
        }
    }
    if let Some(terms) = filter {
        for term in terms.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            for e in REGISTRY.iter().filter(|e| e.name().contains(term)) {
                push(*e);
            }
        }
    }
    if names.is_empty() && filter.is_none() {
        chosen.extend(REGISTRY.iter().copied());
    }
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_nonempty() {
        let mut seen = std::collections::HashSet::new();
        for e in all() {
            assert!(!e.name().is_empty());
            assert!(seen.insert(e.name()), "duplicate name {}", e.name());
            assert!(
                !e.description().is_empty(),
                "{} lacks description",
                e.name()
            );
            assert!(!e.paper_ref().is_empty(), "{} lacks paper_ref", e.name());
        }
    }

    #[test]
    fn registry_covers_every_module() {
        // One registered experiment per `repro` entry point of the seed
        // CLI — the regression guard for `--list` coverage.
        let expected = [
            "table1",
            "table2",
            "fig8",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "pagerank_validation",
            "fig16",
            "overhead",
            "ablation_model",
            "ablation_pcommit",
            "ablation_dvfs",
            "ablation_epoch",
            "asymmetry_ablation",
            "graph500",
            "parallel_pagerank",
            "loaded_latency",
            "crash_sweep",
            "fault_matrix",
            "failure_modes",
            "overload_matrix",
            "lockfree_sweep",
        ];
        let names: Vec<&str> = all().iter().map(|e| e.name()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn find_resolves_exact_names_only() {
        assert!(find("fig8").is_some());
        assert!(find("fig").is_none());
        assert!(find("").is_none());
    }

    #[test]
    fn select_all_then_duplicate_runs_once() {
        // Regression: the seed CLI ran `repro all fig8` with fig8 twice.
        let sel = select(&["all".into(), "fig8".into()], None).unwrap();
        assert_eq!(sel.len(), all().len());
        assert_eq!(
            sel.iter().filter(|e| e.name() == "fig8").count(),
            1,
            "fig8 must run exactly once"
        );
        // Order preserved: fig8 stays at its registry position because
        // `all` introduced it first.
        let names: Vec<&str> = sel.iter().map(|e| e.name()).collect();
        let registry_names: Vec<&str> = all().iter().map(|e| e.name()).collect();
        assert_eq!(names, registry_names);
    }

    #[test]
    fn select_preserves_explicit_order_and_dedupes() {
        let sel = select(&["fig12".into(), "fig8".into(), "fig12".into()], None).unwrap();
        let names: Vec<&str> = sel.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["fig12", "fig8"]);
    }

    #[test]
    fn select_unknown_name_errors() {
        let err = match select(&["fig99".into()], None) {
            Err(e) => e,
            Ok(_) => panic!("expected UnknownExperiment"),
        };
        assert_eq!(err, UnknownExperiment("fig99".into()));
        assert!(err.to_string().contains("fig99"));
        assert!(err.to_string().contains("known:"));
    }

    #[test]
    fn select_filter_appends_matches() {
        let sel = select(&[], Some("ablation")).unwrap();
        let names: Vec<&str> = sel.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            vec![
                "ablation_model",
                "ablation_pcommit",
                "ablation_dvfs",
                "ablation_epoch",
                "asymmetry_ablation"
            ]
        );
        // Explicit names come first; filter matches follow, deduped.
        let sel = select(&["ablation_dvfs".into()], Some("ablation")).unwrap();
        let names: Vec<&str> = sel.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            vec![
                "ablation_dvfs",
                "ablation_model",
                "ablation_pcommit",
                "ablation_epoch",
                "asymmetry_ablation"
            ]
        );
    }

    #[test]
    fn select_filter_splits_on_commas() {
        let sel = select(&[], Some("fig8,crash")).unwrap();
        let names: Vec<&str> = sel.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["fig8", "crash_sweep"]);
        // Empty terms (stray/trailing commas, whitespace) are ignored;
        // duplicates across terms collapse.
        let sel = select(&[], Some(" crash , ,fig8,crash,")).unwrap();
        let names: Vec<&str> = sel.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["crash_sweep", "fig8"]);
        // A comma list matching nothing selects nothing (not everything).
        assert!(select(&[], Some("zzz,yyy")).unwrap().is_empty());
    }

    #[test]
    fn empty_selection_means_everything() {
        assert_eq!(select(&[], None).unwrap().len(), all().len());
    }
}
