//! Golden-file determinism: running the committed smoke suite produces
//! byte-identical report JSON — twice in a row, across the session
//! scheduler's sweep thread counts, and against the committed golden file.

use pm_faults::ResetPolicy;
use pm_scenarios::corpus::SMOKE;
use pm_scenarios::{load_embedded, report_json, run_suite, select};

fn smoke_report(threads: usize) -> String {
    let corpus = load_embedded().expect("committed corpus parses");
    let smoke = select(&corpus, SMOKE);
    assert!(smoke.len() >= 10, "smoke suite shrank to {}", smoke.len());
    report_json(&run_suite(&smoke, threads))
}

#[test]
fn smoke_suite_is_deterministic_across_runs_and_threads() {
    let sequential = smoke_report(1);
    assert_eq!(sequential, smoke_report(1), "repeated runs diverged");
    assert_eq!(sequential, smoke_report(2), "2-thread run diverged");
    assert_eq!(sequential, smoke_report(8), "8-thread run diverged");
}

#[test]
fn smoke_suite_matches_committed_golden_file() {
    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/smoke.json");
    let golden = std::fs::read_to_string(&golden_path).expect("committed golden file exists");
    assert_eq!(
        smoke_report(1),
        golden,
        "golden/smoke.json is out of date; run `cargo run -p pm-server --bin pm-scenarios -- regen` \
         and review the diff"
    );
}

#[test]
fn smoke_suite_reports_are_all_ok_and_include_perturbed_runs() {
    let corpus = load_embedded().unwrap();
    let smoke = select(&corpus, SMOKE);
    let reports = run_suite(&smoke, 4);
    for report in &reports {
        assert!(report.ok, "{} failed: {:?}", report.scenario, report.error);
        let run = report.report.as_ref().unwrap();
        assert!(run.rounds_consistent(), "{}", report.scenario);
        assert!(run.leaders >= 1, "{}", report.scenario);
    }
    // The perturbed runs: fault plans under reset-and-recover.
    let perturbed: Vec<_> = smoke
        .iter()
        .zip(&reports)
        .filter(|(spec, _)| spec.is_adversarial() && spec.faults.reset == ResetPolicy::Reinitialize)
        .map(|(_, report)| report)
        .collect();
    assert!(!perturbed.is_empty());
    // The split scenario records the multi-leader outcome; the removal
    // scenarios keep the unique-leader predicate.
    assert!(perturbed
        .iter()
        .any(|r| r.report.as_ref().unwrap().leaders > 1));
    assert!(perturbed
        .iter()
        .any(|r| r.report.as_ref().unwrap().unique_leader()));
}
