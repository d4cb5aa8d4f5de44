//! The schedule generators under the root test suite: the auditor's sweep
//! over every configuration at `p = 16` must verify clean and extract
//! exactly the pinned numbers of configurations and events. A generator
//! that drops or adds one event fails here, not only in the release-mode
//! CLI sweep.

use spgemm_core::audit::sweep;

#[test]
fn sweep_at_sixteen_is_clean_with_pinned_counts() {
    let report = sweep(&[16], None);
    assert!(
        report.violations().is_empty(),
        "violations: {:?}",
        report.violations()
    );
    assert_eq!(report.infeasible_count(), 0);
    let counts = (
        report.results.len(),
        report.ok_count(),
        report.total_events(),
    );
    assert_eq!(counts, (396, 396, 532_320), "(configurations, clean, events)");
}
