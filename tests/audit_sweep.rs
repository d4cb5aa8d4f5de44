//! The schedule generators under the root test suite: the auditor's sweep
//! over every configuration at `p = 16` must verify clean and extract
//! exactly the pinned numbers of configurations and events. A generator
//! that drops or adds one event fails here, not only in the release-mode
//! CLI sweep. The verifier's reports on each injected fault are pinned
//! too, so a change to the replay's bookkeeping cannot silently change
//! what a violation says. The sweep verifies each distinct program once;
//! its per-configuration results must equal auditing every configuration
//! alone.

use spgemm_core::audit::{audit_config, sweep, sweep_grid, AuditFault, ConfigOutcome};

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

/// The sweep over `ps` against [`audit_config`] on each configuration of
/// its grid: label, outcome, batch count and events, one by one.
fn assert_sweep_equals_per_config(ps: &[usize]) {
    let report = sweep(ps, None);
    let grid = sweep_grid(ps);
    assert_eq!(report.results.len(), grid.len());
    for (cfg, got) in grid.iter().zip(&report.results) {
        assert_eq!(*got, audit_config(cfg, None));
    }
}

#[test]
fn sweep_at_sixteen_equals_auditing_each_config_alone() {
    assert_sweep_equals_per_config(&[16]);
}

/// The CLI's default grid (`spgemm audit --sweep`), 1824 configurations.
#[test]
#[ignore = "full grid: run with `--release -- --ignored`"]
fn full_sweep_equals_auditing_each_config_alone() {
    assert_sweep_equals_per_config(&[4, 16, 64, 256]);
}

/// FNV-1a over bytes: a dependency-free digest of a report's text.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One fault's pinned report: how many configurations it is applicable to
/// and violates, the violations per kind, the digest of every violation's
/// `config \t kind \t detail \t diff` line in report order, and the first
/// violation's detail verbatim.
struct Pinned {
    fault: AuditFault,
    violated: usize,
    kinds: &'static [(&'static str, usize)],
    digest: u64,
    first_detail: &'static str,
}

const PINNED: [Pinned; 4] = [
    Pinned {
        fault: AuditFault::SkipWait,
        violated: 180,
        kinds: &[
            ("ScheduleDivergence", 120),
            ("HandleDiscipline", 180),
            ("Deadlock", 120),
        ],
        digest: 0x06ed_4896_7494_5403,
        first_detail: "comm 0x4855449994280cc7 operation 7: rank 3 records wait seq 4 but \
                       rank 15 records <end of trace>",
    },
    Pinned {
        fault: AuditFault::WrongFetchTag,
        violated: 120,
        kinds: &[("Deadlock", 120)],
        digest: 0xe017_b43b_590f_47b3,
        first_detail: "16 of 16 ranks can never progress: rank 0 at event 9: bcast on comm \
                       0x5df0b4219f6e087 seq 2 root 1 (3000000 B); rank 1 at event 6: recv \
                       from rank 0 (comm 0x711f20ccaacf8e24, tag 0xfe000000000002); rank 2 at \
                       event 7: recv from rank 1 (comm 0x711f20ccaacf8e24, tag \
                       0xfe000000000003); rank 3 at event 5: bcast on comm 0x4855449994280cc7 \
                       seq 2 root 1 (3000000 B) (and 12 more)",
    },
    Pinned {
        fault: AuditFault::SkipCollective,
        violated: 396,
        kinds: &[("ScheduleDivergence", 396), ("Deadlock", 396)],
        digest: 0x6228_ed15_f24e_a42b,
        first_detail: "comm 0xca13bab3681195c5 operation 0: rank 0 records bcast seq 1 root \
                       Some(0) but rank 15 records bcast seq 2 root Some(0)",
    },
    Pinned {
        fault: AuditFault::WrongRoot,
        violated: 396,
        kinds: &[("ScheduleDivergence", 396)],
        digest: 0x2cd3_7a82_8c0a_d8c5,
        first_detail: "comm 0xca13bab3681195c5 operation 0: rank 0 records bcast seq 1 root \
                       Some(0) but rank 15 records bcast seq 1 root Some(1)",
    },
];

/// What the verifier reports on one injected fault, in the shape of
/// [`Pinned`].
fn observe(fault: AuditFault) -> (usize, Vec<(String, usize)>, u64, String) {
    let report = sweep(&[16], Some(fault));
    let violated = report.violations();
    let mut kinds: Vec<(String, usize)> = Vec::new();
    let mut text = String::new();
    for (label, vs) in &violated {
        for v in *vs {
            let kind = v.kind.to_string();
            match kinds.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => kinds.push((kind.clone(), 1)),
            }
            text.push_str(&format!(
                "{label}\t{kind}\t{}\t{}\n",
                v.detail,
                v.diff.as_deref().unwrap_or("")
            ));
        }
    }
    let first_detail = report
        .results
        .iter()
        .find_map(|r| match &r.outcome {
            ConfigOutcome::Violated(vs) => Some(vs[0].detail.clone()),
            _ => None,
        })
        .unwrap_or_default();
    (violated.len(), kinds, fnv1a(text.as_bytes()), first_detail)
}

#[test]
fn injected_fault_reports_at_sixteen_are_pinned() {
    let observed: Vec<_> = PINNED.iter().map(|pin| observe(pin.fault)).collect();
    for (pin, (violated, kinds, digest, first)) in PINNED.iter().zip(&observed) {
        println!(
            "{:?}: violated {violated}, kinds {kinds:?}, digest {digest:#018x}, first {first:?}",
            pin.fault
        );
    }
    for (pin, (violated, kinds, digest, first)) in PINNED.iter().zip(observed) {
        let fault = pin.fault;
        assert_eq!(
            violated, pin.violated,
            "{fault:?}: violating configurations"
        );
        let want: Vec<(String, usize)> =
            pin.kinds.iter().map(|&(k, n)| (k.to_string(), n)).collect();
        assert_eq!(kinds, want, "{fault:?}: violations per kind");
        assert_eq!(first, pin.first_detail, "{fault:?}: first report");
        assert_eq!(digest, pin.digest, "{fault:?}: report digest");
    }
}
