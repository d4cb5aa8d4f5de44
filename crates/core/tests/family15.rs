//! Cross-family conformance: the 1.5D ColA/InnerABC SpMM drivers must
//! produce output bit-identical to 2D SUMMA for the same sparse-dense
//! product, across semirings, replication factors, and backends.
//!
//! Exactness discipline: comparisons use semirings whose arithmetic is
//! order-independent at the tested values — `u64`/small-integer-`f64`
//! plus-times (exact adds) and idempotent min-plus — so "bit-identical"
//! is well-defined even though the families accumulate in different
//! orders. `SPGEMM_CHECK=1` in CI turns on the collective-protocol
//! checker, vetting the new ring/team communicators.

use spgemm_core::{run_spgemm, run_spmm, AlgorithmFamily, BackendKind, CoreError, RunConfig};
use spgemm_sparse::gen::er_random;
use spgemm_sparse::semiring::{MinPlusF64, PlusTimesF64, PlusTimesU64};
use spgemm_sparse::DenseBlock;

fn small_int_dense(nrows: usize, ncols: usize, seed: u64) -> DenseBlock<f64> {
    DenseBlock::from_fn(nrows, ncols, |i, j| {
        ((i * 31 + j * 17 + seed as usize) % 7) as f64 + 1.0
    })
}

fn cfg_for(p: usize, family: AlgorithmFamily, backend: BackendKind) -> RunConfig {
    let mut cfg = RunConfig::new(p, 1);
    cfg.algorithm = family;
    cfg.backend = backend;
    cfg
}

/// All 1.5D members valid at `p = 16` that the suite sweeps.
fn families_under_test() -> Vec<AlgorithmFamily> {
    vec![
        AlgorithmFamily::ColA15 { c: 1 },
        AlgorithmFamily::ColA15 { c: 2 },
        AlgorithmFamily::ColA15 { c: 4 },
        AlgorithmFamily::InnerAbc15 { c: 1 },
        AlgorithmFamily::InnerAbc15 { c: 2 },
        AlgorithmFamily::InnerAbc15 { c: 4 },
    ]
}

#[test]
fn families_match_summa2d_u64_exact() {
    let p = 16;
    let a = er_random::<PlusTimesU64>(37, 29, 4, 901).map(|_| 3u64);
    let b = DenseBlock::from_fn(29, 11, |i, j| ((i * 13 + j * 7) % 5) as u64);
    let reference = run_spmm::<PlusTimesU64>(
        &cfg_for(p, AlgorithmFamily::Summa2d, BackendKind::Simgrid),
        &a,
        &b,
    )
    .unwrap()
    .c
    .unwrap();
    for family in families_under_test() {
        for backend in [BackendKind::Simgrid, BackendKind::Native { threads: 2 }] {
            let out =
                run_spmm::<PlusTimesU64>(&cfg_for(p, family, backend), &a, &b).unwrap();
            assert_eq!(out.algorithm, family);
            assert_eq!(
                out.c.as_ref().unwrap(),
                &reference,
                "{} on {} disagrees with summa2d",
                family.label(),
                backend.name()
            );
        }
    }
}

#[test]
fn families_match_summa2d_f64_small_ints() {
    let p = 16;
    let a = er_random::<PlusTimesF64>(40, 32, 3, 902).map(|v| (v * 4.0).round() + 1.0);
    let b = small_int_dense(32, 9, 3);
    let reference = run_spmm::<PlusTimesF64>(
        &cfg_for(p, AlgorithmFamily::Summa2d, BackendKind::Simgrid),
        &a,
        &b,
    )
    .unwrap()
    .c
    .unwrap();
    for family in families_under_test() {
        let out = run_spmm::<PlusTimesF64>(
            &cfg_for(p, family, BackendKind::Simgrid),
            &a,
            &b,
        )
        .unwrap();
        assert_eq!(
            out.c.as_ref().unwrap(),
            &reference,
            "{} disagrees with summa2d",
            family.label()
        );
    }
}

#[test]
fn families_match_summa2d_minplus_idempotent() {
    // Min-plus: ⊕ = min is idempotent and order-independent; ⊗ = + is
    // exact on small integers. The densified zero is +∞.
    let p = 16;
    let a = er_random::<MinPlusF64>(30, 30, 4, 903).map(|v| (v * 9.0).round());
    let b = DenseBlock::from_fn(30, 8, |i, j| ((i * 11 + j * 5) % 13) as f64);
    let reference = run_spmm::<MinPlusF64>(
        &cfg_for(p, AlgorithmFamily::Summa2d, BackendKind::Simgrid),
        &a,
        &b,
    )
    .unwrap()
    .c
    .unwrap();
    for family in families_under_test() {
        let out =
            run_spmm::<MinPlusF64>(&cfg_for(p, family, BackendKind::Simgrid), &a, &b).unwrap();
        assert_eq!(
            out.c.as_ref().unwrap(),
            &reference,
            "{} disagrees with summa2d",
            family.label()
        );
    }
}

#[test]
fn spgemm_entry_routes_15d_and_matches() {
    // run_spgemm with a 1.5D family densifies B honestly and re-sparsifies
    // the product; the result must match the batched pipeline exactly.
    let a = er_random::<PlusTimesU64>(24, 24, 3, 904).map(|_| 2u64);
    let b = er_random::<PlusTimesU64>(24, 24, 3, 905).map(|_| 1u64);
    let reference = run_spgemm::<PlusTimesU64>(&RunConfig::new(16, 4), &a, &b)
        .unwrap()
        .c
        .unwrap();
    let mut cfg = RunConfig::new(16, 1);
    cfg.algorithm = AlgorithmFamily::ColA15 { c: 2 };
    let out = run_spgemm::<PlusTimesU64>(&cfg, &a, &b).unwrap();
    assert!(out.c.unwrap().eq_modulo_order(&reference));
    assert_eq!(out.nbatches, 1);
}

#[test]
fn awkward_shapes_and_degenerate_stripes() {
    // d < p leaves some ranks with empty stripes; n_inner < t leaves some
    // A blocks empty. Both must still conform.
    let p = 16;
    let a = er_random::<PlusTimesU64>(11, 7, 2, 906).map(|_| 5u64);
    let b = DenseBlock::from_fn(7, 3, |i, j| ((i + j) % 4) as u64);
    let reference = run_spmm::<PlusTimesU64>(
        &cfg_for(p, AlgorithmFamily::Summa2d, BackendKind::Simgrid),
        &a,
        &b,
    )
    .unwrap()
    .c
    .unwrap();
    for family in families_under_test() {
        let out =
            run_spmm::<PlusTimesU64>(&cfg_for(p, family, BackendKind::Simgrid), &a, &b).unwrap();
        assert_eq!(
            out.c.as_ref().unwrap(),
            &reference,
            "{} fails on degenerate shapes",
            family.label()
        );
    }
}

#[test]
fn shift_traffic_falls_with_innerabc_replication() {
    // The cost story in one assert pair: InnerABC's per-rank A-Shift
    // bytes shrink ~c²-fold, while ColA's stay ≈ flat (its replication
    // buys latency rounds, not bytes).
    use spgemm_simgrid::Step;
    let p = 16;
    let a = er_random::<PlusTimesU64>(64, 64, 6, 907).map(|_| 1u64);
    let b = DenseBlock::from_fn(64, 16, |i, j| ((i + j) % 3) as u64);
    let shift_bytes = |family: AlgorithmFamily| {
        run_spmm::<PlusTimesU64>(&cfg_for(p, family, BackendKind::Simgrid), &a, &b)
            .unwrap()
            .max
            .bytes_of(Step::AShift)
    };
    let iabc1 = shift_bytes(AlgorithmFamily::InnerAbc15 { c: 1 });
    let iabc4 = shift_bytes(AlgorithmFamily::InnerAbc15 { c: 4 });
    assert!(
        (iabc4 as f64) < iabc1 as f64 / 4.0,
        "InnerABC c=4 should cut shift bytes ≳4x: {iabc1} -> {iabc4}"
    );
    let cola1 = shift_bytes(AlgorithmFamily::ColA15 { c: 1 });
    let cola4 = shift_bytes(AlgorithmFamily::ColA15 { c: 4 });
    assert!(
        cola4 as f64 > cola1 as f64 / 2.0,
        "ColA shift bytes should stay near-flat in c: {cola1} -> {cola4}"
    );
}

#[test]
fn team_reduce_moves_only_the_kept_slice() {
    // InnerABC's C-Reduce is a reduce-scatter: team member `k` receives
    // only rows `block_range(m, c, k)` of its stripe from each of the other
    // `c − 1` members. 37 rows split unevenly in two and in four.
    use spgemm_simgrid::Step;
    use spgemm_sparse::ops::block_range;
    let (p, m, d) = (16, 37, 23);
    let a = er_random::<PlusTimesU64>(m, 29, 4, 912).map(|_| 2u64);
    let b = DenseBlock::from_fn(29, d, |i, j| ((i * 7 + j * 3) % 5) as u64);
    for c in [2, 4] {
        let t = p / c;
        let out = run_spmm::<PlusTimesU64>(
            &cfg_for(p, AlgorithmFamily::InnerAbc15 { c }, BackendKind::Simgrid),
            &a,
            &b,
        )
        .unwrap();
        for (g, breakdown) in out.per_rank.iter().enumerate() {
            let stripe = block_range(d, t, g % t);
            let rows = block_range(m, c, g / t);
            let slice_bytes = rows.len() * stripe.len() * std::mem::size_of::<u64>();
            assert_eq!(
                breakdown.bytes_of(Step::CReduce),
                ((c - 1) * slice_bytes) as u64,
                "c={c} rank {g}: rows {rows:?} of stripe {stripe:?}"
            );
        }
    }
}

#[test]
fn innerabc_assembles_uneven_and_empty_row_slices() {
    // At c = 4 the team members keep rows `block_range(m, 4, k)`: uneven
    // when 4 ∤ m, and empty for some members when m < 4. The root must
    // write each gathered block into its own rows — a gather that writes
    // whole columns loses the other members' rows.
    let p = 16;
    let family = AlgorithmFamily::InnerAbc15 { c: 4 };
    for (m, n, d, seed) in [(1, 9, 6, 913), (3, 8, 5, 914), (6, 12, 9, 915), (37, 20, 11, 916)] {
        let a = er_random::<PlusTimesU64>(m, n, 3, seed).map(|_| 7u64);
        let b = DenseBlock::from_fn(n, d, |i, j| ((i * 5 + j * 11) % 6) as u64 + 1);
        let reference = run_spmm::<PlusTimesU64>(
            &cfg_for(p, AlgorithmFamily::Summa2d, BackendKind::Simgrid),
            &a,
            &b,
        )
        .unwrap()
        .c
        .unwrap();
        for backend in [BackendKind::Simgrid, BackendKind::Native { threads: 2 }] {
            let out = run_spmm::<PlusTimesU64>(&cfg_for(p, family, backend), &a, &b).unwrap();
            assert_eq!(
                out.c.as_ref().unwrap(),
                &reference,
                "innerabc(c=4) on {m}x{n} · {n}x{d} ({})",
                backend.name()
            );
        }
    }
}

#[test]
fn budget_admission_counts_replication() {
    // A budget that fits c=1 can be blown by the replicated dense stripes
    // + A blocks at c=4; the driver must refuse admission, naming bytes.
    use spgemm_core::MemoryBudget;
    let p = 16;
    let a = er_random::<PlusTimesU64>(256, 256, 8, 908).map(|_| 1u64);
    let b = DenseBlock::from_fn(256, 64, |i, j| ((i + j) % 3) as u64);
    let mut cfg = cfg_for(p, AlgorithmFamily::InnerAbc15 { c: 4 }, BackendKind::Simgrid);
    let fit = run_spmm::<PlusTimesU64>(&cfg, &a, &b).unwrap();
    let worst = *fit.peak_bytes.iter().max().unwrap();
    cfg.budget = MemoryBudget::new(worst * p / 2);
    match run_spmm::<PlusTimesU64>(&cfg, &a, &b) {
        Err(CoreError::InputsExceedMemory {
            needed_bytes,
            budget_bytes,
        }) => {
            assert!(needed_bytes > budget_bytes);
        }
        other => panic!("expected admission failure, got {other:?}"),
    }
}

#[test]
fn non_15d_rejected_by_driver_and_bad_c_by_harness() {
    let a = er_random::<PlusTimesU64>(8, 8, 2, 909).map(|_| 1u64);
    let b = DenseBlock::from_fn(8, 4, |i, j| (i + j) as u64);
    // c that does not divide p fails with an error naming the pair.
    let cfg = cfg_for(6, AlgorithmFamily::ColA15 { c: 4 }, BackendKind::Simgrid);
    let err = run_spmm::<PlusTimesU64>(&cfg, &a, &b).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("p=6") && msg.contains("c=4"), "{msg}");
    // Dimension mismatch caught before any cluster spawns.
    let bad_b = DenseBlock::from_fn(9, 4, |_, _| 0u64);
    let cfg = cfg_for(4, AlgorithmFamily::ColA15 { c: 2 }, BackendKind::Simgrid);
    assert!(matches!(
        run_spmm::<PlusTimesU64>(&cfg, &a, &bad_b),
        Err(CoreError::Config(_))
    ));
}

#[test]
fn summa_families_answer_spmm_too() {
    // The SUMMA side of run_spmm: sparsify-multiply-densify equals the
    // dense reference from the 1.5D side.
    let p = 16;
    let a = er_random::<PlusTimesU64>(20, 18, 3, 910).map(|_| 4u64);
    let b = DenseBlock::from_fn(18, 6, |i, j| ((i * 3 + j) % 5) as u64);
    let via_cola = run_spmm::<PlusTimesU64>(
        &cfg_for(p, AlgorithmFamily::ColA15 { c: 2 }, BackendKind::Simgrid),
        &a,
        &b,
    )
    .unwrap()
    .c
    .unwrap();
    let via_3d = run_spmm::<PlusTimesU64>(
        &cfg_for(p, AlgorithmFamily::Summa3dBatched, BackendKind::Simgrid),
        &a,
        &b,
    )
    .unwrap()
    .c
    .unwrap();
    assert_eq!(via_cola, via_3d);
}

#[test]
fn discard_output_returns_none_everywhere() {
    let a = er_random::<PlusTimesU64>(16, 16, 2, 911).map(|_| 1u64);
    let b = DenseBlock::from_fn(16, 4, |i, j| (i * j % 3) as u64);
    let mut cfg = cfg_for(8, AlgorithmFamily::ColA15 { c: 2 }, BackendKind::Simgrid);
    cfg.discard_output = true;
    let out = run_spmm::<PlusTimesU64>(&cfg, &a, &b).unwrap();
    assert!(out.c.is_none());
    assert!(out.peak_bytes.iter().all(|&pk| pk > 0));
}

// ---------------------------------------------------------------------------
// Golden rows: the bits a change to the dense kernel or the drivers' data
// movement must leave alone.
// ---------------------------------------------------------------------------

/// FNV-1a over a stream of 64-bit words.
fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `family keep|drop | C bits | critical-path total bits | bytes | messages |
/// max peak | per-rank peaks | flops`.
fn golden_table() -> String {
    use spgemm_sparse::gen::rmat;
    // Values whose sum depends on the order of the additions: 1.0 is lost
    // beside ±1e16 unless the big terms cancel first.
    let a = rmat::<PlusTimesF64>(10, 8, None, false, 2021).map(|v| {
        if v < 0.5 {
            1.0
        } else if v < 0.75 {
            1e16
        } else {
            -1e16
        }
    });
    // ~10 % exact zeros and some -0.0, both of which the kernel must skip.
    let b = DenseBlock::from_fn(1024, 40, |i, j| match (i * 31 + j * 17 + i * j) % 20 {
        0 | 1 => 0.0,
        2 => -0.0,
        3..=10 => 1.0,
        11..=15 => 1e16,
        _ => -1e16,
    });
    let families = [
        AlgorithmFamily::ColA15 { c: 1 },
        AlgorithmFamily::ColA15 { c: 2 },
        AlgorithmFamily::ColA15 { c: 4 },
        AlgorithmFamily::InnerAbc15 { c: 2 },
        AlgorithmFamily::InnerAbc15 { c: 4 },
    ];
    let mut rows = Vec::new();
    for family in families {
        for discard in [false, true] {
            // The table is modeled, whatever SPGEMM_BACKEND says.
            let mut cfg = cfg_for(16, family, BackendKind::Simgrid);
            cfg.discard_output = discard;
            let out = run_spmm::<PlusTimesF64>(&cfg, &a, &b).unwrap();
            assert_eq!(out.c.is_none(), discard);
            let c_bits = out.c.as_ref().map_or_else(
                || "-".to_string(),
                |c| format!("{:016x}", fnv64(c.data().iter().map(|v| v.to_bits()))),
            );
            rows.push(format!(
                "{} {} | {c_bits} | {:016x} | {} | {} | {} | {:016x} | {}",
                family.label(),
                if discard { "drop" } else { "keep" },
                out.max.total().to_bits(),
                out.max.bytes_total(),
                out.max.msgs.iter().sum::<u64>(),
                out.peak_bytes.iter().max().unwrap(),
                fnv64(out.peak_bytes.iter().map(|&p| p as u64)),
                out.kernel_stats.flops,
            ));
        }
    }
    rows.join("\n")
}

/// The table as printed since the A-shift blocks began to travel as coded
/// blocks (the fetch reply's wire format behind their own nonempty column
/// ids).
///
/// Rule for regenerating it: a change may move a column only where it moves
/// data or work, and says which in its description. The `C` column is the
/// product and never moves. The last regeneration kept the `C`, message,
/// max peak, peak FNV and flops columns on every row, and both
/// `innerabc(c=4)` rows character for character (one round, so no shift);
/// it moved only the critical-path total and the bytes (coded A-shift
/// blocks). The one before it, when the InnerABC reduction became a
/// reduce-scatter over row slices of the stripe, left every `cola` row and
/// moved the `innerabc` totals, bytes, peaks and flops.
const GOLDEN: &str = "\
cola(c=1) keep | c0a61032db1ad286 | 3f36a9cd218f7ae6 | 62590 | 17 | 141456 | ee3f16c50a742182 | 238672\n\
cola(c=1) drop | - | 3f36a9cd218f7ae6 | 62590 | 17 | 141456 | ee3f16c50a742182 | 238672\n\
cola(c=2) keep | c85b9d544b2f7252 | 3f28975cd4eeb0d2 | 61727 | 9 | 177024 | 316669519f012aad | 238672\n\
cola(c=2) drop | - | 3f28975cd4eeb0d2 | 61727 | 9 | 177024 | 316669519f012aad | 238672\n\
cola(c=4) keep | 20dac3f747df2b10 | 3f1c704d08e113f1 | 58356 | 5 | 224880 | 28744d46a0301695 | 238672\n\
cola(c=4) drop | - | 3f1c704d08e113f1 | 58356 | 5 | 224880 | 28744d46a0301695 | 238672\n\
innerabc(c=2) keep | b338f731f9e4897d | 3f223c1e95c3cda1 | 63465 | 6 | 209792 | ca5339a9c58b6b21 | 279632\n\
innerabc(c=2) drop | - | 3f223c1e95c3cda1 | 63465 | 6 | 209792 | ca5339a9c58b6b21 | 279632\n\
innerabc(c=4) keep | 1ceb660478f566dd | 3f1b377250f42d2e | 61440 | 3 | 251704 | e8a83597071fcc9d | 361552\n\
innerabc(c=4) drop | - | 3f1b377250f42d2e | 61440 | 3 | 251704 | e8a83597071fcc9d | 361552";

#[test]
fn golden_rows_are_unchanged() {
    let actual = golden_table();
    assert_eq!(actual, GOLDEN, "the table is now:\n{actual}\n");
}
