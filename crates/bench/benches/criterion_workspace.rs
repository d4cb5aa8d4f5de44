//! Workspace-reuse benchmark: allocation counts and real time of the
//! batched local pipeline (Table VII-style workload) with and without a
//! long-lived [`SpGemmWorkspace`].
//!
//! A counting `#[global_allocator]` measures *actual* heap traffic: every
//! `alloc`/`realloc` the process performs is one event. One "batched
//! multiply" below is what a rank runs per batch of BatchedSUMMA3D —
//! `√p` stage multiplies, one Merge-Layer, one (sorted) Merge-Fiber — and
//! the benchmark compares throwaway scratch (`&mut []`: a fresh workspace
//! per call, the pre-workspace behaviour) against one warm workspace reused
//! across all calls and batches. The workspace path only pays the
//! unavoidable exact-size output copies; all scratch is reused.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use spgemm_sparse::gen::rmat;
use spgemm_sparse::merge::{merge_hash_sorted, merge_hash_unsorted};
use spgemm_sparse::ops::{col_block, row_block};
use spgemm_sparse::semiring::PlusTimesF64;
use spgemm_sparse::spgemm::spgemm_hash_unsorted;
use spgemm_sparse::{CscMatrix, SpGemmWorkspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting allocation events (alloc + realloc;
/// frees are not events — the metric is how often kernels *hit* the
/// allocator, which is what workspace reuse eliminates).
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// Stage operands for one batch: `stages` column/row slabs of an
/// R-MAT square (protein-similarity-like skew, cf. Table V).
fn stage_operands(a: &CscMatrix<f64>, stages: usize) -> Vec<(CscMatrix<f64>, CscMatrix<f64>)> {
    use spgemm_sparse::ops::block_range;
    (0..stages)
        .map(|s| {
            let r = block_range(a.ncols(), stages, s);
            (col_block(a, r.clone()), row_block(a, r))
        })
        .collect()
}

/// One batched multiply on `scratch`: `&mut []` gives every call a
/// throwaway workspace (the pre-workspace behaviour), one long-lived arena
/// is what a rank's `LocalKernels` holds.
fn batch(
    stages: &[(CscMatrix<f64>, CscMatrix<f64>)],
    scratch: &mut [SpGemmWorkspace<f64>],
) -> CscMatrix<f64> {
    let partials: Vec<_> = stages
        .iter()
        .map(|(l, r)| spgemm_hash_unsorted::<PlusTimesF64>(l, r, scratch).unwrap().0)
        .collect();
    let (layer, ..) = merge_hash_unsorted::<PlusTimesF64>(&partials, scratch).unwrap();
    let (fiber, ..) =
        merge_hash_sorted::<PlusTimesF64>(std::slice::from_ref(&layer), scratch).unwrap();
    fiber
}

fn report_alloc_counts(stages: &[(CscMatrix<f64>, CscMatrix<f64>)]) {
    const BATCHES: u64 = 16;
    // Both paths materialize the same six outputs per batch (4 stage
    // partials + layer merge + fiber merge), each costing exactly three
    // exact-size copies (colptr/rowidx/vals), plus one partials Vec. The
    // scratch metric below subtracts this floor — it is the part workspace
    // reuse is *supposed* to eliminate (tables, heaps, arenas).
    let calls_per_batch = stages.len() as u64 + 2;
    let output_floor = BATCHES * (3 * calls_per_batch + 1);

    let before = alloc_events();
    for _ in 0..BATCHES {
        black_box(batch(stages, &mut []));
    }
    let allocating = alloc_events() - before;

    let mut ws = [SpGemmWorkspace::<f64>::new()];
    // Warm-up batch: grows the arenas to steady-state capacity. Not
    // counted — per-rank workspaces in the distributed run warm up once
    // and serve hundreds of stage multiplies (Fig. 4 sweeps b up to 64).
    black_box(batch(stages, &mut ws));
    let before = alloc_events();
    for _ in 0..BATCHES {
        black_box(batch(stages, &mut ws));
    }
    let reused = alloc_events() - before;

    let total_ratio = allocating as f64 / reused.max(1) as f64;
    let scratch_alloc = allocating.saturating_sub(output_floor);
    let scratch_reuse = reused.saturating_sub(output_floor);
    let scratch_ratio = scratch_alloc as f64 / scratch_reuse.max(1) as f64;
    println!(
        "heap allocation events over {BATCHES} batched multiplies \
         ({} stages + layer merge + fiber merge each):",
        stages.len()
    );
    println!(
        "  fresh workspace per call : {allocating:>8} total ({:.1}/batch; {:.1} scratch)",
        allocating as f64 / BATCHES as f64,
        scratch_alloc as f64 / BATCHES as f64
    );
    println!(
        "  one reused workspace     : {reused:>8} total ({:.1}/batch; {:.1} scratch)",
        reused as f64 / BATCHES as f64,
        scratch_reuse as f64 / BATCHES as f64
    );
    println!(
        "  reduction                : {total_ratio:.1}x total, {scratch_ratio:.1}x scratch \
         (target >=10x scratch)"
    );
    assert!(
        scratch_ratio >= 10.0,
        "workspace reuse must cut scratch allocation events >=10x, got {scratch_ratio:.1}x"
    );
    // The reused path must be at the output floor: zero scratch events in
    // steady state (every event is an exact-size output copy).
    assert!(
        reused <= output_floor,
        "steady-state reuse should be allocation-free beyond output copies: \
         {reused} events vs floor {output_floor}"
    );
}

fn bench_workspace(c: &mut Criterion) {
    let a = rmat::<PlusTimesF64>(11, 8, None, true, 7);
    let stages = stage_operands(&a, 4);

    report_alloc_counts(&stages);

    let mut group = c.benchmark_group("workspace_batch");
    group.sample_size(10);
    group.bench_function("fresh-workspace-per-call", |b| {
        b.iter(|| batch(&stages, &mut []));
    });
    let mut ws = [SpGemmWorkspace::<f64>::new()];
    batch(&stages, &mut ws); // warm
    group.bench_function("reused-workspace", |b| {
        b.iter(|| batch(&stages, &mut ws));
    });
    group.finish();
}

criterion_group!(benches, bench_workspace);
criterion_main!(benches);
