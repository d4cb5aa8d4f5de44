//! Sparse exchange vs dense broadcast: modeled A-movement volume.
//!
//! Not a paper figure — the companion experiment to the exchange layer
//! (DESIGN.md §11). On hypersparse A·Aᵀ each receiver's needed-row set
//! covers a small fraction of the stage owner's A block, so the
//! point-to-point fetch (gap-coded varint column lists out, varint-indexed
//! column-subset tiles back) moves far fewer modeled bytes than
//! broadcasting whole blocks.
//! The byte cut is largest at small `l` (big process rows keep the
//! needed fraction tiny) and shrinks as stage blocks do, but should
//! stay >=2x from l=4 up; the *time* win runs the other way (see
//! DESIGN.md section 11).
//!
//! Volume convention: the broadcast records its payload at every member
//! (q records per (q-1)-delivery tree), and each fetch message is
//! recorded at both endpoints, so raw per-rank sums are normalised to
//! *delivered* bytes before comparing.

use spgemm_bench::{measure_f64, write_csv};
use spgemm_core::{ExchangeMode, RunConfig};
use spgemm_simgrid::{Machine, Step, StepBreakdown};
use spgemm_sparse::gen::rmat;
use spgemm_sparse::ops::transpose;
use spgemm_sparse::semiring::PlusTimesF64;

/// Modeled bytes actually delivered to move A, normalised per the
/// recording convention above.
fn a_volume(per_rank: &[StepBreakdown], mode: ExchangeMode, pr: usize) -> f64 {
    match mode {
        ExchangeMode::DenseBcast => {
            let sum: u64 = per_rank.iter().map(|b| b.bytes_of(Step::ABcast)).sum();
            sum as f64 * (pr - 1) as f64 / pr as f64
        }
        ExchangeMode::SparseFetch => {
            let sum: u64 = per_rank
                .iter()
                .map(|b| b.bytes_of(Step::FetchRequest) + b.bytes_of(Step::FetchReply))
                .sum();
            sum as f64 / 2.0
        }
    }
}

fn main() {
    // Hypersparse square: RMAT at edge factor 1 leaves most columns
    // empty and concentrates the rest, so needed sets stay tiny.
    let a = rmat::<PlusTimesF64>(12, 1, None, false, 5);
    let b = transpose(&a);
    let p = 64;
    println!(
        "Sparse exchange vs dense broadcast: A*At, RMAT scale 12 ef 1 \
         (n={}, nnz={}) on p={p}\n",
        a.nrows(),
        a.nnz()
    );
    println!(
        "{:>4} {:>4} {:>14} {:>14} {:>7}",
        "l", "pr", "dense A(B)", "sparse A(B)", "cut"
    );
    let mut csv = String::from("l,pr,dense_a_bytes,sparse_a_bytes,cut\n");
    let mut cut_at_4_up = f64::INFINITY;
    for l in [1usize, 4, 16] {
        let pr = ((p / l) as f64).sqrt() as usize;
        let mut vols = [0.0f64; 2];
        for (slot, mode) in [ExchangeMode::DenseBcast, ExchangeMode::SparseFetch]
            .into_iter()
            .enumerate()
        {
            let mut cfg = RunConfig::new(p, l);
            cfg.machine = Machine::knl_mini();
            cfg.forced_batches = Some(4);
            cfg.exchange = mode;
            let out = measure_f64(&cfg, &a, &b);
            vols[slot] = a_volume(&out.per_rank, mode, pr);
        }
        let cut = vols[0] / vols[1];
        if l >= 4 {
            cut_at_4_up = cut_at_4_up.min(cut);
        }
        println!(
            "{l:>4} {pr:>4} {:>14.0} {:>14.0} {cut:>6.2}x",
            vols[0], vols[1]
        );
        csv.push_str(&format!("{l},{pr},{:.0},{:.0},{cut:.3}\n", vols[0], vols[1]));
    }
    write_csv("fig_sparse_exchange.csv", &csv);
    println!(
        "\nminimum cut at l>=4: {cut_at_4_up:.2}x (target >=2x) — {}",
        if cut_at_4_up >= 2.0 { "OK" } else { "BELOW TARGET" }
    );
}
