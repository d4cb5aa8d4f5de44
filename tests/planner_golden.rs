//! The planner's predictions, pinned bit for bit.
//!
//! `policy_golden`'s 96×96 matrix squared at `p = 16`, under a tight
//! budget (twice the two input copies: some candidates batch, some cannot
//! fit their inputs or one output column), that table's ×3 budget and an
//! unlimited one, through the default search space and through one
//! plan over every family `AlgorithmFamily::sweep(16)` opens. Each ranked
//! candidate prints `label | batches | peak bytes/proc | total_s bits |
//! bandwidth_s bits`. Its memory terms (Alg. 3's `b`, the per-process
//! peak, the infeasible verdicts) and the seconds they feed become the
//! benchmark's simulated planner metrics, so a rewrite of that arithmetic
//! must leave every character of [`GOLDEN`] alone.

use spgemm_core::planner::{plan, PlannerConfig};
use spgemm_core::{AlgorithmFamily, MemoryBudget};
use spgemm_simgrid::Machine;
use spgemm_sparse::gen::clustered_similarity;

const P: usize = 16;

fn table() -> String {
    let m = clustered_similarity(4, 24, 6, 1, 2021);
    assert_eq!((m.nrows(), m.ncols()), (96, 96));
    let inputs = m.nnz() * 24 * 2;
    let budgets = [
        ("tight", MemoryBudget::new(inputs * 2)),
        ("x3", MemoryBudget::new(inputs * 3)),
        ("unlimited", MemoryBudget::unlimited()),
    ];
    let mut rows = Vec::new();
    for (name, budget) in budgets {
        let default = PlannerConfig::new(Machine::knl(), budget);
        let all_families = PlannerConfig {
            families: AlgorithmFamily::sweep(P),
            ..default.clone()
        };
        for (space, cfg) in [("default", default), ("sweep", all_families)] {
            for c in plan(P, &m, &m, &cfg).unwrap().ranked {
                rows.push(format!(
                    "{name} {space} {} | {} | {} | {:016x} | {:016x}",
                    c.candidate.label(),
                    c.batches,
                    c.peak_bytes_per_proc,
                    c.total_s.to_bits(),
                    c.bandwidth_s.to_bits(),
                ));
            }
        }
    }
    rows.join("\n")
}

const GOLDEN: &str = "\
tight default l=16 new overlapped sparse | 7 | 7275 | 3f668ea20578f242 | 3ee78217a9f4df07\n\
tight default l=16 new blocking sparse | 7 | 7275 | 3f668fe1e9061801 | 3ee78217a9f4df07\n\
tight default l=16 prev overlapped sparse | 7 | 7275 | 3f6694c6d8c8c89a | 3ee78217a9f4df07\n\
tight default l=16 prev blocking sparse | 7 | 7275 | 3f669627ae1cb0fc | 3ee78217a9f4df07\n\
tight default l=16 new overlapped dense | 7 | 7275 | 3f66a025f79ca1db | 3ef36ac5c497425a\n\
tight default l=16 new blocking dense | 7 | 7275 | 3f66a165db29c79a | 3ef36ac5c497425a\n\
tight default l=16 prev overlapped dense | 7 | 7275 | 3f66a64acaec7833 | 3ef36ac5c497425a\n\
tight default l=16 prev blocking dense | 7 | 7275 | 3f66a7aba0406095 | 3ef36ac5c497425a\n\
tight default l=1 new blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight default l=1 new blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight default l=1 new overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight default l=1 new overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight default l=1 prev blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight default l=1 prev blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight default l=1 prev overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight default l=1 prev overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight default l=4 new blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight default l=4 new blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight default l=4 new overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight default l=4 new overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight default l=4 prev blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight default l=4 prev blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight default l=4 prev overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight default l=4 prev overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=16 new overlapped sparse | 7 | 7275 | 3f668ea20578f242 | 3ee78217a9f4df07\n\
tight sweep l=16 new blocking sparse | 7 | 7275 | 3f668fe1e9061801 | 3ee78217a9f4df07\n\
tight sweep l=16 prev overlapped sparse | 7 | 7275 | 3f6694c6d8c8c89a | 3ee78217a9f4df07\n\
tight sweep l=16 prev blocking sparse | 7 | 7275 | 3f669627ae1cb0fc | 3ee78217a9f4df07\n\
tight sweep l=16 new overlapped dense | 7 | 7275 | 3f66a025f79ca1db | 3ef36ac5c497425a\n\
tight sweep l=16 new blocking dense | 7 | 7275 | 3f66a165db29c79a | 3ef36ac5c497425a\n\
tight sweep l=16 prev overlapped dense | 7 | 7275 | 3f66a64acaec7833 | 3ef36ac5c497425a\n\
tight sweep l=16 prev blocking dense | 7 | 7275 | 3f66a7aba0406095 | 3ef36ac5c497425a\n\
tight sweep l=1 new blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=1 new blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=1 new overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=1 new overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=1 prev blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=1 prev blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=1 prev overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=1 prev overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=4 new blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=4 new blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=4 new overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=4 new overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=4 prev blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=4 prev blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=4 prev overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep l=4 prev overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep summa2d new blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep summa2d new blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep summa2d new overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep summa2d new overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep summa2d prev blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep summa2d prev blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep summa2d prev overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep summa2d prev overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep cola(c=1) | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep cola(c=2) | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep innerabc(c=2) | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep cola(c=4) | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep innerabc(c=4) | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
tight sweep cola(c=8) | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 default l=4 new overlapped dense | 6 | 10662 | 3f5a389c8affe434 | 3f008ed8e3840e3a\n\
x3 default l=4 new blocking dense | 6 | 10662 | 3f5a3b51841ea500 | 3f008ed8e3840e3a\n\
x3 default l=4 prev overlapped dense | 6 | 10662 | 3f5a3d746e6bf0b2 | 3f008ed8e3840e3a\n\
x3 default l=4 prev blocking dense | 6 | 10662 | 3f5a408f85f5f71e | 3f008ed8e3840e3a\n\
x3 default l=16 new overlapped sparse | 4 | 9598 | 3f5e5eb45f95482a | 3ee78217a9f4df07\n\
x3 default l=16 new blocking sparse | 4 | 9598 | 3f5e60e42dcc4a38 | 3ee78217a9f4df07\n\
x3 default l=16 prev overlapped sparse | 4 | 9598 | 3f5e6b0642a6a582 | 3ee78217a9f4df07\n\
x3 default l=16 prev blocking sparse | 4 | 9598 | 3f5e6d6fb7f97c2d | 3ee78217a9f4df07\n\
x3 default l=16 new overlapped dense | 4 | 9598 | 3f5e74994e41e3aa | 3ef022085de655b5\n\
x3 default l=16 new blocking dense | 4 | 9598 | 3f5e76c91c78e5b8 | 3ef022085de655b5\n\
x3 default l=16 prev overlapped dense | 4 | 9598 | 3f5e80eb31534102 | 3ef022085de655b5\n\
x3 default l=16 prev blocking dense | 4 | 9598 | 3f5e8354a6a617ad | 3ef022085de655b5\n\
x3 default l=4 new overlapped sparse | 6 | 10662 | 3f5ec4feab6d20d0 | 3efe8f6acc231595\n\
x3 default l=4 new blocking sparse | 6 | 10662 | 3f5ec7b3a48be19c | 3efe8f6acc231595\n\
x3 default l=4 prev overlapped sparse | 6 | 10662 | 3f5ec9d68ed92d4e | 3efe8f6acc231595\n\
x3 default l=4 prev blocking sparse | 6 | 10662 | 3f5eccf1a66333ba | 3efe8f6acc231595\n\
x3 default l=1 new blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 default l=1 new blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 default l=1 new overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 default l=1 new overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 default l=1 prev blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 default l=1 prev blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 default l=1 prev overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 default l=1 prev overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep l=4 new overlapped dense | 6 | 10662 | 3f5a389c8affe434 | 3f008ed8e3840e3a\n\
x3 sweep l=4 new blocking dense | 6 | 10662 | 3f5a3b51841ea500 | 3f008ed8e3840e3a\n\
x3 sweep l=4 prev overlapped dense | 6 | 10662 | 3f5a3d746e6bf0b2 | 3f008ed8e3840e3a\n\
x3 sweep l=4 prev blocking dense | 6 | 10662 | 3f5a408f85f5f71e | 3f008ed8e3840e3a\n\
x3 sweep l=16 new overlapped sparse | 4 | 9598 | 3f5e5eb45f95482a | 3ee78217a9f4df07\n\
x3 sweep l=16 new blocking sparse | 4 | 9598 | 3f5e60e42dcc4a38 | 3ee78217a9f4df07\n\
x3 sweep l=16 prev overlapped sparse | 4 | 9598 | 3f5e6b0642a6a582 | 3ee78217a9f4df07\n\
x3 sweep l=16 prev blocking sparse | 4 | 9598 | 3f5e6d6fb7f97c2d | 3ee78217a9f4df07\n\
x3 sweep l=16 new overlapped dense | 4 | 9598 | 3f5e74994e41e3aa | 3ef022085de655b5\n\
x3 sweep l=16 new blocking dense | 4 | 9598 | 3f5e76c91c78e5b8 | 3ef022085de655b5\n\
x3 sweep l=16 prev overlapped dense | 4 | 9598 | 3f5e80eb31534102 | 3ef022085de655b5\n\
x3 sweep l=16 prev blocking dense | 4 | 9598 | 3f5e8354a6a617ad | 3ef022085de655b5\n\
x3 sweep l=4 new overlapped sparse | 6 | 10662 | 3f5ec4feab6d20d0 | 3efe8f6acc231595\n\
x3 sweep l=4 new blocking sparse | 6 | 10662 | 3f5ec7b3a48be19c | 3efe8f6acc231595\n\
x3 sweep l=4 prev overlapped sparse | 6 | 10662 | 3f5ec9d68ed92d4e | 3efe8f6acc231595\n\
x3 sweep l=4 prev blocking sparse | 6 | 10662 | 3f5eccf1a66333ba | 3efe8f6acc231595\n\
x3 sweep l=1 new blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep l=1 new blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep l=1 new overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep l=1 new overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep l=1 prev blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep l=1 prev blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep l=1 prev overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep l=1 prev overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep summa2d new blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep summa2d new blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep summa2d new overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep summa2d new overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep summa2d prev blocking dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep summa2d prev blocking sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep summa2d prev overlapped dense | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep summa2d prev overlapped sparse | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep cola(c=1) | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep cola(c=2) | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep innerabc(c=2) | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep cola(c=4) | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep innerabc(c=4) | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
x3 sweep cola(c=8) | 0 | 18446744073709551615 | 7ff0000000000000 | 0000000000000000\n\
unlimited default l=4 new overlapped dense | 1 | 27728 | 3f4ceca9cd5f8619 | 3eec7bb66476e26a\n\
unlimited default l=4 new blocking dense | 1 | 27728 | 3f4cef9dc5de29e0 | 3eec7bb66476e26a\n\
unlimited default l=4 prev overlapped dense | 1 | 27728 | 3f4cf6b66a0d814a | 3eec7bb66476e26a\n\
unlimited default l=4 prev blocking dense | 1 | 27728 | 3f4cfa19c98cce1d | 3eec7bb66476e26a\n\
unlimited default l=16 new blocking sparse | 1 | 25863 | 3f4f44091318c8dc | 3ee78217a9f4df07\n\
unlimited default l=16 new overlapped sparse | 1 | 25863 | 3f4f44091318c8dc | 3ee78217a9f4df07\n\
unlimited default l=16 new blocking dense | 1 | 25863 | 3f4f558d053c7876 | 3ee9b295ee6ad220\n\
unlimited default l=16 new overlapped dense | 1 | 25863 | 3f4f558d053c7876 | 3ee9b295ee6ad220\n\
unlimited default l=16 prev blocking sparse | 1 | 25863 | 3f4f5d2027732cc9 | 3ee78217a9f4df07\n\
unlimited default l=16 prev overlapped sparse | 1 | 25863 | 3f4f5d2027732cc9 | 3ee78217a9f4df07\n\
unlimited default l=16 prev blocking dense | 1 | 25863 | 3f4f6ea41996dc61 | 3ee9b295ee6ad220\n\
unlimited default l=16 prev overlapped dense | 1 | 25863 | 3f4f6ea41996dc61 | 3ee9b295ee6ad220\n\
unlimited default l=4 new overlapped sparse | 1 | 27728 | 3f4f8c8e98183a3d | 3eec957997ffc32c\n\
unlimited default l=4 new blocking sparse | 1 | 27728 | 3f4f8f829096de04 | 3eec957997ffc32c\n\
unlimited default l=4 prev overlapped sparse | 1 | 27728 | 3f4f969b34c6356e | 3eec957997ffc32c\n\
unlimited default l=4 prev blocking sparse | 1 | 27728 | 3f4f99fe94458241 | 3eec957997ffc32c\n\
unlimited default l=1 new overlapped dense | 1 | 31623 | 3f55d9290273b204 | 3efb94ed1db65a81\n\
unlimited default l=1 new blocking dense | 1 | 31623 | 3f55db739efed403 | 3efb94ed1db65a81\n\
unlimited default l=1 prev overlapped dense | 1 | 31623 | 3f55df20995b9d16 | 3efb94ed1db65a81\n\
unlimited default l=1 prev blocking dense | 1 | 31623 | 3f55e3a5ea45978a | 3efb94ed1db65a81\n\
unlimited default l=1 new overlapped sparse | 1 | 31623 | 3f609b7f986dc50f | 3f0be22d2e3d6728\n\
unlimited default l=1 new blocking sparse | 1 | 31623 | 3f609ca4e6b3560e | 3f0be22d2e3d6728\n\
unlimited default l=1 prev overlapped sparse | 1 | 31623 | 3f609e7b63e1ba97 | 3f0be22d2e3d6728\n\
unlimited default l=1 prev blocking sparse | 1 | 31623 | 3f60a0be0c56b7d1 | 3f0be22d2e3d6728\n\
unlimited sweep cola(c=8) | 1 | 38880 | 3efd0065d3bcff88 | 3edf1ade8ed25183\n\
unlimited sweep innerabc(c=4) | 1 | 55296 | 3f11aee7b5055ffa | 3edcfdb417c18a1b\n\
unlimited sweep cola(c=4) | 1 | 24240 | 3f12b7b5a7842c5c | 3ee7677ab882e8d3\n\
unlimited sweep innerabc(c=2) | 1 | 27648 | 3f172a37540150ee | 3ee0d5ffeb210f8a\n\
unlimited sweep cola(c=2) | 1 | 17088 | 3f241705f3bc98a8 | 3eeb5480710fc8dd\n\
unlimited sweep cola(c=1) | 1 | 13392 | 3f34975e4b0e7bd8 | 3eed449208df2a51\n\
unlimited sweep l=4 new overlapped dense | 1 | 27728 | 3f4ceca9cd5f8619 | 3eec7bb66476e26a\n\
unlimited sweep l=4 new blocking dense | 1 | 27728 | 3f4cef9dc5de29e0 | 3eec7bb66476e26a\n\
unlimited sweep l=4 prev overlapped dense | 1 | 27728 | 3f4cf6b66a0d814a | 3eec7bb66476e26a\n\
unlimited sweep l=4 prev blocking dense | 1 | 27728 | 3f4cfa19c98cce1d | 3eec7bb66476e26a\n\
unlimited sweep l=16 new blocking sparse | 1 | 25863 | 3f4f44091318c8dc | 3ee78217a9f4df07\n\
unlimited sweep l=16 new overlapped sparse | 1 | 25863 | 3f4f44091318c8dc | 3ee78217a9f4df07\n\
unlimited sweep l=16 new blocking dense | 1 | 25863 | 3f4f558d053c7876 | 3ee9b295ee6ad220\n\
unlimited sweep l=16 new overlapped dense | 1 | 25863 | 3f4f558d053c7876 | 3ee9b295ee6ad220\n\
unlimited sweep l=16 prev blocking sparse | 1 | 25863 | 3f4f5d2027732cc9 | 3ee78217a9f4df07\n\
unlimited sweep l=16 prev overlapped sparse | 1 | 25863 | 3f4f5d2027732cc9 | 3ee78217a9f4df07\n\
unlimited sweep l=16 prev blocking dense | 1 | 25863 | 3f4f6ea41996dc61 | 3ee9b295ee6ad220\n\
unlimited sweep l=16 prev overlapped dense | 1 | 25863 | 3f4f6ea41996dc61 | 3ee9b295ee6ad220\n\
unlimited sweep l=4 new overlapped sparse | 1 | 27728 | 3f4f8c8e98183a3d | 3eec957997ffc32c\n\
unlimited sweep l=4 new blocking sparse | 1 | 27728 | 3f4f8f829096de04 | 3eec957997ffc32c\n\
unlimited sweep l=4 prev overlapped sparse | 1 | 27728 | 3f4f969b34c6356e | 3eec957997ffc32c\n\
unlimited sweep l=4 prev blocking sparse | 1 | 27728 | 3f4f99fe94458241 | 3eec957997ffc32c\n\
unlimited sweep l=1 new overlapped dense | 1 | 31623 | 3f55d9290273b204 | 3efb94ed1db65a81\n\
unlimited sweep summa2d new overlapped dense | 1 | 31623 | 3f55d9290273b204 | 3efb94ed1db65a81\n\
unlimited sweep l=1 new blocking dense | 1 | 31623 | 3f55db739efed403 | 3efb94ed1db65a81\n\
unlimited sweep summa2d new blocking dense | 1 | 31623 | 3f55db739efed403 | 3efb94ed1db65a81\n\
unlimited sweep l=1 prev overlapped dense | 1 | 31623 | 3f55df20995b9d16 | 3efb94ed1db65a81\n\
unlimited sweep summa2d prev overlapped dense | 1 | 31623 | 3f55df20995b9d16 | 3efb94ed1db65a81\n\
unlimited sweep l=1 prev blocking dense | 1 | 31623 | 3f55e3a5ea45978a | 3efb94ed1db65a81\n\
unlimited sweep summa2d prev blocking dense | 1 | 31623 | 3f55e3a5ea45978a | 3efb94ed1db65a81\n\
unlimited sweep l=1 new overlapped sparse | 1 | 31623 | 3f609b7f986dc50f | 3f0be22d2e3d6728\n\
unlimited sweep summa2d new overlapped sparse | 1 | 31623 | 3f609b7f986dc50f | 3f0be22d2e3d6728\n\
unlimited sweep l=1 new blocking sparse | 1 | 31623 | 3f609ca4e6b3560e | 3f0be22d2e3d6728\n\
unlimited sweep summa2d new blocking sparse | 1 | 31623 | 3f609ca4e6b3560e | 3f0be22d2e3d6728\n\
unlimited sweep l=1 prev overlapped sparse | 1 | 31623 | 3f609e7b63e1ba97 | 3f0be22d2e3d6728\n\
unlimited sweep summa2d prev overlapped sparse | 1 | 31623 | 3f609e7b63e1ba97 | 3f0be22d2e3d6728\n\
unlimited sweep l=1 prev blocking sparse | 1 | 31623 | 3f60a0be0c56b7d1 | 3f0be22d2e3d6728\n\
unlimited sweep summa2d prev blocking sparse | 1 | 31623 | 3f60a0be0c56b7d1 | 3f0be22d2e3d6728";

#[test]
fn predictions_are_unchanged() {
    let actual = table();
    assert_eq!(actual, GOLDEN, "the table is now:\n{actual}\n");
}
