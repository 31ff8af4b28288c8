//! Shared helpers for the cross-crate integration tests, and the
//! reference implementations (oracles) the equivalence suites compare the
//! engine against: the original cache and predictor layouts
//! ([`RefCache`], [`RefGshare`], [`RefBtb`], [`RefRas`]) and the
//! unindexed reverse reconstruction ([`reconstruct_caches_sequential`],
//! [`RefBpReconstructor`]).

mod ref_cache;
mod ref_predictor;
mod ref_recon;

pub use ref_cache::RefCache;
pub use ref_predictor::{RefBtb, RefGshare, RefRas};
pub use ref_recon::{reconstruct_caches_sequential, RefBpReconstructor};

use rsr_branch::{Counter2, Predictor, Ras};
use rsr_cache::MemHierarchy;
use rsr_core::{
    reconstruct_caches_partitioned, MachineConfig, Pct, ReconStats, RunSpec, SampleOutcome,
    SamplingRegimen, SimError, SkipLog, WarmupPolicy,
};
use rsr_isa::Program;
use rsr_workloads::{Benchmark, WorkloadParams};

/// Every set's MRU-ordered tags at every level — the full observable cache
/// state a reconstruction pass produces.
pub fn all_set_tags(hier: &MemHierarchy) -> Vec<Vec<u64>> {
    let mut tags = Vec::new();
    for cache in [&hier.l1i, &hier.l1d, &hier.l2] {
        for set in 0..cache.num_sets() {
            tags.push(cache.set_tags_mru_order(set));
        }
    }
    tags
}

/// A predictor's reconstructable observable state: the GHR, every PHT
/// counter with its reconstructed bit, the target and reconstructed bit of
/// each BTB slot (probed at tag 0), and the RAS.
pub type PredictorState = (u64, Vec<(Counter2, bool)>, Vec<(Option<u64>, bool)>, Ras);

/// Snapshots [`PredictorState`].
pub fn predictor_state(p: &Predictor) -> PredictorState {
    let pht = (0..p.gshare.num_entries())
        .map(|i| (p.gshare.counter_at(i), p.gshare.is_reconstructed(i)))
        .collect();
    let btb = (0..p.btb.num_entries() as u64)
        .map(|i| (p.btb.peek(i << 2), p.btb.is_reconstructed(i << 2)))
        .collect();
    (p.gshare.ghr(), pht, btb, p.ras)
}

/// Reverse cache reconstruction through the engine's public entry point,
/// checked against [`reconstruct_caches_sequential`] run on a clone of
/// `hier`: the counters and every set's MRU-ordered tags must agree.
/// Returns the engine's counters.
pub fn reconstruct_caches_checked(hier: &mut MemHierarchy, log: &SkipLog, pct: Pct) -> ReconStats {
    let mut oracle = hier.clone();
    let want = reconstruct_caches_sequential(&mut oracle, log, pct);
    let (stats, _) = reconstruct_caches_partitioned(hier, log, pct, 1);
    assert_eq!(stats, want, "ReconStats diverged from the sequential oracle at {pct:?}");
    assert_eq!(
        all_set_tags(hier),
        all_set_tags(&oracle),
        "cache state diverged from the sequential oracle at {pct:?}"
    );
    stats
}

/// A small, fast workload build for integration tests.
pub fn tiny(bench: Benchmark) -> Program {
    bench.build(&WorkloadParams { scale: 0.05, ..Default::default() })
}

/// The paper machine.
pub fn machine() -> MachineConfig {
    MachineConfig::paper()
}

/// A sampled run on the paper machine through the [`RunSpec`] entry point
/// — the shape almost every integration test wants.
pub fn sample(
    program: &Program,
    regimen: SamplingRegimen,
    total: u64,
    policy: WarmupPolicy,
    seed: u64,
) -> Result<SampleOutcome, SimError> {
    RunSpec::new(program, &machine())
        .regimen(regimen)
        .total_insts(total)
        .policy(policy)
        .seed(seed)
        .run()
}

/// True IPC from the unsampled cycle-accurate baseline on the paper
/// machine.
pub fn full_ipc(program: &Program, total: u64) -> f64 {
    RunSpec::new(program, &machine())
        .total_insts(total)
        .run_full()
        .expect("full baseline runs")
        .ipc()
}
