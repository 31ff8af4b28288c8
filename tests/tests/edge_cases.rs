//! Edge cases and failure injection across the stack.

use rsr_branch::{Predictor, PredictorConfig};
use rsr_cache::{HierarchyConfig, MemHierarchy};
use rsr_core::{BpReconstructor, Pct, SamplingRegimen, SimError, SkipLog, WarmupPolicy};
use rsr_func::Cpu;
use rsr_integration::{
    predictor_state, reconstruct_caches_checked, sample, tiny, RefBpReconstructor,
};
use rsr_isa::{Asm, Reg};
use rsr_timing::{simulate_cluster_hooked, CoreConfig};
use rsr_workloads::Benchmark;

#[test]
fn empty_log_reconstruction_is_a_noop() {
    // A zero-length skip region logs nothing; reconstruction must leave
    // state untouched and the on-demand hook must never block.
    let log = SkipLog::new(true, true, 0xabcd);
    let mut hier = MemHierarchy::new(HierarchyConfig::paper());
    hier.warm_access(0x4000, rsr_cache::HierAccess::Load);
    let stats = reconstruct_caches_checked(&mut hier, &log, Pct::new(100));
    assert_eq!(stats.mem_scanned, 0);
    assert!(hier.l1d.probe(0x4000), "stale content must survive");

    let mut pred = Predictor::new(PredictorConfig::paper());
    let mut recon = BpReconstructor::new(&mut pred, &log, Pct::new(100));
    // GHR reconstruction from an empty log keeps the logged start value.
    assert_eq!(pred.gshare.ghr(), 0xabcd & pred.gshare.ghr_mask());
    use rsr_timing::PredictHook as _;
    recon.before_predict(&mut pred, 0x1000, rsr_branch::PredCtrlKind::CondBranch);
    assert!(pred.gshare.is_reconstructed(pred.gshare.index(0x1000)));

    // The per-record oracle agrees on every observable.
    let mut ref_pred = Predictor::new(PredictorConfig::paper());
    let mut oracle = RefBpReconstructor::new(&mut ref_pred, &log, Pct::new(100));
    oracle.before_predict(&mut ref_pred, 0x1000, rsr_branch::PredCtrlKind::CondBranch);
    assert_eq!(recon.stats(), oracle.stats());
    assert!(predictor_state(&pred) == predictor_state(&ref_pred));
}

#[test]
fn one_percent_budget_still_works() {
    let program = tiny(Benchmark::Vpr);
    let out = sample(
        &program,
        SamplingRegimen::new(6, 400),
        150_000,
        WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(1) },
        8,
    )
    .unwrap();
    assert_eq!(out.clusters.len(), 6);
    assert!(out.est_ipc() > 0.0);
}

#[test]
fn single_instruction_clusters() {
    let program = tiny(Benchmark::Gcc);
    let out = sample(
        &program,
        SamplingRegimen::new(12, 1),
        100_000,
        WarmupPolicy::Smarts { cache: true, bp: true },
        3,
    )
    .unwrap();
    assert_eq!(out.hot_insts, 12);
    for &ipc in out.clusters.values() {
        assert!(ipc > 0.0);
    }
}

#[test]
fn halting_program_inside_schedule_is_an_error() {
    let mut a = Asm::new();
    for _ in 0..100 {
        a.nop();
    }
    a.halt();
    let program = a.finish().unwrap();
    let err =
        sample(&program, SamplingRegimen::new(4, 100), 10_000, WarmupPolicy::None, 1).unwrap_err();
    assert!(matches!(err, SimError::Exec(_)), "got {err:?}");
}

#[test]
fn runaway_program_surfaces_pc_fault() {
    let mut a = Asm::new();
    a.li(Reg::T0, 0x9000_0000);
    a.jr(Reg::T0); // jump out of text
    let program = a.finish().unwrap();
    let mut cpu = Cpu::new(&program).unwrap();
    let mut hier = MemHierarchy::new(HierarchyConfig::paper());
    let mut pred = Predictor::new(PredictorConfig::paper());
    let err = simulate_cluster_hooked(
        &CoreConfig::paper(),
        &mut cpu,
        &mut hier,
        &mut pred,
        1_000,
        &mut rsr_timing::NoHook,
    )
    .unwrap_err();
    assert!(matches!(err, rsr_func::ExecError::PcOutOfText { .. }));
}

#[test]
fn reconstruction_bits_isolate_regions() {
    // Two consecutive reconstructions must not leak "reconstructed" state
    // into each other.
    let mut hier = MemHierarchy::new(HierarchyConfig::paper());
    let program = tiny(Benchmark::Twolf);
    let mut cpu = Cpu::new(&program).unwrap();
    let mut log = SkipLog::new(true, false, 0);
    for _ in 0..20_000 {
        log.record(&cpu.step().unwrap());
    }
    let s1 = reconstruct_caches_checked(&mut hier, &log, Pct::new(100));
    // Second region with a fresh log over different instructions.
    log.reset(true, false, 0);
    for _ in 0..20_000 {
        log.record(&cpu.step().unwrap());
    }
    let s2 = reconstruct_caches_checked(&mut hier, &log, Pct::new(100));
    assert!(s1.cache_inserted > 0 && s2.cache_inserted > 0);
    // The second pass must have re-marked from scratch (its counters are
    // not cumulative with the first).
    assert!(s2.mem_scanned <= log.mem_len() as u64);
}

#[test]
fn tiny_total_with_minimum_regimen() {
    let program = tiny(Benchmark::Parser);
    let out = sample(
        &program,
        SamplingRegimen::new(2, 50),
        200,
        WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(50) },
        1,
    )
    .unwrap();
    assert_eq!(out.clusters.len(), 2);
}

#[test]
fn mrrl_handles_degenerate_regions() {
    // Clusters so dense the skip regions are tiny (possibly zero after
    // de-overlap): the profiling pass must not underflow or stall.
    let program = tiny(Benchmark::Ammp);
    let out = sample(
        &program,
        SamplingRegimen::new(10, 100),
        2_000,
        WarmupPolicy::Mrrl { coverage: Pct::new(100) },
        2,
    )
    .unwrap();
    assert_eq!(out.clusters.len(), 10);
}
