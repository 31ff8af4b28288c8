//! Reconstruction-index equivalence: the engine's one reverse
//! reconstruction path — the index-driven per-set cache walk
//! (`reconstruct_caches_partitioned`) and the indexed `BpReconstructor` —
//! must be bit-identical to the tests crate's sequential oracles
//! (`reconstruct_caches_sequential`, `RefBpReconstructor`): same
//! `ReconStats`, same cache contents in MRU order, same reconstructed
//! predictor state. Inputs cover arbitrary record streams (ext-spill
//! records, over-budget truncated logs, logs mutated after sealing), each
//! presented sealed for the machine, unsealed, sealed for another
//! geometry, and sealed under another scan budget: the public entry points
//! must give the sealed result on every one.

use proptest::prelude::*;
use rsr_branch::{PredCtrlKind, Predictor};
use rsr_cache::MemHierarchy;
use rsr_core::{
    reconstruct_caches_partitioned, BpReconstructor, MachineConfig, Pct, ReconGeometry, RunSpec,
    SampleOutcome, SamplingRegimen, SkipLog, WarmupPolicy,
};
use rsr_func::{BranchRec, Cpu, MemAccess, Retired};
use rsr_integration::{
    all_set_tags, machine, predictor_state, reconstruct_caches_sequential, tiny, RefBpReconstructor,
};
use rsr_isa::{CtrlKind, Inst, MemWidth, Op};
use rsr_timing::PredictHook;
use rsr_workloads::Benchmark;

/// Synthesizes an adversarial retired stream from raw words: 64-bit PCs
/// and targets that force ext-spill records, non-sequential next PCs, and
/// every control kind.
fn stream_from_words(words: &[u64]) -> Vec<Retired> {
    let kinds = [
        CtrlKind::CondBranch,
        CtrlKind::Jump,
        CtrlKind::Call,
        CtrlKind::IndirectCall,
        CtrlKind::Return,
        CtrlKind::IndirectJump,
    ];
    words
        .iter()
        .enumerate()
        .map(|(seq, &r)| {
            // 48-bit PCs like real streams (bit 45 forces ext-spill).
            let pc =
                if r % 5 == 0 { (r | (1 << 45)) % (1 << 48) } else { 0x1_0000 + (r % 4096) * 4 };
            let next_pc = if r % 3 == 0 { r.rotate_left(17) } else { pc.wrapping_add(4) };
            let mem = (r % 2 == 0).then(|| MemAccess {
                addr: r.rotate_left(29) % (1 << 48),
                width: MemWidth::B8,
                is_store: r % 4 == 0,
            });
            let branch = (r % 3 == 0).then(|| BranchRec {
                kind: kinds[(r % 6) as usize],
                taken: r % 2 == 0,
                target: r.rotate_left(41) % (1 << 48),
            });
            Retired {
                seq: seq as u64,
                pc,
                next_pc,
                inst: Inst::new(Op::Add, 0, 0, 0, 0),
                mem,
                branch,
            }
        })
        .collect()
}

fn log_from(stream: &[Retired], budget: Option<usize>) -> SkipLog {
    let mut log = SkipLog::new(true, true, 0);
    log.set_budget(budget);
    for r in stream {
        log.record(r);
    }
    log
}

/// A retired stream from a real workload.
fn workload_stream(bench: Benchmark, n: u64) -> Vec<Retired> {
    let program = tiny(bench);
    let mut cpu = Cpu::new(&program).unwrap();
    (0..n).map(|_| cpu.step().unwrap()).collect()
}

/// The presentations of one log the public entry points must reconstruct
/// identically, the sealed production input first: sealed for `machine`
/// at `pct`, as given (unsealed, or carrying a stale seal), sealed for
/// another geometry on both sides, and branch-sealed under another scan
/// budget.
fn log_variants(machine: &MachineConfig, log: &SkipLog, pct: Pct) -> Vec<(&'static str, SkipLog)> {
    let geom = ReconGeometry::of_machine(machine);
    let other_geom = ReconGeometry {
        l1i_sets: geom.l1i_sets * 2,
        l1d_sets: geom.l1d_sets * 2,
        l2_sets: geom.l2_sets / 2,
        ghr_bits: geom.ghr_bits - 1,
        btb_entries: geom.btb_entries * 2,
        ..geom
    };
    let other_pct = if pct == Pct::new(100) { Pct::new(50) } else { Pct::new(100) };
    let sealed_with = |mem: &ReconGeometry, br: &ReconGeometry, br_pct: Pct| {
        let mut l = log.clone();
        l.seal_mem_index(mem);
        l.seal_branch_index(br, br_pct);
        l
    };
    vec![
        ("sealed", sealed_with(&geom, &geom, pct)),
        ("as given", log.clone()),
        ("wrong geometry", sealed_with(&other_geom, &other_geom, pct)),
        ("wrong pct", sealed_with(&geom, &geom, other_pct)),
    ]
}

/// Asserts that every presentation of the log reconstructs the caches
/// exactly like the sealed production input and like the sequential
/// oracle.
fn assert_cache_equivalence(machine: &MachineConfig, log: &SkipLog, pct: Pct, what: &str) {
    let mut oracle_hier = MemHierarchy::new(machine.hier.clone());
    let oracle =
        (reconstruct_caches_sequential(&mut oracle_hier, log, pct), all_set_tags(&oracle_hier));
    let mut sealed = None;
    for (variant, input) in log_variants(machine, log, pct) {
        let mut hier = MemHierarchy::new(machine.hier.clone());
        let (stats, _) = reconstruct_caches_partitioned(&mut hier, &input, pct, 1);
        let got = (stats, all_set_tags(&hier));
        assert_eq!(got.0, oracle.0, "{what} ({variant}): ReconStats vs oracle, {pct:?}");
        assert_eq!(got.1, oracle.1, "{what} ({variant}): cache tags vs oracle, {pct:?}");
        let sealed = sealed.get_or_insert_with(|| got.clone());
        assert_eq!(&got, sealed, "{what} ({variant}): result vs sealed input, {pct:?}");
    }
}

/// Asserts that the eager (`exhaust`) reconstruction of every presentation
/// of the log matches the sealed production input and the per-record
/// oracle on every observable: stats, GHR, full PHT and BTB contents with
/// their reconstructed bits, and the RAS.
fn assert_bp_equivalence(machine: &MachineConfig, log: &SkipLog, pct: Pct, what: &str) {
    let mut ref_pred = Predictor::new(machine.pred);
    let mut ref_bp = RefBpReconstructor::new(&mut ref_pred, log, pct);
    ref_bp.exhaust(&mut ref_pred);
    let oracle = (ref_bp.stats(), predictor_state(&ref_pred));

    let mut sealed = None;
    for (variant, input) in log_variants(machine, log, pct) {
        let mut pred = Predictor::new(machine.pred);
        let mut bp = BpReconstructor::new(&mut pred, &input, pct);
        bp.exhaust(&mut pred);
        let got = (bp.stats(), predictor_state(&pred));
        assert_eq!(got.0, oracle.0, "{what} ({variant}): BP ReconStats vs oracle, {pct:?}");
        assert!(got.1 == oracle.1, "{what} ({variant}): predictor state vs oracle, {pct:?}");
        let sealed = sealed.get_or_insert_with(|| got.clone());
        assert!(&got == sealed, "{what} ({variant}): BP result vs sealed input, {pct:?}");
    }
}

/// Asserts that the *demand-driven* scan — hot-worklist hops, sealed
/// flush last-writer bits, mid-sequence exhaustion flush — matches the
/// oracle's per-record demand scan on every observable, for every
/// presentation of the log. This is the path the sampler actually
/// exercises; `exhaust` above shares the flush but never stops early, so
/// only a demand sequence pins the sealed `BR_F_PHT_FLUSH_LW` placement
/// (which feed survives to the flush, and relative to which budget window)
/// against the incremental reference.
fn assert_bp_demand_equivalence(
    machine: &MachineConfig,
    log: &SkipLog,
    stream: &[Retired],
    pct: Pct,
    what: &str,
) {
    // Forward replay of the region's own branch PCs: the demands the
    // detailed cluster would actually issue, in order, against both scan
    // paths. (Only `before_predict` runs — the GHR stays at its
    // reconstructed value, identically on both sides.)
    let to_pred_kind = |k: CtrlKind| match k {
        CtrlKind::CondBranch => PredCtrlKind::CondBranch,
        CtrlKind::Jump => PredCtrlKind::Jump,
        CtrlKind::Call => PredCtrlKind::Call,
        CtrlKind::IndirectCall => PredCtrlKind::IndirectCall,
        CtrlKind::Return => PredCtrlKind::Return,
        CtrlKind::IndirectJump => PredCtrlKind::IndirectJump,
    };
    let probes: Vec<_> = stream
        .iter()
        .filter_map(|r| r.branch.as_ref().map(|b| (r.pc, to_pred_kind(b.kind))))
        .collect();

    let mut ref_pred = Predictor::new(machine.pred);
    let mut ref_bp = RefBpReconstructor::new(&mut ref_pred, log, pct);
    for &(pc, kind) in &probes {
        ref_bp.before_predict(&mut ref_pred, pc, kind);
    }
    let oracle = (ref_bp.stats(), predictor_state(&ref_pred));

    let mut sealed = None;
    for (variant, input) in log_variants(machine, log, pct) {
        let mut pred = Predictor::new(machine.pred);
        let mut bp = BpReconstructor::new(&mut pred, &input, pct);
        for &(pc, kind) in &probes {
            bp.before_predict(&mut pred, pc, kind);
        }
        let got = (bp.stats(), predictor_state(&pred));
        assert_eq!(got.0, oracle.0, "{what} ({variant}): demand BP ReconStats vs oracle, {pct:?}");
        assert!(got.1 == oracle.1, "{what} ({variant}): demand predictor state vs oracle, {pct:?}");
        let sealed = sealed.get_or_insert_with(|| got.clone());
        assert!(&got == sealed, "{what} ({variant}): demand BP result vs sealed input, {pct:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary synthetic record streams (ext-spill PCs and targets,
    /// every control kind, random stores) reconstruct bit-identically
    /// through the index at any budget, however the log is presented.
    #[test]
    fn prop_indexed_recon_matches_full_scan(
        words in proptest::collection::vec(any::<u64>(), 1..400),
        pct_sel in 0usize..3,
    ) {
        let pct = [Pct::new(20), Pct::new(61), Pct::new(100)][pct_sel];
        let stream = stream_from_words(&words);
        let machine = machine();
        let log = log_from(&stream, None);
        assert_cache_equivalence(&machine, &log, pct, "synthetic");
        assert_bp_equivalence(&machine, &log, pct, "synthetic");
        assert_bp_demand_equivalence(&machine, &log, &stream, pct, "synthetic");
    }

    /// Over-budget logs truncate to empty; the engine and the oracles must
    /// agree that there is nothing to reconstruct.
    #[test]
    fn prop_truncated_logs_stay_equivalent(
        words in proptest::collection::vec(any::<u64>(), 50..300),
    ) {
        let stream = stream_from_words(&words);
        let machine = machine();
        let log = log_from(&stream, Some(64));
        prop_assert!(log.truncated());
        assert_cache_equivalence(&machine, &log, Pct::new(20), "truncated");
        assert_bp_equivalence(&machine, &log, Pct::new(20), "truncated");
    }
}

#[test]
fn workload_streams_reconstruct_identically() {
    // Real workload regions long enough that the 20% budget leaves most
    // sets incomplete at one level and complete at another.
    let machine = machine();
    for bench in [Benchmark::Mcf, Benchmark::Gcc] {
        let stream = workload_stream(bench, 230_000);
        let log = log_from(&stream, None);
        for pct in [Pct::new(20), Pct::new(100)] {
            assert_cache_equivalence(&machine, &log, pct, bench.name());
            assert_bp_equivalence(&machine, &log, pct, bench.name());
            assert_bp_demand_equivalence(&machine, &log, &stream, pct, bench.name());
        }
    }
}

#[test]
fn stale_seal_is_reindexed_for_the_call() {
    // Records appended after sealing invalidate the index (sealed lengths
    // no longer match); reconstruction must index the log afresh and
    // still agree with the oracles.
    let machine = machine();
    let stream = workload_stream(Benchmark::Twolf, 20_000);
    let mut log = log_from(&stream[..15_000], None);
    log.seal_mem_index(&ReconGeometry::of_machine(&machine));
    log.seal_branch_index(&ReconGeometry::of_machine(&machine), Pct::new(20));
    for r in &stream[15_000..] {
        log.record(r);
    }
    let pct = Pct::new(20);
    assert_cache_equivalence(&machine, &log, pct, "stale seal");
    assert_bp_equivalence(&machine, &log, pct, "stale seal");
}

/// Everything deterministic two equivalent runs must agree on (timing
/// telemetry legitimately differs).
fn assert_outcomes_equivalent(a: &SampleOutcome, b: &SampleOutcome, what: &str) {
    assert_eq!(a.clusters.values(), b.clusters.values(), "{what}: IPC clusters");
    assert_eq!(a.cpi_clusters.values(), b.cpi_clusters.values(), "{what}: CPI clusters");
    assert_eq!(a.hot_insts, b.hot_insts, "{what}: hot_insts");
    assert_eq!(a.skipped_insts, b.skipped_insts, "{what}: skipped_insts");
    assert_eq!(a.log_records, b.log_records, "{what}: log_records");
    assert_eq!(a.log_bytes_peak, b.log_bytes_peak, "{what}: log_bytes_peak");
    assert_eq!(a.recon, b.recon, "{what}: recon stats");
    assert_eq!(a.clusters_degraded, b.clusters_degraded, "{what}: clusters_degraded");
}

#[test]
fn sampled_runs_are_bit_identical_across_the_thread_and_depth_matrix() {
    // The acceptance matrix: (threads, pipeline depth) in {1,4} x {1,2} —
    // every combination must reproduce the sequential run's estimate and
    // counters exactly.
    let program = tiny(Benchmark::Twolf);
    let machine = machine();
    let base_spec = RunSpec::new(&program, &machine)
        .regimen(SamplingRegimen::new(12, 600))
        .total_insts(250_000)
        .policy(WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) })
        .seed(9)
        .shard_span(20_000);
    let base = base_spec.clone().threads(1).pipeline_depth(1).run().unwrap();
    for threads in [1usize, 4] {
        for depth in [1usize, 2] {
            let out = base_spec.clone().threads(threads).pipeline_depth(depth).run().unwrap();
            assert_outcomes_equivalent(&base, &out, &format!("threads {threads}, depth {depth}"));
        }
    }
}
