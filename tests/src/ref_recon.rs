//! Reference (oracle) reverse reconstruction: the paper's §3.1 sequential
//! newest-first cache scan and §3.2's per-record branch-predictor scan
//! with incremental counter inference, retained as the specification the
//! engine's indexed path must reproduce bit-for-bit. Both are written
//! against the public API only: the engine itself reconstructs solely
//! through its reconstruction index.
//!
//! Nothing here is on a hot path — clarity over speed.

use std::collections::HashMap;

use rsr_branch::{CounterInference, PredCtrlKind, Predictor, RasOp};
use rsr_cache::{MemHierarchy, ReconOutcome};
use rsr_core::{BranchRecord, Pct, ReconStats, SkipLog};
use rsr_isa::{Addr, CtrlKind};
use rsr_timing::PredictHook;

/// Reverse cache reconstruction (§3.1) over the last `pct` of the logged
/// reference stream, one record at a time. Instruction records repair the
/// L1I, data records the L1D, and both repair the unified L2; the scan
/// stops early once every set of every level is reconstructed.
pub fn reconstruct_caches_sequential(
    hier: &mut MemHierarchy,
    log: &SkipLog,
    pct: Pct,
) -> ReconStats {
    let mut stats = ReconStats::default();
    hier.begin_reconstruction();
    let budget = pct.of(log.mem_len());
    // Completion flags per level: once a level is fully reconstructed,
    // further probes of it are pure no-ops (`SetComplete`), so they are
    // counted as ignored without touching the cache at all.
    let mut l1i_done = hier.l1i.fully_reconstructed();
    let mut l1d_done = hier.l1d.fully_reconstructed();
    let mut l2_done = hier.l2.fully_reconstructed();
    for (addr, is_inst) in log.mem_refs_rev().take(budget) {
        if l1i_done && l1d_done && l2_done {
            break;
        }
        stats.mem_scanned += 1;
        let (l1, l1_done) =
            if is_inst { (&mut hier.l1i, &mut l1i_done) } else { (&mut hier.l1d, &mut l1d_done) };
        // Per the paper, WTNA caches allocate logged writes exactly like
        // reads ("the block is allocated even if the access is a write").
        for (cache, done) in [(l1, l1_done), (&mut hier.l2, &mut l2_done)] {
            if *done {
                stats.cache_ignored += 1;
                continue;
            }
            match cache.reconstruct_ref(addr) {
                ReconOutcome::Inserted => stats.cache_inserted += 1,
                ReconOutcome::MarkedPresent => stats.cache_marked += 1,
                ReconOutcome::Redundant | ReconOutcome::SetComplete => stats.cache_ignored += 1,
            }
            *done = cache.fully_reconstructed();
        }
    }
    hier.finish_reconstruction();
    stats
}

/// On-demand branch-predictor reconstruction (§3.2), one record per scan
/// step: a forward pass computes the GHR each record saw, and the reverse
/// scan feeds a `HashMap` of incremental [`CounterInference`]s.
///
/// Same contract as [`rsr_core::BpReconstructor`]: construction rebuilds
/// the GHR and RAS and clears reconstructed bits; [`PredictHook`] probes
/// resume one shared reverse cursor; budget exhaustion flushes every
/// in-progress inference's best guess.
#[derive(Debug)]
pub struct RefBpReconstructor {
    records: Vec<BranchRecord>,
    /// GHR value seen by record *i* (used for its PHT index).
    ghr_before: Vec<u64>,
    consumed: usize,
    budget: usize,
    /// In-progress counter inferences keyed by PHT index.
    inferences: HashMap<usize, CounterInference>,
    exhausted: bool,
    stats: ReconStats,
}

impl RefBpReconstructor {
    /// Prepares reconstruction for one skip region: clears reconstructed
    /// bits, rebuilds the GHR from [`SkipLog::ghr_at_start`] and the RAS.
    pub fn new(pred: &mut Predictor, log: &SkipLog, pct: Pct) -> RefBpReconstructor {
        pred.gshare.begin_reconstruction();
        pred.btb.begin_reconstruction();

        let records: Vec<BranchRecord> = log.branch_records().collect();
        let budget = pct.of(records.len());
        // GHR evolution through the region (conditional outcomes only).
        let mut ghr_before = Vec::with_capacity(records.len());
        let mut ghr = log.ghr_at_start;
        let mask = pred.gshare.ghr_mask();
        for r in &records {
            ghr_before.push(ghr);
            if r.kind == CtrlKind::CondBranch {
                ghr = ((ghr << 1) | r.taken as u64) & mask;
            }
        }
        pred.gshare.set_ghr(ghr);

        // RAS reconstruction (Figure 4), newest-first within the budget.
        let ras_ops = records.iter().rev().take(budget).filter_map(|r| match r.kind {
            CtrlKind::Call | CtrlKind::IndirectCall => Some(RasOp::Push(r.pc + 4)),
            CtrlKind::Return => Some(RasOp::Pop),
            _ => None,
        });
        pred.ras.reconstruct(ras_ops);

        RefBpReconstructor {
            records,
            ghr_before,
            consumed: 0,
            budget,
            inferences: HashMap::new(),
            exhausted: false,
            stats: ReconStats::default(),
        }
    }

    /// Reconstruction counters so far.
    pub fn stats(&self) -> ReconStats {
        self.stats
    }

    /// Consumes the entire remaining budget immediately (the eager
    /// variant).
    pub fn exhaust(&mut self, pred: &mut Predictor) {
        while self.step(pred) {}
    }

    /// Consumes one (next-older) record; returns `false` once the budget is
    /// spent (flushing best guesses for all in-progress inferences).
    fn step(&mut self, pred: &mut Predictor) -> bool {
        if self.consumed >= self.budget {
            if !self.exhausted {
                self.exhausted = true;
                self.flush_inferences(pred);
            }
            return false;
        }
        let i = self.records.len() - 1 - self.consumed;
        self.consumed += 1;
        self.stats.branch_scanned += 1;
        let r = self.records[i];
        if r.kind == CtrlKind::CondBranch {
            let idx = pred.gshare.index_with(r.pc, self.ghr_before[i]);
            if !pred.gshare.is_reconstructed(idx) {
                let inf = self.inferences.entry(idx).or_default();
                inf.prepend(r.taken);
                if let Some(c) = inf.resolved() {
                    pred.gshare.set_counter(idx, c);
                    pred.gshare.mark_reconstructed(idx);
                    self.inferences.remove(&idx);
                    self.stats.pht_exact += 1;
                }
            }
        }
        if r.taken && pred.btb.reconstruct(r.pc, r.target) {
            self.stats.btb_reconstructed += 1;
        }
        true
    }

    /// Budget exhausted: every in-progress inference flushes its best
    /// guess. Bug-compatible with the original drain: keys the cluster
    /// marked *after* their last feed are overwritten anyway (the flushed
    /// guess wins over the committed counter).
    fn flush_inferences(&mut self, pred: &mut Predictor) {
        for (idx, inf) in self.inferences.drain() {
            match inf.best_guess() {
                Some(c) => {
                    pred.gshare.set_counter(idx, c);
                    self.stats.pht_guessed += 1;
                }
                None => self.stats.pht_stale += 1,
            }
            pred.gshare.mark_reconstructed(idx);
        }
    }

    /// Scans until `done(pred)` holds or the budget is exhausted; on
    /// exhaustion marks the demanded entity stale via `mark`.
    fn demand(
        &mut self,
        pred: &mut Predictor,
        done: impl Fn(&Predictor) -> bool,
        mark: impl FnOnce(&mut Predictor),
    ) {
        if done(pred) {
            return;
        }
        self.stats.demand_scans += 1;
        loop {
            if !self.step(pred) {
                mark(pred);
                return;
            }
            if done(pred) {
                return;
            }
        }
    }
}

impl PredictHook for RefBpReconstructor {
    fn before_predict(&mut self, pred: &mut Predictor, pc: Addr, kind: PredCtrlKind) {
        if kind == PredCtrlKind::CondBranch {
            let idx = pred.gshare.index(pc);
            let mut stale = false;
            self.demand(
                pred,
                |p| p.gshare.is_reconstructed(idx),
                |p| {
                    p.gshare.mark_reconstructed(idx);
                    stale = true;
                },
            );
            if stale {
                self.stats.pht_stale += 1;
            }
        }
        // Every kind except a pure return consults the BTB.
        if kind != PredCtrlKind::Return {
            self.demand(pred, |p| p.btb.is_reconstructed(pc), |p| p.btb.mark_reconstructed(pc));
        }
    }
}
