//! Reverse State Reconstruction — the paper's contribution (§3).
//!
//! Both halves run through one path: the log's reconstruction index (per
//! cache level plans and [`crate::ReconGeometry`]-keyed branch columns,
//! see `ReconIndex`). A caller whose log is unsealed, or sealed for
//! another geometry or scan budget, gets a plan or index built for that
//! call — the fit check only decides where it comes from, never which
//! algorithm runs.
//!
//! * [`reconstruct_caches_partitioned`]: §3.1 — repair L1I/L1D/L2 state
//!   by applying each level's reconstruction plan: per set, the distinct
//!   blocks the newest-first scan of the logged reference stream would
//!   reconstruct, found once per log and level, so references the scan
//!   would ignore are never visited again (ineffectual instructions
//!   isolated with no profiling).
//! * [`BpReconstructor`]: §3.2 — rebuild the global history register and
//!   the return address stack eagerly, then reconstruct PHT counters (via
//!   reverse-history inference sealed into the index) and BTB entries *on
//!   demand* as the next cluster's branches probe them, resuming one
//!   shared reverse cursor so the log is never rescanned from the start.

use std::borrow::Cow;
use std::time::Instant;

use rsr_branch::{Counter2, PredCtrlKind, Predictor, RasOp, StateMap, PACKED_IDENTITY};
use rsr_cache::{Cache, MemHierarchy};
use rsr_isa::{Addr, CtrlKind};
use rsr_timing::PredictHook;

use crate::log::{
    Level, LevelPlan, PlanKey, ReconIndex, BR_F_BTB_LW, BR_F_PHT_FLUSH_LW, BR_F_PHT_RESOLVE,
};
use crate::{Pct, ReconGeometry, SkipLog};

/// Counters describing one region's reconstruction work (for the paper's
/// storage-for-speed accounting and the ablation benches).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ReconStats {
    /// Memory log records consumed by the reverse cache scan.
    pub mem_scanned: u64,
    /// Cache blocks inserted into stale ways.
    pub cache_inserted: u64,
    /// Present-but-stale blocks marked reconstructed in place.
    pub cache_marked: u64,
    /// References ignored because a younger reference already reconstructed
    /// the block or its whole set.
    pub cache_ignored: u64,
    /// Branch log records consumed by the on-demand scan.
    pub branch_scanned: u64,
    /// PHT entries pinned exactly by inference.
    pub pht_exact: u64,
    /// PHT entries set from a partial-history best guess.
    pub pht_guessed: u64,
    /// PHT entries demanded but left stale (no history in budget).
    pub pht_stale: u64,
    /// BTB entries reconstructed.
    pub btb_reconstructed: u64,
    /// On-demand scans triggered by cluster branches.
    pub demand_scans: u64,
}

impl ReconStats {
    /// Accumulates another region's counters.
    pub fn accumulate(&mut self, other: &ReconStats) {
        self.mem_scanned += other.mem_scanned;
        self.cache_inserted += other.cache_inserted;
        self.cache_marked += other.cache_marked;
        self.cache_ignored += other.cache_ignored;
        self.branch_scanned += other.branch_scanned;
        self.pht_exact += other.pht_exact;
        self.pht_guessed += other.pht_guessed;
        self.pht_stale += other.pht_stale;
        self.btb_reconstructed += other.btb_reconstructed;
        self.demand_scans += other.demand_scans;
    }
}

/// Wall time spent reconstructing each structure, in nanoseconds.
///
/// Kept separate from [`ReconStats`] deliberately: the counters are part
/// of the deterministic result (bit-identical at any thread count /
/// pipeline depth), while timing is operational telemetry that varies run
/// to run. `BENCH_sample.json` emits these per-structure so perf
/// regressions can be attributed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ReconTiming {
    /// Reverse scan time repairing the L1I + L1D.
    pub l1_ns: u64,
    /// Reverse scan time repairing the unified L2.
    pub l2_ns: u64,
    /// On-demand scan time triggered by PHT probes.
    pub pht_ns: u64,
    /// On-demand scan time triggered by BTB probes.
    pub btb_ns: u64,
}

impl ReconTiming {
    /// Accumulates another region's timings.
    pub fn accumulate(&mut self, other: &ReconTiming) {
        self.l1_ns += other.l1_ns;
        self.l2_ns += other.l2_ns;
        self.pht_ns += other.pht_ns;
        self.btb_ns += other.btb_ns;
    }
}

/// One level's aggregate over its per-set plan applications.
struct LevelAgg {
    inserted: u64,
    marked: u64,
    /// Did every set complete within the scan window?
    complete: bool,
    /// Largest newest-first offset at which a set completed (meaningful
    /// only when `complete`; it bounds where a sequential newest-first
    /// scan would have flipped this level's done flag).
    t_level: usize,
}

/// The plan for `level` of `cache` and a scan of `log` that stops at
/// record `cut`: `plan` when it fits — keyed for this level, set
/// count, line size and associativity, sealed for this log length, and
/// built over a window reaching back to `cut` (a wider seal serves a
/// narrower scan through the prefix rule) — else one built from `log`
/// over `cut..` for this call.
fn plan_for<'a>(
    cache: &Cache,
    level: Level,
    log: &SkipLog,
    plan: Option<&'a LevelPlan>,
    cut: usize,
) -> Cow<'a, LevelPlan> {
    let key = PlanKey {
        level,
        sets: cache.num_sets(),
        line_shift: cache.line_shift(),
        assoc: cache.assoc(),
    };
    let fits = |p: &&LevelPlan| p.key == key && p.sealed == Some(log.mem_len()) && p.from <= cut;
    if let Some(p) = plan.filter(fits) {
        return Cow::Borrowed(p);
    }
    let mut p = LevelPlan::new(key);
    log.build_level_plan_into(cut, &mut p);
    Cow::Owned(p)
}

/// Applies a level's plan to `cache` for a scan of an `n`-record log that
/// stops at record `cut`: each set gets the prefix of its entries at or
/// after the cut (entries run newest first), and completes exactly when
/// that prefix holds `assoc` entries — at its last entry's record index,
/// which is where the sequential scan would have completed it.
fn apply_plan(cache: &mut Cache, plan: &LevelPlan, n: usize, cut: usize) -> LevelAgg {
    let cut = cut as u32;
    let assoc = cache.assoc();
    let mut agg = LevelAgg { inserted: 0, marked: 0, complete: true, t_level: 0 };
    for set in 0..cache.num_sets() {
        let (tags, recs) = plan.set_entries(set);
        let k = recs.partition_point(|&i| i >= cut);
        let out = cache.reconstruct_plan(set, &tags[..k]);
        agg.inserted += u64::from(out.inserted);
        agg.marked += u64::from(out.marked);
        if k == assoc {
            agg.t_level = agg.t_level.max(n - 1 - recs[k - 1] as usize);
        } else {
            agg.complete = false;
        }
    }
    agg
}

/// The branch-side index for `pred`: `index` when it was keyed for
/// `pred`'s PHT width and BTB size, this scan budget (the sealed flush
/// last-writer bits are placed relative to it; see `BR_F_PHT_FLUSH_LW`)
/// and this start GHR, else one built from `log` for this call.
fn branch_index_for<'a>(
    pred: &Predictor,
    log: &SkipLog,
    index: Option<&'a ReconIndex>,
    ghr_at_start: u64,
    pct: Pct,
) -> Cow<'a, ReconIndex> {
    let (ghr_bits, btb_entries) = (pred.gshare.hist_bits(), pred.btb.num_entries());
    let usable = |ix: &&ReconIndex| {
        ix.geom.ghr_bits == ghr_bits
            && ix.geom.btb_entries == btb_entries
            && ix.br_pct == Some(pct)
            && ix.ghr_start == ghr_at_start
    };
    if let Some(ix) = index.filter(usable) {
        return Cow::Borrowed(ix);
    }
    // A branch-side build reads only the predictor fields.
    let geom = ReconGeometry {
        l1i_sets: 0,
        l1i_line_shift: 0,
        l1i_assoc: 0,
        l1d_sets: 0,
        l1d_line_shift: 0,
        l1d_assoc: 0,
        l2_sets: 0,
        l2_line_shift: 0,
        l2_assoc: 0,
        ghr_bits,
        btb_entries,
    };
    let mut ix = ReconIndex::new(geom);
    log.build_branch_index_into(&geom, ghr_at_start, pct, &mut ix);
    Cow::Owned(ix)
}

/// Reverse cache reconstruction (§3.1) over the last `pct` of the logged
/// reference stream, by applying one reconstruction plan per level:
/// instruction records repair the L1I, data records the L1D, and both the
/// unified L2.
///
/// Counters and final cache state are those of the paper's sequential
/// newest-first scan that stops once every set of every level is
/// reconstructed: a plan holds exactly the references that scan would
/// act on, per set and in its order, mutations only ever happen before
/// its stopping point, and the scan-length accounting is reconstructed
/// from the per-set completion points (see DESIGN.md §11 for the
/// argument). The log's sealed plans are used where they fit `hier` and
/// `pct`; a level whose plan does not — unsealed, stale, sealed for
/// another geometry or associativity, or sealed over a window narrower
/// than `pct`'s — is planned for this call, over `pct`'s window only.
///
/// Returns per-structure wall time alongside the counters.
///
/// The fourth parameter is ignored: it once sized a set-range thread
/// fan-out, and is kept only so the benchmark harness (`perfbench/`)
/// keeps compiling.
pub fn reconstruct_caches_partitioned(
    hier: &mut MemHierarchy,
    log: &SkipLog,
    pct: Pct,
    _recon_threads: usize,
) -> (ReconStats, ReconTiming) {
    reconstruct_caches_partitioned_with(hier, log, log.mem_plans(), pct)
}

/// [`reconstruct_caches_partitioned`] over explicitly supplied plans (L1I,
/// L1D, L2) — the sweep engine's entry point, where the sealed log is
/// shared (immutable) across configurations and each level's plan is
/// built once per window into external scratch. The fit check is applied
/// here, so both entry points run the exact same code on the exact same
/// inputs.
pub(crate) fn reconstruct_caches_partitioned_with(
    hier: &mut MemHierarchy,
    log: &SkipLog,
    plans: [Option<&LevelPlan>; 3],
    pct: Pct,
) -> (ReconStats, ReconTiming) {
    let mut timing = ReconTiming::default();
    let n = log.mem_len();
    let budget = pct.of(n);
    let cut = n - budget;
    let [l1i_plan, l1d_plan, l2_plan] = plans;
    let l1i_plan = plan_for(&hier.l1i, Level::L1i, log, l1i_plan, cut);
    let l1d_plan = plan_for(&hier.l1d, Level::L1d, log, l1d_plan, cut);
    let l2_plan = plan_for(&hier.l2, Level::L2, log, l2_plan, cut);
    hier.begin_reconstruction();

    let t = Instant::now();
    let l1i = apply_plan(&mut hier.l1i, &l1i_plan, n, cut);
    let l1d = apply_plan(&mut hier.l1d, &l1d_plan, n, cut);
    timing.l1_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let l2 = apply_plan(&mut hier.l2, &l2_plan, n, cut);
    timing.l2_ns = t.elapsed().as_nanos() as u64;
    hier.finish_reconstruction();

    // A sequential scan stops one record past the last level-completing
    // probe (its break runs at the top of the next iteration), or at the
    // budget if any level never completes.
    let complete = l1i.complete && l1d.complete && l2.complete;
    let scanned = if complete {
        l1i.t_level.max(l1d.t_level).max(l2.t_level) as u64 + 1
    } else {
        budget as u64
    };
    let inserted = l1i.inserted + l1d.inserted + l2.inserted;
    let marked = l1i.marked + l1d.marked + l2.marked;
    let stats = ReconStats {
        mem_scanned: scanned,
        cache_inserted: inserted,
        cache_marked: marked,
        // Every sequentially scanned record yields exactly one L1 outcome
        // and one L2 outcome; whatever wasn't an insert or a mark was
        // ignored.
        cache_ignored: 2 * scanned - inserted - marked,
        ..ReconStats::default()
    };
    (stats, timing)
}

/// On-demand branch-predictor reconstruction (§3.2).
///
/// Construction rebuilds the GHR from the last *n* logged branches and the
/// RAS via the reverse push/pop-counter walk (Figure 4), and clears all
/// reconstructed bits. During the cluster, [`PredictHook::before_predict`]
/// consumes the reverse branch log just far enough to determine the probed
/// PHT/BTB entry — reconstructing every other entry it passes, so the log
/// is consumed exactly once per region.
#[derive(Debug)]
pub struct BpReconstructor<'log> {
    /// The region's log (packed branch records are materialized only as
    /// the scan demands them).
    log: &'log SkipLog,
    /// The branch-side index keyed for this predictor, scan budget and
    /// start GHR: the per-record PHT keys, scan flags and inference states
    /// and the final GHR, all computed by the seal's forward and reverse
    /// passes. Borrowed from the log or the sweep's arena when one fits,
    /// else built for this reconstructor.
    index: Cow<'log, ReconIndex>,
    /// Reverse records consumed so far.
    consumed: usize,
    /// Maximum reverse records the scan may consume.
    budget: usize,
    /// Per-key packed inference state, stored XOR [`PACKED_IDENTITY`] so
    /// zero means "no in-progress inference". The sealed `pht_state`
    /// column supplies each feed's composed state directly (marks are
    /// monotonic, so the incremental state at any performed feed is the
    /// pure log-suffix composition sealed there) — this array only
    /// remembers the *latest* fed state per key for the exhaustion flush.
    pht_live: Vec<u8>,
    /// Keys with a `pht_live` entry, in first-fed order (flush worklist).
    touched: Vec<u32>,
    /// Cursor into the sealed hot worklist (`ReconIndex::br_hot`):
    /// position of the newest flagged record not yet consumed.
    hot_pos: usize,
    exhausted: bool,
    stats: ReconStats,
    timing: ReconTiming,
}

impl<'log> BpReconstructor<'log> {
    /// Prepares on-demand reconstruction for one skip region: clears
    /// reconstructed bits, rebuilds the GHR and the RAS. Uses the log's
    /// sealed branch index when it fits `pred` and `pct`, else indexes the
    /// log for this reconstructor.
    pub fn new(pred: &mut Predictor, log: &'log SkipLog, pct: Pct) -> BpReconstructor<'log> {
        BpReconstructor::with_index(pred, log, log.branch_index(), log.ghr_at_start, pct)
    }

    /// [`BpReconstructor::new`] over an explicitly supplied index and
    /// start GHR — the sweep engine's entry point, where the sealed log is
    /// shared (immutable) across configurations, each replay builds its
    /// branch index into external scratch, and the start GHR comes from
    /// the replay's own predictor instead of the log's `ghr_at_start`
    /// field. The index check is applied here, identically for both entry
    /// points.
    pub(crate) fn with_index(
        pred: &mut Predictor,
        log: &'log SkipLog,
        index: Option<&'log ReconIndex>,
        ghr_at_start: u64,
        pct: Pct,
    ) -> BpReconstructor<'log> {
        pred.gshare.begin_reconstruction();
        pred.btb.begin_reconstruction();

        let n = log.branch_len();
        let budget = pct.of(n);
        let index = branch_index_for(pred, log, index, ghr_at_start, pct);

        // "The global history register must first be reconstructed using
        // the last n branches of the skip-region trace" — the seal's
        // forward pass already ran them.
        pred.gshare.set_ghr(index.ghr_final);

        // RAS reconstruction (Figure 4), newest-first within the budget.
        let ras_ops = (0..n).rev().take(budget).filter_map(|i| match log.branch_kind_taken(i).0 {
            CtrlKind::Call | CtrlKind::IndirectCall => Some(RasOp::Push(log.branch_pc(i) + 4)),
            CtrlKind::Return => Some(RasOp::Pop),
            _ => None,
        });
        pred.ras.reconstruct(ras_ops);

        BpReconstructor {
            log,
            index,
            consumed: 0,
            budget,
            // One zeroed byte per PHT entry (a fresh `vec!` of zeros is a
            // calloc — the kernel hands back zero pages, no memset walk).
            pht_live: vec![0u8; pred.gshare.num_entries()],
            touched: Vec::new(),
            hot_pos: 0,
            exhausted: false,
            stats: ReconStats::default(),
            timing: ReconTiming::default(),
        }
    }

    /// Reconstruction counters so far.
    pub fn stats(&self) -> ReconStats {
        self.stats
    }

    /// Wall time spent in demand scans so far (PHT/BTB buckets).
    pub fn timing(&self) -> ReconTiming {
        self.timing
    }

    /// Consumes the entire remaining budget immediately — the *eager*
    /// variant of branch-predictor reconstruction, for ablations against
    /// the paper's on-demand design. After this, no cluster branch will
    /// trigger further scanning.
    pub fn exhaust(&mut self, pred: &mut Predictor) {
        self.scan(pred, &|_| false);
        self.flush_inferences(pred);
    }

    /// Budget exhausted: every in-progress inference flushes its best
    /// guess, once. Deliberately bug-compatible with the original drain:
    /// keys the cluster marked *after* their last feed are overwritten
    /// anyway (the flushed guess wins over the committed counter), because
    /// the committed baselines pin that behavior.
    fn flush_inferences(&mut self, pred: &mut Predictor) {
        if self.exhausted {
            return;
        }
        self.exhausted = true;
        // `resolve()` over a range is a pure function of the packed state
        // byte — a one-time 256-entry table turns the per-key
        // unpack/compose/resolve chain into a single L1 load on this hot
        // flush path (one lookup per guessed entry, ~40 % of all logged
        // conditionals). Encoding: 0 = stale, else counter+1.
        static RESOLVE_LUT: std::sync::LazyLock<[u8; 256]> = std::sync::LazyLock::new(|| {
            std::array::from_fn(|raw| match StateMap::from_packed(raw as u8).range().resolve() {
                Some(c) => c.value() + 1,
                None => 0,
            })
        });
        let lut = &*RESOLVE_LUT;
        let touched = std::mem::take(&mut self.touched);
        for &k in &touched {
            let raw = self.pht_live[k as usize];
            if raw == 0 {
                continue; // resolved exactly mid-scan
            }
            match lut[(raw ^ PACKED_IDENTITY) as usize] {
                0 => self.stats.pht_stale += 1,
                c => {
                    pred.gshare.set_counter(k as usize, Counter2::new(c - 1));
                    self.stats.pht_guessed += 1;
                }
            }
            pred.gshare.mark_reconstructed(k as usize);
        }
    }

    /// Runs the reverse scan by hopping the sealed hot worklist
    /// ([`ReconIndex::br_hot`]): the seal proved every unlisted record in
    /// the window is a no-op at scan time (dead conditionals find their
    /// key already marked; unresolved feeds other than the per-key flush
    /// last-writer are overwritten before the flush can read them), so
    /// the runs between flagged records are consumed arithmetically — no
    /// per-record loop, no meta decode, no hash map. `done` is
    /// re-evaluated only at mark events (the only operations that can
    /// flip it). Bit-identical to the paper's per-record incremental
    /// scan: records are consumed whole (a record that satisfies `done`
    /// with its PHT effect still applies its BTB effect before the scan
    /// stops), and the jump accounting sums to the same consumed/scanned
    /// totals. Returns whether `done` held before the budget ran out.
    fn scan(&mut self, pred: &mut Predictor, done: &impl Fn(&Predictor) -> bool) -> bool {
        let ix: &ReconIndex = &self.index;
        let len = self.log.branch_len();
        // The sealed columns start at the budget window; `br_hot` is
        // absolute.
        let from = ix.br_from;
        let keys = ix.pht_key.as_slice();
        let states = ix.pht_state.as_slice();
        let mut finished = false;
        while self.consumed < self.budget {
            let Some(&hot) = ix.br_hot.get(self.hot_pos) else {
                // No flagged record left in the window: the rest of the
                // budget is proven no-ops, consumed wholesale.
                self.stats.branch_scanned += (self.budget - self.consumed) as u64;
                self.consumed = self.budget;
                break;
            };
            let i = hot as usize;
            // `br_hot` holds only in-window records, descending, and the
            // cursor advances in lockstep with consumption — so the next
            // flagged record always lies between the scan head and the
            // budget end.
            let cur = len - 1 - self.consumed;
            debug_assert!(i <= cur);
            let newly = cur - i + 1;
            debug_assert!(self.consumed + newly <= self.budget);
            self.consumed += newly;
            self.stats.branch_scanned += newly as u64;
            self.hot_pos += 1;
            let j = i - from;
            let f = ix.br_flags[j];
            let mut marked = false;
            if f & BR_F_PHT_RESOLVE != 0 {
                let idx = keys[j] as usize;
                pred.gshare.set_counter(idx, Counter2::new(states[j] & 3));
                pred.gshare.mark_reconstructed(idx);
                self.pht_live[idx] = 0;
                self.stats.pht_exact += 1;
                marked = true;
            } else if f & BR_F_PHT_FLUSH_LW != 0 {
                let idx = keys[j] as usize;
                if self.pht_live[idx] == 0 {
                    self.touched.push(idx as u32);
                }
                self.pht_live[idx] = states[j] ^ PACKED_IDENTITY;
            }
            if f & BR_F_BTB_LW != 0
                && pred.btb.reconstruct(self.log.branch_pc(i), self.log.branch_target(i))
            {
                self.stats.btb_reconstructed += 1;
                marked = true;
            }
            if marked && done(pred) {
                finished = true;
                break;
            }
        }
        finished
    }

    /// Scans until `done(pred)` holds or the budget is exhausted, then
    /// marks the demanded entity reconstructed via `mark`. The scan's wall
    /// time lands in the `structure` timing bucket; the already-satisfied
    /// fast path (the common case inside a hot cluster) pays no clock
    /// read.
    fn demand(
        &mut self,
        pred: &mut Predictor,
        structure: DemandedStructure,
        done: impl Fn(&Predictor) -> bool,
        mark: impl FnOnce(&mut Predictor),
    ) {
        if done(pred) {
            return;
        }
        self.stats.demand_scans += 1;
        let t = Instant::now();
        if !self.scan(pred, &done) {
            self.flush_inferences(pred);
            // Budget exhausted without evidence: the entry keeps its
            // stale content, marked so it is never demanded again.
            mark(pred);
        }
        let ns = t.elapsed().as_nanos() as u64;
        match structure {
            DemandedStructure::Pht => self.timing.pht_ns += ns,
            DemandedStructure::Btb => self.timing.btb_ns += ns,
        }
    }
}

/// Which structure a demand scan was triggered by (timing attribution).
#[derive(Copy, Clone)]
enum DemandedStructure {
    Pht,
    Btb,
}

impl PredictHook for BpReconstructor<'_> {
    #[inline]
    fn before_predict(&mut self, pred: &mut Predictor, pc: Addr, kind: PredCtrlKind) {
        if kind == PredCtrlKind::CondBranch {
            let idx = pred.gshare.index(pc);
            let mut stale = false;
            self.demand(
                pred,
                DemandedStructure::Pht,
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
            self.demand(
                pred,
                DemandedStructure::Btb,
                |p| p.btb.is_reconstructed(pc),
                |p| p.btb.mark_reconstructed(pc),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_branch::{Counter2, PredictorConfig};
    use rsr_cache::HierarchyConfig;
    use rsr_func::Retired;
    use rsr_isa::{Addr as IsaAddr, Inst, Op};

    fn mem_retired(seq: u64, pc: IsaAddr, addr: IsaAddr, store: bool) -> Retired {
        Retired {
            seq,
            pc,
            next_pc: pc + 4,
            inst: Inst::new(if store { Op::Sd } else { Op::Ld }, 1, 2, 1, 0),
            mem: Some(rsr_func::MemAccess { addr, width: rsr_isa::MemWidth::B8, is_store: store }),
            branch: None,
        }
    }

    fn branch_retired(seq: u64, pc: IsaAddr, taken: bool, target: IsaAddr) -> Retired {
        Retired {
            seq,
            pc,
            next_pc: if taken { target } else { pc + 4 },
            inst: Inst::new(Op::Bne, 0, 1, 2, (target as i64 - pc as i64) as i32),
            mem: None,
            branch: Some(rsr_func::BranchRec { kind: CtrlKind::CondBranch, taken, target }),
        }
    }

    #[test]
    fn cache_reconstruction_reaches_all_levels() {
        let mut hier = MemHierarchy::new(HierarchyConfig::paper());
        let mut log = SkipLog::new(true, false, 0);
        for k in 0..200u64 {
            log.record(&mem_retired(k, 0x1_0000 + (k % 4) * 4, 0x40_0000 + k * 64, false));
        }
        let (stats, _) = reconstruct_caches_partitioned(&mut hier, &log, Pct::new(100), 1);
        assert!(stats.cache_inserted > 0);
        // The touched lines must now be present in L1D and L2.
        assert!(hier.l1d.probe(0x40_0000 + 199 * 64));
        assert!(hier.l2.probe(0x40_0000 + 199 * 64));
        // And the instruction line in the L1I.
        assert!(hier.l1i.probe(0x1_0000));
    }

    #[test]
    fn cache_budget_limits_scan() {
        let mut hier = MemHierarchy::new(HierarchyConfig::paper());
        let mut log = SkipLog::new(true, false, 0);
        for k in 0..1000u64 {
            log.record(&mem_retired(k, 0x1_0000, 0x40_0000 + k * 64, false));
        }
        let n_mem = log.mem_len();
        let (stats, _) = reconstruct_caches_partitioned(&mut hier, &log, Pct::new(20), 1);
        assert!(stats.mem_scanned <= Pct::new(20).of(n_mem) as u64);
        // Newest references are reconstructed, oldest are not.
        assert!(hier.l1d.probe(0x40_0000 + 999 * 64));
        assert!(!hier.l1d.probe(0x40_0000));
    }

    #[test]
    fn writes_allocate_during_reconstruction() {
        // WTNA would not allocate a write during normal simulation, but the
        // paper allocates logged writes during reconstruction.
        let mut hier = MemHierarchy::new(HierarchyConfig::paper());
        let mut log = SkipLog::new(true, false, 0);
        log.record(&mem_retired(0, 0x1_0000, 0x7000, true));
        reconstruct_caches_partitioned(&mut hier, &log, Pct::new(100), 1);
        assert!(hier.l1d.probe(0x7000));
    }

    fn pred() -> Predictor {
        Predictor::new(PredictorConfig { ghr_bits: 8, btb_entries: 64, ras_entries: 4 })
    }

    #[test]
    fn ghr_reconstructed_from_log_tail() {
        let mut p = pred();
        let mut log = SkipLog::new(false, true, 0b1010);
        // Three conditional branches: T, NT, T.
        for (k, taken) in [(0u64, true), (1, false), (2, true)] {
            log.record(&branch_retired(k, 0x1000 + k * 4, taken, 0x2000));
        }
        let _r = BpReconstructor::new(&mut p, &log, Pct::new(100));
        // ghr_at_start=0b1010, then shifted T,NT,T -> 0b1010101 & mask.
        assert_eq!(p.gshare.ghr(), 0b101_0101 & p.gshare.ghr_mask());
    }

    #[test]
    fn demand_scan_pins_counter_from_history() {
        let mut p = pred();
        let mut log = SkipLog::new(false, true, 0);
        let pc = 0x1000;
        // Same branch taken repeatedly with a constant GHR? The GHR shifts,
        // so replicate a steady pattern: all taken saturates the GHR at
        // all-ones, making the last indices identical.
        for k in 0..40u64 {
            log.record(&branch_retired(k, pc, true, 0x2000));
        }
        let mut r = BpReconstructor::new(&mut p, &log, Pct::new(100));
        // The cluster's first probe of this branch (GHR = all ones).
        r.before_predict(&mut p, pc, PredCtrlKind::CondBranch);
        let idx = p.gshare.index(pc);
        assert!(p.gshare.is_reconstructed(idx));
        assert_eq!(p.gshare.counter_at(idx), Counter2::STRONG_T);
        // And the BTB learned the target on the same scan.
        r.before_predict(&mut p, pc, PredCtrlKind::CondBranch);
        assert_eq!(p.btb.peek(pc), Some(0x2000));
        assert!(r.stats().pht_exact >= 1);
    }

    #[test]
    fn no_history_leaves_counter_stale() {
        let mut p = pred();
        // Pre-set a counter to a known stale value via direct update.
        let stale_pc = 0x5550;
        let idx = p.gshare.index_with(stale_pc, 0);
        p.gshare.set_counter(idx, Counter2::STRONG_T);

        let log = SkipLog::new(false, true, 0); // empty log
        let mut r = BpReconstructor::new(&mut p, &log, Pct::new(100));
        p.gshare.set_ghr(0);
        r.before_predict(&mut p, stale_pc, PredCtrlKind::CondBranch);
        // Stale value preserved, entry marked so it is not demanded again.
        assert_eq!(p.gshare.counter_at(idx), Counter2::STRONG_T);
        assert!(p.gshare.is_reconstructed(idx));
        assert!(r.stats().pht_stale >= 1);
    }

    #[test]
    fn shared_cursor_never_rescans() {
        let mut p = pred();
        let mut log = SkipLog::new(false, true, 0);
        for k in 0..100u64 {
            log.record(&branch_retired(k, 0x1000 + (k % 10) * 4, k % 2 == 0, 0x2000));
        }
        let mut r = BpReconstructor::new(&mut p, &log, Pct::new(100));
        r.before_predict(&mut p, 0x1000, PredCtrlKind::CondBranch);
        let scanned_once = r.stats().branch_scanned;
        r.before_predict(&mut p, 0x1000, PredCtrlKind::CondBranch);
        // Second demand for an already-reconstructed entry consumes nothing.
        assert_eq!(r.stats().branch_scanned, scanned_once);
    }

    #[test]
    fn ras_reconstructed_from_calls() {
        let mut p = pred();
        let mut log = SkipLog::new(false, true, 0);
        // Two calls deep at the end of the skip region.
        for (k, pc) in [(0u64, 0x1000u64), (1, 0x1100)] {
            log.record(&Retired {
                seq: k,
                pc,
                next_pc: 0x3000,
                inst: Inst::new(Op::Jal, 1, 0, 0, 0),
                mem: None,
                branch: Some(rsr_func::BranchRec {
                    kind: CtrlKind::Call,
                    taken: true,
                    target: 0x3000,
                }),
            });
        }
        let _r = BpReconstructor::new(&mut p, &log, Pct::new(100));
        assert_eq!(p.ras.pop(), 0x1100 + 4);
        assert_eq!(p.ras.pop(), 0x1000 + 4);
    }
}
