//! Skip-region logging (paper §3: "While skipping between clusters, the
//! data necessary for reconstruction are recorded").
//!
//! Memory records keep the paper's fields — current PC, next PC, the
//! data/instruction address, an entry-type flag (instruction vs. data) and a
//! reference-type flag (load vs. store). Branch records keep PC, next PC,
//! outcome, target, and the control kind (the paper's "opcode, source
//! register, and instruction flags" distill to exactly the kind: what the
//! predictor must do with the record).
//!
//! Instruction references are logged at cache-line granularity (a record is
//! appended only when fetch crosses into a different line) — reconstruction
//! is line-granular, so finer logging would only burn memory.
//!
//! # Packed representation
//!
//! The log runs once per retired instruction over ~99 % of the program, so
//! its resident size and append cost dominate the cold phase. Records are
//! therefore stored as packed structure-of-arrays columns instead of padded
//! 32-byte structs:
//!
//! * memory references: a `u64` address column, a `u32` side column, and a
//!   2-bit-per-record tag bitmap (`is_inst`, `is_store`) — 12.25 bytes per
//!   record. The side column holds the one field not derivable from the
//!   address: `next_pc` for fetch records (whose `pc == addr` by
//!   construction) and `pc` for data records (whose `next_pc == pc + 4`,
//!   since loads and stores never branch).
//! * branches: 16-byte [`PackedBranch`] records — the 64-bit target, a
//!   32-bit PC, and kind+outcome folded into one meta byte. `next_pc` is
//!   derived as `target` if taken, else `pc + 4`.
//!
//! Records that defy these derivations (possible only for synthetic
//! [`Retired`] streams, never for instructions the functional CPU retires)
//! spill their full `pc`/`next_pc` into small side tables, so the packing
//! is lossless for *any* record stream. Consumers materialize full
//! [`MemRecord`]/[`BranchRecord`] values through [`SkipLog::mem_records`],
//! [`SkipLog::branch_records`], and the indexed accessors; newest-first
//! cache scans ([`SkipLog::mem_refs_rev`] and the reconstruction-plan
//! build) touch only the address and tag columns.
//!
//! Byte accounting ([`SkipLog::approx_bytes`], the budget check, and
//! [`SkipLog::peak_bytes`]) is maintained incrementally — O(1) per append,
//! nothing recomputed.

use std::io::{self, Read, Write};

use rsr_branch::{PACKED_IDENTITY, PACKED_PREPEND};
use rsr_func::{Cpu, ExecError, RetireSink, Retired};
use rsr_isa::{Addr, CtrlKind};

use crate::policy::Pct;

/// One logged memory reference (materialized view; storage is packed).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemRecord {
    /// PC of the instruction that made the reference.
    pub pc: Addr,
    /// Next PC after it.
    pub next_pc: Addr,
    /// Referenced address (instruction address for fetch records).
    pub addr: Addr,
    /// Entry type: `true` for an instruction-fetch reference.
    pub is_inst: bool,
    /// Reference type: `true` for stores.
    pub is_store: bool,
}

/// One logged control transfer (materialized view; storage is packed).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BranchRecord {
    /// PC of the transfer.
    pub pc: Addr,
    /// Next PC actually executed.
    pub next_pc: Addr,
    /// Taken-path target (static target for not-taken conditionals).
    pub target: Addr,
    /// Control kind.
    pub kind: CtrlKind,
    /// Outcome.
    pub taken: bool,
}

/// Packed branch storage: 16 bytes per record.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct PackedBranch {
    /// Taken-path target.
    target: u64,
    /// Branch PC, when it fits 32 bits and `next_pc` is derivable
    /// (otherwise 0 and the record's [`BrExt`] entry holds the truth).
    pc32: u32,
    /// Bit 0: taken; bits 1–3: control kind; bit 4: ext-table entry.
    meta: u8,
}

const BR_TAKEN: u8 = 1;
const BR_KIND_SHIFT: u8 = 1;
const BR_EXT: u8 = 1 << 4;

/// Spilled fields for a memory record the packed columns cannot derive.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct MemExt {
    index: u64,
    pc: Addr,
    next_pc: Addr,
}

/// Spilled fields for a branch record the packed layout cannot derive.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct BrExt {
    index: u64,
    pc: Addr,
    next_pc: Addr,
}

/// Tags are 2 bits each, 32 to a `u64` bitmap word.
const TAGS_PER_WORD: usize = 32;
const TAG_WORD_BYTES: usize = 8;
/// Address word + side word per memory record (the amortized 0.25 tag
/// bytes are charged when a bitmap word is allocated).
const MEM_RECORD_BYTES: usize = 8 + 4;
const BRANCH_RECORD_BYTES: usize = std::mem::size_of::<PackedBranch>();
const EXT_ENTRY_BYTES: usize = 24;
/// Side-column sentinel: the record's `pc`/`next_pc` live in the ext table.
const SIDE_EXT: u32 = u32::MAX;

/// The log of one skip region. Data are kept only for the current region
/// and discarded when its cluster finishes (paper §3), bounding storage.
///
/// An optional byte budget ([`SkipLog::set_budget`]) hard-caps the region:
/// the first record that would push the log past the budget discards the
/// whole log and marks it [`SkipLog::truncated`] — the paper's no-history
/// fallback (§3.2), where the cluster runs from stale state instead of a
/// reconstruction that would need an unbounded reference history. Whether
/// a region truncates depends only on its own deterministic record stream,
/// so budget-driven degradation is identical at every thread count.
///
/// # Truncation, emptiness, and the append counter
///
/// Three observers describe a region's history and they are *not*
/// redundant:
///
/// * [`SkipLog::appended`] counts every record the region produced,
///   including any the budget later discarded;
/// * [`SkipLog::is_empty`] (and [`SkipLog::len`]) describe what is
///   *resident* right now;
/// * [`SkipLog::truncated`] says whether the budget fired.
///
/// A budget-truncated region is therefore **empty but has
/// `appended() > 0`** — merge and accounting code must use `appended()`
/// for "how much was logged" and `truncated()` for "is the history
/// complete", never `is_empty()` for either (an empty log also arises from
/// a region that simply logged nothing). [`SkipLog::peak_bytes`] likewise
/// survives truncation: it reports the high-water resident size *before*
/// the discard.
#[derive(Clone, Debug)]
pub struct SkipLog {
    /// Referenced address of each memory record.
    mem_addr: Vec<u64>,
    /// Non-derivable field of each memory record: `next_pc` for fetch
    /// records, `pc` for data records, [`SIDE_EXT`] when spilled.
    mem_side: Vec<u32>,
    /// 2-bit tags (`is_inst`, `is_store << 1`), 32 records per word.
    mem_tags: Vec<u64>,
    /// Spilled memory records, ascending by record index.
    mem_ext: Vec<MemExt>,
    branches: Vec<PackedBranch>,
    /// Spilled branch records, ascending by record index.
    br_ext: Vec<BrExt>,
    /// Line of the previous fetch (`NO_LINE` before the first).
    last_fetch_line: Addr,
    /// Global history register value when logging began (end of the
    /// previous cluster) — seeds GHR inference for the earliest records.
    pub ghr_at_start: u64,
    log_mem: bool,
    log_branches: bool,
    /// Byte cap for the region (`None` = unbounded). Survives
    /// [`SkipLog::reset`]: it is a property of the run, not the region.
    budget: Option<usize>,
    /// Set once the budget is exhausted; recording stops for the region.
    truncated: bool,
    /// Current resident bytes, maintained incrementally per append.
    bytes: usize,
    /// Largest resident size observed this region (before any discard).
    peak_bytes: usize,
    /// Records appended this region, including any later discarded.
    appended: u64,
    /// Reconstruction index: per-level cache plans and the branch-side
    /// columns sealed over the SoA columns (see [`ReconIndex`]). Never
    /// serialized; unsealed by [`SkipLog::reset`] and budget truncation,
    /// and used by reconstruction only while the sealed lengths still
    /// match the columns. Boxed so an unindexed log stays one
    /// pointer wider.
    index: Option<Box<ReconIndex>>,
}

impl Default for SkipLog {
    fn default() -> Self {
        SkipLog::new(true, true, 0)
    }
}

const LINE_MASK: u64 = !63;
const NO_LINE: Addr = u64::MAX;

/// Ext-table spill for a memory record whose PCs the packed side column
/// cannot derive. Outlined and cold: real CPU-retired streams never take
/// it, and keeping it out of the fused cold-phase sink keeps that sink
/// small enough to inline into the superblock walk.
#[cold]
#[inline(never)]
fn spill_mem(
    ext: &mut Vec<MemExt>,
    index: usize,
    pc: Addr,
    next_pc: Addr,
    bytes: &mut usize,
) -> u32 {
    ext.push(MemExt { index: index as u64, pc, next_pc });
    *bytes += EXT_ENTRY_BYTES;
    SIDE_EXT
}

/// Ext-table spill for a branch record (see [`spill_mem`]).
#[cold]
#[inline(never)]
fn spill_br(ext: &mut Vec<BrExt>, index: usize, pc: Addr, next_pc: Addr, bytes: &mut usize) -> u32 {
    ext.push(BrExt { index: index as u64, pc, next_pc });
    *bytes += EXT_ENTRY_BYTES;
    0
}

/// The budget-free cold-phase record sink, fused into the superblock
/// dispatch loop via [`RetireSink`] — the `#[inline(always)]` on `retire`
/// is binding on the inliner, where the closure form of [`Cpu::step_n`]
/// gets outlined once the sink body is nontrivial, costing a call per
/// retired instruction.
///
/// Holds the packed record columns split out of [`SkipLog`] plus the two
/// pieces of per-region state the hot path keeps in registers: the
/// fetch-line dedup tag and the running ext-spill byte count. The byte
/// and record counters of the owning log are *not* maintained here —
/// [`SkipLog::region_loop_fast`] settles them from the column-length
/// deltas when the region ends.
struct FastSink<'a, const MEM: bool, const BR: bool> {
    mem_addr: &'a mut Vec<u64>,
    mem_side: &'a mut Vec<u32>,
    mem_tags: &'a mut Vec<u64>,
    mem_ext: &'a mut Vec<MemExt>,
    branches: &'a mut Vec<PackedBranch>,
    br_ext: &'a mut Vec<BrExt>,
    last_line: Addr,
    spill_bytes: usize,
}

impl<const MEM: bool, const BR: bool> RetireSink for FastSink<'_, MEM, BR> {
    #[inline(always)]
    fn retire(&mut self, r: &Retired) {
        if MEM {
            let line = r.pc & LINE_MASK;
            if self.last_line != line {
                self.last_line = line;
                // Fetch-line record: `pc == addr` by construction, so the
                // side word keeps `next_pc` when it fits.
                let i = self.mem_addr.len();
                if i.is_multiple_of(TAGS_PER_WORD) {
                    self.mem_tags.push(0);
                }
                self.mem_tags[i / TAGS_PER_WORD] |= 1u64 << ((i % TAGS_PER_WORD) * 2);
                self.mem_addr.push(r.pc);
                let side = if r.next_pc < SIDE_EXT as u64 {
                    r.next_pc as u32
                } else {
                    spill_mem(self.mem_ext, i, r.pc, r.next_pc, &mut self.spill_bytes)
                };
                self.mem_side.push(side);
            }
            if let Some(m) = r.mem {
                // Data record: loads and stores never branch, so the side
                // word keeps `pc` and derives `next_pc`.
                let i = self.mem_addr.len();
                if i.is_multiple_of(TAGS_PER_WORD) {
                    self.mem_tags.push(0);
                }
                self.mem_tags[i / TAGS_PER_WORD] |=
                    ((m.is_store as u64) << 1) << ((i % TAGS_PER_WORD) * 2);
                self.mem_addr.push(m.addr);
                let side = if r.next_pc == r.pc.wrapping_add(4) && r.pc < SIDE_EXT as u64 {
                    r.pc as u32
                } else {
                    spill_mem(self.mem_ext, i, r.pc, r.next_pc, &mut self.spill_bytes)
                };
                self.mem_side.push(side);
            }
        }
        if BR {
            if let Some(b) = r.branch {
                let derived = if b.taken { b.target } else { r.pc.wrapping_add(4) };
                let mut meta = (b.taken as u8) | (kind_to_u8(b.kind) << BR_KIND_SHIFT);
                let pc32 = match u32::try_from(r.pc) {
                    Ok(p) if r.next_pc == derived => p,
                    _ => {
                        meta |= BR_EXT;
                        spill_br(
                            self.br_ext,
                            self.branches.len(),
                            r.pc,
                            r.next_pc,
                            &mut self.spill_bytes,
                        )
                    }
                };
                self.branches.push(PackedBranch { target: b.target, pc32, meta });
            }
        }
    }
}

/// "Not a conditional branch" marker in the [`ReconIndex`] PHT key column
/// (real PHT keys fit because gshare history is capped at 26 bits), and
/// the per-stream record ceiling of a non-truncated log — every sealed
/// record index must fit in a u32 (see [`over_record_ceiling`]).
pub(crate) const CHAIN_NONE: u32 = u32::MAX;

/// Whether a region holding `mem` memory and `branches` branch records is
/// past the indexable ceiling. Such a region is truncated exactly like a
/// budget overflow, so every log that reconstructs can be indexed.
pub(crate) const fn over_record_ceiling(mem: usize, branches: usize) -> bool {
    mem >= CHAIN_NONE as usize || branches >= CHAIN_NONE as usize
}

/// The structure geometry a [`ReconIndex`] was sealed for.
///
/// Derivable from configuration alone — a sweep seals reconstruction
/// plans without ever holding a cache or predictor instance — and stored
/// with the index so consumers can verify each side matches their
/// structures before trusting it (on a mismatch the consumer builds for
/// its own geometry instead).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ReconGeometry {
    /// L1I set count (power of two).
    pub l1i_sets: usize,
    /// L1I line-offset shift (log₂ line bytes).
    pub l1i_line_shift: u32,
    /// L1I associativity.
    pub l1i_assoc: usize,
    /// L1D set count.
    pub l1d_sets: usize,
    /// L1D line-offset shift.
    pub l1d_line_shift: u32,
    /// L1D associativity.
    pub l1d_assoc: usize,
    /// Unified L2 set count.
    pub l2_sets: usize,
    /// L2 line-offset shift.
    pub l2_line_shift: u32,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// gshare global-history bits (PHT index width, ≤ 26).
    pub ghr_bits: u32,
    /// BTB entry count (power of two).
    pub btb_entries: usize,
}

impl ReconGeometry {
    /// The geometry of a configured machine.
    pub fn of_machine(machine: &crate::MachineConfig) -> ReconGeometry {
        let h = &machine.hier;
        ReconGeometry {
            l1i_sets: h.l1i.num_sets(),
            l1i_line_shift: h.l1i.line_bytes.trailing_zeros(),
            l1i_assoc: h.l1i.assoc,
            l1d_sets: h.l1d.num_sets(),
            l1d_line_shift: h.l1d.line_bytes.trailing_zeros(),
            l1d_assoc: h.l1d.assoc,
            l2_sets: h.l2.num_sets(),
            l2_line_shift: h.l2.line_bytes.trailing_zeros(),
            l2_assoc: h.l2.assoc,
            ghr_bits: machine.pred.ghr_bits,
            btb_entries: machine.pred.btb_entries,
        }
    }

    /// The keys of the L1I, L1D and L2 plans, in that order.
    pub(crate) fn plan_keys(&self) -> [PlanKey; 3] {
        [
            PlanKey {
                level: Level::L1i,
                sets: self.l1i_sets,
                line_shift: self.l1i_line_shift,
                assoc: self.l1i_assoc,
            },
            PlanKey {
                level: Level::L1d,
                sets: self.l1d_sets,
                line_shift: self.l1d_line_shift,
                assoc: self.l1d_assoc,
            },
            PlanKey {
                level: Level::L2,
                sets: self.l2_sets,
                line_shift: self.l2_line_shift,
                assoc: self.l2_assoc,
            },
        ]
    }
}

/// A cache level of the reconstructed hierarchy, which fixes the records
/// its plan reads: instruction records repair the L1I, data records the
/// L1D, and both the unified L2.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Level {
    L1i,
    L1d,
    L2,
}

/// Everything a [`LevelPlan`]'s entries depend on besides the log: the
/// level (which records it reads), the set geometry (which set and tag a
/// record maps to) and the associativity (how many distinct blocks a set
/// keeps).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct PlanKey {
    pub(crate) level: Level,
    pub(crate) sets: usize,
    pub(crate) line_shift: u32,
    pub(crate) assoc: usize,
}

/// One cache level's reconstruction plan (paper §3.1 exploited
/// structurally): for every set, the first `assoc` distinct tags the
/// newest-first scan meets in the scan window, each with the newest record
/// index that referenced it.
///
/// The reverse scan ignores every reference to a block it has already
/// reconstructed and every reference to a complete set, so *which* blocks
/// a set reconstructs, and in which order, is a function of the log, the
/// set geometry and the budget alone; a hierarchy's own stale content only
/// decides whether each planned block is inserted or marked in place
/// ([`rsr_cache::Cache::reconstruct_plan`]). One plan therefore serves
/// every hierarchy whose level matches its [`PlanKey`].
///
/// A set's entries run in descending record order, so a plan sealed over
/// window `from..` serves any scan whose cut is at or after `from`: the
/// scan's plan is the prefix of entries at or after the cut (the prefix
/// rule). Resident cost is one tag and one u32 per cache line plus one
/// u32 per set, whatever the window's length.
#[derive(Clone, Debug)]
pub(crate) struct LevelPlan {
    pub(crate) key: PlanKey,
    /// The plan describes exactly this `mem_len` (`None` = not sealed).
    pub(crate) sealed: Option<usize>,
    /// First memory record of the window the plan was built over.
    pub(crate) from: usize,
    /// Entry count per set (≤ `assoc`).
    lens: Vec<u32>,
    /// Set `s` owns `tags[s * assoc..][..lens[s]]`, newest first.
    tags: Vec<u64>,
    /// Newest referencing record of each entry, parallel to `tags`.
    recs: Vec<u32>,
}

impl LevelPlan {
    pub(crate) fn new(key: PlanKey) -> LevelPlan {
        LevelPlan {
            key,
            sealed: None,
            from: 0,
            lens: Vec::new(),
            tags: Vec::new(),
            recs: Vec::new(),
        }
    }

    /// Re-keys the plan, keeping its allocations: the build sizes its
    /// columns from the key on each call, so one plan buffer serves many
    /// geometries back to back.
    pub(crate) fn retarget(&mut self, key: PlanKey) {
        self.key = key;
        self.sealed = None;
    }

    /// Set `set`'s entries, newest first: their tags and the newest record
    /// index referencing each.
    pub(crate) fn set_entries(&self, set: usize) -> (&[u64], &[u32]) {
        let base = set * self.key.assoc;
        let len = self.lens[set] as usize;
        (&self.tags[base..base + len], &self.recs[base..base + len])
    }
}

/// The reconstruction index sealed into a log: one [`LevelPlan`] per cache
/// level (the memory side), plus the branch side's sealed PHT-key column,
/// scan verdicts and final GHR.
///
/// Both sides cover only a *scan window*, the newest records of the log:
/// the percentage parameter limits reconstruction to the last `pct` of
/// the trace (paper §3), so records older than the window are logged but
/// never read. Each plan covers its own window and serves any scan whose
/// cut is at or after the window's start (a wider seal serves a narrower
/// budget through the prefix rule); the branch side covers exactly its
/// sealed budget's window, `br_from..branch_len`.
///
/// The memory side is keyed per level, not by this index's `geom`: each
/// plan carries its [`PlanKey`] and sealed length, and a consumer applies
/// a plan only when both match its own cache and log.
///
/// The branch side deliberately has **no** per-entry plans: the demand
/// scan's shared reverse cursor must consume every passed record to stay
/// bit-identical to the sequential path (each passed record feeds other
/// entries' inferences and the BTB), so an entry-skipping walk is
/// unusable. What *can* move to seal time is the GHR forward pass: the
/// per-record PHT keys and the region-final GHR. The forward pass starts
/// at the window, from the GHR a back-walk over the newest `ghr_bits`
/// conditionals before it rebuilds ([`SkipLog::ghr_entering`]).
///
/// A record index ≥ `u32::MAX` cannot be indexed, so no non-truncated log
/// holds that many records in either stream ([`over_record_ceiling`]):
/// every log that reconstructs can be sealed.
#[derive(Clone, Debug)]
pub(crate) struct ReconIndex {
    /// Geometry the branch side was keyed by.
    pub(crate) geom: ReconGeometry,
    /// The memory side: the L1I, L1D and L2 plans, in that order.
    pub(crate) plans: [LevelPlan; 3],
    /// Branch-side columns are valid for exactly this `branch_len`.
    br_sealed: Option<usize>,
    /// First branch record of the sealed budget's window: `pht_key`,
    /// `br_flags` and `pht_state` entry `j` describe record `br_from + j`.
    pub(crate) br_from: usize,
    /// Scan budget percentage the branch-side flags were sealed under —
    /// [`BR_F_PHT_FLUSH_LW`] placement depends on the budget window, so a
    /// reconstructor running a different budget must not use the index.
    pub(crate) br_pct: Option<Pct>,
    /// PHT index probed by each window branch record (`CHAIN_NONE` for
    /// non-conditional records), from the sealed GHR forward pass;
    /// relative to `br_from`.
    pub(crate) pht_key: Vec<u32>,
    /// Per-record scan verdicts ([`BR_F_BTB_LW`] / [`BR_F_PHT_RESOLVE`] /
    /// [`BR_F_PHT_FLUSH_LW`]): everything the demand scan needs about a
    /// record, in one byte, so it never decodes the packed meta column.
    /// Relative to `br_from`.
    pub(crate) br_flags: Vec<u8>,
    /// Compacted demand-scan worklist: absolute indices of the window
    /// records with any effectful flag ([`BR_F_PHT_RESOLVE`] /
    /// [`BR_F_PHT_FLUSH_LW`] / [`BR_F_BTB_LW`]), descending
    /// (newest-first). Every other record in the window is a proven no-op,
    /// so the scan hops this list and accounts the skipped runs
    /// arithmetically instead of iterating 1-by-1 over the flags column.
    pub(crate) br_hot: Vec<u32>,
    /// Packed [`rsr_branch::StateMap`] of a window record's PHT entry after
    /// the newest-first scan has consumed it — the counter-inference state
    /// precomputed at seal time (meaningful for conditional records only);
    /// relative to `br_from`. Because reconstructed marks are monotonic
    /// within a region, the demand scan's incremental inference state at
    /// any feed it actually performs equals this pure function of the log
    /// suffix.
    pub(crate) pht_state: Vec<u8>,
    /// GHR after the whole region (what `Gshare::set_ghr` must receive).
    pub(crate) ghr_final: u64,
    /// `ghr_at_start` value the PHT keys were hashed under — every key
    /// depends on it, so a changed start GHR invalidates the seal.
    pub(crate) ghr_start: u64,
    /// Branch-seal flush last-writer candidates, kept so pooled logs
    /// re-seal without reallocating.
    lw_scratch: Vec<u32>,
    /// Branch-seal scratch (per-key inference state + BTB seen bitmap),
    /// kept for the same reason.
    br_scratch: Vec<u8>,
}

/// [`ReconIndex::br_flags`] bit: *last writer* of its BTB slot — the
/// newest taken record mapping to that slot in the scan window. In the
/// newest-first scan only the first record to reach an unmarked slot ever
/// writes it, and marks are monotonic, so every non-last-writer record is
/// a guaranteed no-op: a newer record for the slot was scanned earlier
/// (budgets truncate the *old* end of the scan) and either wrote-and-
/// marked the slot or found it already marked. The scan can therefore
/// skip the BTB probe for all but these records.
pub(crate) const BR_F_BTB_LW: u8 = 1 << 2;
/// [`ReconIndex::br_flags`] bit: this record *is* its PHT key's
/// exact-resolution point — the newest record at which the sealed
/// inference state pins the counter uniquely — and the key cannot already
/// be marked when the monotonic cursor gets here (marks before exhaustion
/// happen only at resolution points, one per key), so the scan applies
/// `set_counter` + `mark_reconstructed` without probing the reconstructed
/// bitset first.
pub(crate) const BR_F_PHT_RESOLVE: u8 = 1 << 4;
/// [`ReconIndex::br_flags`] bit: the *oldest* never-resolving
/// conditional for its PHT key within the sealed scan budget — the one
/// record whose composed state the exhaustion flush will read (older
/// feeds of the same key overwrite newer ones, and the flush can only
/// fire after the scan has consumed the whole budget window). Every
/// other unresolved conditional's bookkeeping write is provably
/// overwritten before it can be observed, so the scan skips it. Valid
/// only for the budget the index was sealed under
/// ([`ReconIndex::br_pct`]); a reconstructor running a different budget
/// builds its own index.
pub(crate) const BR_F_PHT_FLUSH_LW: u8 = 1 << 5;

impl ReconIndex {
    pub(crate) fn new(geom: ReconGeometry) -> ReconIndex {
        ReconIndex {
            geom,
            plans: geom.plan_keys().map(LevelPlan::new),
            br_sealed: None,
            br_from: 0,
            br_pct: None,
            pht_key: Vec::new(),
            br_flags: Vec::new(),
            br_hot: Vec::new(),
            pht_state: Vec::new(),
            ghr_final: 0,
            ghr_start: 0,
            lw_scratch: Vec::new(),
            br_scratch: Vec::new(),
        }
    }

    /// Drops the sealed branch side but keeps every allocation (indexes
    /// ride pooled logs across regions, like the columns they describe).
    fn unseal_branch(&mut self) {
        self.br_sealed = None;
        self.br_pct = None;
    }

    /// Drops both sealed sides, keeping every allocation.
    fn unseal(&mut self) {
        for plan in &mut self.plans {
            plan.sealed = None;
        }
        self.unseal_branch();
    }

    /// Re-keys the branch side to a different geometry, keeping every
    /// allocation. The build sizes its columns from the geometry and
    /// record count on each call, so one scratch index can serve many
    /// machine configs back to back — the sweep engine retargets per
    /// config instead of holding one index per config resident.
    pub(crate) fn retarget(&mut self, geom: ReconGeometry) {
        self.geom = geom;
        self.unseal_branch();
    }
}

impl SkipLog {
    /// Creates an empty log recording the requested streams.
    pub fn new(log_mem: bool, log_branches: bool, ghr_at_start: u64) -> SkipLog {
        SkipLog {
            mem_addr: Vec::new(),
            mem_side: Vec::new(),
            mem_tags: Vec::new(),
            mem_ext: Vec::new(),
            branches: Vec::new(),
            br_ext: Vec::new(),
            last_fetch_line: NO_LINE,
            ghr_at_start,
            log_mem,
            log_branches,
            budget: None,
            truncated: false,
            bytes: 0,
            peak_bytes: 0,
            appended: 0,
            index: None,
        }
    }

    /// Builds a log directly from materialized records (tests, offline
    /// tooling, and the v1 deserializer). Both streams are marked enabled.
    pub fn from_records<M, B>(mem: M, branches: B, ghr_at_start: u64) -> SkipLog
    where
        M: IntoIterator<Item = MemRecord>,
        B: IntoIterator<Item = BranchRecord>,
    {
        let mut log = SkipLog::new(true, true, ghr_at_start);
        for m in mem {
            log.push_mem(m.pc, m.next_pc, m.addr, m.is_inst, m.is_store);
        }
        for b in branches {
            log.push_branch(b.pc, b.next_pc, b.target, b.kind, b.taken);
        }
        log.peak_bytes = log.bytes;
        log.enforce_record_ceiling();
        log
    }

    /// Clears the log for a new skip region, keeping allocated capacity
    /// (logs are reused across regions to avoid reallocation churn) and
    /// the configured budget.
    pub fn reset(&mut self, log_mem: bool, log_branches: bool, ghr_at_start: u64) {
        self.mem_addr.clear();
        self.mem_side.clear();
        self.mem_tags.clear();
        self.mem_ext.clear();
        self.branches.clear();
        self.br_ext.clear();
        self.last_fetch_line = NO_LINE;
        self.ghr_at_start = ghr_at_start;
        self.log_mem = log_mem;
        self.log_branches = log_branches;
        self.truncated = false;
        self.bytes = 0;
        self.peak_bytes = 0;
        self.appended = 0;
        if let Some(ix) = self.index.as_deref_mut() {
            ix.unseal();
        }
    }

    /// Caps the region's resident bytes (`None` = unbounded, the default).
    pub fn set_budget(&mut self, budget: Option<usize>) {
        self.budget = budget;
    }

    /// Pre-sizes the record columns for an expected region shape. Purely
    /// an allocation hint — contents and accounting are
    /// capacity-independent — but it spares a fresh log the doubling
    /// reallocations (mmap/munmap round trips at these column sizes)
    /// when many logs are built back to back, as the sweep capture pass
    /// does.
    pub(crate) fn reserve_records(&mut self, mem: usize, branches: usize) {
        if self.log_mem {
            self.mem_addr.reserve(mem);
            self.mem_side.reserve(mem);
            self.mem_tags.reserve(mem / TAGS_PER_WORD + 1);
        }
        if self.log_branches {
            self.branches.reserve(branches);
        }
    }

    /// Records currently held per stream `(mem, branches)` — the shape
    /// hint [`SkipLog::reserve_records`] wants for the next same-sized
    /// region.
    pub(crate) fn record_counts(&self) -> (usize, usize) {
        (self.mem_addr.len(), self.branches.len())
    }

    /// Did this region exhaust its budget? A truncated log holds nothing:
    /// its history is incomplete, so reconstruction must not run from it.
    /// See the type-level docs for how this interacts with
    /// [`SkipLog::is_empty`] and [`SkipLog::appended`].
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Largest resident size the region reached (equals
    /// [`SkipLog::approx_bytes`] unless truncated).
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Records appended this region, counting any the budget discarded —
    /// after truncation this stays at its high-water value while
    /// [`SkipLog::len`] drops to zero.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    #[inline]
    fn push_mem(&mut self, pc: Addr, next_pc: Addr, addr: Addr, is_inst: bool, is_store: bool) {
        let i = self.mem_addr.len();
        if i.is_multiple_of(TAGS_PER_WORD) {
            self.mem_tags.push(0);
            self.bytes += TAG_WORD_BYTES;
        }
        let tag = (is_inst as u64) | ((is_store as u64) << 1);
        self.mem_tags[i / TAGS_PER_WORD] |= tag << ((i % TAGS_PER_WORD) * 2);
        self.mem_addr.push(addr);
        let side = if is_inst {
            // Fetch records have pc == addr by construction; keep next_pc.
            if pc == addr && next_pc < SIDE_EXT as u64 {
                next_pc as u32
            } else {
                SIDE_EXT
            }
        } else if next_pc == pc.wrapping_add(4) && pc < SIDE_EXT as u64 {
            // Loads and stores never branch; keep pc, derive next_pc.
            pc as u32
        } else {
            SIDE_EXT
        };
        if side == SIDE_EXT {
            self.mem_ext.push(MemExt { index: i as u64, pc, next_pc });
            self.bytes += EXT_ENTRY_BYTES;
        }
        self.mem_side.push(side);
        self.bytes += MEM_RECORD_BYTES;
        self.appended += 1;
    }

    #[inline]
    fn push_branch(&mut self, pc: Addr, next_pc: Addr, target: Addr, kind: CtrlKind, taken: bool) {
        let derived = if taken { target } else { pc.wrapping_add(4) };
        let mut meta = (taken as u8) | (kind_to_u8(kind) << BR_KIND_SHIFT);
        let pc32 = match u32::try_from(pc) {
            Ok(p) if next_pc == derived => p,
            _ => {
                meta |= BR_EXT;
                self.br_ext.push(BrExt { index: self.branches.len() as u64, pc, next_pc });
                self.bytes += EXT_ENTRY_BYTES;
                0
            }
        };
        self.branches.push(PackedBranch { target, pc32, meta });
        self.bytes += BRANCH_RECORD_BYTES;
        self.appended += 1;
    }

    /// Peak tracking and the budget check, run once per retired
    /// instruction (after all of its pushes, so an instruction's records
    /// are kept or discarded together).
    #[inline]
    fn note_instruction(&mut self) {
        if self.bytes > self.peak_bytes {
            self.peak_bytes = self.bytes;
        }
        if let Some(budget) = self.budget {
            if self.bytes > budget {
                self.discard_region();
            }
        }
    }

    /// Budget or record ceiling exceeded: discard the region (its history
    /// is now incomplete) and stop recording. Capacity is kept, so the
    /// resident footprint stays at the high-water mark already paid, never
    /// above roughly one budget per worker.
    #[cold]
    fn discard_region(&mut self) {
        self.mem_addr.clear();
        self.mem_side.clear();
        self.mem_tags.clear();
        self.mem_ext.clear();
        self.branches.clear();
        self.br_ext.clear();
        self.bytes = 0;
        self.truncated = true;
        if let Some(ix) = self.index.as_deref_mut() {
            ix.unseal();
        }
    }

    /// Truncates the region if either stream reached the indexable
    /// ceiling. Run once per append call, never per record.
    fn enforce_record_ceiling(&mut self) {
        if !self.truncated && over_record_ceiling(self.mem_addr.len(), self.branches.len()) {
            self.discard_region();
        }
    }

    /// Records one retired instruction's reconstruction-relevant effects.
    #[inline]
    pub fn record(&mut self, r: &Retired) {
        if self.truncated {
            return;
        }
        if self.log_mem {
            let line = r.pc & LINE_MASK;
            if self.last_fetch_line != line {
                self.last_fetch_line = line;
                self.push_mem(r.pc, r.next_pc, r.pc, true, false);
            }
            if let Some(m) = r.mem {
                self.push_mem(r.pc, r.next_pc, m.addr, false, m.is_store);
            }
        }
        if self.log_branches {
            if let Some(b) = r.branch {
                self.push_branch(r.pc, r.next_pc, b.target, b.kind, b.taken);
            }
        }
        self.note_instruction();
        self.enforce_record_ceiling();
    }

    /// The fused cold-phase loop: steps `cpu` through `n` instructions,
    /// logging each one — the predecoded [`Cpu::step_n`] superblock core
    /// with [`SkipLog::record`]'s body monomorphized in as the sink, one
    /// specialization per (mem, branches, budget) configuration, so the
    /// per-instruction `Retired` unpacking and stream dispatch happen
    /// once and the stepping itself runs at fast-core speed. After a
    /// budget truncation the sink goes quiescent (a flag check per
    /// instruction) while the remaining instructions keep stepping; with
    /// both streams disabled the region is a bare fast-forward that
    /// never touches the log.
    ///
    /// Produces record streams, budget decisions, and accounting
    /// bit-identical to calling [`SkipLog::record`] after every step. The
    /// record ceiling ([`over_record_ceiling`]) is checked once, after the
    /// loop: a region past it is truncated like a budget overflow.
    ///
    /// # Errors
    ///
    /// Propagates functional-simulation faults.
    pub fn record_region(&mut self, cpu: &mut Cpu, n: u64) -> Result<(), ExecError> {
        if self.truncated || (!self.log_mem && !self.log_branches) {
            return cpu.step_n(n, |_| ());
        }
        let res = match (self.log_mem, self.log_branches, self.budget.is_some()) {
            (true, true, false) => self.region_loop_fast::<true, true>(cpu, n),
            (true, false, false) => self.region_loop_fast::<true, false>(cpu, n),
            (false, true, false) => self.region_loop_fast::<false, true>(cpu, n),
            (true, true, true) => self.region_loop::<true, true>(cpu, n),
            (true, false, true) => self.region_loop::<true, false>(cpu, n),
            (false, true, true) => self.region_loop::<false, true>(cpu, n),
            (false, false, _) => unreachable!("bare fast-forward handled above"),
        };
        self.enforce_record_ceiling();
        res
    }

    /// The budgeted fused loop: per-record pushes with the budget check
    /// after every instruction, so truncation fires on exactly the same
    /// instruction as the historical step-then-`record` sequence.
    fn region_loop<const MEM: bool, const BR: bool>(
        &mut self,
        cpu: &mut Cpu,
        n: u64,
    ) -> Result<(), ExecError> {
        cpu.step_n(n, |r| {
            // Only the budget can truncate mid-region; afterwards the
            // remaining instructions still step (architectural state must
            // reach the cluster) but append nothing.
            if self.truncated {
                return;
            }
            if MEM {
                let line = r.pc & LINE_MASK;
                if self.last_fetch_line != line {
                    self.last_fetch_line = line;
                    self.push_mem(r.pc, r.next_pc, r.pc, true, false);
                }
                if let Some(m) = r.mem {
                    self.push_mem(r.pc, r.next_pc, m.addr, false, m.is_store);
                }
            }
            if BR {
                if let Some(b) = r.branch {
                    self.push_branch(r.pc, r.next_pc, b.target, b.kind, b.taken);
                }
            }
            self.note_instruction();
        })
    }

    /// The unbudgeted fused loop — the cold-phase path the whole run's
    /// throughput hangs on. Identical record streams and accounting to
    /// [`SkipLog::region_loop`], with the per-record overhead stripped:
    /// the byte and record counters are *derived once at region end* from
    /// the column-length deltas (the incremental accounting is a pure
    /// function of the record counts, so the sums are equal by
    /// associativity), the fetch-line dedup register lives in a local,
    /// and the ext-table spills — which CPU-retired streams never take —
    /// are outlined cold. A budget-free region can never truncate, so
    /// nothing observes the counters mid-region and the deferred
    /// write-back is invisible; on a functional fault the counters are
    /// settled before the error propagates, exactly as the per-record
    /// path leaves them.
    fn region_loop_fast<const MEM: bool, const BR: bool>(
        &mut self,
        cpu: &mut Cpu,
        n: u64,
    ) -> Result<(), ExecError> {
        let mem0 = self.mem_addr.len();
        let tags0 = self.mem_tags.len();
        let mem_ext0 = self.mem_ext.len();
        let br0 = self.branches.len();
        let br_ext0 = self.br_ext.len();

        let last_line = self.last_fetch_line;
        let SkipLog { mem_addr, mem_side, mem_tags, mem_ext, branches, br_ext, .. } = &mut *self;
        let mut sink: FastSink<'_, MEM, BR> = FastSink {
            mem_addr,
            mem_side,
            mem_tags,
            mem_ext,
            branches,
            br_ext,
            last_line,
            spill_bytes: 0,
        };
        let res = cpu.step_n_sink(n, &mut sink);
        let FastSink { last_line, spill_bytes, .. } = sink;

        // Settle the deferred accounting — also on a fault, so the
        // counters cover every instruction retired before it.
        let mem_delta = self.mem_addr.len() - mem0;
        let br_delta = self.branches.len() - br0;
        self.last_fetch_line = last_line;
        self.appended += (mem_delta + br_delta) as u64;
        self.bytes += mem_delta * MEM_RECORD_BYTES
            + (self.mem_tags.len() - tags0) * TAG_WORD_BYTES
            + br_delta * BRANCH_RECORD_BYTES
            + spill_bytes;
        debug_assert_eq!(
            spill_bytes,
            (self.mem_ext.len() - mem_ext0 + self.br_ext.len() - br_ext0) * EXT_ENTRY_BYTES
        );
        res?;
        if self.bytes > self.peak_bytes {
            self.peak_bytes = self.bytes;
        }
        Ok(())
    }

    /// Number of logged memory references.
    pub fn mem_len(&self) -> usize {
        self.mem_addr.len()
    }

    /// Number of logged control transfers.
    pub fn branch_len(&self) -> usize {
        self.branches.len()
    }

    #[inline]
    fn mem_tag(&self, i: usize) -> u64 {
        (self.mem_tags[i / TAGS_PER_WORD] >> ((i % TAGS_PER_WORD) * 2)) & 3
    }

    fn mem_ext_at(&self, i: usize) -> &MemExt {
        let k = match self.mem_ext.binary_search_by_key(&(i as u64), |e| e.index) {
            Ok(k) => k,
            Err(_) => unreachable!("side column says ext, but no ext entry for this record"),
        };
        &self.mem_ext[k]
    }

    /// Materializes memory record `i` (oldest record first).
    ///
    /// # Panics
    ///
    /// If `i >= mem_len()`.
    pub fn mem_at(&self, i: usize) -> MemRecord {
        let addr = self.mem_addr[i];
        let tag = self.mem_tag(i);
        let is_inst = tag & 1 != 0;
        let is_store = tag & 2 != 0;
        let side = self.mem_side[i];
        let (pc, next_pc) = if side == SIDE_EXT {
            let e = self.mem_ext_at(i);
            (e.pc, e.next_pc)
        } else if is_inst {
            (addr, side as u64)
        } else {
            (side as u64, (side as u64).wrapping_add(4))
        };
        MemRecord { pc, next_pc, addr, is_inst, is_store }
    }

    /// Materializes branch record `i` (oldest record first).
    ///
    /// # Panics
    ///
    /// If `i >= branch_len()`.
    pub fn branch_at(&self, i: usize) -> BranchRecord {
        let b = self.branches[i];
        let taken = b.meta & BR_TAKEN != 0;
        let kind = kind_from_meta(b.meta);
        let target = b.target;
        let (pc, next_pc) = if b.meta & BR_EXT != 0 {
            let k = match self.br_ext.binary_search_by_key(&(i as u64), |e| e.index) {
                Ok(k) => k,
                Err(_) => unreachable!("meta says ext, but no ext entry for this branch"),
            };
            (self.br_ext[k].pc, self.br_ext[k].next_pc)
        } else {
            let pc = b.pc32 as u64;
            (pc, if taken { target } else { pc.wrapping_add(4) })
        };
        BranchRecord { pc, next_pc, target, kind, taken }
    }

    /// Kind and outcome of branch record `i` without materializing its
    /// PCs — the branch-reconstruction forward pass reads only the meta
    /// column.
    pub(crate) fn branch_kind_taken(&self, i: usize) -> (CtrlKind, bool) {
        let meta = self.branches[i].meta;
        (kind_from_meta(meta), meta & BR_TAKEN != 0)
    }

    /// PC of branch record `i`.
    pub(crate) fn branch_pc(&self, i: usize) -> Addr {
        let b = self.branches[i];
        if b.meta & BR_EXT != 0 {
            self.branch_at(i).pc
        } else {
            b.pc32 as u64
        }
    }

    /// Taken-path target of branch record `i`.
    pub(crate) fn branch_target(&self, i: usize) -> Addr {
        self.branches[i].target
    }

    /// The logged memory references, oldest first, materialized on the
    /// fly.
    pub fn mem_records(&self) -> impl ExactSizeIterator<Item = MemRecord> + '_ {
        (0..self.mem_addr.len()).map(move |i| self.mem_at(i))
    }

    /// The logged control transfers, oldest first, materialized on the
    /// fly.
    pub fn branch_records(&self) -> impl ExactSizeIterator<Item = BranchRecord> + '_ {
        (0..self.branches.len()).map(move |i| self.branch_at(i))
    }

    /// A sequential reverse cache scan's view: `(addr, is_inst)` newest-first,
    /// reading only the packed address and tag columns (no record
    /// materialization, maximum scan locality).
    pub fn mem_refs_rev(&self) -> impl ExactSizeIterator<Item = (Addr, bool)> + '_ {
        (0..self.mem_addr.len()).rev().map(move |i| (self.mem_addr[i], self.mem_tag(i) & 1 != 0))
    }

    /// Total records held (for storage accounting).
    pub fn len(&self) -> usize {
        self.mem_addr.len() + self.branches.len()
    }

    /// `true` when nothing is resident — either nothing was logged *or*
    /// the budget truncated the region; distinguish with
    /// [`SkipLog::appended`] and [`SkipLog::truncated`].
    pub fn is_empty(&self) -> bool {
        self.mem_addr.is_empty() && self.branches.is_empty()
    }

    /// Resident bytes of the packed log, maintained incrementally
    /// (address + side words, allocated tag-bitmap words, packed branch
    /// records, and any ext-table spills).
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Takes the index box out for (re)building, recycling allocations and
    /// unsealing the branch side on a geometry change (the plans carry
    /// their own keys).
    fn take_index(&mut self, geom: &ReconGeometry) -> Box<ReconIndex> {
        match self.index.take() {
            Some(mut ix) => {
                if ix.geom != *geom {
                    ix.retarget(*geom);
                }
                ix
            }
            None => Box::new(ReconIndex::new(*geom)),
        }
    }

    /// Seals the three cache-level plans over the whole log:
    /// [`SkipLog::seal_mem_window`] at 100 %, which serves a reverse scan
    /// at any budget.
    pub fn seal_mem_index(&mut self, geom: &ReconGeometry) {
        self.seal_mem_window(geom, Pct::new(100));
    }

    /// Seals the L1I, L1D and L2 reconstruction plans for `geom` over the
    /// scan window of budget `pct`, the newest `pct.of(mem_len)` records
    /// (see [`LevelPlan`]). The seal serves a reverse scan at `pct` or any
    /// narrower budget. A plan already sealed for this log and level whose
    /// window covers this one is kept. A truncated region holds no history
    /// and never reconstructs, so it is left unsealed.
    pub fn seal_mem_window(&mut self, geom: &ReconGeometry, pct: Pct) {
        if self.truncated {
            return;
        }
        let n = self.mem_addr.len();
        let from = n - pct.of(n);
        let mut ix = self.take_index(geom);
        for (plan, key) in ix.plans.iter_mut().zip(geom.plan_keys()) {
            if plan.key == key && plan.sealed == Some(n) && plan.from <= from {
                continue;
            }
            plan.retarget(key);
            self.build_level_plan_into(from, plan);
        }
        self.index = Some(ix);
    }

    /// Builds `plan` for its key over the window `from..mem_len`: one
    /// newest-first pass over the level's records that keeps, per set,
    /// the first `assoc` distinct tags it meets (with the record index
    /// it met each at) and stops as soon as every set holds `assoc`.
    /// Writes into an *external* plan so a sweep can plan one shared,
    /// immutable log for many geometries. Cannot fail: the record ceiling
    /// keeps every record index of a log below `u32::MAX`.
    pub(crate) fn build_level_plan_into(&self, from: usize, plan: &mut LevelPlan) {
        match plan.key.level {
            Level::L1i => self.plan_pass(from, plan, |log, i| log.mem_tag(i) & 1 != 0),
            Level::L1d => self.plan_pass(from, plan, |log, i| log.mem_tag(i) & 1 == 0),
            Level::L2 => self.plan_pass(from, plan, |_, _| true),
        }
    }

    /// [`SkipLog::build_level_plan_into`]'s pass, monomorphized per level
    /// record filter `reads`.
    fn plan_pass(
        &self,
        from: usize,
        plan: &mut LevelPlan,
        reads: impl Fn(&SkipLog, usize) -> bool,
    ) {
        let n = self.mem_addr.len();
        debug_assert!(!over_record_ceiling(n, 0));
        debug_assert!(from <= n);
        let PlanKey { sets, line_shift, assoc, .. } = plan.key;
        let set_mask = sets - 1;
        let tag_shift = line_shift + sets.trailing_zeros();
        plan.lens.clear();
        plan.lens.resize(sets, 0);
        // Slots past a set's length are never read, so the columns are
        // only grown, never cleared.
        if plan.tags.len() < sets * assoc {
            plan.tags.resize(sets * assoc, 0);
            plan.recs.resize(sets * assoc, 0);
        }
        let mut open = sets;
        for i in (from..n).rev() {
            if !reads(self, i) {
                continue;
            }
            let addr = self.mem_addr[i];
            let set = ((addr >> line_shift) as usize) & set_mask;
            let len = plan.lens[set] as usize;
            if len == assoc {
                continue;
            }
            let tag = addr >> tag_shift;
            let base = set * assoc;
            if plan.tags[base..base + len].contains(&tag) {
                continue;
            }
            plan.tags[base + len] = tag;
            plan.recs[base + len] = i as u32;
            plan.lens[set] += 1;
            if len + 1 == assoc {
                open -= 1;
                if open == 0 {
                    break;
                }
            }
        }
        plan.sealed = Some(n);
        plan.from = from;
    }

    /// Seals the branch-side columns over the scan window of budget `pct`:
    /// the GHR forward pass (§3.2's "last *n* branches" walk, done once
    /// here instead of per reconstructor) yielding every window record's
    /// PHT key and the region-final GHR, then the reverse pass placing the
    /// scan verdicts. No per-entry plans are built — the demand scan's
    /// shared cursor must consume every record it passes to stay
    /// bit-identical to the sequential path, so it could never skip along
    /// them (see [`ReconIndex`]). [`SkipLog::ghr_at_start`] must already
    /// hold its final value — every PHT key hashes the running GHR seeded
    /// from it. Idempotent for an unchanged log, geometry, budget and start
    /// GHR; a truncated region is left unsealed.
    pub fn seal_branch_index(&mut self, geom: &ReconGeometry, pct: Pct) {
        let n = self.branches.len();
        if self.truncated {
            return;
        }
        if self.index.as_deref().is_some_and(|ix| {
            ix.geom == *geom
                && ix.br_sealed == Some(n)
                && ix.br_pct == Some(pct)
                && ix.ghr_start == self.ghr_at_start
        }) {
            return;
        }
        let mut ix = self.take_index(geom);
        self.build_branch_index_into(geom, self.ghr_at_start, pct, &mut ix);
        self.index = Some(ix);
    }

    /// The GHR a forward pass seeded with `ghr_at_start` holds entering
    /// branch record `from`: the newest `ghr_bits` conditional outcomes
    /// before `from`, newest in bit 0, shifted over `ghr_at_start` when
    /// there are fewer of them. With none at all the GHR is `ghr_at_start`
    /// as given (unmasked), exactly as a forward pass leaves it. The walk
    /// runs backwards, so it reads only as far as those outcomes reach.
    pub(crate) fn ghr_entering(&self, from: usize, ghr_at_start: u64, ghr_bits: u32) -> u64 {
        let (mut outcomes, mut count) = (0u64, 0u32);
        for i in (0..from).rev() {
            if count == ghr_bits {
                break;
            }
            let (kind, taken) = self.branch_kind_taken(i);
            if kind == CtrlKind::CondBranch {
                outcomes |= u64::from(taken) << count;
                count += 1;
            }
        }
        if count == 0 {
            return ghr_at_start;
        }
        ((ghr_at_start << count) | outcomes) & ((1u64 << ghr_bits) - 1)
    }

    /// [`SkipLog::seal_branch_index`]'s body over an *external* index,
    /// with the start GHR passed explicitly instead of read from
    /// [`SkipLog::ghr_at_start`] — a sweep replay computes it from its own
    /// predictor while the shared log stays immutable. `ix` must already
    /// be keyed for `geom`; like the memory side, the build cannot fail.
    pub(crate) fn build_branch_index_into(
        &self,
        geom: &ReconGeometry,
        ghr_at_start: u64,
        pct: Pct,
        ix: &mut ReconIndex,
    ) {
        debug_assert_eq!(ix.geom, *geom, "retarget the index before building");
        let n = self.branches.len();
        debug_assert!(!over_record_ceiling(0, n));
        let from = n - pct.of(n);
        let len = n - from;
        ix.pht_key.clear();
        ix.pht_key.reserve(len);
        let mask = (1u64 << geom.ghr_bits) - 1;
        let mut ghr = self.ghr_entering(from, ghr_at_start, geom.ghr_bits);
        for i in from..n {
            let (kind, taken) = self.branch_kind_taken(i);
            // Replicates `Gshare::index_with` on the running GHR: the key
            // a `BpReconstructor` forward pass would compute for record i.
            let key = if kind == CtrlKind::CondBranch {
                let k = (((self.branch_pc(i) >> 2) ^ ghr) & mask) as u32;
                ghr = ((ghr << 1) | taken as u64) & mask;
                k
            } else {
                CHAIN_NONE
            };
            ix.pht_key.push(key);
        }

        // Reverse pass over the window: per-record scan flags, last-writer
        // BTB bits, and the precomputed counter-inference state
        // (newest-first, exactly the order and composition the demand scan
        // would perform). The scratch holds one packed state byte per PHT
        // key (stored XOR `PACKED_IDENTITY` so the zero-fill means "no
        // history yet"), one resolved-bit per PHT key, and one seen-bit per
        // BTB slot. Records older than the window are never scanned, so
        // nothing they would seal is ever read.
        ix.br_flags.clear();
        ix.br_flags.resize(len, 0);
        ix.pht_state.clear();
        ix.pht_state.resize(len, 0);
        let pht_entries = 1usize << geom.ghr_bits;
        let btb_mask = geom.btb_entries - 1;
        ix.br_scratch.clear();
        ix.br_scratch
            .resize(pht_entries + 2 * pht_entries.div_ceil(8) + geom.btb_entries.div_ceil(8), 0);
        let (states, seen) = ix.br_scratch.split_at_mut(pht_entries);
        let (pht_done, seen) = seen.split_at_mut(pht_entries.div_ceil(8));
        let (lw_seen, btb_seen) = seen.split_at_mut(pht_entries.div_ceil(8));
        let mut lw = std::mem::take(&mut ix.lw_scratch);
        lw.clear();
        for j in (0..len).rev() {
            let i = from + j;
            let (_, taken) = self.branch_kind_taken(i);
            let mut flags = 0u8;
            let key = ix.pht_key[j];
            if key != CHAIN_NONE {
                let k = key as usize;
                // A record older than its key's resolution point is dead:
                // the monotonic cursor reaches it only after a newer record
                // pinned and marked the counter, so it gets no verdict and
                // no state.
                if pht_done[k >> 3] & (1 << (k & 7)) == 0 {
                    let next =
                        PACKED_PREPEND[taken as usize][(states[k] ^ PACKED_IDENTITY) as usize];
                    states[k] = next ^ PACKED_IDENTITY;
                    ix.pht_state[j] = next;
                    if next == (next & 3).wrapping_mul(0x55) {
                        flags |= BR_F_PHT_RESOLVE;
                        pht_done[k >> 3] |= 1 << (k & 7);
                    } else {
                        // Unresolved feed: a flush last-writer candidate
                        // (resolved later if a still-newer record pins the
                        // key after all).
                        lw.push(j as u32);
                    }
                }
            }
            if taken {
                let slot = ((self.branch_pc(i) >> 2) as usize) & btb_mask;
                if btb_seen[slot >> 3] & (1 << (slot & 7)) == 0 {
                    btb_seen[slot >> 3] |= 1 << (slot & 7);
                    flags |= BR_F_BTB_LW;
                }
            }
            ix.br_flags[j] = flags;
        }
        // `lw` holds the unresolved feeds newest-first, so the reversed
        // walk visits each key's *oldest* feed first — the one whose state
        // the exhaustion flush will observe. Keys that resolve in the
        // window are excluded: their flush entry is neutralized (at the
        // resolution record) before it is read. A key resolving only before
        // the window is not — the budgeted scan never reaches that point,
        // so the flush still guesses it from its oldest window feed.
        for &j in lw.iter().rev() {
            let k = ix.pht_key[j as usize] as usize;
            if pht_done[k >> 3] & (1 << (k & 7)) == 0 && lw_seen[k >> 3] & (1 << (k & 7)) == 0 {
                lw_seen[k >> 3] |= 1 << (k & 7);
                ix.br_flags[j as usize] |= BR_F_PHT_FLUSH_LW;
            }
        }
        ix.lw_scratch = lw;
        // The flush last-writer bits are only final after the pass above,
        // so the hot worklist is compacted here: one sequential sweep of
        // the window's flag bytes.
        ix.br_hot.clear();
        for j in (0..len).rev() {
            if ix.br_flags[j] & (BR_F_PHT_RESOLVE | BR_F_PHT_FLUSH_LW | BR_F_BTB_LW) != 0 {
                ix.br_hot.push((from + j) as u32);
            }
        }

        ix.ghr_final = ghr;
        ix.ghr_start = ghr_at_start;
        ix.br_sealed = Some(n);
        ix.br_from = from;
        ix.br_pct = Some(pct);
    }

    /// The L1I, L1D and L2 plans sealed into the log, whatever
    /// they were sealed for: consumers check each against their own cache,
    /// the log's current length and their scan's cut before applying it.
    pub(crate) fn mem_plans(&self) -> [Option<&LevelPlan>; 3] {
        match self.index.as_deref() {
            Some(ix) => ix.plans.each_ref().map(Some),
            None => [None; 3],
        }
    }

    /// The sealed branch-side columns, if they still describe the current
    /// columns and start GHR.
    pub(crate) fn branch_index(&self) -> Option<&ReconIndex> {
        let ix = self.index.as_deref()?;
        (ix.br_sealed == Some(self.branches.len()) && ix.ghr_start == self.ghr_at_start)
            .then_some(ix)
    }

    /// Serializes the log to a compact binary stream (magic `RSRL`,
    /// version 2): a fixed header carrying the stream flags, truncation
    /// state, and accounting, then delta/varint-encoded records. Useful
    /// for snapshotting skip regions to disk and reconstructing offline.
    ///
    /// Version 1 streams (fixed-width little-endian records) are still
    /// readable by [`SkipLog::read_from`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(b"RSRL")?;
        w.write_all(&2u16.to_le_bytes())?;
        w.write_all(&[self.log_mem as u8, self.log_branches as u8, self.truncated as u8])?;
        w.write_all(&self.ghr_at_start.to_le_bytes())?;
        write_uv(&mut w, self.appended)?;
        write_uv(&mut w, self.peak_bytes as u64)?;

        write_uv(&mut w, self.mem_addr.len() as u64)?;
        // Per-class previous addresses: fetch and data streams delta
        // separately (each is far more local than their interleaving).
        let mut prev_addr = [0u64; 2];
        let mut prev_pc = 0u64;
        for rec in self.mem_records() {
            let cls = rec.is_inst as usize;
            let ext = if rec.is_inst {
                rec.pc != rec.addr
            } else {
                rec.next_pc != rec.pc.wrapping_add(4)
            };
            let flags = (rec.is_inst as u8) | ((rec.is_store as u8) << 1) | ((ext as u8) << 2);
            w.write_all(&[flags])?;
            write_uv(&mut w, zigzag(rec.addr.wrapping_sub(prev_addr[cls]) as i64))?;
            prev_addr[cls] = rec.addr;
            if ext {
                write_uv(&mut w, rec.pc)?;
                write_uv(&mut w, rec.next_pc)?;
            } else if rec.is_inst {
                // Usually sequential: next_pc == addr + 4 encodes as 0.
                write_uv(
                    &mut w,
                    zigzag(rec.next_pc.wrapping_sub(rec.addr.wrapping_add(4)) as i64),
                )?;
            } else {
                write_uv(&mut w, zigzag(rec.pc.wrapping_sub(prev_pc) as i64))?;
            }
            if !rec.is_inst {
                prev_pc = rec.pc;
            }
        }

        write_uv(&mut w, self.branches.len() as u64)?;
        let mut prev_br_pc = 0u64;
        for rec in self.branch_records() {
            let derived = if rec.taken { rec.target } else { rec.pc.wrapping_add(4) };
            let ext = rec.next_pc != derived;
            let flags = (rec.taken as u8) | (kind_to_u8(rec.kind) << 1) | ((ext as u8) << 4);
            w.write_all(&[flags])?;
            write_uv(&mut w, zigzag(rec.pc.wrapping_sub(prev_br_pc) as i64))?;
            write_uv(&mut w, zigzag(rec.target.wrapping_sub(rec.pc) as i64))?;
            if ext {
                write_uv(&mut w, rec.next_pc)?;
            }
            prev_br_pc = rec.pc;
        }
        Ok(())
    }

    /// Deserializes a log written by [`SkipLog::write_to`] — version 2
    /// streams round-trip exactly (records, flags, truncation state,
    /// [`SkipLog::appended`], and [`SkipLog::peak_bytes`]); version 1
    /// streams are still accepted, with `appended` and `peak_bytes`
    /// derived from the records (v1 carried neither) and truncation
    /// cleared (a v1 writer never serialized a truncated log's state).
    /// The budget is not serialized: it is a property of the run, so a
    /// deserialized log is unbounded until [`SkipLog::set_budget`]. A
    /// stream past the record ceiling deserializes truncated.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a bad magic/version/enum byte, a flag
    /// byte outside {0, 1}, or a truncated log that claims resident
    /// records; propagates reader errors (including stream truncation).
    pub fn read_from<R: Read>(mut r: R) -> io::Result<SkipLog> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != b"RSRL" {
            return Err(invalid("bad skip-log magic"));
        }
        let version = read_u16(&mut r)?;
        let mut log = match version {
            1 => read_v1(r)?,
            2 => read_v2(r)?,
            _ => return Err(invalid(format!("unsupported skip-log version {version}"))),
        };
        log.enforce_record_ceiling();
        Ok(log)
    }
}

/// A small per-worker free list of [`SkipLog`]s.
///
/// Skip-region logging dominates the cold phase, and every log is a set of
/// packed columns that grow to roughly one region's footprint; allocating
/// them fresh per shard (or per in-flight pipeline item) pays that growth
/// repeatedly. The pool recycles the columns instead: [`LogPool::take`]
/// hands out a cleared log with its capacity (and the run's budget)
/// intact, [`LogPool::put`] returns it. The pool is bounded at
/// [`LogPool::MAX_POOLED`] entries, so with a log budget of `B` bytes a
/// worker's resident log memory is capped at roughly
/// `max(pipeline_depth, pooled) × B`.
#[derive(Debug)]
pub struct LogPool {
    free: Vec<SkipLog>,
    /// Per-region byte cap stamped onto every log handed out.
    budget: Option<usize>,
    /// Retention bound on the free list (see [`pool_bound`]).
    bound: usize,
}

/// Most windows a worker group keeps in flight at once: the pipeline's
/// deepest supported depth, and the per-shard window count the sweep's
/// fused capture pass holds before replaying. Every recycling pool in the
/// engine is sized from this one anchor through [`pool_bound`], so the
/// bounds stay mutually consistent instead of drifting as ad-hoc
/// constants.
pub const IN_FLIGHT_WINDOWS: usize = 8;

/// The retention bound for a recycling pool shared by `workers` consumers:
/// one buffer per in-flight window per worker. Pools must drop returns
/// beyond this so a burst (a shard with many windows, a wide replay
/// fan-out) can never ratchet resident memory permanently upward.
pub const fn pool_bound(workers: usize) -> usize {
    IN_FLIGHT_WINDOWS * if workers == 0 { 1 } else { workers }
}

impl LogPool {
    /// Most logs the pool retains; extra [`LogPool::put`]s are dropped so
    /// the free list can never outgrow the windows that feed it (one
    /// owning worker — see [`pool_bound`]).
    pub const MAX_POOLED: usize = pool_bound(1);

    /// An empty pool whose logs carry `budget` (see
    /// [`crate::RunSpec::log_budget_bytes`]), retaining up to
    /// [`LogPool::MAX_POOLED`] — the single-consumer bound.
    pub fn new(budget: Option<usize>) -> LogPool {
        LogPool::with_bound(budget, LogPool::MAX_POOLED)
    }

    /// Like [`LogPool::new`] but with an explicit retention bound, for
    /// pools feeding more than one consumer (pass [`pool_bound`] of the
    /// worker count).
    pub fn with_bound(budget: Option<usize>, bound: usize) -> LogPool {
        LogPool { free: Vec::new(), budget, bound }
    }

    /// A cleared log recording the requested streams: recycled columns if
    /// any are pooled, a fresh allocation otherwise. The pool's budget is
    /// (re)armed either way.
    pub fn take(&mut self, log_mem: bool, log_branches: bool) -> SkipLog {
        let mut log = self.free.pop().unwrap_or_else(|| SkipLog::new(log_mem, log_branches, 0));
        log.set_budget(self.budget);
        log.reset(log_mem, log_branches, 0);
        log
    }

    /// Returns a log's allocations to the pool (dropped once the pool's
    /// retention bound is already held).
    pub fn put(&mut self, log: SkipLog) {
        if self.free.len() < self.bound {
            self.free.push(log);
        }
    }

    /// Logs currently held on the free list.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

fn invalid(msg: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Validates a serialized boolean: flag bytes must be exactly 0 or 1.
fn read_flag(byte: u8, what: &str) -> io::Result<bool> {
    match byte {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(invalid(format!("bad {what} flag byte {other}"))),
    }
}

fn read_v1<R: Read>(mut r: R) -> io::Result<SkipLog> {
    let mut flags = [0u8; 2];
    r.read_exact(&mut flags)?;
    let log_mem = read_flag(flags[0], "log_mem")?;
    let log_branches = read_flag(flags[1], "log_branches")?;
    let ghr_at_start = read_u64(&mut r)?;
    let mut log = SkipLog::new(log_mem, log_branches, ghr_at_start);
    let n_mem = read_u64(&mut r)? as usize;
    for _ in 0..n_mem {
        let pc = read_u64(&mut r)?;
        let next_pc = read_u64(&mut r)?;
        let addr = read_u64(&mut r)?;
        let mut fl = [0u8; 1];
        r.read_exact(&mut fl)?;
        if fl[0] > 3 {
            return Err(invalid(format!("bad memory-record flag byte {}", fl[0])));
        }
        log.push_mem(pc, next_pc, addr, fl[0] & 1 != 0, fl[0] & 2 != 0);
    }
    let n_br = read_u64(&mut r)? as usize;
    for _ in 0..n_br {
        let pc = read_u64(&mut r)?;
        let next_pc = read_u64(&mut r)?;
        let target = read_u64(&mut r)?;
        let mut kt = [0u8; 2];
        r.read_exact(&mut kt)?;
        let taken = read_flag(kt[1], "branch-taken")?;
        log.push_branch(pc, next_pc, target, kind_from_u8(kt[0])?, taken);
    }
    // v1 carried no accounting: derive it from what was read (the peak of
    // a freshly materialized, untruncated log is its resident size).
    log.peak_bytes = log.bytes;
    debug_assert_eq!(log.appended, (n_mem + n_br) as u64);
    Ok(log)
}

fn read_v2<R: Read>(mut r: R) -> io::Result<SkipLog> {
    let mut flags = [0u8; 3];
    r.read_exact(&mut flags)?;
    let log_mem = read_flag(flags[0], "log_mem")?;
    let log_branches = read_flag(flags[1], "log_branches")?;
    let truncated = read_flag(flags[2], "truncated")?;
    let ghr_at_start = read_u64(&mut r)?;
    let appended = read_uv(&mut r)?;
    let peak_bytes = read_uv(&mut r)? as usize;
    let mut log = SkipLog::new(log_mem, log_branches, ghr_at_start);

    let n_mem = read_uv(&mut r)? as usize;
    let mut prev_addr = [0u64; 2];
    let mut prev_pc = 0u64;
    for _ in 0..n_mem {
        let mut fl = [0u8; 1];
        r.read_exact(&mut fl)?;
        if fl[0] > 7 {
            return Err(invalid(format!("bad memory-record flag byte {}", fl[0])));
        }
        let is_inst = fl[0] & 1 != 0;
        let is_store = fl[0] & 2 != 0;
        let ext = fl[0] & 4 != 0;
        let cls = is_inst as usize;
        let addr = prev_addr[cls].wrapping_add(unzigzag(read_uv(&mut r)?) as u64);
        prev_addr[cls] = addr;
        let (pc, next_pc) = if ext {
            (read_uv(&mut r)?, read_uv(&mut r)?)
        } else if is_inst {
            (addr, addr.wrapping_add(4).wrapping_add(unzigzag(read_uv(&mut r)?) as u64))
        } else {
            let pc = prev_pc.wrapping_add(unzigzag(read_uv(&mut r)?) as u64);
            (pc, pc.wrapping_add(4))
        };
        if !is_inst {
            prev_pc = pc;
        }
        log.push_mem(pc, next_pc, addr, is_inst, is_store);
    }

    let n_br = read_uv(&mut r)? as usize;
    let mut prev_br_pc = 0u64;
    for _ in 0..n_br {
        let mut fl = [0u8; 1];
        r.read_exact(&mut fl)?;
        if fl[0] & !0x1f != 0 {
            return Err(invalid(format!("bad branch-record flag byte {}", fl[0])));
        }
        let taken = fl[0] & 1 != 0;
        let kind = kind_from_u8((fl[0] >> 1) & 7)?;
        let ext = fl[0] & 0x10 != 0;
        let pc = prev_br_pc.wrapping_add(unzigzag(read_uv(&mut r)?) as u64);
        prev_br_pc = pc;
        let target = pc.wrapping_add(unzigzag(read_uv(&mut r)?) as u64);
        let next_pc = if ext {
            read_uv(&mut r)?
        } else if taken {
            target
        } else {
            pc.wrapping_add(4)
        };
        log.push_branch(pc, next_pc, target, kind, taken);
    }

    if truncated && (n_mem != 0 || n_br != 0) {
        return Err(invalid("truncated skip-log stream claims resident records"));
    }
    log.truncated = truncated;
    log.appended = appended.max(log.appended);
    log.peak_bytes = peak_bytes.max(log.bytes);
    Ok(log)
}

fn read_u16<R: Read>(r: &mut R) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// LEB128 unsigned varint.
fn write_uv<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[b]);
        }
        w.write_all(&[b | 0x80])?;
    }
}

fn read_uv<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        let low = (b[0] & 0x7f) as u64;
        if shift > 63 || (shift == 63 && low > 1) {
            return Err(invalid("varint overflows u64"));
        }
        v |= low << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag encoding maps small signed deltas to small unsigned varints.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn kind_to_u8(kind: CtrlKind) -> u8 {
    match kind {
        CtrlKind::CondBranch => 0,
        CtrlKind::Jump => 1,
        CtrlKind::Call => 2,
        CtrlKind::IndirectCall => 3,
        CtrlKind::Return => 4,
        CtrlKind::IndirectJump => 5,
    }
}

fn kind_from_u8(v: u8) -> io::Result<CtrlKind> {
    Ok(match v {
        0 => CtrlKind::CondBranch,
        1 => CtrlKind::Jump,
        2 => CtrlKind::Call,
        3 => CtrlKind::IndirectCall,
        4 => CtrlKind::Return,
        5 => CtrlKind::IndirectJump,
        other => return Err(invalid(format!("bad control-kind byte {other}"))),
    })
}

/// Decodes the kind bits of an in-memory meta byte (always valid: they
/// were written from a [`CtrlKind`]).
fn kind_from_meta(meta: u8) -> CtrlKind {
    match (meta >> BR_KIND_SHIFT) & 7 {
        0 => CtrlKind::CondBranch,
        1 => CtrlKind::Jump,
        2 => CtrlKind::Call,
        3 => CtrlKind::IndirectCall,
        4 => CtrlKind::Return,
        _ => CtrlKind::IndirectJump,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_func::Cpu;
    use rsr_isa::{Asm, Reg};

    fn run_logged(build: impl FnOnce(&mut Asm), n: u64) -> SkipLog {
        let mut a = Asm::new();
        build(&mut a);
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        let mut log = SkipLog::new(true, true, 0);
        for _ in 0..n {
            if cpu.halted() {
                break;
            }
            let r = cpu.step().unwrap();
            log.record(&r);
        }
        log
    }

    #[test]
    fn packed_branch_is_16_bytes() {
        assert_eq!(std::mem::size_of::<PackedBranch>(), 16);
    }

    /// The forward pass a windowed branch seal starts part-way through:
    /// every record's PHT key from `ghr_at_start`, and the final GHR.
    fn full_forward_pass(log: &SkipLog, ghr_at_start: u64, ghr_bits: u32) -> (Vec<u32>, u64) {
        let mask = (1u64 << ghr_bits) - 1;
        let mut ghr = ghr_at_start;
        let keys = (0..log.branch_len())
            .map(|i| {
                let b = log.branch_at(i);
                if b.kind != CtrlKind::CondBranch {
                    return CHAIN_NONE;
                }
                let key = (((b.pc >> 2) ^ ghr) & mask) as u32;
                ghr = ((ghr << 1) | u64::from(b.taken)) & mask;
                key
            })
            .collect();
        (keys, ghr)
    }

    #[test]
    fn windowed_branch_seal_matches_a_full_forward_pass() {
        let geom = ReconGeometry {
            l1i_sets: 1,
            l1i_line_shift: 6,
            l1i_assoc: 1,
            l1d_sets: 1,
            l1d_line_shift: 6,
            l1d_assoc: 1,
            l2_sets: 1,
            l2_line_shift: 6,
            l2_assoc: 1,
            ghr_bits: 6,
            btb_entries: 16,
        };
        let branch = |k: u64, kind: CtrlKind| {
            let (pc, taken) = (0x1000 + (k * 28) % 1024, k % 3 != 1);
            let target = 0x8000 + k * 4;
            let next_pc = if taken { target } else { pc + 4 };
            BranchRecord { pc, next_pc, target, kind, taken }
        };
        let cond = |k: u64| branch(k, CtrlKind::CondBranch);
        let jump =
            |k: u64| branch(k, if k.is_multiple_of(2) { CtrlKind::Jump } else { CtrlKind::Call });
        // 80 records before a 20 % window of 100: conditionals every few
        // records (more than `ghr_bits` of them), or only three.
        let many: Vec<_> =
            (0..100u64).map(|k| if k.is_multiple_of(3) { jump(k) } else { cond(k) }).collect();
        let few: Vec<_> = (0..100)
            .map(|k| if matches!(k, 5 | 40 | 77) || k >= 80 { cond(k) } else { jump(k) })
            .collect();
        let none: Vec<_> = (0..50).map(jump).collect();
        let cases = [
            ("more than ghr_bits conditionals before the window", many.clone(), Pct::new(20)),
            ("fewer than ghr_bits conditionals before the window", few, Pct::new(20)),
            ("no conditionals at all", none, Pct::new(20)),
            ("pct 100 (the window is the whole log)", many, Pct::new(100)),
            ("empty log", Vec::new(), Pct::new(20)),
        ];
        for (what, branches, pct) in cases {
            let n = branches.len();
            // Start GHRs wider than the mask: a forward pass leaves one
            // unmasked until its first conditional.
            for ghr_at_start in [0, 0b1011, 0xfff0_0000_0000_00a5] {
                let log = SkipLog::from_records([], branches.iter().copied(), ghr_at_start);
                let mut ix = ReconIndex::new(geom);
                log.build_branch_index_into(&geom, ghr_at_start, pct, &mut ix);
                let (keys, ghr_final) = full_forward_pass(&log, ghr_at_start, geom.ghr_bits);
                let from = n - pct.of(n);
                assert_eq!(ix.br_from, from, "{what}: window start");
                assert_eq!(ix.pht_key, keys[from..], "{what}: PHT keys, start {ghr_at_start:#x}");
                assert_eq!(ix.ghr_final, ghr_final, "{what}: final GHR, start {ghr_at_start:#x}");
            }
        }
    }

    /// A memory-only log of `n` records over a few dozen lines: every
    /// third record an instruction fetch, the rest loads and stores, from
    /// a fixed-seed LCG.
    fn mem_log(n: usize) -> SkipLog {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let records = (0..n).map(|k| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let line = (x >> 33) % 48;
            if k % 3 == 0 {
                let addr = 0x1_0000 + line * 64;
                MemRecord { pc: addr, next_pc: addr + 4, addr, is_inst: true, is_store: false }
            } else {
                let addr = 0x40_0000 + line * 64 + (x >> 60);
                MemRecord {
                    pc: 0x1000,
                    next_pc: 0x1004,
                    addr,
                    is_inst: false,
                    is_store: k % 5 == 0,
                }
            }
        });
        SkipLog::from_records(records, [], 0)
    }

    fn plan_key(level: Level, sets: usize, assoc: usize) -> PlanKey {
        PlanKey { level, sets, line_shift: 6, assoc }
    }

    /// Per set, `(tag, newest record index)` of every entry, newest first.
    fn plan_entries(plan: &LevelPlan) -> Vec<Vec<(u64, u32)>> {
        (0..plan.key.sets)
            .map(|set| {
                let (tags, recs) = plan.set_entries(set);
                tags.iter().copied().zip(recs.iter().copied()).collect()
            })
            .collect()
    }

    /// What the plan must hold: a naive newest-first walk over every
    /// record of `from..`, keeping per set the first `assoc` distinct tags
    /// the level reads, with no early stop.
    fn naive_plan(log: &SkipLog, key: &PlanKey, from: usize) -> Vec<Vec<(u64, u32)>> {
        let mut sets = vec![Vec::new(); key.sets];
        for i in (from..log.mem_len()).rev() {
            let r = log.mem_at(i);
            let reads = match key.level {
                Level::L1i => r.is_inst,
                Level::L1d => !r.is_inst,
                Level::L2 => true,
            };
            if !reads {
                continue;
            }
            let set = ((r.addr >> key.line_shift) as usize) % key.sets;
            let tag = r.addr >> key.line_shift >> key.sets.trailing_zeros();
            let entries: &mut Vec<(u64, u32)> = &mut sets[set];
            if entries.len() < key.assoc && entries.iter().all(|&(t, _)| t != tag) {
                entries.push((tag, i as u32));
            }
        }
        sets
    }

    #[test]
    fn level_plans_match_a_naive_newest_first_dedup() {
        let log = mem_log(600);
        let n = log.mem_len();
        for level in [Level::L1i, Level::L1d, Level::L2] {
            // 4 x 2 completes every set within the newest records (the
            // early stop); 16 x 4 over 48 lines leaves sets open, so the
            // pass runs to the window start.
            for (sets, assoc) in [(4, 2), (16, 4), (1, 1)] {
                let key = plan_key(level, sets, assoc);
                for from in [0, n / 2, n - n / 5, n - 1, n] {
                    let mut plan = LevelPlan::new(key);
                    log.build_level_plan_into(from, &mut plan);
                    let what = format!("{level:?} {sets}x{assoc} from {from}");
                    assert_eq!(plan_entries(&plan), naive_plan(&log, &key, from), "{what}");
                    assert_eq!((plan.sealed, plan.from), (Some(n), from), "{what}");
                }
            }
        }
    }

    #[test]
    fn level_plan_stops_once_every_set_is_complete() {
        // The newest 8 records fill both 2-way sets of the L2 plan; the
        // 500 older records would add nothing, and the pass never needs
        // to read them.
        let newest = (0..8u64).map(|k| {
            let addr = 0x40_0000 + (k % 4) * 64;
            MemRecord { pc: 0x1000, next_pc: 0x1004, addr, is_inst: false, is_store: false }
        });
        let older = mem_log(500).mem_records().collect::<Vec<_>>();
        let log = SkipLog::from_records(older.into_iter().chain(newest), [], 0);
        let key = plan_key(Level::L2, 2, 2);
        let mut plan = LevelPlan::new(key);
        log.build_level_plan_into(0, &mut plan);
        let entries = plan_entries(&plan);
        assert_eq!(entries, naive_plan(&log, &key, 0));
        assert!(entries.iter().all(|set| set.len() == 2), "every set completes");
        let oldest = entries.iter().flatten().map(|&(_, i)| i).min();
        assert_eq!(oldest, Some(504), "complete within the newest 4 records");
    }

    #[test]
    fn empty_windows_plan_nothing() {
        let empty = SkipLog::new(true, false, 0);
        let log = mem_log(100);
        for level in [Level::L1i, Level::L1d, Level::L2] {
            let key = plan_key(level, 4, 2);
            for (what, log, from) in [("empty log", &empty, 0), ("zero-record window", &log, 100)] {
                let mut plan = LevelPlan::new(key);
                log.build_level_plan_into(from, &mut plan);
                assert!(plan_entries(&plan).iter().all(Vec::is_empty), "{what} {level:?}");
                assert_eq!((plan.sealed, plan.from), (Some(log.mem_len()), from), "{what}");
            }
        }
    }

    #[test]
    fn a_wider_plan_serves_any_narrower_cut_through_its_prefix() {
        // The prefix rule the engine relies on when one plan sealed at the
        // widest budget serves every narrower scan: cut a 100 % plan at
        // the window start of a narrower budget and it must equal the plan
        // built over that window, entry for entry, so the same sets
        // complete.
        let log = mem_log(900);
        let n = log.mem_len();
        for level in [Level::L1i, Level::L1d, Level::L2] {
            for (sets, assoc) in [(4, 2), (16, 4), (32, 8)] {
                let key = plan_key(level, sets, assoc);
                let mut wide = LevelPlan::new(key);
                log.build_level_plan_into(0, &mut wide);
                for pct in [1u8, 2, 5, 20, 61, 100] {
                    let cut = n - Pct::new(pct).of(n);
                    let mut narrow = LevelPlan::new(key);
                    log.build_level_plan_into(cut, &mut narrow);
                    let prefix: Vec<Vec<(u64, u32)>> = plan_entries(&wide)
                        .into_iter()
                        .map(|set| set.into_iter().filter(|&(_, i)| i as usize >= cut).collect())
                        .collect();
                    let narrow = plan_entries(&narrow);
                    let what = format!("{level:?} {sets}x{assoc} at {pct}%");
                    assert_eq!(prefix, narrow, "{what}");
                    let complete = |p: &[Vec<(u64, u32)>]| {
                        p.iter().map(|set| set.len() == assoc).collect::<Vec<_>>()
                    };
                    assert_eq!(complete(&prefix), complete(&narrow), "{what}: complete sets");
                }
            }
        }
    }

    #[test]
    fn seal_keeps_a_covering_plan_and_replans_a_changed_geometry() {
        let machine = crate::MachineConfig::paper();
        let geom = ReconGeometry::of_machine(&machine);
        let mut log = mem_log(400);
        log.seal_mem_index(&geom);
        // A narrower budget is served by the whole-log plans.
        log.seal_mem_window(&geom, Pct::new(20));
        assert!(log.mem_plans().iter().all(|p| p.is_some_and(|p| p.from == 0)));
        // Another L2 associativity re-plans the L2 level only.
        let other = ReconGeometry { l2_assoc: 2 * geom.l2_assoc, ..geom };
        log.seal_mem_window(&other, Pct::new(20));
        let [l1i, l1d, l2] = log.mem_plans().map(|p| p.map(|p| (p.key, p.from)));
        assert_eq!(l1i, Some((geom.plan_keys()[0], 0)));
        assert_eq!(l1d, Some((geom.plan_keys()[1], 0)));
        assert_eq!(l2, Some((other.plan_keys()[2], 400 - Pct::new(20).of(400))));
    }

    #[test]
    fn record_ceiling_truncates_at_u32_max_in_either_stream() {
        let last_indexable = u32::MAX as usize - 1;
        assert!(!over_record_ceiling(last_indexable, last_indexable));
        assert!(over_record_ceiling(u32::MAX as usize, 0));
        assert!(over_record_ceiling(0, u32::MAX as usize));
        assert!(!over_record_ceiling(0, 0));
    }

    #[test]
    fn records_data_and_branches() {
        let log = run_logged(
            |a| {
                let buf = a.data_zeros(64);
                a.la(Reg::S0, buf);
                a.sd(Reg::ZERO, 0, Reg::S0);
                a.ld(Reg::T0, 0, Reg::S0);
                let l = a.bind_new("l");
                let done = a.new_label("done");
                a.beq(Reg::T0, Reg::ZERO, done);
                a.j(l);
                a.bind(done).unwrap();
                a.halt();
            },
            100,
        );
        let data: Vec<_> = log.mem_records().filter(|m| !m.is_inst).collect();
        assert_eq!(data.len(), 2);
        assert!(data[0].is_store && !data[1].is_store);
        assert_eq!(log.branch_len(), 1);
        assert!(log.branch_at(0).taken);
    }

    #[test]
    fn ifetch_logged_per_line_not_per_inst() {
        // A straight-line program within one 64-byte line should log a
        // single instruction reference.
        let log = run_logged(
            |a| {
                for _ in 0..10 {
                    a.nop();
                }
                a.halt();
            },
            100,
        );
        assert_eq!(log.mem_records().filter(|m| m.is_inst).count(), 1);
    }

    #[test]
    fn loops_relog_lines_on_reentry_only_when_line_changes() {
        // A tight loop inside one line logs one fetch record total.
        let log = run_logged(
            |a| {
                a.li(Reg::T0, 50);
                let top = a.bind_new("top");
                a.addi(Reg::T0, Reg::T0, -1);
                a.bne(Reg::T0, Reg::ZERO, top);
                a.halt();
            },
            500,
        );
        assert_eq!(log.mem_records().filter(|m| m.is_inst).count(), 1);
        assert_eq!(log.branch_len(), 50);
    }

    #[test]
    fn packed_records_materialize_cpu_stream_exactly() {
        // Record a real stream once into the packed log and once by hand
        // into plain vectors; the materialized views must be identical.
        let mut a = Asm::new();
        let buf = a.data_zeros(4096);
        a.la(Reg::S0, buf);
        a.li(Reg::T0, 40);
        let top = a.bind_new("top");
        a.sd(Reg::T0, 0, Reg::S0);
        a.ld(Reg::T1, 8, Reg::S0);
        a.addi(Reg::S0, Reg::S0, 16);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, top);
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        let mut log = SkipLog::new(true, true, 0);
        let mut mem = Vec::new();
        let mut branches = Vec::new();
        let mut last_line = NO_LINE;
        while !cpu.halted() {
            let r = cpu.step().unwrap();
            log.record(&r);
            if r.pc & LINE_MASK != last_line {
                last_line = r.pc & LINE_MASK;
                mem.push(MemRecord {
                    pc: r.pc,
                    next_pc: r.next_pc,
                    addr: r.pc,
                    is_inst: true,
                    is_store: false,
                });
            }
            if let Some(m) = r.mem {
                mem.push(MemRecord {
                    pc: r.pc,
                    next_pc: r.next_pc,
                    addr: m.addr,
                    is_inst: false,
                    is_store: m.is_store,
                });
            }
            if let Some(b) = r.branch {
                branches.push(BranchRecord {
                    pc: r.pc,
                    next_pc: r.next_pc,
                    target: b.target,
                    kind: b.kind,
                    taken: b.taken,
                });
            }
        }
        assert_eq!(log.mem_records().collect::<Vec<_>>(), mem);
        assert_eq!(log.branch_records().collect::<Vec<_>>(), branches);
        // A real CPU stream needs no ext spills.
        assert!(log.mem_ext.is_empty() && log.br_ext.is_empty());
        // Reverse view agrees with the materialized records.
        let rev: Vec<_> = log.mem_refs_rev().collect();
        let expect: Vec<_> = mem.iter().rev().map(|m| (m.addr, m.is_inst)).collect();
        assert_eq!(rev, expect);
    }

    #[test]
    fn adversarial_records_roundtrip_via_ext_tables() {
        // Synthetic records that defeat every derivation: a fetch whose pc
        // differs from addr, a data record whose next_pc is not pc + 4,
        // 64-bit pcs, and a branch whose next_pc contradicts its outcome.
        let mem = vec![
            MemRecord { pc: 0x10, next_pc: 0x9999, addr: 0x40, is_inst: true, is_store: false },
            MemRecord {
                pc: u64::MAX - 3,
                next_pc: 0x14,
                addr: 0x8000,
                is_inst: false,
                is_store: true,
            },
            MemRecord { pc: 0x20, next_pc: 0x24, addr: 0x20, is_inst: true, is_store: false },
        ];
        let branches = vec![
            BranchRecord {
                pc: 1 << 40,
                next_pc: 0x30,
                target: 0x5000,
                kind: CtrlKind::Jump,
                taken: true,
            },
            BranchRecord {
                pc: 0x100,
                next_pc: 0xdead,
                target: 0x200,
                kind: CtrlKind::CondBranch,
                taken: false,
            },
            BranchRecord {
                pc: 0x300,
                next_pc: 0x304,
                target: 0x400,
                kind: CtrlKind::Return,
                taken: false,
            },
        ];
        let log = SkipLog::from_records(mem.clone(), branches.clone(), 7);
        assert_eq!(log.mem_records().collect::<Vec<_>>(), mem);
        assert_eq!(log.branch_records().collect::<Vec<_>>(), branches);
        // And the v2 serialization of these still round-trips exactly.
        let mut bytes = Vec::new();
        log.write_to(&mut bytes).unwrap();
        let back = SkipLog::read_from(bytes.as_slice()).unwrap();
        assert_eq!(back.mem_records().collect::<Vec<_>>(), mem);
        assert_eq!(back.branch_records().collect::<Vec<_>>(), branches);
    }

    #[test]
    fn serialization_roundtrips() {
        let log = run_logged(
            |a| {
                let buf = a.data_zeros(128);
                a.la(Reg::S0, buf);
                a.li(Reg::T0, 5);
                let top = a.bind_new("top");
                a.sd(Reg::T0, 0, Reg::S0);
                a.ld(Reg::T1, 0, Reg::S0);
                a.addi(Reg::T0, Reg::T0, -1);
                a.bne(Reg::T0, Reg::ZERO, top);
                a.halt();
            },
            200,
        );
        let mut bytes = Vec::new();
        log.write_to(&mut bytes).unwrap();
        // The delta/varint stream undercuts even the packed resident size.
        assert!(bytes.len() < log.approx_bytes());
        let back = SkipLog::read_from(bytes.as_slice()).unwrap();
        assert_eq!(back.mem_records().collect::<Vec<_>>(), log.mem_records().collect::<Vec<_>>());
        assert_eq!(
            back.branch_records().collect::<Vec<_>>(),
            log.branch_records().collect::<Vec<_>>()
        );
        assert_eq!(back.ghr_at_start, log.ghr_at_start);
        // Accounting survives the round-trip (the v1 reader lost it).
        assert_eq!(back.appended(), log.appended());
        assert_eq!(back.peak_bytes(), log.peak_bytes());
        assert!(!back.truncated());
    }

    #[test]
    fn truncated_log_roundtrips_its_accounting() {
        let mut a = Asm::new();
        let buf = a.data_zeros(4096);
        a.la(Reg::S0, buf);
        a.li(Reg::T0, 200);
        let top = a.bind_new("top");
        a.sd(Reg::T0, 0, Reg::S0);
        a.addi(Reg::S0, Reg::S0, 8);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, top);
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        let mut log = SkipLog::new(true, true, 0);
        log.set_budget(Some(256));
        while !cpu.halted() {
            let r = cpu.step().unwrap();
            log.record(&r);
        }
        assert!(log.truncated());
        let mut bytes = Vec::new();
        log.write_to(&mut bytes).unwrap();
        let back = SkipLog::read_from(bytes.as_slice()).unwrap();
        assert!(back.truncated());
        assert!(back.is_empty());
        assert_eq!(back.appended(), log.appended());
        assert_eq!(back.peak_bytes(), log.peak_bytes());
    }

    #[test]
    fn v1_streams_still_readable() {
        // Hand-encode the version-1 fixed-width layout and check the
        // reader accepts it, including deriving the accounting v1 never
        // carried.
        let mem = [
            MemRecord { pc: 0x1000, next_pc: 0x1004, addr: 0x1000, is_inst: true, is_store: false },
            MemRecord { pc: 0x1004, next_pc: 0x1008, addr: 0x8000, is_inst: false, is_store: true },
        ];
        let branches = [BranchRecord {
            pc: 0x1008,
            next_pc: 0x2000,
            target: 0x2000,
            kind: CtrlKind::Jump,
            taken: true,
        }];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"RSRL");
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&[1u8, 1u8]);
        bytes.extend_from_slice(&0xabcdu64.to_le_bytes());
        bytes.extend_from_slice(&(mem.len() as u64).to_le_bytes());
        for m in &mem {
            bytes.extend_from_slice(&m.pc.to_le_bytes());
            bytes.extend_from_slice(&m.next_pc.to_le_bytes());
            bytes.extend_from_slice(&m.addr.to_le_bytes());
            bytes.push((m.is_inst as u8) | ((m.is_store as u8) << 1));
        }
        bytes.extend_from_slice(&(branches.len() as u64).to_le_bytes());
        for b in &branches {
            bytes.extend_from_slice(&b.pc.to_le_bytes());
            bytes.extend_from_slice(&b.next_pc.to_le_bytes());
            bytes.extend_from_slice(&b.target.to_le_bytes());
            bytes.push(kind_to_u8(b.kind));
            bytes.push(b.taken as u8);
        }
        let log = SkipLog::read_from(bytes.as_slice()).unwrap();
        assert_eq!(log.mem_records().collect::<Vec<_>>(), mem);
        assert_eq!(log.branch_records().collect::<Vec<_>>(), branches);
        assert_eq!(log.ghr_at_start, 0xabcd);
        assert_eq!(log.appended(), 3);
        assert_eq!(log.peak_bytes(), log.approx_bytes());
        assert!(!log.truncated());

        // Flag bytes outside {0, 1} are data corruption, not booleans.
        let mut bad = bytes.clone();
        bad[6] = 2;
        assert!(SkipLog::read_from(bad.as_slice()).is_err());
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(SkipLog::read_from(&b"NOPE"[..]).is_err());
        assert!(SkipLog::read_from(&b"RSRL"[..]).is_err(), "truncated header");
        // Valid header, truncated body.
        let log = run_logged(
            |a| {
                let buf = a.data_zeros(16);
                a.la(Reg::S0, buf);
                a.ld(Reg::T0, 0, Reg::S0);
                a.halt();
            },
            10,
        );
        let mut bytes = Vec::new();
        log.write_to(&mut bytes).unwrap();
        assert!(SkipLog::read_from(&bytes[..bytes.len() - 3]).is_err());
        // A v2 flag byte outside {0, 1} is rejected, not reinterpreted.
        let mut bad = bytes.clone();
        bad[6] = 0xff;
        assert!(SkipLog::read_from(bad.as_slice()).is_err());
        // A "truncated" stream that still claims records is inconsistent.
        let mut lying = bytes.clone();
        lying[8] = 1;
        assert!(SkipLog::read_from(lying.as_slice()).is_err());
    }

    #[test]
    fn truncation_keeps_appended_and_peak_but_empties_the_log() {
        // The satellite contract: a budget-truncated log is empty, is
        // flagged truncated, and still reports how much it had logged.
        let mut a = Asm::new();
        let buf = a.data_zeros(8192);
        a.la(Reg::S0, buf);
        a.li(Reg::T0, 500);
        let top = a.bind_new("top");
        a.sd(Reg::T0, 0, Reg::S0);
        a.addi(Reg::S0, Reg::S0, 8);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, top);
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        let mut log = SkipLog::new(true, true, 0);
        log.set_budget(Some(512));
        let mut steps = 0u64;
        while !cpu.halted() {
            let r = cpu.step().unwrap();
            log.record(&r);
            steps += 1;
        }
        assert!(steps > 100, "program must outlive the budget");
        assert!(log.truncated());
        assert!(log.is_empty(), "truncated log holds nothing");
        assert_eq!(log.len(), 0);
        assert_eq!(log.approx_bytes(), 0);
        assert!(log.appended() > 0, "appended survives the discard");
        assert!(log.peak_bytes() > 512, "peak is the pre-discard high-water mark");
        // reset() rearms the same budget for the next region.
        log.reset(true, true, 0);
        assert!(!log.truncated());
        assert_eq!(log.appended(), 0);
    }

    #[test]
    fn incremental_bytes_match_layout_arithmetic() {
        let mut log = SkipLog::new(true, true, 0);
        for k in 0..70u64 {
            log.push_mem(0x1000 + k * 4, 0x1004 + k * 4, 0x4000 + k * 8, false, false);
        }
        // 70 mem records: 3 tag words + 12 bytes each.
        assert_eq!(log.approx_bytes(), 3 * TAG_WORD_BYTES + 70 * MEM_RECORD_BYTES);
        log.push_branch(0x2000, 0x3000, 0x3000, CtrlKind::Jump, true);
        assert_eq!(
            log.approx_bytes(),
            3 * TAG_WORD_BYTES + 70 * MEM_RECORD_BYTES + BRANCH_RECORD_BYTES
        );
        // An ext spill charges its table entry.
        log.push_mem(0x9000, 0xffff, 0x8000, false, true);
        assert_eq!(
            log.approx_bytes(),
            3 * TAG_WORD_BYTES + 71 * MEM_RECORD_BYTES + BRANCH_RECORD_BYTES + EXT_ENTRY_BYTES
        );
        assert_eq!(log.appended(), 72);
    }

    #[test]
    fn disabled_streams_log_nothing() {
        let mut a = Asm::new();
        let buf = a.data_zeros(8);
        a.la(Reg::S0, buf);
        a.ld(Reg::T0, 0, Reg::S0);
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = Cpu::new(&p).unwrap();
        let mut log = SkipLog::new(false, false, 0);
        while !cpu.halted() {
            let r = cpu.step().unwrap();
            log.record(&r);
        }
        assert!(log.is_empty());
        assert_eq!(log.approx_bytes(), 0);
    }

    #[test]
    fn pool_recycles_cleared_logs_and_rearms_the_budget() {
        let mut pool = LogPool::new(Some(64));
        assert_eq!(pool.pooled(), 0);
        let mut log = pool.take(true, true);
        // Overflow the budget so the log carries truncation state back.
        for k in 0..40u64 {
            log.push_mem(0x1000, 0x1004, 0x4000 + 64 * k, false, false);
            log.note_instruction();
        }
        assert!(log.truncated());
        assert!(log.appended() > 0);
        pool.put(log);
        assert_eq!(pool.pooled(), 1);

        // The recycled log comes back cleared, with the budget still armed.
        let mut again = pool.take(true, true);
        assert_eq!(pool.pooled(), 0);
        assert!(!again.truncated());
        assert_eq!(again.appended(), 0);
        assert!(again.is_empty());
        for k in 0..40u64 {
            again.push_mem(0x1000, 0x1004, 0x4000 + 64 * k, false, false);
            again.note_instruction();
        }
        assert!(again.truncated(), "budget must survive recycling");

        // An unbounded pool disarms a recycled log's budget.
        let mut unbounded = LogPool::new(None);
        unbounded.put(again);
        let mut freed = unbounded.take(true, true);
        for k in 0..40u64 {
            freed.push_mem(0x1000, 0x1004, 0x4000 + 64 * k, false, false);
            freed.note_instruction();
        }
        assert!(!freed.truncated());
    }

    #[test]
    fn pool_is_bounded() {
        let mut pool = LogPool::new(None);
        for _ in 0..(LogPool::MAX_POOLED + 3) {
            pool.put(SkipLog::new(true, true, 0));
        }
        assert_eq!(pool.pooled(), LogPool::MAX_POOLED);
    }

    #[test]
    fn fused_region_loop_matches_per_step_recording() {
        let mut a = Asm::new();
        let buf = a.data_zeros(4096);
        a.la(Reg::S0, buf);
        a.li(Reg::T0, 60);
        let top = a.bind_new("top");
        a.sd(Reg::T0, 0, Reg::S0);
        a.ld(Reg::T1, 0, Reg::S0);
        a.addi(Reg::S0, Reg::S0, 16);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, top);
        a.halt();
        let p = a.finish().unwrap();
        let n = 250u64;
        for budget in [None, Some(1024usize)] {
            let mut cpu_a = Cpu::new(&p).unwrap();
            let mut stepwise = SkipLog::new(true, true, 0);
            stepwise.set_budget(budget);
            for _ in 0..n {
                let r = cpu_a.step().unwrap();
                stepwise.record(&r);
            }
            let mut cpu_b = Cpu::new(&p).unwrap();
            let mut fused = SkipLog::new(true, true, 0);
            fused.set_budget(budget);
            fused.record_region(&mut cpu_b, n).unwrap();
            // Same CPU end state and bit-identical log state.
            assert_eq!(cpu_a.pc(), cpu_b.pc());
            assert_eq!(fused.truncated(), stepwise.truncated());
            assert_eq!(fused.appended(), stepwise.appended());
            assert_eq!(fused.peak_bytes(), stepwise.peak_bytes());
            assert_eq!(fused.approx_bytes(), stepwise.approx_bytes());
            assert_eq!(
                fused.mem_records().collect::<Vec<_>>(),
                stepwise.mem_records().collect::<Vec<_>>()
            );
            assert_eq!(
                fused.branch_records().collect::<Vec<_>>(),
                stepwise.branch_records().collect::<Vec<_>>()
            );
        }
    }
}
