//! The traced run: the engine's sequential window loop re-enacted from
//! public functions, with an in-memory span around each call into a layer.
//!
//! The loop mirrors `RunSpec::run` at pipeline depth 1 (and a sweep's
//! per-config replay) call for call, so its estimates must equal the
//! engine's bit for bit; `main` checks that. Microarchitectural state is
//! reset at the canonical shard cuts (`partition_by_span`'s documented
//! rule, re-stated in [`shards`]). With the tracer disabled the same loop
//! runs without spans, which is how the tracing overhead is measured.
//!
//! Not re-enacted: the leader/follower pipeline (its effect shows only in
//! the engine's `overlap_efficiency`) and the sweep's per-window index
//! memo — the traced sweep reseals each config's index, so its seal time
//! is an upper bound on the engine's.

use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

use rsr_branch::Predictor;
use rsr_cache::MemHierarchy;
use rsr_core::{
    reconstruct_caches_partitioned, skip_with_smarts_warming, BpReconstructor, ClusterWindow,
    MachineConfig, ReconGeometry, RunSpec, SampleOutcome, Schedule, SimError, SkipLog,
    WarmupPolicy,
};
use rsr_func::{Cpu, ExecError};
use rsr_timing::{simulate_cluster, simulate_cluster_hooked, HotStats};

use crate::workload::{rsr_policy, Inputs, SMARTS};

/// Which re-enacted run a span belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Part {
    Rsr,
    Smarts,
    Sweep,
}

/// The layers time is charged to, named after the modules they live in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Cpu::new`: loading the program image.
    FuncLoad,
    /// Fresh `MemHierarchy` + `Predictor` at a canonical shard cut.
    ShardReset,
    /// `SkipLog::record_region`: functional execution plus logging.
    ExecuteLog,
    /// `SkipLog::seal_mem_index` + `seal_branch_index`.
    Seal,
    /// `reconstruct_caches_partitioned`.
    ReconCaches,
    /// `BpReconstructor::new`: GHR and RAS rebuild.
    BpInit,
    /// On-demand PHT/BTB scans inside a hot cluster (a child of `Hot`,
    /// taken from `BpReconstructor::timing`).
    BpDemand,
    /// `simulate_cluster[_hooked]`: the cycle-accurate cluster.
    Hot,
    /// `skip_with_smarts_warming`: functional execution plus warming.
    SmartsWarm,
    /// `Cpu::begin_journal` + `Cpu::undo_journal` around a sweep replay.
    Restore,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::FuncLoad,
        Layer::ShardReset,
        Layer::ExecuteLog,
        Layer::Seal,
        Layer::ReconCaches,
        Layer::BpInit,
        Layer::BpDemand,
        Layer::Hot,
        Layer::SmartsWarm,
        Layer::Restore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::FuncLoad => "func.load",
            Layer::ShardReset => "core.shard.reset",
            Layer::ExecuteLog => "func.execute_log",
            Layer::Seal => "core.log.seal",
            Layer::ReconCaches => "core.reverse.caches",
            Layer::BpInit => "core.reverse.bp_init",
            Layer::BpDemand => "core.reverse.bp_demand",
            Layer::Hot => "timing.hot",
            Layer::SmartsWarm => "warm.smarts",
            Layer::Restore => "core.sweep.restore",
        }
    }
}

struct Span {
    part: Part,
    layer: Layer,
    start_ns: u64,
    dur_ns: u64,
    parent: Option<usize>,
}

/// Spans kept in memory for one pass; written out when the run ends.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    /// Runs `f`, recording a span around it when enabled.
    fn span<T>(&mut self, part: Part, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { part, layer, start_ns, dur_ns, parent: None });
        out
    }

    /// Charges `dur_ns` of the most recent span to `layer` as its child.
    fn child_of_last(&mut self, layer: Layer, dur_ns: u64) {
        if let Some(parent) = self.spans.len().checked_sub(1) {
            let (part, start_ns) = (self.spans[parent].part, self.spans[parent].start_ns);
            self.spans.push(Span { part, layer, start_ns, dur_ns, parent: Some(parent) });
        }
    }

    /// Self time (span minus its children) of `layer` in `part`, seconds.
    pub fn self_s(&self, part: Option<Part>, layer: Layer) -> f64 {
        self.self_ns()
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.layer == layer && part.is_none_or(|p| p == s.part))
            .map(|(ns, _)| ns as f64 * 1e-9)
            .sum()
    }

    /// Self time of every span, in span order.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns);
            }
        }
        own
    }

    /// The spans as tab-separated lines: id, parent, part, layer, start
    /// and duration in nanoseconds from the pass start, self time.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tpart\tlayer\tstart_ns\tdur_ns\tself_ns\n");
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{:?}\t{}\t{}\t{}\t{own}",
                s.part,
                s.layer.name(),
                s.start_ns,
                s.dur_ns
            );
        }
        out
    }
}

/// The canonical shard cuts: contiguous window runs, cut as soon as a
/// shard spans at least `shard_span` instructions from the previous cut
/// (the rule `RunSpec::DEFAULT_SHARD_SPAN` documents).
pub fn shards(windows: &[ClusterWindow], shard_span: u64) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let (mut start, mut start_pos) = (0, 0);
    for (i, w) in windows.iter().enumerate() {
        if w.end() - start_pos >= shard_span.max(1) {
            out.push(start..i + 1);
            start = i + 1;
            start_pos = w.end();
        }
    }
    if start < windows.len() {
        out.push(start..windows.len());
    }
    out
}

/// One re-enacted run: the outcome fields the engine would report, plus
/// the modelled statistics of its hot clusters.
pub struct Replayed {
    pub outcome: SampleOutcome,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    pub mispredicts: u64,
}

impl Replayed {
    fn new(policy: WarmupPolicy) -> Replayed {
        Replayed {
            outcome: SampleOutcome::empty(policy),
            l1d_misses: 0,
            l2_misses: 0,
            mispredicts: 0,
        }
    }
}

/// One traced (or untraced) pass over all three runs of a workload.
pub struct Pass {
    pub tracer: Tracer,
    pub wall_s: f64,
    pub rsr: Replayed,
    pub smarts: Replayed,
    pub sweep: Vec<Replayed>,
}

/// Re-enacts the workload's R$BP run, S$BP run and sweep in that order.
pub fn pass(
    inputs: &Inputs,
    schedule: &Schedule,
    recon_threads: usize,
    traced: bool,
) -> Result<Pass, SimError> {
    let mut tracer = Tracer::new(traced);
    let t = Instant::now();
    let rsr = replay_rsr(&mut tracer, inputs, schedule, recon_threads)?;
    let smarts = replay_smarts(&mut tracer, inputs, schedule)?;
    let sweep = replay_sweep(&mut tracer, inputs, schedule, recon_threads)?;
    let wall_s = t.elapsed().as_secs_f64();
    Ok(Pass { tracer, wall_s, rsr, smarts, sweep })
}

/// Per-config state of one detailed machine during a re-enactment.
struct Machine<'m> {
    machine: &'m MachineConfig,
    geom: ReconGeometry,
    hier: MemHierarchy,
    pred: Predictor,
}

impl<'m> Machine<'m> {
    fn cold(machine: &'m MachineConfig) -> Machine<'m> {
        Machine {
            machine,
            geom: ReconGeometry::of_machine(machine),
            hier: MemHierarchy::new(machine.hier.clone()),
            pred: Predictor::new(machine.pred),
        }
    }
}

/// The detailed half of one reverse-policy window: seal, reconstruct,
/// simulate — the order `follower_window` / `detailed_window` use.
#[allow(clippy::too_many_arguments)]
fn reverse_window(
    t: &mut Tracer,
    part: Part,
    m: &mut Machine<'_>,
    cpu: &mut Cpu,
    log: &mut SkipLog,
    len: u64,
    recon_threads: usize,
    out: &mut Replayed,
) -> Result<(), SimError> {
    let WarmupPolicy::Reverse { cache, bp, pct } = rsr_policy() else {
        unreachable!("rsr_policy is a reverse policy");
    };
    out.outcome.log_bytes_peak = out.outcome.log_bytes_peak.max(log.peak_bytes());
    out.outcome.log_records += log.appended();
    if log.truncated() {
        out.outcome.clusters_degraded += 1;
        return hot(t, part, m, cpu, len, None, out);
    }
    log.ghr_at_start = m.pred.gshare.ghr();
    t.span(part, Layer::Seal, || {
        if cache {
            log.seal_mem_index(&m.geom);
        }
        if bp {
            log.seal_branch_index(&m.geom, pct);
        }
    });
    let log: &SkipLog = log;
    if cache {
        let (stats, timing) = t.span(part, Layer::ReconCaches, || {
            reconstruct_caches_partitioned(&mut m.hier, log, pct, recon_threads)
        });
        out.outcome.recon.accumulate(&stats);
        out.outcome.recon_timing.accumulate(&timing);
    }
    let mut hook =
        bp.then(|| t.span(part, Layer::BpInit, || BpReconstructor::new(&mut m.pred, log, pct)));
    hot(t, part, m, cpu, len, hook.as_mut(), out)
}

/// The hot cluster, with the hook's demand-scan time charged as a child.
fn hot(
    t: &mut Tracer,
    part: Part,
    m: &mut Machine<'_>,
    cpu: &mut Cpu,
    len: u64,
    hook: Option<&mut BpReconstructor<'_>>,
    out: &mut Replayed,
) -> Result<(), SimError> {
    let (l1d, l2) = (m.hier.l1d.stats().misses, m.hier.l2.stats().misses);
    let core = &m.machine.core;
    let stats: HotStats = match hook {
        Some(h) => {
            let stats = t.span(part, Layer::Hot, || {
                simulate_cluster_hooked(core, cpu, &mut m.hier, &mut m.pred, len, h)
            })?;
            let timing = h.timing();
            t.child_of_last(Layer::BpDemand, timing.pht_ns + timing.btb_ns);
            out.outcome.recon.accumulate(&h.stats());
            out.outcome.recon_timing.accumulate(&timing);
            stats
        }
        None => {
            t.span(part, Layer::Hot, || simulate_cluster(core, cpu, &mut m.hier, &mut m.pred, len))?
        }
    };
    if stats.instructions < len {
        return Err(SimError::Exec(ExecError::Halted));
    }
    out.l1d_misses += m.hier.l1d.stats().misses - l1d;
    out.l2_misses += m.hier.l2.stats().misses - l2;
    out.mispredicts += stats.full_mispredicts;
    out.outcome.hot_insts += stats.instructions;
    out.outcome.clusters.push(stats.ipc());
    out.outcome.cpi_clusters.push(stats.cycles as f64 / stats.instructions as f64);
    Ok(())
}

fn replay_rsr(
    t: &mut Tracer,
    inputs: &Inputs,
    schedule: &Schedule,
    recon_threads: usize,
) -> Result<Replayed, SimError> {
    let part = Part::Rsr;
    let windows = schedule.windows();
    let mut out = Replayed::new(rsr_policy());
    let mut cpu = t.span(part, Layer::FuncLoad, || Cpu::new(&inputs.program))?;
    let mut log = SkipLog::new(true, true, 0);
    let mut pos = 0;
    for shard in shards(windows, RunSpec::DEFAULT_SHARD_SPAN) {
        let mut m = t.span(part, Layer::ShardReset, || Machine::cold(&inputs.machine));
        for w in &windows[shard] {
            let skip = w.start - pos;
            out.outcome.skipped_insts += skip;
            t.span(part, Layer::ExecuteLog, || {
                log.reset(true, true, 0);
                log.record_region(&mut cpu, skip)
            })?;
            reverse_window(t, part, &mut m, &mut cpu, &mut log, w.len, recon_threads, &mut out)?;
            pos = w.end();
        }
    }
    Ok(out)
}

fn replay_smarts(
    t: &mut Tracer,
    inputs: &Inputs,
    schedule: &Schedule,
) -> Result<Replayed, SimError> {
    let part = Part::Smarts;
    let windows = schedule.windows();
    let mut out = Replayed::new(SMARTS);
    let mut cpu = t.span(part, Layer::FuncLoad, || Cpu::new(&inputs.program))?;
    let mut pos = 0;
    for shard in shards(windows, RunSpec::DEFAULT_SHARD_SPAN) {
        let mut m = t.span(part, Layer::ShardReset, || Machine::cold(&inputs.machine));
        for w in &windows[shard] {
            let skip = w.start - pos;
            out.outcome.skipped_insts += skip;
            t.span(part, Layer::SmartsWarm, || {
                skip_with_smarts_warming(&mut cpu, &mut m.hier, &mut m.pred, skip)
            })?;
            hot(t, part, &mut m, &mut cpu, w.len, None, &mut out)?;
            pos = w.end();
        }
    }
    Ok(out)
}

/// The sweep's replay, windows-outer and configs-inner: one logged skip
/// region per window, then every config against the same cluster-start
/// CPU, rewound by the journal for all but the last config (whose run
/// carries the CPU on to the window's end).
fn replay_sweep(
    t: &mut Tracer,
    inputs: &Inputs,
    schedule: &Schedule,
    recon_threads: usize,
) -> Result<Vec<Replayed>, SimError> {
    let part = Part::Sweep;
    let windows = schedule.windows();
    let machines: Vec<MachineConfig> = inputs.points.iter().map(|p| p.machine()).collect();
    let mut outs: Vec<Replayed> = machines.iter().map(|_| Replayed::new(rsr_policy())).collect();
    let mut cpu = t.span(part, Layer::FuncLoad, || Cpu::new(&inputs.program))?;
    let mut log = SkipLog::new(true, true, 0);
    let mut pos = 0;
    for shard in shards(windows, RunSpec::DEFAULT_SHARD_SPAN) {
        let mut states: Vec<Machine<'_>> =
            t.span(part, Layer::ShardReset, || machines.iter().map(Machine::cold).collect());
        for w in &windows[shard] {
            let skip = w.start - pos;
            t.span(part, Layer::ExecuteLog, || {
                log.reset(true, true, 0);
                log.record_region(&mut cpu, skip)
            })?;
            let last = states.len() - 1;
            for (i, (m, out)) in states.iter_mut().zip(&mut outs).enumerate() {
                out.outcome.skipped_insts += skip;
                if i < last {
                    t.span(part, Layer::Restore, || cpu.begin_journal());
                }
                reverse_window(t, part, m, &mut cpu, &mut log, w.len, recon_threads, out)?;
                if i < last {
                    t.span(part, Layer::Restore, || cpu.undo_journal());
                }
            }
            pos = w.end();
        }
    }
    Ok(outs)
}
