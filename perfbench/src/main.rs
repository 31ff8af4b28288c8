//! The repository benchmark: host speed and accuracy of sampled runs and
//! sweeps, with a traced per-layer run.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload mcf-ptrchase --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` times the workload's R$BP run, S$BP run and sweep through
//! the library's public API at its default knobs for `--seconds`, and
//! reports the end-to-end metrics. `--trace 1` re-enacts the same runs
//! with a span around each layer call (see `trace.rs`) and reports the
//! per-layer metrics. Both check the outputs and print every metric and
//! every deterministic count by name; the last line is one JSON object.
//!
//! The simulated inputs are fixed by `--schedule-seed` (default 42) and
//! `--workload-seed` (default 0xc0ffee), so every simulated statistic
//! repeats exactly from run to run. `--seed` orders the timed operations
//! within each repetition. Metric definitions and which layer metric
//! should move which end-to-end metric are in `perfbench/README.md`.

mod trace;
mod truth;
mod workload;

use std::error::Error;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rsr_core::{RunSpec, SampleOutcome, SweepOutcome};

use crate::trace::{Layer, Part, Pass};
use crate::truth::Truth;
use crate::workload::{rsr_policy, setup, Inputs, Setup, Workload, CHECK_POINT, SMARTS};

/// Set-ups per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Repetitions of each timed operation even when `--seconds` is short
/// (two, so the repeat-identity check always has something to compare).
const MIN_REPS: usize = 2;
/// Largest share of a traced pass's wall its layer spans may leave
/// unattributed before the trace counts as broken.
const MAX_UNATTRIBUTED: f64 = 0.05;
/// The schedule seed validated claims must also hold on (never used
/// while tuning).
const HELD_OUT_SCHEDULE_SEED: u64 = 1009;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    schedule_seed: u64,
    workload_seed: u64,
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|e| format!("{flag} {v:?}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut schedule_seed = 42;
    let mut workload_seed = rsr_workloads::WorkloadParams::default().seed;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(parse_u64(&flag, &v)?),
            "--seconds" => seconds = Some(parse_u64(&flag, &v)?),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--schedule-seed" => schedule_seed = parse_u64(&flag, &v)?,
            "--workload-seed" => workload_seed = parse_u64(&flag, &v)?,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        schedule_seed,
        workload_seed,
    })
}

/// SplitMix64: orders the timed operations from `--seed`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Every deterministic field of a sampled outcome, by name.
fn counters(o: &SampleOutcome) -> Vec<(&'static str, u64)> {
    let r = &o.recon;
    vec![
        ("est_ipc_bits", o.est_ipc().to_bits()),
        ("clusters", o.cpi_clusters.len() as u64),
        ("cluster_cpi_fnv", fnv(o.cpi_clusters.values().iter().map(|c| c.to_bits()))),
        ("hot_insts", o.hot_insts),
        ("skipped_insts", o.skipped_insts),
        ("log_records", o.log_records),
        ("log_bytes_peak", o.log_bytes_peak as u64),
        ("warm_updates", o.warm_updates),
        ("recon.mem_scanned", r.mem_scanned),
        ("recon.cache_inserted", r.cache_inserted),
        ("recon.cache_marked", r.cache_marked),
        ("recon.cache_ignored", r.cache_ignored),
        ("recon.branch_scanned", r.branch_scanned),
        ("recon.pht_exact", r.pht_exact),
        ("recon.pht_guessed", r.pht_guessed),
        ("recon.pht_stale", r.pht_stale),
        ("recon.btb_reconstructed", r.btb_reconstructed),
        ("recon.demand_scans", r.demand_scans),
        ("clusters_degraded", o.clusters_degraded),
    ]
}

/// Names of the counters that differ between `a` and `b`, except `skip`.
fn differing(a: &SampleOutcome, b: &SampleOutcome, skip: &[&str]) -> Vec<String> {
    counters(a)
        .into_iter()
        .zip(counters(b))
        .filter(|((name, x), (_, y))| x != y && !skip.contains(name))
        .map(|((name, x), (_, y))| format!("{name} {x} != {y}"))
        .collect()
}

/// Operations attempted and failed; an operation is one sampled run or one
/// sweep config, and fails on an error or any failed check.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn op(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            println!("check failed: {what}: {}", problems.join("; "));
        }
    }

    fn error(&mut self, what: &str, ops: u64, e: &dyn Error) {
        self.attempted += ops;
        self.failed += ops;
        println!("check failed: {what}: error: {e}");
    }

    fn frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The structural checks every engine outcome must pass at the default
/// budget: every cluster simulated in full, nothing degraded or retried.
fn structure(o: &SampleOutcome, s: &Setup) -> Vec<String> {
    let windows = s.schedule.windows();
    let hot: u64 = windows.iter().map(|w| w.len).sum();
    let mut p = Vec::new();
    if o.hot_insts != hot || o.cpi_clusters.len() != windows.len() {
        p.push(format!(
            "hot_insts {} over {} clusters, want {hot} over {}",
            o.hot_insts,
            o.cpi_clusters.len(),
            windows.len()
        ));
    }
    if o.clusters_degraded != 0 || o.shard_retries != 0 {
        p.push(format!(
            "clusters_degraded {} shard_retries {}",
            o.clusters_degraded, o.shard_retries
        ));
    }
    if !(o.est_ipc() > 0.0 && o.est_ipc().is_finite()) {
        p.push(format!("est_ipc {}", o.est_ipc()));
    }
    p
}

/// Checks a sampled run: structure, and identity with the first success.
fn check_run(
    ledger: &mut Ledger,
    what: &str,
    o: &SampleOutcome,
    first: &mut Option<SampleOutcome>,
    s: &Setup,
) {
    let mut p = structure(o, s);
    match first {
        Some(f) => p.extend(differing(o, f, &[])),
        None => *first = Some(o.clone()),
    }
    ledger.op(what, &p);
}

/// Checks a sweep: per config structure and identity with the first
/// success, and the canonical shard count.
fn check_sweep(
    ledger: &mut Ledger,
    out: &SweepOutcome,
    first: &mut Option<SweepOutcome>,
    s: &Setup,
) {
    let shards = trace::shards(s.schedule.windows(), RunSpec::DEFAULT_SHARD_SPAN).len();
    for (i, c) in out.configs.iter().enumerate() {
        let mut p = structure(&c.outcome, s);
        if let Some(f) = first.as_ref() {
            p.extend(differing(&c.outcome, &f.configs[i].outcome, &[]));
        }
        if i == 0 && (out.shards != shards || out.shard_retries != 0) {
            p.push(format!("shards {} (want {shards}), retries {}", out.shards, out.shard_retries));
        }
        ledger.op(&format!("sweep config {}", c.name), &p);
    }
    if first.is_none() {
        *first = Some(out.clone());
    }
}

/// Sweep configs against standalone runs of the same spec: the paper
/// point against the R$BP run already made, and [`CHECK_POINT`] against
/// a run of its own (untimed).
fn cross_check(ledger: &mut Ledger, sweep: &SweepOutcome, rsr: &SampleOutcome, s: &Setup) {
    let inputs = &s.inputs;
    let what = "sweep paper-machine config vs standalone R$BP run";
    match inputs.paper_point() {
        Some(i) => ledger.op(what, &differing(&sweep.configs[i].outcome, rsr, &[])),
        None => ledger.op(what, &["the sweep grid has no paper-machine point".into()]),
    }
    let what = format!("sweep {CHECK_POINT} vs standalone run");
    let Some(i) = inputs.points.iter().position(|p| p.name == CHECK_POINT) else {
        return ledger.op(&what, &[format!("the sweep grid has no {CHECK_POINT}")]);
    };
    match inputs.point_spec(&inputs.points[i]).run() {
        Ok(alone) => {
            let mut p = structure(&alone, s);
            p.extend(differing(&sweep.configs[i].outcome, &alone, &[]));
            ledger.op(&what, &p);
        }
        Err(e) => ledger.error(&what, 1, &e),
    }
}

/// Named metrics in report order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// Named deterministic counts, folded into one digest.
#[derive(Default)]
struct Digest(Vec<(String, u64)>);

impl Digest {
    /// The engine's deterministic counts: the same in both modes.
    fn engine(
        truth: &Truth,
        rsr: &SampleOutcome,
        smarts: &SampleOutcome,
        sweep: &SweepOutcome,
    ) -> Digest {
        let mut d = Digest::default();
        d.put("true_ipc_bits", truth.ipc.to_bits());
        d.outcome("rsr", rsr);
        d.outcome("smarts", smarts);
        for c in &sweep.configs {
            d.outcome(&format!("sweep.{}", c.name), &c.outcome);
        }
        d.put("sweep.shards", sweep.shards as u64);
        d.put("sweep.index_builds", sweep.index_builds);
        d.put("sweep.index_builds_shared", sweep.index_builds_shared);
        d.put("sweep.restore_bytes", sweep.restore_bytes);
        d
    }

    fn outcome(&mut self, prefix: &str, o: &SampleOutcome) {
        for (name, v) in counters(o) {
            self.0.push((format!("{prefix}.{name}"), v));
        }
    }

    fn put(&mut self, name: &str, v: u64) {
        self.0.push((name.to_string(), v));
    }

    fn fold(&self) -> u64 {
        fnv(self.0.iter().flat_map(|(name, v)| name.bytes().map(u64::from).chain([*v])))
    }
}

fn peak_rss_mb() -> Result<f64, Box<dyn Error>> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Accuracy of one estimate against the truth.
fn accuracy(m: &mut Metrics, prefix: &str, o: &SampleOutcome, truth: &Truth) -> f64 {
    let err = (o.est_ipc() - truth.ipc).abs();
    m.put(&format!("{prefix}_ipc_rel_err"), err / truth.ipc, "fraction");
    m.put(&format!("{prefix}_err_over_ci95"), err / o.ipc_error_bound_95(), "ratio");
    f64::from(u8::from(o.predicts_true_ipc(truth.ipc)))
}

/// Median set-up times over the invocation's set-ups.
struct SetupTimes {
    total_s: f64,
    build_s: f64,
    load_s: f64,
}

#[derive(Copy, Clone, Debug)]
enum Op {
    Rsr,
    Smarts,
    Sweep,
}

struct Report {
    ledger: Ledger,
    metrics: Metrics,
    /// Printed by name but not part of the JSON result.
    extra: Metrics,
    /// The engine's deterministic counts (identical in both modes).
    digest: Digest,
    /// Modelled hierarchy/predictor statistics (traced run only).
    model: Digest,
}

/// `--trace 0`: the end-to-end metrics.
fn timed(
    args: &Args,
    s: &Setup,
    times: &SetupTimes,
    truth: &Truth,
) -> Result<Report, Box<dyn Error>> {
    let inputs = &s.inputs;
    let mut ledger = Ledger::default();
    let mut rng = Rng(args.seed);
    let (mut rsr, mut smarts, mut sweep) = (None, None, None);
    let (mut rsr_walls, mut smarts_walls, mut sweep_walls) = (vec![], vec![], vec![]);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reps = 0;
    while reps < MIN_REPS || Instant::now() < deadline {
        let mut order = [Op::Rsr, Op::Smarts, Op::Sweep];
        rng.shuffle(&mut order);
        for op in order {
            let (policy, walls, first) = match op {
                Op::Rsr => (rsr_policy(), &mut rsr_walls, &mut rsr),
                Op::Smarts => (SMARTS, &mut smarts_walls, &mut smarts),
                Op::Sweep => {
                    let t = Instant::now();
                    match inputs.sweep_spec().run() {
                        Ok(out) => {
                            sweep_walls.push(t.elapsed().as_secs_f64());
                            check_sweep(&mut ledger, &out, &mut sweep, s);
                        }
                        Err(e) => ledger.error("sweep", inputs.points.len() as u64, &e),
                    }
                    continue;
                }
            };
            let t = Instant::now();
            match inputs.run_spec(policy).run() {
                Ok(o) => {
                    walls.push(t.elapsed().as_secs_f64());
                    check_run(&mut ledger, &format!("{op:?} run"), &o, first, s);
                }
                Err(e) => ledger.error(&format!("{op:?} run"), 1, &e),
            }
        }
        reps += 1;
    }
    let (Some(rsr), Some(smarts), Some(sweep)) = (rsr, smarts, sweep) else {
        return Err("an operation failed on every repetition".into());
    };
    cross_check(&mut ledger, &sweep, &rsr, s);

    let total = inputs.total as f64;
    let mut m = Metrics::default();
    m.put("setup_s", times.total_s, "s");
    let rsr_mips = total / median(rsr_walls.clone()) / 1e6;
    let smarts_mips = total / median(smarts_walls.clone()) / 1e6;
    m.put("rsr_sim_mips", rsr_mips, "Minst/s");
    m.put("smarts_sim_mips", smarts_mips, "Minst/s");
    let rsr_pass = accuracy(&mut m, "rsr", &rsr, truth);
    let smarts_pass = accuracy(&mut m, "smarts", &smarts, truth);
    m.put(
        "sweep_configs_per_s",
        inputs.points.len() as f64 / median(sweep_walls.clone()),
        "configs/s",
    );
    m.put("peak_rss_mb", peak_rss_mb()?, "MiB");

    let mut extra = Metrics::default();
    extra.put("rsr_ci_pass", rsr_pass, "0/1");
    extra.put("smarts_ci_pass", smarts_pass, "0/1");
    extra.put("failed_ops_frac", ledger.frac(), "fraction");
    extra.put("rsr_speedup", rsr_mips / smarts_mips, "ratio");
    extra.put("true_ipc", truth.ipc, "inst/cycle");
    extra.put("rsr_est_ipc", rsr.est_ipc(), "inst/cycle");
    extra.put("smarts_est_ipc", smarts.est_ipc(), "inst/cycle");
    for (name, walls) in [("rsr", &rsr_walls), ("smarts", &smarts_walls), ("sweep", &sweep_walls)] {
        let shown: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
        println!("walls {name} (s, in run order): {}", shown.join(" "));
        extra.put(&format!("{name}_runs"), walls.len() as f64, "count");
        extra.put(&format!("{name}_wall_s_median"), median(walls.clone()), "s");
    }

    let digest = Digest::engine(truth, &rsr, &smarts, &sweep);
    Ok(Report { ledger, metrics: m, extra, digest, model: Digest::default() })
}

/// Medians of named per-pass values.
#[derive(Default)]
struct PerPass(Vec<(String, &'static str, Vec<f64>)>);

impl PerPass {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, _, values)) => values.push(value),
            None => self.0.push((name.to_string(), unit, vec![value])),
        }
    }
}

/// Checks a re-enacted pass against the engine's outcomes.
fn check_pass(
    ledger: &mut Ledger,
    kind: &str,
    p: &Pass,
    rsr: &SampleOutcome,
    smarts: &SampleOutcome,
    sweep: &SweepOutcome,
) {
    ledger.op(&format!("{kind} R$BP re-enactment"), &differing(&p.rsr.outcome, rsr, &[]));
    // `skip_with_smarts_warming` does not count its updates.
    let p_smarts = differing(&p.smarts.outcome, smarts, &["warm_updates"]);
    ledger.op(&format!("{kind} S$BP re-enactment"), &p_smarts);
    for (r, c) in p.sweep.iter().zip(&sweep.configs) {
        ledger.op(
            &format!("{kind} sweep {} re-enactment", c.name),
            &differing(&r.outcome, &c.outcome, &[]),
        );
    }
}

/// The per-layer numbers of one traced pass; returns its unattributed
/// share of wall.
fn layer_metrics(pp: &mut PerPass, p: &Pass, smarts_updates: u64, configs: usize) -> f64 {
    let t = &p.tracer;
    let o = &p.rsr.outcome;
    let rsr = |layer| t.self_s(Some(Part::Rsr), layer);
    let per = |ns: f64, n: u64| ns / n.max(1) as f64;

    let exec_s = rsr(Layer::ExecuteLog);
    pp.put("cold.mips", o.skipped_insts as f64 / exec_s / 1e6, "Minst/s");
    pp.put("cold.record_region_ns_per_inst", per(exec_s * 1e9, o.skipped_insts), "ns/inst");
    let seal_s = rsr(Layer::Seal);
    pp.put("core.log.seal_s", seal_s, "s");
    pp.put("core.log.seal_ns_per_record", per(seal_s * 1e9, o.log_records), "ns/record");

    let (r, rt) = (&o.recon, &o.recon_timing);
    pp.put("core.reverse.caches_s", rsr(Layer::ReconCaches), "s");
    pp.put("core.reverse.l1_ns_per_record", per(rt.l1_ns as f64, r.mem_scanned), "ns/record");
    pp.put("core.reverse.l2_ns_per_record", per(rt.l2_ns as f64, r.mem_scanned), "ns/record");
    pp.put("core.reverse.bp_init_s", rsr(Layer::BpInit), "s");
    pp.put("core.reverse.bp_demand_s", rsr(Layer::BpDemand), "s");
    pp.put("core.reverse.pht_ns_per_record", per(rt.pht_ns as f64, r.branch_scanned), "ns/record");
    pp.put("core.reverse.btb_ns_per_record", per(rt.btb_ns as f64, r.branch_scanned), "ns/record");

    let warm_s = t.self_s(Some(Part::Smarts), Layer::SmartsWarm);
    pp.put("warm.smarts_s", warm_s, "s");
    pp.put("warm.ns_per_update", per(warm_s * 1e9, smarts_updates), "ns/update");

    let hot_s = rsr(Layer::Hot);
    pp.put("timing.hot_s", hot_s, "s");
    pp.put("timing.hot_mips", o.hot_insts as f64 / hot_s / 1e6, "Minst/s");
    pp.put("core.shard.reset_s", rsr(Layer::ShardReset), "s");
    pp.put(
        "core.sweep.restore_s_per_config",
        t.self_s(Some(Part::Sweep), Layer::Restore) / configs as f64,
        "s",
    );

    let attributed: f64 = Layer::ALL.iter().map(|&l| t.self_s(None, l)).sum();
    let unattributed = 1.0 - attributed / p.wall_s;
    pp.put("trace.wall_s", p.wall_s, "s");
    pp.put("trace.unattributed_frac", unattributed, "fraction");
    unattributed
}

/// `--trace 1`: the per-layer metrics.
fn traced(
    args: &Args,
    s: &Setup,
    times: &SetupTimes,
    truth: &Truth,
) -> Result<Report, Box<dyn Error>> {
    let inputs = &s.inputs;
    let mut ledger = Ledger::default();

    // The engine's own runs at default knobs: the reference the
    // re-enactment must reproduce, and the engine-side counters.
    let rsr_spec = inputs.run_spec(rsr_policy());
    let rsr = rsr_spec.run()?;
    let smarts = inputs.run_spec(SMARTS).run()?;
    let sweep = inputs.sweep_spec().run()?;
    ledger.op("Rsr run", &structure(&rsr, s));
    ledger.op("Smarts run", &structure(&smarts, s));
    check_sweep(&mut ledger, &sweep, &mut None, s);
    cross_check(&mut ledger, &sweep, &rsr, s);

    // Traced and untraced passes, alternating which goes first.
    let recon_threads = rsr_spec.resolved_recon_threads();
    let mut rng = Rng(args.seed);
    let mut pp = PerPass::default();
    let (mut traced_walls, mut plain_walls) = (vec![], vec![]);
    let mut last = None;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while traced_walls.is_empty() || Instant::now() < deadline {
        let mut order = [true, false];
        rng.shuffle(&mut order);
        for with_spans in order {
            let kind = if with_spans { "traced" } else { "untraced" };
            // The engine ran these inputs without error, so a failing
            // re-enactment is a broken benchmark, not a failed operation.
            let p = trace::pass(inputs, &s.schedule, recon_threads, with_spans)
                .map_err(|e| format!("{kind} re-enactment failed where the engine did not: {e}"))?;
            check_pass(&mut ledger, kind, &p, &rsr, &smarts, &sweep);
            if with_spans {
                traced_walls.push(p.wall_s);
                let unattributed =
                    layer_metrics(&mut pp, &p, smarts.warm_updates, inputs.points.len());
                let p_attr = if unattributed <= MAX_UNATTRIBUTED {
                    vec![]
                } else {
                    vec![format!("{unattributed} of the pass wall is outside every layer span")]
                };
                ledger.op("trace attribution", &p_attr);
                last = Some(p);
            } else {
                plain_walls.push(p.wall_s);
            }
        }
    }
    let last = last.expect("at least one traced pass");

    let mut m = Metrics::default();
    m.put("workloads.build_s", times.build_s, "s");
    m.put("func.load_s", times.load_s, "s");
    for (name, unit, values) in pp.0 {
        m.put(&name, median(values), unit);
    }
    let passes = traced_walls.len();
    m.put("trace.overhead_frac", median(traced_walls) / median(plain_walls) - 1.0, "fraction");

    let o = &rsr;
    let r = &o.recon;
    m.put("core.log.records", o.log_records as f64, "count");
    m.put("core.log.bytes_peak", o.log_bytes_peak as f64, "bytes");
    m.put("core.reverse.mem_scanned", r.mem_scanned as f64, "count");
    let useful = (r.cache_inserted + r.cache_marked) as f64 / r.mem_scanned.max(1) as f64;
    m.put("core.reverse.cache_useful_ratio", useful, "ratio");
    m.put("core.reverse.branch_scanned", r.branch_scanned as f64, "count");
    m.put("core.reverse.pht_exact", r.pht_exact as f64, "count");
    m.put("core.reverse.pht_guessed", r.pht_guessed as f64, "count");
    m.put("core.reverse.pht_stale", r.pht_stale as f64, "count");
    m.put("core.reverse.demand_scans", r.demand_scans as f64, "count");
    m.put("warm.updates", smarts.warm_updates as f64, "count");
    m.put("cache.l1d_misses", last.rsr.l1d_misses as f64, "count");
    m.put("cache.l2_misses", last.rsr.l2_misses as f64, "count");
    m.put("branch.mispredicts", last.rsr.mispredicts as f64, "count");
    m.put("core.sampler.pipeline_depth", rsr_spec.resolved_pipeline_depth() as f64, "count");
    m.put("core.sampler.recon_threads", recon_threads as f64, "count");
    m.put("core.sampler.overlap_efficiency", o.overlap_efficiency(), "fraction");
    m.put("core.shard.shards", sweep.shards as f64, "count");
    let retries = o.shard_retries + smarts.shard_retries + sweep.shard_retries;
    m.put("core.shard.retries", retries as f64, "count");
    let degraded = o.clusters_degraded
        + sweep.configs.iter().map(|c| c.outcome.clusters_degraded).sum::<u64>();
    m.put("core.shard.clusters_degraded", degraded as f64, "count");
    let n = inputs.points.len() as f64;
    let cold_s = sweep.cold_wall.as_secs_f64();
    m.put("core.sweep.cold_s", cold_s, "s");
    m.put("core.sweep.replay_s_per_config", (sweep.wall.as_secs_f64() - cold_s).max(0.0) / n, "s");
    m.put("core.sweep.index_builds", sweep.index_builds as f64, "count");
    let requests = (sweep.index_builds + sweep.index_builds_shared).max(1) as f64;
    m.put("core.sweep.index_share_ratio", sweep.index_builds_shared as f64 / requests, "ratio");
    m.put("core.sweep.restore_bytes_per_config", sweep.restore_bytes as f64 / n, "bytes");
    m.put("core.sweep.replay_threads", sweep.replay_threads as f64, "count");

    let mut extra = Metrics::default();
    extra.put("failed_ops_frac", ledger.frac(), "fraction");
    extra.put("trace.passes", passes as f64, "count");
    extra.put("true_ipc", truth.ipc, "inst/cycle");

    let digest = Digest::engine(truth, &rsr, &smarts, &sweep);
    let mut model = Digest::default();
    for (name, r) in [("rsr", &last.rsr), ("smarts", &last.smarts)] {
        model.put(&format!("model.{name}.l1d_misses"), r.l1d_misses);
        model.put(&format!("model.{name}.l2_misses"), r.l2_misses);
        model.put(&format!("model.{name}.mispredicts"), r.mispredicts);
    }

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.tsv", inputs.workload.name()));
    fs::write(&path, last.tracer.to_tsv())?;
    println!("spans written to {}", path.display());
    Ok(Report { ledger, metrics: m, extra, digest, model })
}

fn json(report: &Report) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.0.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    let l = &report.ledger;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        l.failed == 0,
        l.attempted,
        l.failed
    ))
}

fn run(args: &Args) -> Result<String, Box<dyn Error>> {
    // Only the last set-up is kept, so the earlier ones add nothing to
    // `peak_rss_mb`.
    let (mut total, mut build, mut load) = (vec![], vec![], vec![]);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let s = setup(args.workload, args.workload_seed, args.schedule_seed)?;
        total.push(s.total_s());
        build.push(s.build_s);
        load.push(s.load_s);
        last = Some(s);
    }
    let times = SetupTimes { total_s: median(total), build_s: median(build), load_s: median(load) };
    let s = &last.expect("at least one set-up");
    let inputs: &Inputs = &s.inputs;
    let truth = truth::true_ipc(inputs)?;

    let spec = inputs.run_spec(rsr_policy());
    println!(
        "workload {} ({}): {} insts, {} clusters x {}, sweep of {} configs; schedule seed {} \
         (held out: {HELD_OUT_SCHEDULE_SEED}), workload seed {:#x}, order seed {}",
        inputs.workload.name(),
        inputs.workload.bench().name(),
        inputs.total,
        inputs.regimen.n_clusters,
        inputs.regimen.cluster_len,
        inputs.points.len(),
        inputs.schedule_seed,
        inputs.params.seed,
        args.seed
    );
    println!(
        "defaults: pipeline_depth {} recon_threads {} on {} host threads; true IPC {} ({})",
        spec.resolved_pipeline_depth(),
        spec.resolved_recon_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        truth.ipc,
        if truth.cached { "stored" } else { "computed now" }
    );

    let report =
        if args.trace { traced(args, s, &times, &truth)? } else { timed(args, s, &times, &truth)? };
    for (name, value, unit) in report.metrics.0.iter().chain(&report.extra.0) {
        println!("metric {name} = {value} {unit}");
    }
    for (suffix, digest) in [("", &report.digest), (".model", &report.model)] {
        for (name, value) in &digest.0 {
            println!("count {name} = {value}");
        }
        if !digest.0.is_empty() {
            println!("digest {}{suffix} = {:#018x}", inputs.workload.name(), digest.fold());
        }
    }
    println!(
        "ops attempted {} failed {} (failed_ops_frac {})",
        report.ledger.attempted,
        report.ledger.failed,
        report.ledger.frac()
    );
    Ok(json(&report)?)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> \
                 [--schedule-seed <n>] [--workload-seed <n>]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
