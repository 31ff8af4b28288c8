//! The `BENCH_sample.json` emitter: one reproducible sampled run whose
//! derived metrics track the perf-sensitive paths — cold-phase
//! fast-forward throughput (the fused step+log loop), reverse cache
//! reconstruction cost per log record, and the packed log's resident
//! footprint. `rsr bench` and ci.sh call this; the checked-in
//! BENCH_sample.json at the repo root is a full-scale reference emission.

use std::time::Instant;

use rsr_cache::MemHierarchy;
use rsr_core::{
    reconstruct_caches_partitioned, Pct, RunSpec, SamplingRegimen, SkipLog, WarmupPolicy,
};
use rsr_func::Cpu;
use rsr_workloads::{Benchmark, WorkloadParams};

/// Metrics from one benchmark emission (see [`run_bench_sample`]).
#[derive(Clone, Debug)]
pub struct BenchSample {
    /// Workload the run sampled.
    pub bench: &'static str,
    /// Run-length scale factor applied to the default regimen.
    pub scale: f64,
    /// Schedule seed.
    pub seed: u64,
    /// Shard worker threads.
    pub threads: usize,
    /// Resolved intra-shard pipeline depth (1 = sequential engine).
    pub pipeline_depth: usize,
    /// Total instructions in the sampled run.
    pub total_insts: u64,
    /// Cluster count and length of the regimen.
    pub clusters: usize,
    /// Instructions per cluster.
    pub cluster_len: u64,
    /// The run's IPC estimate (bit-identical at any thread count).
    pub est_ipc: f64,
    /// Cold-phase throughput: functionally skipped instructions (all of
    /// them logged through the fused loop) per second of cold time, in
    /// millions.
    pub cold_mips: f64,
    /// Hot-phase throughput: cycle-accurately simulated instructions per
    /// second of hot busy time, in millions — the detailed-window kernel
    /// speed (cache hierarchy + predictor per instruction).
    pub hot_mips: f64,
    /// Reverse cache reconstruction cost per scanned log record — building
    /// the three level plans and applying them — from a standalone
    /// logged-region micro-pass at the run's budget.
    pub recon_ns_per_record: f64,
    /// In-run L1 (I+D) reverse-walk nanoseconds per scanned memory record.
    pub recon_l1_ns_per_record: f64,
    /// In-run L2 reverse-walk nanoseconds per scanned memory record.
    pub recon_l2_ns_per_record: f64,
    /// In-run on-demand PHT inference nanoseconds per scanned branch
    /// record.
    pub recon_pht_ns_per_record: f64,
    /// In-run on-demand BTB reconstruction nanoseconds per scanned branch
    /// record.
    pub recon_btb_ns_per_record: f64,
    /// Peak resident bytes of a skip-region log during the run.
    pub log_bytes_peak: usize,
    /// Records appended to skip logs across the run.
    pub log_records: u64,
    /// Cold-phase busy seconds (summed across shard workers; overlaps
    /// wall-clock time with the hot/warm phases when the pipeline or
    /// multiple threads are engaged, so phase seconds can sum past
    /// `wall_seconds`).
    pub cold_seconds: f64,
    /// Hot-phase busy seconds (summed across shard workers; see
    /// `cold_seconds` on overlap).
    pub hot_seconds: f64,
    /// End-to-end wall-clock seconds of the sampled run.
    pub wall_seconds: f64,
    /// Fraction of summed phase busy time hidden by thread- and
    /// pipeline-level overlap: `1 − wall/Σphases`, clamped at 0. `None`
    /// (emitted as JSON `null`) for a structurally sequential run —
    /// one thread at pipeline depth 1 — where no overlap machinery is
    /// engaged and a `0.000000` would misread as "overlap tried and
    /// failed" rather than "not applicable".
    pub overlap_efficiency: Option<f64>,
}

impl BenchSample {
    /// Serializes with a stable key order (no external JSON dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let mut field = |key: &str, value: String| {
            s.push_str(&format!("  \"{key}\": {value},\n"));
        };
        field("bench", format!("\"{}\"", self.bench));
        field("scale", fmt_f64(self.scale));
        field("seed", self.seed.to_string());
        field("threads", self.threads.to_string());
        field("pipeline_depth", self.pipeline_depth.to_string());
        field("total_insts", self.total_insts.to_string());
        field("clusters", self.clusters.to_string());
        field("cluster_len", self.cluster_len.to_string());
        field("est_ipc", fmt_f64(self.est_ipc));
        field("cold_mips", fmt_f64(self.cold_mips));
        field("hot_mips", fmt_f64(self.hot_mips));
        field("recon_ns_per_record", fmt_f64(self.recon_ns_per_record));
        field("recon_l1_ns_per_record", fmt_f64(self.recon_l1_ns_per_record));
        field("recon_l2_ns_per_record", fmt_f64(self.recon_l2_ns_per_record));
        field("recon_pht_ns_per_record", fmt_f64(self.recon_pht_ns_per_record));
        field("recon_btb_ns_per_record", fmt_f64(self.recon_btb_ns_per_record));
        field("log_bytes_peak", self.log_bytes_peak.to_string());
        field("log_records", self.log_records.to_string());
        field("cold_seconds", fmt_f64(self.cold_seconds));
        field("hot_seconds", fmt_f64(self.hot_seconds));
        field("wall_seconds", fmt_f64(self.wall_seconds));
        s.push_str(&format!(
            "  \"overlap_efficiency\": {}\n}}\n",
            self.overlap_efficiency.map_or_else(|| "null".into(), fmt_f64)
        ));
        s
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

/// Runs the benchmark trajectory: an mcf sampled run under R$BP 20% at the
/// given scale, plus a standalone reconstruction micro-pass, and returns
/// the derived metrics. Deterministic for fixed `(scale, seed)` except the
/// timing fields; `pipeline_depth` 0 means auto (hardware-aware).
pub fn run_bench_sample(
    scale: f64,
    seed: u64,
    threads: usize,
    pipeline_depth: usize,
) -> BenchSample {
    let bench = Benchmark::Mcf;
    let scale = scale.clamp(0.001, 100.0);
    let threads = threads.max(1);
    let program = bench.build(&WorkloadParams::default());
    let machine = rsr_core::MachineConfig::paper();
    let total = ((bench.default_instructions() as f64 * scale) as u64).max(100_000);
    let spec = bench.default_regimen();
    let n_clusters = ((spec.n_clusters as f64 * scale) as usize).clamp(8, 4 * spec.n_clusters);
    let regimen = SamplingRegimen::new(n_clusters, spec.cluster_len);
    let pct = Pct::new(20);

    let run_spec = RunSpec::new(&program, &machine)
        .regimen(regimen)
        .total_insts(total)
        .policy(WarmupPolicy::Reverse { cache: true, bp: true, pct })
        .seed(seed)
        .threads(threads)
        .pipeline_depth(pipeline_depth);
    let resolved_depth = run_spec.resolved_pipeline_depth();
    let outcome = run_spec.run().expect("bench-sample run");

    let cold_secs = outcome.phases.cold.as_secs_f64();
    let cold_mips = outcome.skipped_insts as f64 / cold_secs.max(1e-9) / 1e6;
    let hot_secs = outcome.phases.hot.as_secs_f64();
    let hot_mips = outcome.hot_insts as f64 / hot_secs.max(1e-9) / 1e6;

    // Standalone reconstruction micro-pass: log one representative region
    // unsealed, then time repeated reverse reconstructions into fresh
    // hierarchies until the measurement stops being noise-dominated. Each
    // iteration builds the three level plans over the budget window and
    // applies them — the work the engine's follower pays per window (it
    // seals the plans on its own clock), not the apply step alone.
    let region = (total / 4).clamp(50_000, 400_000);
    let mut cpu = Cpu::new(&program).expect("program loads");
    let mut log = SkipLog::new(true, false, 0);
    log.record_region(&mut cpu, region).expect("logged region");
    let mut scanned = 0u64;
    let mut iters = 0u32;
    let t = Instant::now();
    while iters < 100 && (iters < 3 || t.elapsed().as_millis() < 200) {
        let mut hier = MemHierarchy::new(machine.hier.clone());
        scanned += reconstruct_caches_partitioned(&mut hier, &log, pct, 1).0.mem_scanned;
        iters += 1;
    }
    let recon_ns_per_record = t.elapsed().as_nanos() as f64 / scanned.max(1) as f64;

    let per = |ns: u64, records: u64| ns as f64 / records.max(1) as f64;
    let mem_scanned = outcome.recon.mem_scanned;
    let branch_scanned = outcome.recon.branch_scanned;

    BenchSample {
        bench: bench.name(),
        scale,
        seed,
        threads,
        pipeline_depth: resolved_depth,
        total_insts: total,
        clusters: n_clusters,
        cluster_len: spec.cluster_len,
        est_ipc: outcome.est_ipc(),
        cold_mips,
        hot_mips,
        recon_ns_per_record,
        recon_l1_ns_per_record: per(outcome.recon_timing.l1_ns, mem_scanned),
        recon_l2_ns_per_record: per(outcome.recon_timing.l2_ns, mem_scanned),
        recon_pht_ns_per_record: per(outcome.recon_timing.pht_ns, branch_scanned),
        recon_btb_ns_per_record: per(outcome.recon_timing.btb_ns, branch_scanned),
        log_bytes_peak: outcome.log_bytes_peak,
        log_records: outcome.log_records,
        cold_seconds: cold_secs,
        hot_seconds: hot_secs,
        wall_seconds: outcome.wall.as_secs_f64(),
        overlap_efficiency: if threads == 1 && resolved_depth == 1 {
            None // structurally sequential: no overlap machinery engaged
        } else {
            Some(outcome.overlap_efficiency())
        },
    }
}

/// Runs the pipeline matrix `rsr bench` emits by default: depth 1 (the
/// sequential engine) first, then the auto-resolved depth when it differs
/// — on a single-core host, where auto resolves to 1, the matrix is one
/// row. Estimates are bit-identical across rows; only the timing-derived
/// fields vary.
pub fn run_bench_matrix(scale: f64, seed: u64, threads: usize) -> Vec<BenchSample> {
    let auto = run_bench_sample(scale, seed, threads, 0);
    if auto.pipeline_depth == 1 {
        return vec![auto];
    }
    let depth1 = run_bench_sample(scale, seed, threads, 1);
    vec![depth1, auto]
}

/// Serializes a matrix of emissions as a JSON array, preserving each
/// sample's stable key order.
pub fn to_json_array(samples: &[BenchSample]) -> String {
    let mut s = String::from("[\n");
    for (i, sample) in samples.iter().enumerate() {
        s.push_str(sample.to_json().trim_end());
        s.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    s.push_str("]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_emission_has_sane_metrics() {
        let s = run_bench_sample(0.01, 42, 1, 1);
        assert_eq!(s.bench, "mcf");
        assert_eq!(s.pipeline_depth, 1);
        assert!(s.est_ipc > 0.0);
        assert!(s.cold_mips > 0.0);
        assert!(s.hot_mips > 0.0);
        assert!(s.recon_ns_per_record > 0.0);
        assert!(s.recon_l1_ns_per_record > 0.0);
        assert!(s.recon_l2_ns_per_record > 0.0);
        assert!(s.recon_pht_ns_per_record >= 0.0);
        assert!(s.recon_btb_ns_per_record >= 0.0);
        assert!(s.log_bytes_peak > 0);
        assert!(s.log_records > 0);
        assert!(s.wall_seconds > 0.0);
        // Sequential single-thread run: overlap is not applicable.
        assert_eq!(s.overlap_efficiency, None);
        assert!(s.to_json().contains("\"overlap_efficiency\": null"));
    }

    #[test]
    fn emission_is_valid_stable_json() {
        let s = BenchSample {
            bench: "mcf",
            scale: 1.0,
            seed: 42,
            threads: 4,
            pipeline_depth: 2,
            total_insts: 1_000_000,
            clusters: 30,
            cluster_len: 3000,
            est_ipc: 0.5,
            cold_mips: 12.0,
            hot_mips: 3.0,
            recon_ns_per_record: 8.5,
            recon_l1_ns_per_record: 3.0,
            recon_l2_ns_per_record: 2.5,
            recon_pht_ns_per_record: 1.0,
            recon_btb_ns_per_record: 0.5,
            log_bytes_peak: 1024,
            log_records: 99,
            cold_seconds: 1.5,
            hot_seconds: 0.25,
            wall_seconds: 2.0,
            overlap_efficiency: Some(0.3),
        };
        let json = s.to_json();
        // Shape checks a strict parser would also enforce: one object,
        // all twenty-two keys, no trailing comma before the brace.
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert!(!json.contains(",\n}"));
        for key in [
            "bench",
            "scale",
            "seed",
            "threads",
            "pipeline_depth",
            "total_insts",
            "clusters",
            "cluster_len",
            "est_ipc",
            "cold_mips",
            "hot_mips",
            "recon_ns_per_record",
            "recon_l1_ns_per_record",
            "recon_l2_ns_per_record",
            "recon_pht_ns_per_record",
            "recon_btb_ns_per_record",
            "log_bytes_peak",
            "log_records",
            "cold_seconds",
            "hot_seconds",
            "wall_seconds",
            "overlap_efficiency",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert!(json.contains("\"est_ipc\": 0.500000"));
        assert!(json.contains("\"overlap_efficiency\": 0.300000"));
    }

    #[test]
    fn json_array_wraps_objects_without_breaking_shape() {
        let s = run_bench_sample(0.01, 42, 1, 1);
        let arr = to_json_array(&[s.clone(), s]);
        assert!(arr.starts_with("[\n{") && arr.ends_with("}\n]\n"));
        assert_eq!(arr.matches("\"bench\":").count(), 2);
        assert!(arr.contains("},\n{"), "objects must be comma-separated");
        assert!(!arr.contains(",\n]"), "no trailing comma before the bracket");
    }

    #[test]
    fn ipc_matches_direct_runspec_at_any_thread_count() {
        // The emitter must not perturb the sampled result: same spec, same
        // estimate, and neither thread count nor pipeline depth may move
        // it.
        let one = run_bench_sample(0.01, 7, 1, 1);
        let four = run_bench_sample(0.01, 7, 4, 1);
        let piped = run_bench_sample(0.01, 7, 1, 2);
        assert_eq!(one.est_ipc, four.est_ipc);
        assert_eq!(one.log_records, four.log_records);
        assert_eq!(one.log_bytes_peak, four.log_bytes_peak);
        assert_eq!(one.est_ipc, piped.est_ipc);
        assert_eq!(one.log_records, piped.log_records);
        assert_eq!(piped.pipeline_depth, 2);
    }
}
