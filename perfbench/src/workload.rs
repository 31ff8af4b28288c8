//! The three workloads and the specs each one runs.
//!
//! Every workload runs the same three engine entry points at the
//! library-default `DetailSpec` knobs — an R$BP(20 %) `RunSpec::run`, an
//! S$BP `RunSpec::run` and a `SweepSpec::run` — so every end-to-end metric
//! exists on every workload. What differs is the program and the sweep
//! grid, chosen so each workload stresses different layers (see
//! `perfbench/README.md`).

use std::time::Instant;

use rsr_bench::{sweep_grid, SweepPoint};
use rsr_core::{
    ColdSpec, DetailSpec, MachineConfig, Pct, RunSpec, SamplingRegimen, Schedule, SimError,
    SweepSpec, WarmupPolicy,
};
use rsr_func::Cpu;
use rsr_isa::Program;
use rsr_workloads::{Benchmark, WorkloadParams};

/// The paper's headline reverse policy: caches and predictor, 20 % scan.
pub fn rsr_policy() -> WarmupPolicy {
    WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) }
}

/// SMARTS functional warming of caches and predictor.
pub const SMARTS: WarmupPolicy = WarmupPolicy::Smarts { cache: true, bp: true };

/// The sweep config checked against a standalone `RunSpec::run` of its
/// own spec, field for field.
pub const CHECK_POINT: &str = "l1d32k-ghr12";

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// mcf: pointer chasing over data that misses the L2 — the longest
    /// logs, L2 reconstruction and cache-bound SMARTS warming.
    McfPtrchase,
    /// gcc: branchy code with a large code footprint — short logs, cheap
    /// L2 reconstruction, short-block dispatch and the costliest PHT/BTB
    /// reconstruction per record.
    GccBranchy,
    /// parser through the full 20-point L1D × GHR grid: one cold pass read
    /// by 20 replays.
    ParserSweep20,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::McfPtrchase, Workload::GccBranchy, Workload::ParserSweep20];

    pub fn name(self) -> &'static str {
        match self {
            Workload::McfPtrchase => "mcf-ptrchase",
            Workload::GccBranchy => "gcc-branchy",
            Workload::ParserSweep20 => "parser-sweep20",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn bench(self) -> Benchmark {
        match self {
            Workload::McfPtrchase => Benchmark::Mcf,
            Workload::GccBranchy => Benchmark::Gcc,
            Workload::ParserSweep20 => Benchmark::Parser,
        }
    }

    /// The sweep grid: all 20 points for the sweep workload; for the pair
    /// workloads the GHR column at the paper L1D (4 points), which still
    /// holds the paper point.
    pub fn sweep_points(self) -> Vec<SweepPoint> {
        let grid = sweep_grid(20);
        match self {
            Workload::ParserSweep20 => grid,
            _ => grid.into_iter().filter(|p| p.l1d_kb == 32).collect(),
        }
    }
}

/// Everything a workload's runs are built from.
pub struct Inputs {
    pub workload: Workload,
    pub params: WorkloadParams,
    pub program: Program,
    pub machine: MachineConfig,
    pub regimen: SamplingRegimen,
    pub total: u64,
    pub schedule_seed: u64,
    pub points: Vec<SweepPoint>,
}

/// Seconds of one set-up: what a user pays before any simulation.
pub struct Setup {
    pub inputs: Inputs,
    pub build_s: f64,
    pub load_s: f64,
    pub schedule_s: f64,
    pub schedule: Schedule,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.load_s + self.schedule_s
    }
}

/// Builds the workload's program, loads it and draws its schedule, timing
/// each step (`Benchmark::build` + `Cpu::new` + `ColdSpec::build_schedule`).
pub fn setup(
    workload: Workload,
    workload_seed: u64,
    schedule_seed: u64,
) -> Result<Setup, SimError> {
    let bench = workload.bench();
    let params = WorkloadParams { seed: workload_seed, ..WorkloadParams::default() };

    let t = Instant::now();
    let program = bench.build(&params);
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let cpu = Cpu::new(&program)?;
    let load_s = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(cpu));

    let spec = bench.default_regimen();
    let inputs = Inputs {
        workload,
        params,
        program,
        machine: MachineConfig::paper(),
        regimen: SamplingRegimen::new(spec.n_clusters, spec.cluster_len),
        total: bench.default_instructions(),
        schedule_seed,
        points: workload.sweep_points(),
    };
    let t = Instant::now();
    let schedule = inputs.cold().build_schedule()?;
    let schedule_s = t.elapsed().as_secs_f64();
    Ok(Setup { inputs, build_s, load_s, schedule_s, schedule })
}

impl Inputs {
    pub fn cold(&self) -> ColdSpec<'_> {
        ColdSpec::new(&self.program)
            .regimen(self.regimen)
            .total_insts(self.total)
            .seed(self.schedule_seed)
    }

    /// A standalone run on the paper machine at default knobs.
    pub fn run_spec(&self, policy: WarmupPolicy) -> RunSpec<'_> {
        RunSpec::from_parts(self.cold(), DetailSpec::new(&self.machine).policy(policy))
    }

    /// The workload's sweep at default knobs, every config under R$BP.
    pub fn sweep_spec(&self) -> SweepSpec<'_> {
        self.points
            .iter()
            .fold(SweepSpec::new(self.cold()), |sweep, p| sweep.config(p.name.clone(), detail(p)))
    }

    /// A standalone run of one sweep config's spec.
    pub fn point_spec(&self, point: &SweepPoint) -> RunSpec<'_> {
        RunSpec::from_parts(self.cold(), detail(point))
    }

    /// Index of the sweep point whose machine is the paper machine: its
    /// outcome must equal the standalone R$BP run's.
    pub fn paper_point(&self) -> Option<usize> {
        let paper = DetailSpec::new(&self.machine).content_hash();
        self.points.iter().position(|p| DetailSpec::new(&p.machine()).content_hash() == paper)
    }
}

fn detail(point: &SweepPoint) -> DetailSpec {
    DetailSpec::new(&point.machine()).policy(rsr_policy())
}
