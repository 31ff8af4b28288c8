//! Microbenchmark: reverse cache reconstruction vs SMARTS functional
//! warming over the same logged skip region — the per-region cost the
//! paper's speedup comes from.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rsr_cache::{HierAccess, HierarchyConfig, MemHierarchy};
use rsr_core::{
    reconstruct_caches_partitioned, MachineConfig, Pct, ReconGeometry, RunSpec, SamplingRegimen,
    SkipLog, WarmupPolicy,
};
use rsr_func::Cpu;
use rsr_workloads::{Benchmark, WorkloadParams};

const REGION_INSTS: u64 = 200_000;

fn logged_region() -> SkipLog {
    let program = Benchmark::Mcf.build(&WorkloadParams { scale: 0.25, ..Default::default() });
    let mut cpu = Cpu::new(&program).expect("loads");
    let mut log = SkipLog::new(true, false, 0);
    for _ in 0..REGION_INSTS {
        let r = cpu.step().expect("runs");
        log.record(&r);
    }
    log
}

fn recorded_accesses() -> Vec<(u64, HierAccess)> {
    let program = Benchmark::Mcf.build(&WorkloadParams { scale: 0.25, ..Default::default() });
    let mut cpu = Cpu::new(&program).expect("loads");
    let mut out = Vec::new();
    for _ in 0..REGION_INSTS {
        let r = cpu.step().expect("runs");
        out.push((r.pc, HierAccess::Fetch));
        if let Some(m) = r.mem {
            out.push((m.addr, if m.is_store { HierAccess::Store } else { HierAccess::Load }));
        }
    }
    out
}

fn bench_region_warmup(c: &mut Criterion) {
    // Sealed once, outside the timed closures: the engine seals during
    // cold recording, so the reverse scan below is the one it runs.
    let machine = MachineConfig::paper();
    let mut log = logged_region();
    log.seal_mem_index(&ReconGeometry::of_machine(&machine));
    let accesses = recorded_accesses();
    let mut group = c.benchmark_group("region_warmup");
    group.sample_size(10);

    group.bench_function("smarts_full_functional_warm", |b| {
        b.iter_batched(
            || MemHierarchy::new(HierarchyConfig::paper()),
            |mut hier| {
                for &(addr, kind) in &accesses {
                    hier.warm_access(addr, kind);
                }
                hier
            },
            BatchSize::LargeInput,
        )
    });

    for pct in [20u8, 100] {
        group.bench_function(format!("reverse_reconstruction_{pct}pct"), |b| {
            b.iter_batched(
                || MemHierarchy::new(machine.hier.clone()),
                |mut hier| {
                    reconstruct_caches_partitioned(&mut hier, &log, Pct::new(pct), 1);
                    hier
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_logging(c: &mut Criterion) {
    let program = Benchmark::Mcf.build(&WorkloadParams { scale: 0.25, ..Default::default() });
    let mut group = c.benchmark_group("skip_phase");
    group.sample_size(10);

    group.bench_function("cold_step_only", |b| {
        b.iter_batched(
            || Cpu::new(&program).expect("loads"),
            |mut cpu| {
                for _ in 0..50_000 {
                    let _ = cpu.step().expect("runs");
                }
                cpu.icount()
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("cold_step_plus_log", |b| {
        b.iter_batched(
            || (Cpu::new(&program).expect("loads"), SkipLog::new(true, true, 0)),
            |(mut cpu, mut log)| {
                for _ in 0..50_000 {
                    let r = cpu.step().expect("runs");
                    log.record(&r);
                }
                log.len()
            },
            BatchSize::LargeInput,
        )
    });

    // The fused cold loop: step + record in one monomorphized pass — the
    // path the sampler's Reverse arm actually runs.
    group.bench_function("cold_fused_record_region", |b| {
        b.iter_batched(
            || (Cpu::new(&program).expect("loads"), SkipLog::new(true, true, 0)),
            |(mut cpu, mut log)| {
                log.record_region(&mut cpu, 50_000).expect("runs");
                log.len()
            },
            BatchSize::LargeInput,
        )
    });

    // Append throughput of the packed log alone: replay a pre-captured
    // retired stream so cpu.step() stays out of the measurement.
    let retireds: Vec<_> = {
        let mut cpu = Cpu::new(&program).expect("loads");
        (0..50_000).map(|_| cpu.step().expect("runs")).collect()
    };
    group.bench_function("packed_log_append", |b| {
        b.iter_batched(
            || SkipLog::new(true, true, 0),
            |mut log| {
                for r in &retireds {
                    log.record(r);
                }
                log.approx_bytes()
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

// Depth sweep of the leader/follower pipeline on a small sampled run:
// depth 1 is the sequential engine, 2 and 4 overlap cold fast-forward
// with reconstruction + hot clusters (results are bit-identical; only
// wall time may move, and only where the host has cores to spare).
fn bench_pipeline_depth(c: &mut Criterion) {
    let program = Benchmark::Mcf.build(&WorkloadParams { scale: 0.25, ..Default::default() });
    let machine = MachineConfig::paper();
    let mut group = c.benchmark_group("pipeline_depth");
    group.sample_size(10);

    for depth in [1usize, 2, 4] {
        group.bench_function(format!("sampled_run_depth_{depth}"), |b| {
            b.iter(|| {
                RunSpec::new(&program, &machine)
                    .regimen(SamplingRegimen::new(10, 800))
                    .total_insts(400_000)
                    .policy(WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) })
                    .seed(42)
                    .shard_span(100_000)
                    .pipeline_depth(depth)
                    .run()
                    .expect("sampled run")
                    .est_ipc()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_region_warmup, bench_logging, bench_pipeline_depth);
criterion_main!(benches);
