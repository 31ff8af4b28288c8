//! The full-run truth reference: `RunSpec::run_full` on the workload's
//! program, length and machine.
//!
//! A full run takes up to a minute, so the result is stored in
//! `perfbench/truth.tsv`, keyed on workload, `WorkloadParams` seed,
//! length, machine fingerprint and the cycle count of a short-prefix full
//! run. A change to the timing core (or to the program) moves that cycle
//! count, so it recomputes the truth instead of reading a stale value. The
//! truth does not depend on the schedule seed. Never timed.

use std::error::Error;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::PathBuf;

use rsr_core::{DetailSpec, RunSpec};

use crate::workload::Inputs;

/// Instructions in the fingerprinting prefix run.
const PREFIX_INSTS: u64 = 200_000;

pub struct Truth {
    pub ipc: f64,
    /// Whether the value was read from the store or computed now.
    pub cached: bool,
}

fn store() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("truth.tsv")
}

/// The true IPC of `inputs`' full run, from the store or computed and
/// appended to it.
pub fn true_ipc(inputs: &Inputs) -> Result<Truth, Box<dyn Error>> {
    let prefix = RunSpec::new(&inputs.program, &inputs.machine).total_insts(PREFIX_INSTS);
    let fingerprint = prefix.run_full()?.stats.cycles;
    let key = format!(
        "{}\t{:#x}\t{}\t{:#018x}\t{}",
        inputs.workload.name(),
        inputs.params.seed,
        inputs.total,
        DetailSpec::new(&inputs.machine).content_hash(),
        fingerprint
    );
    let path = store();
    let text = fs::read_to_string(&path).unwrap_or_default();
    for line in text.lines() {
        let Some(bits) = line.strip_prefix(&key).and_then(|rest| rest.strip_prefix('\t')) else {
            continue;
        };
        let bits = bits.split('\t').next().unwrap_or_default();
        let bits = u64::from_str_radix(bits.trim_start_matches("0x"), 16)
            .map_err(|e| format!("{}: bad truth entry {line:?}: {e}", path.display()))?;
        return Ok(Truth { ipc: f64::from_bits(bits), cached: true });
    }

    let full =
        RunSpec::new(&inputs.program, &inputs.machine).total_insts(inputs.total).run_full()?;
    let ipc = full.ipc();
    let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
    if text.is_empty() {
        writeln!(
            file,
            "# workload\tworkload_seed\tinsts\tmachine_hash\tprefix_cycles\ttrue_ipc_bits\ttrue_ipc"
        )?;
    }
    writeln!(file, "{key}\t{:#018x}\t{ipc}", ipc.to_bits())?;
    file.flush()?;
    Ok(Truth { ipc, cached: false })
}
