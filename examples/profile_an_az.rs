//! Profile the Table-1 workloads in one availability zone and print the
//! per-CPU runtime hierarchy the router exploits (Figure 9 in miniature).
//!
//! ```bash
//! cargo run --release --example profile_an_az
//! ```

use sky_core::cloud::{Arch, Catalog, CpuType, Provider};
use sky_core::faas::{FaasEngine, FleetConfig};
use sky_core::sim::SimDuration;
use sky_core::workloads::WorkloadKind;
use sky_core::{Characterization, WorkloadProfiler};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut engine = FaasEngine::new(Catalog::paper_world(7), FleetConfig::new(7));
    let account = engine.create_account(Provider::Aws);
    let az = "us-west-1b".parse()?;
    let deployment = engine.deploy(account, &az, 2048, Arch::X86_64)?;
    engine.set_observation_hook(true);

    let mut profiler = WorkloadProfiler::new();
    for kind in [
        WorkloadKind::Zipper,
        WorkloadKind::LogisticRegression,
        WorkloadKind::DiskWriter,
    ] {
        println!("profiling {kind} with 400 invocations in {az}...");
        let run = profiler.profile(&mut engine, deployment, kind, 400, 150, 9);
        println!(
            "  completed {} / errors {} / ${:.3}",
            run.completed, run.errors, run.cost_usd
        );
        engine.advance_by(SimDuration::from_mins(12));
    }

    let table = profiler.table();
    println!("\nobserved runtime normalized to the 2.5GHz baseline (>1 is slower):");
    for kind in [
        WorkloadKind::Zipper,
        WorkloadKind::LogisticRegression,
        WorkloadKind::DiskWriter,
    ] {
        print!("  {:20}", kind.name());
        for (cpu, factor) in table.normalized(kind, CpuType::IntelXeon2_5) {
            print!("  {}={:.2}", cpu.short_label(), factor);
        }
        println!();
    }

    // The passive characterization came along for free (paper §4.6).
    let mut passive = Characterization::new();
    passive.observe_all(&engine.take_observations(&az));
    println!(
        "\npassive characterization from the same traffic: {} unique FIs, mix {:?}",
        passive.unique_fis(),
        passive.to_mix()
    );
    Ok(())
}
