//! Regenerate the full experimental evaluation (E1–E14, indexed in
//! `crates/sim/src/experiments/mod.rs`).
//!
//! Usage:
//!   cargo run --release --example experiments            # all, full size
//!   cargo run --release --example experiments -- --quick # reduced sizes
//!   cargo run --release --example experiments -- e1 e4   # a subset
//!
//! Tables are printed and written to results/ (CSV per table +
//! results/experiments.md).

use std::path::Path;

use topk_monitoring::sim::experiments::{run, ExpCfg, ALL_IDS};
use topk_monitoring::sim::report::write_tables;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let ids: Vec<&str> = if ids.is_empty() {
        ALL_IDS.to_vec()
    } else {
        ids
    };

    let cfg = ExpCfg {
        quick,
        ..Default::default()
    };
    println!(
        "running {} experiment(s) ({} mode)\n",
        ids.len(),
        if quick { "quick" } else { "full" }
    );

    let mut tables = Vec::new();
    for id in &ids {
        let started = std::time::Instant::now();
        let ts = run(id, &cfg);
        println!("── {id} done in {:.1}s", started.elapsed().as_secs_f64());
        for t in &ts {
            print!("{}", t.to_markdown());
        }
        tables.extend(ts);
    }

    let out_dir = Path::new("results");
    match write_tables(out_dir, &tables) {
        Ok(paths) => println!("wrote {} files under {}/", paths.len(), out_dir.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
