//! The ipcl benchmark: three seeded workloads against the public API, every
//! verdict checked, end-to-end metrics with tracing off and per-layer
//! metrics in a separate traced run.
//!
//! ```text
//! ipcl-perfbench --workload <preset-matrix|serve-hits|serve-batch>
//!                --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ipcl-perfbench --print-expected
//! ```
//!
//! The last line of standard output is the JSON result
//! (`correct`, `attempted`, `failed`, `metrics`); the lines before it list
//! every metric with its unit and sample count. `--smoke` shrinks every
//! workload to its smallest size. `--print-expected` prints the verdict
//! table `expected.txt` the oracle reads.

mod designs;
mod layers;
mod library;
mod oracle;
mod report;
mod serve;

use std::time::Duration;

use ipcl_checker::{check_netlist_sequential_with, ProofStrategy};

use crate::designs::Design;
use crate::oracle::{strategy_name, Entry};

#[global_allocator]
static ALLOC: report::CountingAlloc = report::CountingAlloc;

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str, default: &str| -> Result<f64, String> {
        value(flag)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: value("--workload")
            .ok_or("--workload is required")?
            .to_owned(),
        seed: value("--seed")
            .unwrap_or("1")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: number("--seconds", "10")?,
        trace: number("--trace", "0")? != 0.0,
        smoke: argv.iter().any(|a| a == "--smoke"),
    })
}

/// Prints the oracle table for every design and strategy the workloads
/// check (the smoke designs are a subset), and for the reference chain.
fn print_expected() {
    println!("# <design> <strategy> reset=<ok|bad> stuck=<stages|-> falsified=<properties|->");
    println!("# Every property not listed as falsified must be proved.");
    let library = library::build(false);
    let mut items: Vec<(&Design, ProofStrategy)> = library
        .items
        .iter()
        .map(|&(d, strategy)| (&library.designs[d], strategy))
        .collect();
    let reference = designs::deep_chain(layers::REFERENCE_DEPTH);
    items.push((&reference, ProofStrategy::Pdr));
    let mut rows = Vec::new();
    for (design, strategy) in items {
        let report = check_netlist_sequential_with(
            &design.spec,
            &design.netlist,
            &library::options(strategy, 0, false),
        )
        .expect("oracle designs check");
        rows.push(Entry::of_report(&report).render(&design.name, strategy_name(strategy)));
    }
    rows.sort();
    for row in rows {
        println!("{row}");
    }
}

fn main() {
    if std::env::args().any(|a| a == "--print-expected") {
        print_expected();
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ipcl-perfbench: {message}");
            std::process::exit(2);
        }
    };
    // A hung request or a runaway proof must not hang the benchmark: give
    // up, without a result line, two minutes past the measuring time.
    let limit = Duration::from_secs_f64(args.seconds + 120.0);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("ipcl-perfbench: run exceeded {limit:?}; aborting");
        std::process::exit(3);
    });
    let outcome = match args.workload.as_str() {
        "preset-matrix" => library::run(&args),
        "serve-hits" => serve::run(false, &args),
        "serve-batch" => serve::run(true, &args),
        other => {
            eprintln!("ipcl-perfbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    outcome.print();
}
