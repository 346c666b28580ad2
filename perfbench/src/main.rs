//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints the host record, then (on stderr, traced runs only) the
//! per-layer table, and as the last stdout line the result object.

use perfbench::{environment, run, Options};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::from_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <grna-nn|esa-lr-stream> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let env = environment();
    eprintln!(
        "perfbench: {} seed={} env={env}",
        opts.workload.name(),
        opts.seed
    );
    let outcome = run(&opts);
    if !outcome.table.is_empty() {
        eprint!("{}", outcome.table);
    }
    for why in &outcome.failures {
        eprintln!("perfbench: check failed: {why}");
    }
    println!("env {env}");
    println!("{}", outcome.to_json());
}
