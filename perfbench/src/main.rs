//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines (effective config, every metric with its
//! unit and sample count, the virtual-time digest, correctness totals),
//! then one JSON result line. Exits 1 if any output was wrong, 2 if the
//! run could not be made.

use perfbench::run::{end_to_end, traced, Args, Metric};

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace { traced(args) } else { end_to_end(args) };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} (seed {}): {e}", args.kind.name(), args.seed);
            std::process::exit(2);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in outcome.metrics.iter().chain(&outcome.printed) {
        match m.samples {
            Some(n) => println!("{:<28} {:>16.4} {:<9} (n={n})", m.name, m.value, m.unit),
            None => println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit),
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        json_metrics(&outcome.metrics)
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
