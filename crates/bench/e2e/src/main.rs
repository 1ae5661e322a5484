//! Command-line entry point; see the library documentation for the
//! workloads and the output format.

use std::path::Path;

use cpmbench::{parse_args, run, run_child};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let root = Path::new(".");
    if argv.first().map(String::as_str) == Some("child") {
        if let Err(e) = run_child(&argv[1..], root) {
            eprintln!("cpmbench child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cpmbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args, root).and_then(|(report, specs)| {
        let line = report.render(&specs)?;
        Ok((report, line))
    });
    match outcome {
        Ok((report, line)) => {
            for p in &report.tally.problems {
                eprintln!("cpmbench: FAILED CHECK: {p}");
            }
            for l in report.provenance(root) {
                println!("{l}");
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("cpmbench: {e}");
            std::process::exit(1);
        }
    }
}
