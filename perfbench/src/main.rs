//! `thoth-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress and tables, then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero
//! on a usage error or when an artefact cannot be written; output
//! failures are reported in the JSON (`correct: false`).

fn main() {
    let args = match thoth_perfbench::parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", thoth_perfbench::USAGE);
            std::process::exit(2);
        }
    };
    match thoth_perfbench::run(&args) {
        Ok(result) => println!("{}", result.to_json()),
        Err(e) => {
            eprintln!("thoth-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
