//! `flash-repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! flash-repro [--quick] [--out DIR] [--fig figN]...
//! ```
//!
//! Without `--fig`, every figure is regenerated. Results are printed as
//! markdown and also written to `DIR/<fig>.md` and `DIR/<fig>.csv`
//! (default `results/`).

use pcn_experiments::{figures, Effort, FigureResult};
use std::path::PathBuf;

type FigureFn = fn(Effort) -> Vec<FigureResult>;

/// Every figure the binary can regenerate, in the order a bare run
/// produces them.
const FIGURES: &[(&str, FigureFn)] = &[
    ("fig3", figures::fig3::run),
    ("fig4", figures::fig4::run),
    ("fig6", figures::fig6::run),
    ("fig7", figures::fig7::run),
    ("fig8", figures::fig8::run),
    ("fig9", figures::fig9::run),
    ("fig10", figures::fig10::run),
    ("fig11", figures::fig11::run),
    ("fig12", figures::fig12::run),
    ("fig13", figures::fig13::run),
    ("latency", figures::latency::run),
    ("churn", figures::churn::run),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut effort = Effort::Paper;
    let mut out_dir = PathBuf::from("results");
    let mut figs: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => effort = Effort::Quick,
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(args.get(i).expect("--out needs a directory"));
            }
            "--fig" => {
                i += 1;
                figs.push(args.get(i).expect("--fig needs a name").clone());
            }
            "--help" | "-h" => {
                eprintln!("usage: flash-repro [--quick] [--out DIR] [--fig figN]...");
                let names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
                eprintln!("figures: {}", names.join(" "));
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if figs.is_empty() {
        figs = FIGURES.iter().map(|&(name, _)| name.to_string()).collect();
    }
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    for name in figs {
        let wall_started = pcn_proto::wall_now();
        eprintln!("running {name} ({effort:?})...");
        let Some(&(_, run)) = FIGURES.iter().find(|&&(fig, _)| fig == name) else {
            eprintln!("unknown figure: {name}");
            std::process::exit(2);
        };
        let results = run(effort);
        eprintln!("  done in {:.1?}", wall_started.elapsed());
        for fig in &results {
            println!("{}", fig.to_markdown());
            std::fs::write(out_dir.join(format!("{}.md", fig.id)), fig.to_markdown())
                .expect("write markdown");
            std::fs::write(out_dir.join(format!("{}.csv", fig.id)), fig.to_csv())
                .expect("write csv");
        }
    }
}
