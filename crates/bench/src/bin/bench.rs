//! `bench` — runs every smoke-bench family, writes its records, then
//! checks them (see `flash_bench`).
//!
//! ```text
//! bench [--smoke] [--out-dir DIR]
//! ```
//!
//! Writes `BENCH_e2e.json`, `BENCH_churn.json` and `BENCH_testbed.json`
//! into DIR (default: the working directory; created if missing).
//! `--smoke` from the workspace root regenerates the committed files,
//! which `cargo test` pins by equality on every field not measured on
//! the host clock.
//! Every file is written before any shape rule runs, so a broken rule
//! in one family does not hide the others' numbers; the binary then
//! names every finding and exits 1 if there is one.

use flash_bench::{parse_args, to_json_lines, FAMILIES};

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.out_dir).expect("create the output directory");
    let mut written = Vec::new();
    for family in &FAMILIES {
        let records = (family.records)(args.smoke);
        for r in &records {
            println!(
                "{:>8} {}: success {:.1}%, volume {} µ",
                family.name,
                r.label(),
                r.success_ratio * 100.0,
                r.success_volume_micros
            );
        }
        let out = args.out_dir.join(family.file());
        std::fs::write(&out, to_json_lines(&records)).expect("write bench output");
        eprintln!("wrote {}", out.display());
        written.push((family, records));
    }
    let mut broken = false;
    for (family, records) in &written {
        for finding in (family.check)(records) {
            eprintln!("{} shape rule broken: {finding}", family.name);
            broken = true;
        }
    }
    if broken {
        std::process::exit(1);
    }
}
