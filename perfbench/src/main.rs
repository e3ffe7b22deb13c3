//! `perfbench bench --workload <w> --seed <n> --seconds <s> --trace <0|1>
//!  --mime <mime binary> --work <dir>` runs one benchmark invocation and
//! prints the result JSON as its last stdout line.
//!
//! `perfbench prepare --geometry serve|cifar --seed <n> --out <dir>`
//! builds the seeded calibrated image, input pool and reference logits
//! (run as a child of `bench`, so the reference model never shares the
//! measured process).

use mime_perfbench::bench::{self, Options};
use mime_perfbench::model::Geometry;
use mime_perfbench::util::{host_record, result_json};
use mime_perfbench::Workload;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key =
            a.strip_prefix("--").ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn get<'a>(f: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    f.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
}

fn num<T: std::str::FromStr>(f: &HashMap<String, String>, key: &str) -> Result<T, String> {
    get(f, key)?.parse().map_err(|_| format!("--{key}: not a number"))
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().ok_or("usage: perfbench bench|prepare ...")?;
    let f = flags(rest)?;
    match cmd.as_str() {
        "prepare" => {
            let geom =
                Geometry::parse(get(&f, "geometry")?).ok_or("--geometry: serve|cifar")?;
            let dir = PathBuf::from(get(&f, "out")?);
            for line in bench::prepare_into(geom, num(&f, "seed")?, &dir)? {
                println!("{line}");
            }
            Ok(true)
        }
        "bench" => {
            let workload = get(&f, "workload")?;
            let opts = Options {
                workload: Workload::parse(workload)
                    .ok_or("--workload: serve-mix|offline-single|offline-pipelined")?,
                seed: num(&f, "seed")?,
                seconds: num(&f, "seconds")?,
                trace: num::<u8>(&f, "trace")? != 0,
                mime: PathBuf::from(get(&f, "mime")?),
                perfbench: std::env::current_exe().map_err(|e| e.to_string())?,
                work: PathBuf::from(get(&f, "work")?),
                tiny: false,
            };
            let outcome = bench::run(&opts)?;
            for line in &outcome.lines {
                println!("{line}");
            }
            for m in &outcome.metrics {
                println!("metric {} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", host_record(workload, opts.seed, opts.trace));
            println!("{}", result_json(outcome.correct, &outcome.tally, &outcome.metrics));
            Ok(outcome.correct)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
