//! `avabench` — the repeatable benchmark of the AvA remoting stack.
//!
//! ```text
//! avabench --workload W --seed N --seconds S --trace 0|1    one run (the driver's form)
//! avabench run --workload W [--seed N] [--rounds R | --seconds S] [--traced]
//!              [--smoke] [--trace-out FILE] [--detail-out FILE]
//! avabench all [--seed N] [--rounds R] [--smoke] [--out DIR]  every workload, untraced then traced
//! avabench compare A.json B.json                            B against A, within the bounds
//! avabench manifest                                         print BENCHMARK.json
//! ```
//!
//! See `bench/avabench/README.md` for the metric dictionary and method.

mod compare;
mod env;
mod json;
mod layers;
mod metrics;
mod ops;
mod probes;
mod report;
mod rodinia;
mod run;
mod samples;
mod spans;
mod stats;
mod sys;
mod tenant;
mod timed;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use env::{Budget, Sizes};
use json::Json;
use run::RunArgs;

const USAGE: &str = "usage: avabench [run] --workload W [--seed N] [--rounds R | --seconds S] \
[--trace 0|1 | --traced] [--smoke] [--trace-out FILE] [--detail-out FILE]\n       \
avabench all [--seed N] [--rounds R] [--smoke] [--out DIR]\n       \
avabench compare A.json B.json\n       \
avabench manifest";

/// Rounds of an untraced run when neither `--rounds` nor `--seconds` is
/// given: about half a minute per workload on a two-core machine.
fn default_rounds(workload: &str) -> usize {
    match workload {
        "rodinia_chatty" => 50,
        "tenant_mix" => 25,
        _ => 30,
    }
}

/// Traced/untraced round pairs of a traced run by default.
const TRACED_ROUNDS: usize = 5;
const SMOKE_ROUNDS: usize = 3;

/// Command-line options after the subcommand.
#[derive(Debug, Default)]
struct Options {
    workload: Option<String>,
    seed: u64,
    rounds: Option<usize>,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    trace_out: Option<PathBuf>,
    detail_out: Option<PathBuf>,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: 1,
        ..Options::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
        }
        match arg.as_str() {
            "--workload" => o.workload = Some(value(arg)?),
            "--seed" => o.seed = number(arg, &value(arg)?)?,
            "--rounds" => o.rounds = Some(number(arg, &value(arg)?)?),
            "--seconds" => o.seconds = Some(number(arg, &value(arg)?)?),
            "--trace" => {
                o.traced = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => o.traced = true,
            "--smoke" => o.smoke = true,
            "--trace-out" => o.trace_out = Some(value(arg)?.into()),
            "--detail-out" => o.detail_out = Some(value(arg)?.into()),
            "--out" => o.out = Some(value(arg)?.into()),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    if o.rounds == Some(0) {
        return Err("--rounds must be at least 1".into());
    }
    if o.seconds.is_some_and(|s| !(s > 0.0 && s <= 3600.0)) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    if o.rounds.is_some() && o.seconds.is_some() {
        return Err("--rounds and --seconds exclude each other".into());
    }
    Ok(o)
}

fn run_args(o: &Options) -> Result<RunArgs, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let workload = metrics::WORKLOADS
        .iter()
        .map(|w| w.name)
        .find(|w| *w == name)
        .ok_or_else(|| {
            let known: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })?;
    let budget = match (o.rounds, o.seconds) {
        (Some(rounds), _) => Budget::Rounds(rounds),
        (None, Some(seconds)) => Budget::Seconds(seconds),
        (None, None) if o.smoke => Budget::Rounds(SMOKE_ROUNDS),
        (None, None) if o.traced => Budget::Rounds(TRACED_ROUNDS),
        (None, None) => Budget::Rounds(default_rounds(workload)),
    };
    Ok(RunArgs {
        workload,
        seed: o.seed,
        budget,
        traced: o.traced,
        sizes: if o.smoke { Sizes::SMOKE } else { Sizes::FULL },
        trace_out: o.trace_out.clone(),
    })
}

/// Timings of an unoptimised build say nothing about the stack.
fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        Err("this is a debug build; run with `cargo run --release`".into())
    } else {
        Ok(())
    }
}

fn cmd_run(o: &Options) -> Result<ExitCode, String> {
    refuse_debug_build()?;
    let args = run_args(o)?;
    // Before the first thread exists, so every thread inherits it.
    sys::pin_to_one_cpu().ok_or("cannot pin the benchmark to one CPU")?;
    let report = run::run(&args);
    report.print_lines();
    if let Some(path) = &o.detail_out {
        std::fs::write(path, report.detail().render_pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    // The driver reads the last line of standard output.
    println!("{}", report.contract_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Runs one workload in a child process (clean allocator state and RSS)
/// and returns the detail document it wrote.
fn run_child(o: &Options, workload: &str, traced: bool, out_dir: &Path) -> Result<Json, String> {
    let mode = if traced { "traced" } else { "untraced" };
    let detail = out_dir.join(format!("{workload}.{mode}.json"));
    // A stale file from an earlier run must not stand in for this one.
    let _ = std::fs::remove_file(&detail);
    let exe = std::env::current_exe().map_err(|e| format!("locating avabench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &o.seed.to_string()])
        .arg("--detail-out")
        .arg(&detail)
        .stdout(Stdio::null());
    if traced {
        cmd.arg("--traced");
    } else if let Some(rounds) = o.rounds {
        cmd.args(["--rounds", &rounds.to_string()]);
    }
    if o.smoke {
        cmd.arg("--smoke");
    }
    // A failed check makes the child exit 1 after writing its detail
    // file; only a child that wrote nothing is an error here.
    let status = cmd
        .status()
        .map_err(|e| format!("starting {workload} ({mode}): {e}"))?;
    let text = std::fs::read_to_string(&detail)
        .map_err(|_| format!("{workload} ({mode}) wrote no result; exit status {status}"))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", detail.display()))
}

fn cmd_all(o: &Options) -> Result<ExitCode, String> {
    refuse_debug_build()?;
    let out_dir = o
        .out
        .clone()
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out"));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;

    let started = Instant::now();
    let mut workloads = Vec::new();
    let mut rounds = Vec::new();
    let mut wall = Vec::new();
    let mut failed_total = 0.0;
    for w in metrics::WORKLOADS {
        let untraced = run_child(o, w.name, false, &out_dir)?;
        let traced = run_child(o, w.name, true, &out_dir)?;
        let num = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let metrics_of = |doc: &Json| doc.get("metrics").cloned().unwrap_or(Json::Null);
        for (doc, list) in [(&untraced, "end_to_end"), (&traced, "per_layer")] {
            for (name, m) in metrics_of(doc).as_obj().unwrap_or(&[]) {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("?");
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                println!(
                    "{} {name} {} {unit}",
                    w.name,
                    report::fmt_value(value, unit)
                );
            }
            for failure in doc.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
                println!("{} FAILED ({list}) {}", w.name, failure.render());
            }
        }
        let attempted = num(&untraced, "attempted") + num(&traced, "attempted");
        let failed = num(&untraced, "failed") + num(&traced, "failed");
        let fail_ratio = failed / attempted.max(1.0);
        println!(
            "{} fail_ratio {} ratio",
            w.name,
            report::fmt_value(fail_ratio, "ratio")
        );
        failed_total += failed;
        rounds.push((w.name, Json::Num(num(&untraced, "rounds"))));
        wall.push((
            w.name,
            Json::Num(num(&untraced, "wall_s") + num(&traced, "wall_s")),
        ));
        workloads.push((
            w.name,
            Json::obj([
                ("why", Json::str(w.why)),
                ("rounds", Json::Num(num(&untraced, "rounds"))),
                ("traced_rounds", Json::Num(num(&traced, "rounds"))),
                ("threads", Json::Num(num(&untraced, "threads"))),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("fail_ratio", Json::Num(fail_ratio)),
                ("end_to_end", metrics_of(&untraced)),
                ("per_layer", metrics_of(&traced)),
            ]),
        ));
    }

    let result = Json::obj([
        (
            "header",
            Json::obj([
                ("commit", Json::Str(sys::git_commit())),
                ("seed", Json::Num(o.seed as f64)),
                ("smoke", Json::Bool(o.smoke)),
                ("nproc", Json::Num(sys::nproc() as f64)),
                ("cpus_used", Json::Num(1.0)),
                ("threads", Json::Num(tenant::Env::THREADS as f64)),
                ("rustc", Json::Str(sys::rustc_version())),
                ("rounds", Json::obj(rounds)),
                ("wall_s", Json::obj(wall)),
                ("total_wall_s", Json::Num(started.elapsed().as_secs_f64())),
            ]),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out_dir.join("result.json");
    std::fs::write(&path, result.render_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("avabench: wrote {}", path.display());
    Ok(if failed_total == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_compare(o: &Options) -> Result<ExitCode, String> {
    let [a, b] = o.positional.as_slice() else {
        return Err("compare takes two result files".into());
    };
    // The dictionary compiled into this binary is `BENCHMARK.json` (a unit
    // test keeps them identical), so the bounds need no file.
    let worse = compare::compare(
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
        &metrics::manifest(),
    )?;
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("avabench: {worse} metric(s) worse than the bound allows");
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(cmd @ ("run" | "all" | "compare" | "manifest")) => (cmd, &args[1..]),
        // The driver passes options only.
        Some(flag) if flag.starts_with("--") => ("run", &args[..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = parse_options(rest).and_then(|o| match command {
        "run" => cmd_run(&o),
        "all" => cmd_all(&o),
        "compare" => cmd_compare(&o),
        _ => {
            print!("{}", metrics::manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("avabench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_parses_into_a_time_budgeted_run() {
        let o = opts(&[
            "--workload",
            "tenant_mix",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        let args = run_args(&o).unwrap();
        assert_eq!(args.workload, "tenant_mix");
        assert_eq!(args.seed, 9);
        assert_eq!(args.budget, Budget::Seconds(20.0));
        assert!(args.traced);
        assert_eq!(args.sizes.tenant_ops, Sizes::FULL.tenant_ops);
    }

    #[test]
    fn defaults_are_fixed_round_counts() {
        let budget = |args: &[&str]| run_args(&opts(args).unwrap()).unwrap().budget;
        assert_eq!(
            budget(&["--workload", "rodinia_chatty"]),
            Budget::Rounds(50)
        );
        assert_eq!(budget(&["--workload", "rodinia_bulk"]), Budget::Rounds(30));
        assert_eq!(budget(&["--workload", "tenant_mix"]), Budget::Rounds(25));
        assert_eq!(
            budget(&["--workload", "tenant_mix", "--traced"]),
            Budget::Rounds(TRACED_ROUNDS)
        );
        assert_eq!(
            budget(&["--workload", "tenant_mix", "--smoke"]),
            Budget::Rounds(SMOKE_ROUNDS)
        );
        assert_eq!(
            budget(&["--workload", "tenant_mix", "--rounds", "7"]),
            Budget::Rounds(7)
        );
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        assert!(opts(&["--seed"]).is_err());
        assert!(opts(&["--seed", "x"]).is_err());
        assert!(opts(&["--trace", "2"]).is_err());
        assert!(opts(&["--rounds", "0"]).is_err());
        assert!(opts(&["--seconds", "-1"]).is_err());
        assert!(opts(&["--rounds", "3", "--seconds", "3"]).is_err());
        assert!(opts(&["--frobnicate"]).is_err());
        assert!(run_args(&opts(&[]).unwrap()).is_err());
        assert!(run_args(&opts(&["--workload", "nope"]).unwrap()).is_err());
    }

    #[test]
    fn every_workload_in_the_dictionary_has_a_runner() {
        for w in metrics::WORKLOADS {
            let known = rodinia::SPECS.iter().any(|s| s.name == w.name) || w.name == "tenant_mix";
            assert!(known, "{} has no runner", w.name);
        }
    }
}
