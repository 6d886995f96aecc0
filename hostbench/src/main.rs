//! Command line of the host wall-clock benchmark.
//!
//! ```text
//! rapid-hostbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run configuration, a table of every metric with its unit,
//! and as the last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--workload all` runs each workload in a child
//! process of its own (so `peak_rss_mb` is per workload) and prints them
//! all.

use rapid_hostbench::{run, Report, RunConfig, Scale, WORKLOADS};
use rapid_telemetry::json::Json;
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The checked-out commit, read from `.git` in the working directory
/// (a plain source tree has none and reports `unknown`).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".into()
    } else {
        id.chars().take(12).collect()
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
) -> String {
    let metrics = metrics
        .into_iter()
        .map(|(n, v, u)| {
            (
                n,
                Json::Obj(vec![
                    ("value".into(), Json::num(v)),
                    ("unit".into(), Json::str(u)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(attempted)),
        ("failed".into(), Json::u64(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

fn print_table(workload: &str, rows: &[(String, f64, String)]) {
    for (n, v, u) in rows {
        println!("{workload:<18} {n:<28} {v:>16.6} {u}");
    }
}

/// Runs every workload in a child process and merges their results.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let (mut correct, mut attempted, mut failed, mut all) = (true, 0u64, 0u64, Vec::new());
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args([
                "--workload",
                w,
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
            ])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("cannot run {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let Ok(json) = Json::parse(last) else {
            eprintln!(
                "{w}: no result ({})",
                String::from_utf8_lossy(&out.stderr).trim()
            );
            correct = false;
            continue;
        };
        correct &= json.get("correct") == Some(&Json::Bool(true));
        attempted += json.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        failed += json.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let rows: Vec<(String, f64, String)> = json
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .map(|(n, m)| {
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                (
                    n.clone(),
                    v,
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect();
        print_table(w, &rows);
        all.extend(rows.into_iter().map(|(n, v, u)| (format!("{w}/{n}"), v, u)));
    }
    println!("{}", result_json(correct, attempted.max(1), failed, all));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One worker by default: the kernels' fork-join waits for the slowest
    // worker, so on a shared host every pause of either core lands in the
    // timing; one thread leaves the other core to the rest of the machine.
    // The traced run still measures the 2-thread speedup per op kind.
    let threads = match std::env::var("RAPID_THREADS") {
        Ok(s) => s
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or(format!("RAPID_THREADS={s}: not a thread count"))?,
        Err(_) => 1,
    };
    if threads > nproc {
        return Err(format!(
            "refusing to run {threads} worker threads on {nproc} cores (RAPID_THREADS)"
        ));
    }
    let simd = std::env::var("RAPID_SIMD").unwrap_or_else(|_| "auto".into());
    // Set before any kernel runs and before any thread starts.
    std::env::set_var("RAPID_THREADS", threads.to_string());
    std::env::set_var("RAPID_SIMD", &simd);
    println!(
        "config workload={} seed={} seconds={} trace={} RAPID_THREADS={threads} nproc={nproc} RAPID_SIMD={simd} \
         simd_mode={} simd_detected={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rapid_numerics::SimdMode::from_env(),
        rapid_numerics::dispatch::simd_available(),
        commit(),
    );
    if args.workload == "all" {
        return run_all(&args);
    }
    let trace_path = args.trace.then(|| {
        std::path::PathBuf::from(format!(
            ".bench_out/trace_{}_{}.json",
            args.workload, args.seed
        ))
    });
    let cfg = RunConfig {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
        trace_path,
    };
    let rep: Report = run(&cfg)?;
    for note in &rep.notes {
        println!("{note}");
    }
    let rows: Vec<(String, f64, String)> = rep
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
        .collect();
    print_table(&args.workload, &rows);
    let correct = rep.failed == 0;
    println!(
        "{}",
        result_json(correct, rep.attempted.max(1), rep.failed, rows)
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
