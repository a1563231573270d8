//! Command-line entry of the benchmark binary.
//!
//! ```text
//! perfbench --workload <offload_rpc|burst_drain|newmad_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--fault <name>] [--limit-s <s>]
//! ```
//!
//! Prints a detail line (every measured metric with unit and sample count,
//! and every check) and, last, the result line. A run that does not finish
//! within `--limit-s` seconds prints its partial counts as failures and
//! exits: `TaskHandle::wait` has no timeout, so a lost task would otherwise
//! hang the run. `--fault` plants a fault for the benchmark's own tests.

use perfbench::report::Outcome;
use perfbench::{Fault, Progress, RunConfig, Workload};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    cfg: RunConfig,
    limit: Duration,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut fault = Fault::None;
    let mut limit = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("seconds (0 < s <= 120)"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace (0 or 1)")),
                }
            }
            "--fault" => fault = Fault::parse(&value).ok_or_else(|| bad("fault"))?,
            "--limit-s" => {
                let s = value.parse::<f64>().map_err(|_| bad("limit"))?;
                if !(s > 0.0 && s <= 170.0) {
                    return Err(bad("limit (0 < s <= 170)"));
                }
                limit = Some(Duration::from_secs_f64(s));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            fault,
        },
        // Set-up, warm-up and checks take a few seconds at most.
        limit: limit.unwrap_or_else(|| Duration::from_secs_f64((seconds * 2.0 + 30.0).min(170.0))),
    })
}

fn print(out: &Outcome, args: &Args) {
    let c = &args.cfg;
    println!(
        "{}",
        out.detail_json(args.workload.name(), c.seed, c.seconds, c.trace)
    );
    println!("{}", out.result_json(c.trace));
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A panicking task body is caught by the scheduler and reported through
    // its handle; keep planted panics off stderr.
    if args.cfg.fault == Fault::PanicOnce {
        std::panic::set_hook(Box::new(|_| {}));
    }
    let progress = Arc::new(Progress::default());
    let finished = Arc::new(AtomicBool::new(false));
    let watchdog = {
        let progress = progress.clone();
        let finished = finished.clone();
        let deadline = Instant::now() + args.limit;
        let workload = args.workload;
        let cfg = args.cfg;
        std::thread::Builder::new()
            .name("perfbench-watchdog".to_owned())
            .spawn(move || {
                // Parked almost all the time: it competes for no core.
                while !finished.load(Ordering::Acquire) {
                    let now = Instant::now();
                    if now >= deadline {
                        let (attempted, verified) = progress.counts();
                        let mut out = Outcome {
                            attempted,
                            failed: attempted.saturating_sub(verified).max(1),
                            ..Outcome::default()
                        };
                        out.check(
                            "time_limit",
                            false,
                            "run did not finish within its time limit".to_owned(),
                        );
                        out.finish();
                        print(
                            &out,
                            &Args {
                                workload,
                                cfg,
                                limit: Duration::ZERO,
                            },
                        );
                        std::process::exit(0);
                    }
                    std::thread::park_timeout(deadline - now);
                }
            })
            .expect("spawn watchdog")
    };
    let out = args.workload.run(&args.cfg, &progress);
    finished.store(true, Ordering::Release);
    watchdog.thread().unpark();
    watchdog.join().expect("watchdog exits cleanly");
    print(&out, &args);
    ExitCode::SUCCESS
}
