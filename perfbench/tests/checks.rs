//! The benchmark's own tests, in short mode: every catalogued metric is
//! emitted with its unit and sample count, planted faults raise
//! `failed_frac` above 0 (so the checks are live), and `newmad_mix` is
//! deterministic per seed.

use perfbench::report::{end_to_end, per_layer, Outcome};
use perfbench::{Fault, Progress, RunConfig, Workload};
use std::process::Command;
use std::time::{Duration, Instant};

const SHORT_S: f64 = 0.3;

fn run(workload: Workload, seed: u64, trace: bool, fault: Fault) -> Outcome {
    let cfg = RunConfig {
        seed,
        seconds: SHORT_S,
        trace,
        fault,
    };
    workload.run(&cfg, &Progress::default())
}

/// Metrics each workload must measure (non-zero sample count) in a traced
/// run, on top of the end-to-end catalogue.
fn layers_of(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::OffloadRpc => &[
            "pioman.spawn.",
            "pioman.wait.",
            "pioman.waitlist_released",
            "pioman.park_probe_hit_frac",
            "offload.",
            "progression.",
            "body.busy_s",
            "trace.",
        ],
        Workload::BurstDrain => &[
            "pioman.spawn.",
            "pioman.schedule.",
            "pioman.stolen_frac",
            "pioman.steal_hit_frac",
            "pioman.spilled_frac",
            "pioman.claimed",
            "pioman.lock_contended_frac",
            "progression.",
            "body.busy_s",
            "trace.",
        ],
        Workload::NewmadMix => &["newmad.", "net.", "des.", "sim_", "host_mb_per_s", "trace."],
    }
}

#[test]
fn every_metric_is_emitted_with_unit_and_samples() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(workload, 7, trace, Fault::None);
            let name = workload.name();
            assert!(out.correct(), "{name}: {:?}", out.checks);
            assert_eq!(out.failed, 0, "{name}");
            assert!(out.attempted > 0, "{name}");
            for (metric, _) in end_to_end() {
                let v = out.get(metric);
                assert!(v.value > 0.0, "{name}: {metric} must be positive");
                assert!(v.samples > 0, "{name}: {metric} has no samples");
            }
            let result = out.result_json(trace);
            let catalogue = if trace { per_layer() } else { end_to_end() };
            for (metric, unit) in catalogue {
                let field = format!("\"{metric}\": {{\"value\": ");
                assert!(result.contains(&field), "{name}: {metric} missing");
                assert!(
                    result.contains(&format!("\"unit\": \"{unit}\"")),
                    "{name}: unit {unit} missing"
                );
            }
            let detail = out.detail_json(name, 7, SHORT_S, trace);
            for metric in out.metrics.keys() {
                let head = format!("\"{metric}\": {{\"value\": ");
                let at = detail.find(&head).expect("metric in detail line");
                let rest = &detail[at..];
                let end = rest.find('}').expect("closed");
                assert!(rest[..end].contains("\"unit\": "), "{metric}");
                assert!(rest[..end].contains("\"samples\": "), "{metric}");
            }
            if trace {
                for prefix in layers_of(workload) {
                    let hits: Vec<_> = out
                        .metrics
                        .iter()
                        .filter(|(k, _)| k.starts_with(prefix))
                        .collect();
                    assert!(!hits.is_empty(), "{name}: no {prefix}* metric");
                    for (k, v) in hits {
                        assert!(v.samples > 0, "{name}: {k} has no samples");
                    }
                }
            }
        }
    }
}

#[test]
fn traced_runs_account_for_measured_time() {
    let out = run(Workload::OffloadRpc, 3, true, Fault::None);
    let coverage = out.get("offload.client_span_coverage").value;
    assert!(coverage <= 1.0, "spans are nested inside the request");
    assert!(coverage >= 1.0 - perfbench::offload::CLIENT_SPAN_TOLERANCE);
    let out = run(Workload::NewmadMix, 3, true, Fault::None);
    assert!(out.get("des.self_s").value > 0.0);
    assert!(out.get("des.self_s").value < out.get("des.run_busy_s").value);
}

fn assert_fault_detected(workload: Workload, fault: Fault) {
    let out = run(workload, 11, false, fault);
    assert!(
        out.get("failed_frac").value > 0.0,
        "{} with {fault:?}: failed_frac stayed 0",
        workload.name()
    );
    assert!(!out.correct());
}

#[test]
fn a_panicking_task_body_counts_as_failed() {
    assert_fault_detected(Workload::OffloadRpc, Fault::PanicOnce);
    assert_fault_detected(Workload::BurstDrain, Fault::PanicOnce);
}

#[test]
fn a_wrong_repeat_count_counts_as_failed() {
    assert_fault_detected(Workload::OffloadRpc, Fault::ExtraAgain);
}

#[test]
fn a_corrupted_payload_byte_counts_as_failed() {
    assert_fault_detected(Workload::NewmadMix, Fault::CorruptByte);
}

/// A lost task never completes and `TaskHandle::wait` has no timeout: the
/// binary's watchdog must report the partial counts as failures instead of
/// hanging.
#[test]
fn a_run_that_hits_its_time_limit_reports_failures() {
    for workload in ["offload_rpc", "burst_drain"] {
        let t0 = Instant::now();
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", workload, "--seed", "5", "--seconds", "0.3"])
            .args(["--trace", "0", "--fault", "lose-task", "--limit-s", "3"])
            .output()
            .expect("run the benchmark binary");
        assert!(t0.elapsed() < Duration::from_secs(60), "{workload} hung");
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": false"),
            "{workload}: {last}"
        );
        assert!(!last.contains("\"failed\": 0,"), "{workload}: {last}");
    }
}

/// Values a traced `newmad_mix` run must reproduce exactly for a seed.
const DETERMINISTIC: &[&str] = &[
    "sim_latency_p50_us",
    "sim_latency_p99_us",
    "sim_goodput_gbps",
    "newmad.poll.calls",
    "newmad.poll.useful_frac",
    "newmad.packets_per_msg",
    "newmad.aggregate_frac",
    "newmad.pipeline_stalls",
    "newmad.rendezvous_started",
    "newmad.data_chunks_sent",
    "newmad.payload_bytes_copied",
    "newmad.dropped",
    "net.tx_packets",
    "net.tx_bytes",
    "net.rail_balance",
    "des.events",
];

#[test]
fn newmad_mix_is_deterministic_per_seed() {
    let values = |seed| {
        let out = run(Workload::NewmadMix, seed, true, Fault::None);
        DETERMINISTIC
            .iter()
            .map(|m| out.get(m).value)
            .collect::<Vec<f64>>()
    };
    let a = values(21);
    assert_eq!(a, values(21), "same seed, different results");
    let b = values(22);
    assert_ne!(a, b, "a different seed must change the results");
}
