//! §8 future work: "Would the ELSC scheduler be more effective in
//! increasing throughput or decreasing the latency of an Apache web
//! server?"
//!
//! Measures both for the Apache-like workload across all four scheduler
//! designs: requests served per second, response-latency percentiles, and
//! the kernel-side wakeup-to-dispatch latency that the scheduler directly
//! controls.

use elsc_bench::{header, SchedKind, Shape};
use elsc_workloads::httpd::{self, HttpdConfig};

fn run_load(label: &str, cfg: &HttpdConfig, shape: Shape) {
    println!(
        "{label}: {} workers, {} clients x {} requests on {}",
        cfg.workers,
        cfg.clients,
        cfg.requests_per_client,
        shape.label()
    );
    println!(
        "{:<6} {:>9} {:>11} {:>11} {:>11} {:>13} {:>13}",
        "sched", "req/s", "lat p50", "lat p95", "lat p99", "wake p50", "wake p99"
    );
    for kind in SchedKind::ALL {
        let report = httpd::run(shape.machine(), kind.build(shape.topology()), cfg);
        let resp = report
            .dists
            .get("response_latency")
            .expect("latency recorded");
        let wake = report.dists.get("wake_latency").expect("wake recorded");
        let us = |cycles: u64| cycles as f64 / (report.cpu_hz as f64 / 1e6);
        println!(
            "{:<6} {:>9.0} {:>9.0}us {:>9.0}us {:>9.0}us {:>11.1}us {:>11.1}us",
            kind.label(),
            httpd::throughput(&report),
            us(resp.percentile(50.0)),
            us(resp.percentile(95.0)),
            us(resp.percentile(99.0)),
            us(wake.percentile(50.0)),
            us(wake.percentile(99.0)),
        );
    }
    println!();
}

fn main() {
    header(
        "Web-server latency and throughput across scheduler designs",
        "Molloy & Honeyman 2001, §8 (future work)",
    );
    let light = HttpdConfig {
        workers: 16,
        clients: 64,
        requests_per_client: 20,
        ..HttpdConfig::default()
    };
    let heavy = HttpdConfig {
        workers: 64,
        clients: 512,
        requests_per_client: 8,
        think_cycles: 500_000,
        ..HttpdConfig::default()
    };
    run_load("light load", &light, Shape::Smp(2));
    run_load("heavy load", &heavy, Shape::Smp(2));
    run_load("heavy load", &heavy, Shape::Smp(4));
    println!("expected: under heavy load the baseline's O(n) scans inflate the");
    println!("wakeup-to-dispatch tail, which surfaces in response p95/p99; the");
    println!("bounded-search designs keep both throughput and tail latency.");
}
