//! `servebench`: the end-to-end serving benchmark.
//!
//! ```text
//! servebench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! servebench shard --range <k> --dir <run dir>     (spawned by `run`)
//! servebench router --dir <run dir>                (spawned by `run`)
//! ```
//!
//! `run` deploys a router and two shard processes over TCP, drives one
//! traffic mix through the router, checks the outputs against an offline
//! replay, and prints a table followed by one JSON result line.

mod checks;
mod deploy;
mod inputs;
mod load;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use tsvd_linalg::DenseMatrix;
use tsvd_serve::{Router, ShardEndpoint};

use deploy::{proc_usage, DeployCfg, Deployment, RunDir, RANGES};
use inputs::{Inputs, Workload};
use load::{LoadResult, OpKind};
use stats::{beyond, median, percentile};

/// Set-ups per run; `setup_s` is their median and the last one is used.
const SETUP_REPS: usize = 7;

/// The end-to-end metrics the result line carries: `BENCHMARK.json`'s
/// `end_to_end` set. The wall-clock figures of the load (`ingest_eps`,
/// `visible_ms_*`, the read percentiles) are printed in the table but left
/// out: on a 2-vCPU VM they follow the hypervisor's CPU steal (4–22 % of
/// the machine per run), and their run-to-run spread exceeds any bound the
/// benchmark may set.
const GATED: [&str; 4] = ["setup_s", "system_cpu_s", "rss_peak_mb", "err_ratio"];

struct Args {
    cmd: String,
    flags: BTreeMap<String, String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it
        .next()
        .ok_or("usage: servebench <run|shard|router> [--flag value]...")?;
    let mut flags = BTreeMap::new();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), v);
    }
    Ok(Args { cmd, flags })
}

impl Args {
    fn get(&self, k: &str) -> Result<&str, String> {
        self.flags
            .get(k)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{k}"))
    }

    fn num(&self, k: &str) -> Result<u64, String> {
        self.get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let res = match args.cmd.as_str() {
        "shard" => args
            .get("dir")
            .and_then(|d| Ok((PathBuf::from(d), args.num("range")? as usize)))
            .and_then(|(d, k)| deploy::shard_main(&d, k).map_err(|e| e.to_string())),
        "router" => args
            .get("dir")
            .and_then(|d| deploy::router_main(Path::new(d)).map_err(|e| e.to_string())),
        "run" => return run(&args),
        other => Err(format!("unknown command {other}")),
    };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench {}: {e}", args.cmd);
            ExitCode::FAILURE
        }
    }
}

/// Everything a finished run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn run(args: &Args) -> ExitCode {
    let parsed = (|| -> Result<_, String> {
        let w = args.get("workload")?;
        let workload = Workload::parse(w).ok_or_else(|| format!("unknown workload {w}"))?;
        let trace = match args.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        };
        let seconds = args.num("seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok((workload, args.num("seed")?, seconds, trace))
    })();
    let (workload, seed, seconds, trace) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("servebench run: {e}");
            return ExitCode::from(2);
        }
    };
    // The generator's own pool matches the shards', so replayed layer
    // times are comparable; no inherited toggle may change the policy.
    std::env::set_var("TSVD_THREADS", deploy::SYSTEM_THREADS);
    for v in deploy::SCRUBBED_ENV {
        std::env::remove_var(v);
    }
    match run_workload(workload, seed, seconds, trace) {
        Ok(out) => {
            print_result(&out);
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench run: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_result(out: &Outcome) {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Outcome, String> {
    let inputs = Arc::new(Inputs::generate(workload, seed, seconds));
    let cfg = DeployCfg::from_inputs(&inputs);
    let cwd = std::env::current_dir().map_err(io_err)?;
    let run_dir = RunDir::create(cwd.join(".bench_run").join(format!(
        "{}-{seed}-{}",
        workload.name(),
        std::process::id()
    )))
    .map_err(io_err)?;
    let map = cfg.map();
    let probe: Vec<u32> = (0..RANGES).map(|k| map.sources_of(k)[0]).collect();

    // Set-up, several times: launch, wait until the router answers a read
    // on every range, and (except the last time) tear down again.
    let mut setup_s = Vec::new();
    let mut dep = None;
    for rep in 0..SETUP_REPS {
        let dir = run_dir.0.join(format!("deploy-{rep}"));
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        cfg.write(&dir).map_err(io_err)?;
        let (d, secs) = Deployment::launch(&dir, &probe).map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(secs);
        if rep + 1 < SETUP_REPS {
            drop(d);
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            dep = Some(d);
        }
    }
    eprintln!("set-ups (s): {setup_s:.3?}");
    let mut dep: Deployment = dep.expect("at least one set-up");
    let (router_pid, shard_pids) = dep.pids();
    // (router, shards) CPU seconds and peak RSS so far.
    let system_usage = || -> ((f64, f64), (f64, f64)) {
        let shards = shard_pids
            .iter()
            .map(|&p| proc_usage(p))
            .fold((0.0, 0.0), |a, u| (a.0 + u.0, a.1 + u.1));
        (proc_usage(router_pid), shards)
    };

    // The traced run sends its reads through an in-process router over the
    // same shards, whose stats count barrier retries (`RouterFront`
    // answers `GetStats` with an error); writes always go through the
    // router process.
    let mut traced_router = if trace {
        let endpoints = dep
            .shard_addrs
            .iter()
            .map(ShardEndpoint::leader_only)
            .collect();
        Some(Router::connect(map.clone(), endpoints, deploy::router_cfg()).map_err(io_err)?)
    } else {
        None
    };
    let reader: Box<dyn load::ReadPath> = match &traced_router {
        Some(router) => Box::new(router.read_session()),
        None => Box::new(load::connect(&dep.router_addr).map_err(io_err)?),
    };
    let mut writer = load::connect(&dep.router_addr).map_err(io_err)?;
    let (router0, shards0) = system_usage();
    let gen0 = deploy::own_cpu_s();
    let steal0 = deploy::steal_ticks();
    let (mut load, _read_conn) =
        load::run(&mut writer, reader, &inputs).map_err(|e| format!("load: {e}"))?;
    let (router1, shards1) = system_usage();
    // CPU over the open-loop traffic mix only: set-up (graph load, static
    // Tree-SVD) and the capacity phase are not part of it.
    let router_cpu = router1.0 - router0.0;
    let shards_cpu = shards1.0 - shards0.0;
    let gen_cpu = deploy::own_cpu_s() - gen0;
    load::capacity(&mut writer, &inputs, &mut load);
    let (router2, shards2) = system_usage();
    let rss_peak_mb = router2.1 + shards2.1;
    let steal1 = deploy::steal_ticks();
    eprintln!(
        "steal: {:.1}% of machine CPU during the load",
        100.0 * (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64
    );

    let mut failures: Vec<String> = Vec::new();
    let t_checks = Instant::now();
    let (windows, served, err_ratio) = check_outputs(&cfg, &inputs, &dep, &load, &mut failures)?;
    eprintln!(
        "phase: output checks {:.2}s",
        t_checks.elapsed().as_secs_f64()
    );

    let spans_path = cwd
        .join(".bench_out")
        .join(format!("spans-{}-{seed}.jsonl", workload.name()));
    let layer_metrics = if let Some(router) = traced_router.as_mut() {
        trace::write_spans(&spans_path, &load.ops).map_err(io_err)?;
        let stats = router.stats();
        let flush_ms: Vec<f64> = load
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::Flush && o.error.is_none())
            .map(|o| (o.end - o.start) * 1e3)
            .collect();
        let ctx = trace::TraceCtx {
            cfg: &cfg,
            inputs: &inputs,
            windows: &windows,
            served: &served,
            shard_addrs: &dep.shard_addrs,
            scratch: &run_dir.0,
            procs: [
                (router_cpu, router2.1),
                (shards_cpu, shards2.1),
                (gen_cpu, 0.0),
            ],
            flush_ms: &flush_ms,
            barrier_retries_per_read: stats.barrier_retries as f64 / stats.reads.max(1) as f64,
        };
        Some(trace::run(&ctx, router).map_err(|e| format!("trace: {e}"))?)
    } else {
        None
    };
    dep.stop();

    // Accounting: attempted and failed per call kind and per error kind.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut invalid = 0u64;
    println!(
        "workload {} seed {seed} seconds {seconds} trace {}",
        workload.name(),
        trace as u8
    );
    for kind in OpKind::ALL {
        let ops: Vec<_> = load.ops.iter().filter(|o| o.kind == kind).collect();
        let mut by_err: BTreeMap<&str, u64> = BTreeMap::new();
        for o in &ops {
            if let Some(e) = &o.error {
                *by_err.entry(e.as_str()).or_default() += 1;
            }
        }
        let f: u64 = by_err.values().sum();
        invalid += ops.iter().filter(|o| o.invalid).count() as u64;
        attempted += ops.len() as u64;
        failed += f;
        println!(
            "  ops {:<9} attempted {:>6} failed {:>4} {:?}",
            kind.name(),
            ops.len(),
            f,
            by_err
        );
    }
    if invalid > 0 {
        failures.push(format!("{invalid} replies failed validation"));
    }
    let lateness: Vec<f64> = load
        .ops
        .iter()
        .filter(|o| o.open_loop && o.kind != OpKind::Flush)
        .map(|o| (o.start - o.due) * 1e3)
        .collect();
    println!(
        "  generator lateness ms: p50 {:.3} p99 {:.3} max {:.3}",
        percentile(&lateness, 50.0).unwrap_or(0.0),
        percentile(&lateness, 99.0).unwrap_or(0.0),
        lateness.iter().cloned().fold(0.0, f64::max)
    );

    let lat = |kind: OpKind| -> Vec<f64> {
        load.ops
            .iter()
            .filter(|o| o.kind == kind && o.error.is_none())
            .map(|o| (o.end - o.due) * 1e3)
            .collect()
    };
    let rows_ms = lat(OpKind::GetRows);
    let top_ms = lat(OpKind::TopK);
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(f64::NAN);
    // (name, value, unit, samples, samples beyond p99 when a tail)
    let e2e: Vec<(&str, f64, &str, usize, Option<usize>)> = vec![
        ("setup_s", median(&setup_s), "s", setup_s.len(), None),
        (
            "ingest_eps",
            load.capacity_events as f64 / load.capacity_wall_s,
            "events/s",
            load.capacity_events as usize,
            None,
        ),
        (
            "visible_ms_p50",
            p(&load.visible_ms, 50.0),
            "ms",
            load.visible_ms.len(),
            None,
        ),
        (
            "visible_ms_p99",
            p(&load.visible_ms, 99.0),
            "ms",
            load.visible_ms.len(),
            Some(beyond(&load.visible_ms, 99.0)),
        ),
        (
            "get_rows_ms_p50",
            p(&rows_ms, 50.0),
            "ms",
            rows_ms.len(),
            None,
        ),
        (
            "get_rows_ms_p99",
            p(&rows_ms, 99.0),
            "ms",
            rows_ms.len(),
            Some(beyond(&rows_ms, 99.0)),
        ),
        ("top_k_ms_p50", p(&top_ms, 50.0), "ms", top_ms.len(), None),
        (
            "top_k_ms_p99",
            p(&top_ms, 99.0),
            "ms",
            top_ms.len(),
            Some(beyond(&top_ms, 99.0)),
        ),
        (
            "system_cpu_s",
            router_cpu + shards_cpu,
            "s",
            1 + RANGES,
            None,
        ),
        ("rss_peak_mb", rss_peak_mb, "MB", 1 + RANGES, None),
        ("err_ratio", err_ratio, "ratio", RANGES, None),
    ];
    for (name, v, unit, n, tail) in &e2e {
        let tail = tail.map_or(String::new(), |b| format!(" ({b} beyond p99)"));
        let gated = if GATED.contains(name) {
            "gated"
        } else {
            "printed"
        };
        println!("  {name:<16} {v:>14.4} {unit:<9} {gated:<7} n={n}{tail}");
    }
    println!(
        "  windows {} ({} open loop, {} capacity), final epoch {}",
        load.windows_flushed,
        inputs.windows.len(),
        inputs.capacity.len(),
        load.last_epoch
    );
    let metrics = match &layer_metrics {
        Some(layers) => {
            for (name, v, unit) in layers {
                println!("  {name:<26} {v:>12.4} {unit}");
            }
            println!("  spans written to {}", spans_path.display());
            layers
                .iter()
                .map(|(n, v, u)| (n.clone(), *v, u.to_string()))
                .collect()
        }
        None => e2e
            .iter()
            .filter(|m| GATED.contains(&m.0))
            .map(|m| (m.0.to_string(), m.1, m.2.to_string()))
            .collect(),
    };
    for f in &failures {
        println!("  CHECK FAILED: {f}");
    }
    if failures.is_empty() {
        println!("  output checks passed");
    }
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// The output checks. Failures are collected in `failures`; the return
/// value carries the journal, the merged final rows and `err_ratio`.
#[allow(clippy::type_complexity)]
fn check_outputs(
    cfg: &DeployCfg,
    inputs: &Inputs,
    dep: &Deployment,
    load: &LoadResult,
    failures: &mut Vec<String>,
) -> Result<(Vec<Vec<tsvd_graph::EdgeEvent>>, Vec<Vec<f64>>, f64), String> {
    let epoch = load.last_epoch;
    let all_windows = (inputs.windows.len() + inputs.capacity.len()) as u64;
    if load.windows_flushed != all_windows || epoch != load.windows_flushed {
        failures.push(format!(
            "{} of {all_windows} windows flushed, final epoch {epoch}",
            load.windows_flushed
        ));
    }
    // Lockstep: both shards journaled byte-identical windows.
    let mut journals = Vec::new();
    for addr in &dep.shard_addrs {
        let mut c = load::connect(addr).map_err(io_err)?;
        journals.push(checks::pull_journal(&mut c, epoch).map_err(|e| format!("journal: {e}"))?);
    }
    if checks::journal_bytes(&journals[0]) != checks::journal_bytes(&journals[1]) {
        failures.push("shard journals differ".into());
    }
    let windows = journals.swap_remove(0);
    let t = Instant::now();
    let rp = checks::replay(cfg, &windows);
    eprintln!("phase: offline replay {:.2}s", t.elapsed().as_secs_f64());
    let map = cfg.map();

    let mut router = load::connect(&dep.router_addr).map_err(io_err)?;
    let reply = router
        .get_rows(&inputs.subset)
        .map_err(|e| format!("final read: {e}"))?;
    if reply.epoch != epoch {
        failures.push(format!("final read at epoch {} not {epoch}", reply.epoch));
    }
    if let Err(e) = checks::check_rows(&reply, &inputs.subset, &map, &rp) {
        failures.push(e);
    }
    let served: Vec<Vec<f64>> = reply
        .rows
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect();

    for &(node, k, metric) in &inputs.check_top_k {
        let got = router
            .top_k(node, k, metric)
            .map_err(|e| format!("check top-k: {e}"))?
            .unwrap_or_default();
        let anchor = map.global_row(node).expect("check anchor in the subset");
        let want = checks::naive_top_k(&served, &inputs.subset, anchor, k as usize, metric);
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if !same {
            failures.push(format!(
                "top-k of {node} ({metric:?}) differs from naive scoring"
            ));
        }
    }
    let t = Instant::now();
    for &s in &inputs.check_ppr_sources {
        if let Err(e) = checks::check_ppr(&rp, &map, s) {
            failures.push(e);
        }
    }
    eprintln!("phase: exact PPR {:.2}s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let parts: Vec<(f64, f64)> = (0..RANGES)
        .map(|k| {
            let m = rp.pipelines[k].proximity_csr();
            let (start, end) = map.range(k);
            let x = DenseMatrix::from_fn(end - start, cfg.dim, |i, j| {
                served[start + i].get(j).copied().unwrap_or(0.0)
            });
            checks::residuals_sq(&m, &x)
        })
        .collect();
    eprintln!("phase: exact SVD {:.2}s", t.elapsed().as_secs_f64());
    let err_ratio = checks::err_ratio(&parts);
    if !(err_ratio >= 1.0 - 1e-9) {
        failures.push(format!("err_ratio {err_ratio} below 1"));
    }
    Ok((windows, served, err_ratio))
}

#[cfg(test)]
mod tests {
    use tsvd_rt::json::Json;

    /// `BENCHMARK.json` (one directory up) names exactly the metrics the
    /// result line carries, in both modes.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let j = Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            j.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), super::GATED);
        assert_eq!(names("per_layer"), super::trace::PER_LAYER);
    }
}
