//! The deployment under test: two shard processes and a router process
//! over real TCP, built the way README's scale-out example builds them.
//!
//! The generator writes the generated inputs to `deploy.json` and
//! `edges.bin` in the run directory; the system processes read only
//! those. Addresses are handed back through files published by rename, so
//! a poller never sees half an address.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use tsvd_core::TreeSvdConfig;
use tsvd_graph::DynGraph;
use tsvd_ppr::PprConfig;
use tsvd_rt::json::{FromJson, Json, ToJson};
use tsvd_serve::{
    EmbeddingServer, NetFront, Router, RouterConfig, RouterFront, ServeConfig, ShardEndpoint,
    ShardMap, ShardedEngine, TenantHost,
};

use crate::inputs::{Inputs, NODES};

/// Shard ranges in the deployment.
pub const RANGES: usize = 2;
/// Worker-pool size of each system process: the two shards flush one at
/// a time and the router does no pool work, so three pools of one thread
/// never oversubscribe two CPUs.
pub const SYSTEM_THREADS: &str = "1";

/// Tree-SVD shape of every range: leaf blocks and merge fan-in.
pub const NUM_BLOCKS: usize = 32;
pub const BRANCHING: usize = 2;

/// What the system processes are told: the embedding shape and the
/// subset (`deploy.json`), and the base graph (`edges.bin`, little-endian
/// `u32` pairs — parsed as a JSON tree, 120 000 edges would dominate
/// every system process's peak RSS).
#[derive(Debug, Clone)]
pub struct DeployCfg {
    pub dim: usize,
    pub wal: bool,
    pub subset: Vec<u32>,
    pub edges: Vec<(u32, u32)>,
}

/// The part of [`DeployCfg`] written as JSON.
struct Shape {
    dim: usize,
    wal: bool,
    subset: Vec<u32>,
}

tsvd_rt::impl_json_struct!(Shape { dim, wal, subset });

impl DeployCfg {
    pub fn from_inputs(inputs: &Inputs) -> DeployCfg {
        DeployCfg {
            dim: inputs.spec.dim,
            wal: inputs.spec.wal,
            subset: inputs.subset.clone(),
            edges: inputs.base_edges.clone(),
        }
    }

    /// Write `deploy.json` and `edges.bin` into `dir`.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        let shape = Shape {
            dim: self.dim,
            wal: self.wal,
            subset: self.subset.clone(),
        };
        fs::write(dir.join("deploy.json"), shape.to_json().to_string())?;
        let raw: Vec<u8> = self
            .edges
            .iter()
            .flat_map(|&(u, v)| [u.to_le_bytes(), v.to_le_bytes()])
            .flatten()
            .collect();
        fs::write(dir.join("edges.bin"), raw)
    }

    pub fn read(dir: &Path) -> io::Result<DeployCfg> {
        let bad = |e: tsvd_rt::json::JsonError| io::Error::new(io::ErrorKind::InvalidData, e.0);
        let text = fs::read_to_string(dir.join("deploy.json"))?;
        let shape = Shape::from_json(&Json::parse(&text).map_err(bad)?).map_err(bad)?;
        let raw = fs::read(dir.join("edges.bin"))?;
        let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes"));
        Ok(DeployCfg {
            dim: shape.dim,
            wal: shape.wal,
            subset: shape.subset,
            edges: raw
                .chunks_exact(8)
                .map(|c| (word(&c[..4]), word(&c[4..])))
                .collect(),
        })
    }

    pub fn graph(&self) -> DynGraph {
        DynGraph::from_edges(NODES, &self.edges)
    }

    pub fn map(&self) -> ShardMap {
        ShardMap::even_split(&self.subset, RANGES)
    }

    pub fn tree_cfg(&self) -> TreeSvdConfig {
        TreeSvdConfig {
            dim: self.dim,
            branching: BRANCHING,
            num_blocks: NUM_BLOCKS,
            ..Default::default()
        }
    }

    pub fn ppr_cfg(&self) -> PprConfig {
        PprConfig {
            alpha: 0.2,
            r_max: 1e-3,
        }
    }

    /// Range `k`'s engine host, exactly as README's scale-out example
    /// builds it (and as the offline replay rebuilds it).
    pub fn range_host(&self, g: &DynGraph, k: usize) -> TenantHost {
        let map = self.map();
        let engine = ShardedEngine::new(g, map.sources_of(k), 1, self.ppr_cfg(), self.tree_cfg());
        TenantHost::from_engine(engine, 0)
    }

    /// Flushes are driven only by the router's `Flush` broadcast, as
    /// `tests/router_soak.rs` configures shards: a shard-local deadline
    /// flush would fire at a different time on each shard.
    pub fn serve_cfg(&self) -> ServeConfig {
        ServeConfig {
            flush_max_events: 1 << 20,
            flush_interval_ms: 60_000,
            wal: self.wal,
            svd_update: false,
            pipeline_depth: 0,
            ..Default::default()
        }
    }
}

/// Publish `value` at `dir/name` atomically.
pub fn publish(dir: &Path, name: &str, value: &str) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    fs::write(&tmp, value)?;
    fs::rename(&tmp, dir.join(name))
}

/// Poll for a published file; `None` on timeout.
pub fn wait_for(dir: &Path, name: &str, timeout: Duration) -> Option<String> {
    let deadline = Instant::now() + timeout;
    let path = dir.join(name);
    loop {
        if let Ok(s) = fs::read_to_string(&path) {
            if !s.is_empty() {
                return Some(s);
            }
        }
        if Instant::now() >= deadline {
            return None;
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// Shard process body: build range `k`'s engine, serve it, publish the
/// address, and serve until killed.
pub fn shard_main(dir: &Path, k: usize) -> io::Result<()> {
    let cfg = DeployCfg::read(dir)?;
    let g = cfg.graph();
    let host = cfg.range_host(&g, k);
    let serve = cfg.serve_cfg();
    let handle = if cfg.wal {
        let store = tsvd_store::WalStore::create(
            tsvd_store::StoreConfig::new(dir.join(format!("wal-shard{k}"))),
            &host,
        )
        .map_err(|e| io::Error::other(format!("create WAL: {e}")))?;
        EmbeddingServer::start_host_with_store(host, serve, Box::new(store))
    } else {
        EmbeddingServer::start_host(host, serve)
    };
    let front = NetFront::start(handle);
    let addr = front.listen("127.0.0.1:0")?;
    publish(dir, &format!("shard{k}.addr"), &addr.to_string())?;
    front.wait_stopped(Duration::from_secs(3600));
    Ok(())
}

/// The router's configuration: the default, but with an epoch-barrier
/// budget (32 re-probes, linear 2 ms backoff: about 1 s) that outlasts a
/// range's flush. With the default budget (8 re-probes, about 72 ms) a
/// read that lands in the gap of the sequential flush broadcast fails now
/// and then — when a flush outlasts the budget under CPU steal — and a
/// failure count that varies from run to run cannot be compared between
/// runs. The gap still shows, as read latency and barrier retries.
pub fn router_cfg() -> RouterConfig {
    RouterConfig {
        barrier_retries: 32,
        ..RouterConfig::default()
    }
}

/// Router process body: connect to both shards with [`router_cfg`] and
/// serve the merged API until killed.
pub fn router_main(dir: &Path) -> io::Result<()> {
    let cfg = DeployCfg::read(dir)?;
    let wait = Duration::from_secs(120);
    let addrs: Vec<String> = (0..RANGES)
        .map(|k| {
            wait_for(dir, &format!("shard{k}.addr"), wait)
                .ok_or_else(|| io::Error::other(format!("shard {k} never published")))
        })
        .collect::<io::Result<_>>()?;
    let router = Router::connect(
        cfg.map(),
        addrs.iter().map(ShardEndpoint::leader_only).collect(),
        router_cfg(),
    )?;
    let front = RouterFront::start(router);
    let addr = front.listen("127.0.0.1:0")?;
    publish(dir, "router.addr", &addr.to_string())?;
    front.wait_stopped(Duration::from_secs(3600));
    Ok(())
}

/// Environment variables that would change a system process's behaviour
/// behind the benchmark's back.
pub const SCRUBBED_ENV: [&str; 4] = [
    "TSVD_SVD_UPDATE",
    "TSVD_WAL",
    "TSVD_PIPELINE_DEPTH",
    "TSVD_TENANTS",
];

/// The running system processes. Dropping it kills and reaps them all,
/// so every exit path — a pass, a failed check, a panic — stops them.
pub struct Deployment {
    pub dir: PathBuf,
    pub shards: Vec<Child>,
    pub router: Option<Child>,
    pub shard_addrs: Vec<String>,
    pub router_addr: String,
}

fn spawn(dir: &Path, args: &[&str]) -> io::Result<Child> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .arg("--dir")
        .arg(dir)
        .env("TSVD_THREADS", SYSTEM_THREADS)
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    for v in SCRUBBED_ENV {
        cmd.env_remove(v);
    }
    cmd.spawn()
}

impl Deployment {
    /// Launch the shards and the router in `dir` (which must hold
    /// `deploy.json` and `edges.bin`) and wait until the router answers a read that
    /// touches every range. Returns the deployment and its set-up time.
    pub fn launch(dir: &Path, probe: &[u32]) -> io::Result<(Deployment, f64)> {
        let t0 = Instant::now();
        let mut dep = Deployment {
            dir: dir.to_path_buf(),
            shards: Vec::new(),
            router: None,
            shard_addrs: Vec::new(),
            router_addr: String::new(),
        };
        for k in 0..RANGES {
            dep.shards
                .push(spawn(dir, &["shard", "--range", &k.to_string()])?);
        }
        dep.router = Some(spawn(dir, &["router"])?);
        let wait = Duration::from_secs(120);
        dep.router_addr = dep.await_file("router.addr", wait)?;
        for k in 0..RANGES {
            let a = dep.await_file(&format!("shard{k}.addr"), wait)?;
            dep.shard_addrs.push(a);
        }
        let mut client = crate::load::connect(&dep.router_addr)?;
        let deadline = Instant::now() + wait;
        loop {
            match client.get_rows(probe) {
                Ok(r) if r.rows.iter().all(Option::is_some) => break,
                _ if Instant::now() >= deadline => {
                    return Err(io::Error::other("router never answered every range"))
                }
                _ => thread::sleep(Duration::from_millis(1)),
            }
        }
        Ok((dep, t0.elapsed().as_secs_f64()))
    }

    /// Wait for a published file, failing early if a process died.
    fn await_file(&mut self, name: &str, timeout: Duration) -> io::Result<String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(s) = wait_for(&self.dir, name, Duration::ZERO) {
                return Ok(s);
            }
            for c in self.shards.iter_mut().chain(self.router.as_mut()) {
                if let Some(status) = c.try_wait()? {
                    return Err(io::Error::other(format!(
                        "system process exited during set-up: {status}"
                    )));
                }
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other(format!("timed out waiting for {name}")));
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Process ids: the router first, then the shards in range order.
    pub fn pids(&self) -> (u32, Vec<u32>) {
        (
            self.router.as_ref().map_or(0, Child::id),
            self.shards.iter().map(Child::id).collect(),
        )
    }

    /// Kill and reap every process.
    pub fn stop(&mut self) {
        for c in self.shards.iter_mut().chain(self.router.as_mut()) {
            let _ = c.kill();
            let _ = c.wait();
        }
        self.shards.clear();
        self.router = None;
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A run's scratch directory; removed on drop, whatever the exit path.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn create(path: PathBuf) -> io::Result<RunDir> {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(RunDir(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent); // only if empty
        }
    }
}

/// CPU seconds and peak RSS in MB of a system process. CPU is the on-CPU
/// time of its live threads in nanoseconds (`/proc/<pid>/task/*/schedstat`)
/// rather than the 10 ms ticks of `/proc/<pid>/stat`, so a small figure
/// such as the router's does not repeat to the digit from run to run. A
/// thread that exits drops out of the sum, so every connection stays open
/// while the load is measured. Peak RSS is `VmHWM` from `/proc/<pid>/status`.
pub fn proc_usage(pid: u32) -> (f64, f64) {
    let mut ns = 0u64;
    if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
        for t in tasks.flatten() {
            let stat = fs::read_to_string(t.path().join("schedstat")).unwrap_or_default();
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    let status = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    let hwm_kb = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    (ns as f64 * 1e-9, hwm_kb / 1024.0)
}

/// CPU seconds (user + system) of this process, threads that have exited
/// included, from `/proc/self/stat`.
pub fn own_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3, so
    // utime/stime (fields 14/15) sit at offsets 11/12.
    let after = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|t| t.parse::<f64>().ok()).unwrap_or(0.0);
    // The kernel reports these in USER_HZ, which Linux fixes at 100.
    (ticks(11) + ticks(12)) / 100.0
}

/// Machine-wide (steal, total) CPU ticks from `/proc/stat`: how much CPU
/// the hypervisor took from this machine, for reading noisy runs.
pub fn steal_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}
