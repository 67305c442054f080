//! The traced run's per-layer measurements.
//!
//! After the load phase and its checks, the run's journal is replayed in
//! this process through each layer's public functions, one timed call at
//! a time, per range — the same sequence a shard runs for a window. The
//! read-side layers (wire, net, router) are then timed against the live
//! shards. The traced load sends its writes through the router process,
//! as the untraced one does, and its reads through an in-process
//! `Router`'s read session, whose `Router::stats()` counts barrier retries
//! (`RouterFront` answers `GetStats` with an error). So `proc.cpu_s.router`
//! is the router process's write-side work, and the read side's router
//! work is part of `proc.cpu_s.generator`.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tsvd_core::{BlockedProximityMatrix, DynamicTreeSvd, PipelineTimings, TaggedEmbedding};
use tsvd_graph::EdgeEvent;
use tsvd_ppr::{RecordedBatch, SubsetPpr};
use tsvd_rt::json::Json;
use tsvd_serve::net::wire::{decode_frame, encode_frame, TopKReply};
use tsvd_serve::net::{Message, Reply, Request, RowsReply};
use tsvd_serve::{DurabilitySink, EpochSnapshot, Metric, Router};

use crate::deploy::{DeployCfg, RANGES};
use crate::inputs::{Inputs, ReadOp};
use crate::load::{self, Op};
use crate::stats::median;

/// One per-layer metric: name, value, unit.
pub type Metric3 = (String, f64, &'static str);

/// Every per-layer metric a traced run reports, in order: `BENCHMARK.json`'s
/// `per_layer` set.
pub const PER_LAYER: [&str; 38] = [
    "graph.record_ms",
    "ppr.replay_ms",
    "ppr.dirty_rows",
    "ppr.rows_ms",
    "core.set_row_ms",
    "core.tree_update_ms",
    "core.blocks_fired",
    "core.blocks_patched",
    "core.blocks_incremental",
    "core.merges",
    "core.fire_ratio",
    "snapshot.build_ms",
    "store.wal_append_ms",
    "flush.critical_path_ms",
    "snapshot.get_rows_us",
    "query.top_k_us",
    "query.top_k_scan_us",
    "wire.encode_us.submit",
    "wire.decode_us.submit",
    "wire.encode_us.rows",
    "wire.decode_us.rows",
    "wire.encode_us.top_k",
    "wire.decode_us.top_k",
    "wire.bytes.rows",
    "net.get_rows_rtt_us",
    "net.top_k_rtt_us",
    "router.get_rows_us",
    "router.top_k_us",
    "router.read_overhead_us",
    "router.merge_us",
    "router.barrier_retries",
    "router.flush_ms",
    "flush.unaccounted_ms",
    "proc.cpu_s.router",
    "proc.cpu_s.shards",
    "proc.cpu_s.generator",
    "proc.rss_mb.router",
    "proc.rss_mb.shards",
];

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Per-(window, range) layer times of the replay, ms.
#[derive(Default)]
struct LayerTimes {
    record: Vec<f64>,
    replay: Vec<f64>,
    rows: Vec<f64>,
    set_row: Vec<f64>,
    tree: Vec<f64>,
    snapshot: Vec<f64>,
    wal: Vec<f64>,
}

/// Replay the journal through the layers of every range, timing each
/// call. Returns the layer times, the per-window critical path (slowest
/// range's layer sum), count metrics, and each range's final snapshot.
fn replay_layers(
    cfg: &DeployCfg,
    windows: &[Vec<EdgeEvent>],
    served: &[Vec<f64>],
    scratch: &Path,
    out: &mut Vec<Metric3>,
) -> io::Result<Vec<EpochSnapshot>> {
    let map = cfg.map();
    let base = cfg.graph();
    let tree_cfg = cfg.tree_cfg();
    let mut lt = LayerTimes::default();
    let mut per_range_sum = vec![vec![0.0f64; windows.len()]; RANGES];
    let (mut dirty, mut fired, mut patched, mut incr, mut merges, mut total) =
        (0usize, 0usize, 0usize, 0usize, 0usize, 0usize);
    let mut finals = Vec::new();
    for k in 0..RANGES {
        let sources = map.sources_of(k);
        let mut g = base.clone();
        let mut ppr = SubsetPpr::build(&g, sources, cfg.ppr_cfg());
        let rows0 = ppr.proximity_rows();
        let mut matrix =
            BlockedProximityMatrix::from_proximity_rows(g.num_nodes(), &tree_cfg, &rows0);
        ppr.take_dirty_rows();
        let mut tree = DynamicTreeSvd::new(tree_cfg);
        let mut emb = tree.build(&matrix);
        let src = Arc::new(sources.to_vec());
        let index: Arc<HashMap<u32, usize>> =
            Arc::new(sources.iter().enumerate().map(|(i, &s)| (s, i)).collect());
        let mut wal = tsvd_store::WalStore::create_at(
            tsvd_store::StoreConfig::new(scratch.join(format!("trace-wal-{k}"))),
            0,
            &Json::Null,
        )
        .map_err(|e| io::Error::other(format!("trace WAL: {e}")))?;
        let mut events = 0u64;
        let mut snap = None;
        for (i, w) in windows.iter().enumerate() {
            let epoch = i as u64 + 1;
            let t = Instant::now();
            let rec = RecordedBatch::record(&mut g, w);
            let record = ms(t);
            let t = Instant::now();
            ppr.apply_recorded(&g, &rec);
            let replay = ms(t);
            let t = Instant::now();
            let d = ppr.take_dirty_rows();
            let fresh: Vec<(usize, Vec<(u32, f64)>)> =
                d.iter().map(|&r| (r, ppr.proximity_row(r))).collect();
            let rows = ms(t);
            let t = Instant::now();
            for (r, entries) in &fresh {
                matrix.set_row(*r, entries);
            }
            let set_row = ms(t);
            let t = Instant::now();
            let (e, stats) = tree.update(&matrix);
            let tree_ms = ms(t);
            emb = e;
            events += w.len() as u64;
            let t = Instant::now();
            let s = EpochSnapshot::new(
                TaggedEmbedding::new(epoch, emb.clone()),
                src.clone(),
                index.clone(),
                events,
                PipelineTimings::default(),
            );
            let snapshot = ms(t);
            let t = Instant::now();
            wal.append_window(epoch, w)?;
            let wal_ms = ms(t);
            per_range_sum[k][i] = record
                + replay
                + rows
                + set_row
                + tree_ms
                + snapshot
                + if cfg.wal { wal_ms } else { 0.0 };
            lt.record.push(record);
            lt.replay.push(replay);
            lt.rows.push(rows);
            lt.set_row.push(set_row);
            lt.tree.push(tree_ms);
            lt.snapshot.push(snapshot);
            lt.wal.push(wal_ms);
            dirty += d.len();
            fired += stats.blocks_recomputed;
            patched += stats.blocks_patched;
            incr += stats.blocks_incremental;
            merges += stats.merges_recomputed;
            total += stats.blocks_total;
            snap = Some(s);
        }
        finals.push(snap.unwrap_or_else(|| {
            EpochSnapshot::new(
                TaggedEmbedding::new(0, emb.clone()),
                src.clone(),
                index.clone(),
                0,
                PipelineTimings::default(),
            )
        }));
    }
    // The decomposed replay must be the computation the shards ran.
    for (k, snap) in finals.iter().enumerate() {
        let start = map.range(k).0;
        for (i, &node) in map.sources_of(k).iter().enumerate() {
            let same = snap.get(node).is_some_and(|r| {
                r.iter()
                    .zip(&served[start + i])
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            if !same {
                return Err(io::Error::other(format!(
                    "layer replay of node {node} differs from the served row"
                )));
            }
        }
    }
    let nw = windows.len().max(1) as f64;
    let critical: Vec<f64> = (0..windows.len())
        .map(|i| (0..RANGES).map(|k| per_range_sum[k][i]).fold(0.0, f64::max))
        .collect();
    let m = |name: &str, v: f64, unit: &'static str| (name.to_string(), v, unit);
    out.extend([
        m("graph.record_ms", median(&lt.record), "ms/window"),
        m("ppr.replay_ms", median(&lt.replay), "ms/window"),
        m("ppr.dirty_rows", dirty as f64 / nw, "rows/window"),
        m("ppr.rows_ms", median(&lt.rows), "ms/window"),
        m("core.set_row_ms", median(&lt.set_row), "ms/window"),
        m("core.tree_update_ms", median(&lt.tree), "ms/window"),
        m("core.blocks_fired", fired as f64 / nw, "count/window"),
        m("core.blocks_patched", patched as f64 / nw, "count/window"),
        m("core.blocks_incremental", incr as f64 / nw, "count/window"),
        m("core.merges", merges as f64 / nw, "count/window"),
        m(
            "core.fire_ratio",
            fired as f64 / total.max(1) as f64,
            "ratio",
        ),
        m("snapshot.build_ms", median(&lt.snapshot), "ms/window"),
        m("store.wal_append_ms", median(&lt.wal), "ms/window"),
        m("flush.critical_path_ms", median(&critical), "ms/window"),
    ]);
    Ok(finals)
}

fn rows_reply(snap: &EpochSnapshot, nodes: &[u32]) -> RowsReply {
    RowsReply {
        epoch: snap.epoch(),
        checksum_bits: snap.checksum().to_bits(),
        dim: snap.dim() as u32,
        rows: snap
            .get_many(nodes)
            .into_iter()
            .map(|r| r.map(<[f64]>::to_vec))
            .collect(),
    }
}

/// Time `encode_frame` and `decode_frame` of one message: (encode µs,
/// decode µs, bytes).
fn time_wire(msg: &Message) -> (f64, f64, f64) {
    let mut buf = Vec::with_capacity(256);
    let t = Instant::now();
    encode_frame(7, 0, msg, &mut buf);
    let enc = us(t);
    let t = Instant::now();
    let decoded = decode_frame(&buf);
    let dec = us(t);
    assert!(decoded.is_ok(), "wire round trip failed");
    (enc, dec, buf.len() as f64)
}

/// What the traced run needs from the main run.
pub struct TraceCtx<'a> {
    pub cfg: &'a DeployCfg,
    pub inputs: &'a Inputs,
    pub windows: &'a [Vec<EdgeEvent>],
    /// The merged rows served at the final epoch, in subset order.
    pub served: &'a [Vec<f64>],
    pub shard_addrs: &'a [String],
    pub scratch: &'a Path,
    /// (cpu s, peak rss MB) of the router, the shards and the generator.
    pub procs: [(f64, f64); 3],
    /// `Flush` calls through the router process (`Router::flush` behind
    /// `RouterFront`) of the traced load's windows, ms.
    pub flush_ms: &'a [f64],
    /// `Router::stats()` over the traced load: barrier retries per read.
    pub barrier_retries_per_read: f64,
}

pub fn run(ctx: &TraceCtx, router: &mut Router) -> io::Result<Vec<Metric3>> {
    let mut out: Vec<Metric3> = Vec::new();
    let finals = replay_layers(ctx.cfg, ctx.windows, ctx.served, ctx.scratch, &mut out)?;
    let map = ctx.cfg.map();
    let owner = |node: u32| -> usize {
        let row = map.global_row(node).expect("read node in the subset");
        (0..RANGES)
            .find(|&k| row < map.range(k).1)
            .expect("row has a range")
    };

    let rows_reads: Vec<&Vec<u32>> = ctx
        .inputs
        .reads
        .iter()
        .filter_map(|r| match &r.op {
            ReadOp::Rows(n) => Some(n),
            _ => None,
        })
        .take(300)
        .collect();
    let topk_reads: Vec<(u32, u32, Metric)> = ctx
        .inputs
        .reads
        .iter()
        .filter_map(|r| match r.op {
            ReadOp::TopK { node, k, metric } => Some((node, k, metric)),
            _ => None,
        })
        .take(300)
        .collect();

    // Snapshot and query layers, on the replay's final snapshots.
    let mut get_us = Vec::new();
    for nodes in &rows_reads {
        let plan = map.plan(nodes);
        let t = Instant::now();
        for (k, snap) in finals.iter().enumerate() {
            std::hint::black_box(snap.get_many(plan.shard_nodes(k)));
        }
        get_us.push(us(t));
    }
    let (mut tk_us, mut scan_us) = (Vec::new(), Vec::new());
    for &(node, k, metric) in &topk_reads {
        let snap = &finals[owner(node)];
        let t = Instant::now();
        std::hint::black_box(snap.top_k(node, k as usize, metric));
        tk_us.push(us(t));
        let t = Instant::now();
        std::hint::black_box(snap.top_k_scan(node, k as usize, metric));
        scan_us.push(us(t));
    }
    out.push(("snapshot.get_rows_us".into(), median(&get_us), "us/call"));
    out.push(("query.top_k_us".into(), median(&tk_us), "us/call"));
    out.push(("query.top_k_scan_us".into(), median(&scan_us), "us/call"));

    // Wire layer: real messages of this workload.
    let mut wire: HashMap<&str, (Vec<f64>, Vec<f64>, Vec<f64>)> = HashMap::new();
    for w in ctx.windows.iter().take(200) {
        let msg = Message::Request(Request::SubmitEvents(w.clone()));
        let e = wire.entry("submit").or_default();
        let (a, b, c) = time_wire(&msg);
        e.0.push(a);
        e.1.push(b);
        e.2.push(c);
    }
    for nodes in &rows_reads {
        let owner0 = owner(nodes[0]);
        let msg = Message::Reply(Reply::Rows(rows_reply(&finals[owner0], nodes)));
        let e = wire.entry("rows").or_default();
        let (a, b, c) = time_wire(&msg);
        e.0.push(a);
        e.1.push(b);
        e.2.push(c);
    }
    for &(node, k, metric) in &topk_reads {
        let snap = &finals[owner(node)];
        let msg = Message::Reply(Reply::TopKReply(TopKReply {
            epoch: snap.epoch(),
            checksum_bits: snap.checksum().to_bits(),
            found: true,
            neighbors: snap.top_k(node, k as usize, metric).unwrap_or_default(),
        }));
        let e = wire.entry("top_k").or_default();
        let (a, b, c) = time_wire(&msg);
        e.0.push(a);
        e.1.push(b);
        e.2.push(c);
    }
    for kind in ["submit", "rows", "top_k"] {
        let (enc, dec, _) = &wire[kind];
        out.push((format!("wire.encode_us.{kind}"), median(enc), "us"));
        out.push((format!("wire.decode_us.{kind}"), median(dec), "us"));
    }
    out.push(("wire.bytes.rows".into(), median(&wire["rows"].2), "B"));

    // Net layer: straight to each shard, quiet system.
    let mut shards: Vec<_> = ctx
        .shard_addrs
        .iter()
        .map(|a| load::connect(a))
        .collect::<io::Result<_>>()?;
    let mut net_rows = vec![Vec::new(); RANGES];
    let mut net_top = vec![Vec::new(); RANGES];
    let mut per_read_replies = Vec::new();
    for nodes in &rows_reads {
        let plan = map.plan(nodes);
        let mut replies = Vec::new();
        for (k, c) in shards.iter_mut().enumerate() {
            let t = Instant::now();
            let r = c.get_rows(plan.shard_nodes(k))?;
            net_rows[k].push(us(t));
            replies.push(r);
        }
        per_read_replies.push((plan, replies));
    }
    for &(node, k, metric) in &topk_reads {
        let q = finals[owner(node)].get(node).expect("anchor row").to_vec();
        for (r, c) in shards.iter_mut().enumerate() {
            let req = Request::TopK {
                node,
                k,
                metric,
                query: Some(q.clone()),
            };
            let t = Instant::now();
            let id = c.dispatch(&req)?;
            c.collect(id)?;
            net_top[r].push(us(t));
        }
    }
    let all = |v: &[Vec<f64>]| median(&v.concat());
    let slowest = |v: &[Vec<f64>]| v.iter().map(|x| median(x)).fold(0.0, f64::max);
    out.push(("net.get_rows_rtt_us".into(), all(&net_rows), "us"));
    out.push(("net.top_k_rtt_us".into(), all(&net_top), "us"));

    // Router layer, in process: quiet reads, then merges.
    let rerr = |e: tsvd_serve::RouterError| io::Error::other(e.to_string());
    let mut r_rows = Vec::new();
    for nodes in &rows_reads {
        let t = Instant::now();
        router.get_rows(nodes).map_err(rerr)?;
        r_rows.push(us(t));
    }
    let mut r_top = Vec::new();
    for &(node, k, metric) in &topk_reads {
        let t = Instant::now();
        router.top_k(node, k, metric).map_err(rerr)?;
        r_top.push(us(t));
    }
    let mut merge_us = Vec::new();
    for (plan, replies) in &per_read_replies {
        let t = Instant::now();
        std::hint::black_box(map.merge(plan, replies).map_err(rerr)?);
        merge_us.push(us(t));
    }
    let r_rows_med = median(&r_rows);
    out.push(("router.get_rows_us".into(), r_rows_med, "us"));
    out.push(("router.top_k_us".into(), median(&r_top), "us"));
    out.push((
        "router.read_overhead_us".into(),
        r_rows_med - slowest(&net_rows),
        "us",
    ));
    out.push(("router.merge_us".into(), median(&merge_us), "us"));

    // The traced load's reads ran through this router's read session.
    let flush_med = median(ctx.flush_ms);
    let critical = out
        .iter()
        .find(|m| m.0 == "flush.critical_path_ms")
        .map_or(0.0, |m| m.1);
    out.push((
        "router.barrier_retries".into(),
        ctx.barrier_retries_per_read,
        "retries/read",
    ));
    out.push(("router.flush_ms".into(), flush_med, "ms/window"));
    out.push((
        "flush.unaccounted_ms".into(),
        flush_med - critical,
        "ms/window",
    ));

    let [(rc, rr), (sc, sr), (gc, _)] = ctx.procs;
    out.push(("proc.cpu_s.router".into(), rc, "s"));
    out.push(("proc.cpu_s.shards".into(), sc, "s"));
    out.push(("proc.cpu_s.generator".into(), gc, "s"));
    out.push(("proc.rss_mb.router".into(), rr, "MB"));
    out.push(("proc.rss_mb.shards".into(), sr, "MB"));
    if !out.iter().map(|m| m.0.as_str()).eq(PER_LAYER) {
        return Err(io::Error::other(
            "per-layer metrics out of step with PER_LAYER",
        ));
    }
    Ok(out)
}

/// Write the run's spans (one JSON object per generator call) to `path`.
pub fn write_spans(path: &Path, ops: &[Op]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut f = io::BufWriter::new(fs::File::create(path)?);
    for op in ops {
        let j = Json::object([
            ("id", Json::Int(op.id as i64)),
            ("call", Json::Str(op.kind.name().into())),
            ("open_loop", Json::Bool(op.open_loop)),
            ("due_s", Json::Num(op.due)),
            ("start_s", Json::Num(op.start)),
            ("end_s", Json::Num(op.end)),
            ("error", op.error.clone().map_or(Json::Null, Json::Str)),
        ]);
        writeln!(f, "{}", j)?;
    }
    f.flush()
}
