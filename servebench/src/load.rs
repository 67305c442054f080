//! The load phase: one generator process with two threads, each on its
//! own connection to the router — a writer (main thread) and a reader.
//!
//! Open-loop operations are timed from their due time, so a generator
//! that falls behind shows up as latency (and as lateness, reported
//! apart). When the open-loop schedule is done, the writer submits the
//! capacity phase's windows back to back (closed loop) with no reads
//! beside them.

use std::io;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tsvd_graph::EdgeEvent;
use tsvd_serve::net::{ClientConfig, RowsReply, TcpTransport};
use tsvd_serve::{Metric, NetClient, ReadSession, RouterError};

use crate::inputs::{Inputs, ReadOp};

/// Generator connections never retry or reconnect: every failure counts.
pub fn connect(addr: &str) -> io::Result<NetClient> {
    NetClient::connect(
        TcpTransport::new(addr.to_string()),
        ClientConfig {
            reconnect: false,
            max_retries: 0,
            tenant: 0,
        },
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    Submit,
    Flush,
    GetRows,
    TopK,
}

impl OpKind {
    pub const ALL: [OpKind; 4] = [OpKind::Submit, OpKind::Flush, OpKind::GetRows, OpKind::TopK];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Submit => "submit",
            OpKind::Flush => "flush",
            OpKind::GetRows => "get_rows",
            OpKind::TopK => "top_k",
        }
    }
}

/// One generator call. Times are seconds since the load phase began;
/// calls of one request (a window's submit and flush) share `id`.
#[derive(Debug, Clone)]
pub struct Op {
    pub id: u64,
    pub kind: OpKind,
    /// Part of the open-loop schedule (else of the closed-loop capacity
    /// phase, where `due` is the send time).
    pub open_loop: bool,
    pub due: f64,
    pub start: f64,
    pub end: f64,
    /// `None` on success, else the error kind.
    pub error: Option<String>,
    /// Reply failed validation (wrong shape): a correctness failure.
    pub invalid: bool,
}

/// What the load phase measured.
pub struct LoadResult {
    /// The clock every `Op` time is measured from.
    pub t0: Instant,
    pub ops: Vec<Op>,
    /// Write-to-visible latency per acked open-loop event, ms.
    pub visible_ms: Vec<f64>,
    /// Events acked in the capacity phase.
    pub capacity_events: u64,
    /// The capacity phase's first submit to its last flush ack, s.
    pub capacity_wall_s: f64,
    /// Windows flushed, both phases.
    pub windows_flushed: u64,
    pub last_epoch: u64,
}

/// Classify a wire error by kind, not by message details. The router
/// front relays its typed errors as text; the barrier's is the one the
/// benchmark expects to meet.
fn error_kind(e: io::Error) -> String {
    let msg = e.to_string();
    if msg.contains("epoch barrier failed") {
        "epoch_barrier".into()
    } else if msg.contains("server error") {
        "server_error".into()
    } else {
        format!("io_{:?}", e.kind()).to_lowercase()
    }
}

fn router_error_kind(e: RouterError) -> String {
    match e {
        RouterError::EpochBarrier { .. } => "epoch_barrier",
        RouterError::ShardDown { .. } => "shard_down",
        RouterError::Io { .. } => "io",
        RouterError::Merge(_) => "merge",
        RouterError::NoWriters => "no_writers",
        RouterError::BadMap(_) => "bad_map",
    }
    .into()
}

/// The generator's read side: the router process over the wire, or (in
/// the traced run) an in-process `Router`'s read session. Errors are error
/// kinds.
pub trait ReadPath: Send {
    fn get_rows(&mut self, nodes: &[u32]) -> Result<RowsReply, String>;
    fn top_k(
        &mut self,
        node: u32,
        k: u32,
        metric: Metric,
    ) -> Result<Option<Vec<(u32, f64)>>, String>;
}

impl ReadPath for NetClient {
    fn get_rows(&mut self, nodes: &[u32]) -> Result<RowsReply, String> {
        NetClient::get_rows(self, nodes).map_err(error_kind)
    }
    fn top_k(
        &mut self,
        node: u32,
        k: u32,
        metric: Metric,
    ) -> Result<Option<Vec<(u32, f64)>>, String> {
        NetClient::top_k(self, node, k, metric).map_err(error_kind)
    }
}

impl ReadPath for ReadSession {
    fn get_rows(&mut self, nodes: &[u32]) -> Result<RowsReply, String> {
        ReadSession::get_rows(self, nodes).map_err(router_error_kind)
    }
    fn top_k(
        &mut self,
        node: u32,
        k: u32,
        metric: Metric,
    ) -> Result<Option<Vec<(u32, f64)>>, String> {
        ReadSession::top_k(self, node, k, metric, None)
            .map(|t| t.found.then_some(t.neighbors))
            .map_err(router_error_kind)
    }
}

/// Wait until `at` seconds after `t0`: sleep to just short of it, then
/// spin, so the generator's own wake-up delay stays out of latencies
/// timed from the due time.
fn sleep_until(t0: Instant, at: f64) {
    const SPIN: Duration = Duration::from_micros(150);
    let target = t0 + Duration::from_secs_f64(at.max(0.0));
    let now = Instant::now();
    if target > now + SPIN {
        thread::sleep(target - now - SPIN);
    }
    while Instant::now() < target {
        std::hint::spin_loop();
    }
}

const READ_ID_BASE: u64 = 1 << 32;

/// Run the reader schedule on its own connection; hand the connection
/// back with the calls made.
fn reader(
    mut client: Box<dyn ReadPath>,
    inputs: Arc<Inputs>,
    t0: Instant,
) -> (Vec<Op>, Box<dyn ReadPath>) {
    let dim = inputs.spec.dim;
    let want_k = (crate::inputs::TOP_K as usize).min(inputs.subset.len() - 1);
    let mut ops = Vec::with_capacity(inputs.reads.len());
    for (i, r) in inputs.reads.iter().enumerate() {
        sleep_until(t0, r.due_s);
        let start = t0.elapsed().as_secs_f64();
        let (kind, outcome) = match &r.op {
            ReadOp::Rows(nodes) => (
                OpKind::GetRows,
                client.get_rows(nodes).map(|rep| {
                    rep.rows.len() == nodes.len()
                        && rep
                            .rows
                            .iter()
                            .all(|x| x.as_ref().is_some_and(|v| v.len() == dim))
                }),
            ),
            ReadOp::TopK { node, k, metric } => (
                OpKind::TopK,
                client.top_k(*node, *k, *metric).map(|rep| {
                    rep.is_some_and(|n| {
                        n.len() == want_k
                            && n.windows(2).all(|w| w[0].1 >= w[1].1)
                            && n.iter().all(|h| h.0 != *node)
                    })
                }),
            ),
        };
        let end = t0.elapsed().as_secs_f64();
        ops.push(Op {
            id: READ_ID_BASE + i as u64,
            kind,
            open_loop: true,
            due: r.due_s,
            start,
            end,
            invalid: matches!(outcome, Ok(false)),
            error: outcome.err(),
        });
    }
    (ops, client)
}

impl LoadResult {
    /// Submit and flush one window, open loop when it has a due time
    /// (seconds after `t0`). Returns the flush ack's time when both calls
    /// succeeded.
    fn window(
        &mut self,
        writer: &mut NetClient,
        id: u64,
        due: Option<f64>,
        events: &[EdgeEvent],
    ) -> Option<f64> {
        let send = self.t0.elapsed().as_secs_f64();
        let open_loop = due.is_some();
        let due = due.unwrap_or(send);
        let sub = writer.submit_events(events.to_vec()).map_err(error_kind);
        let mid = self.t0.elapsed().as_secs_f64();
        let sub_ok = sub.is_ok();
        self.ops.push(Op {
            id,
            kind: OpKind::Submit,
            open_loop,
            due,
            start: send,
            end: mid,
            error: sub.err(),
            invalid: false,
        });
        if !sub_ok {
            return None;
        }
        let fl = writer.flush().map_err(error_kind);
        let ack = self.t0.elapsed().as_secs_f64();
        let acked = fl.as_ref().ok().map(|&epoch| {
            self.last_epoch = epoch;
            self.windows_flushed += 1;
            ack
        });
        self.ops.push(Op {
            id,
            kind: OpKind::Flush,
            open_loop,
            due,
            start: mid,
            end: ack,
            error: fl.err(),
            invalid: false,
        });
        acked
    }
}

/// The open-loop phase: the workload's windows on this thread, beside the
/// reads on a second one. The read connection is handed back, so the
/// caller can keep it open until it has read the system processes' CPU: a
/// connection's server threads exit when it closes, and their time leaves
/// the per-thread sums.
pub fn run(
    writer: &mut NetClient,
    reads: Box<dyn ReadPath>,
    inputs: &Arc<Inputs>,
) -> io::Result<(LoadResult, Box<dyn ReadPath>)> {
    // A short lead-in so the reader thread is parked on its first due
    // time before the clock starts mattering.
    let t0 = Instant::now() + Duration::from_millis(20);
    let rd = {
        let inputs = inputs.clone();
        thread::Builder::new()
            .name("gen-reader".into())
            .spawn(move || reader(reads, inputs, t0))?
    };

    let mut load = LoadResult {
        t0,
        ops: Vec::new(),
        visible_ms: Vec::new(),
        capacity_events: 0,
        capacity_wall_s: 0.0,
        windows_flushed: 0,
        last_epoch: 0,
    };
    sleep_until(t0, 0.0);
    for (i, win) in inputs.windows.iter().enumerate() {
        sleep_until(t0, win.due_s);
        if let Some(ack) = load.window(writer, i as u64, Some(win.due_s), &win.events) {
            load.visible_ms
                .extend(win.event_due_s.iter().map(|d| (ack - d) * 1e3));
        }
    }
    let (read_ops, reads) = rd
        .join()
        .map_err(|_| io::Error::other("reader thread panicked"))?;
    load.ops.extend(read_ops);
    Ok((load, reads))
}

/// The closed-loop capacity phase: `inputs.capacity` submitted and
/// flushed back to back, with no reads beside them.
pub fn capacity(writer: &mut NetClient, inputs: &Inputs, load: &mut LoadResult) {
    let first = inputs.windows.len() as u64;
    let start = load.t0.elapsed().as_secs_f64();
    let mut last_ack = start;
    for (i, events) in inputs.capacity.iter().enumerate() {
        if let Some(ack) = load.window(writer, first + i as u64, None, events) {
            load.capacity_events += events.len() as u64;
            last_ack = ack;
        }
    }
    load.capacity_wall_s = last_ack - start;
}
