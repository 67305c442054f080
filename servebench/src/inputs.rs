//! Seeded inputs: the base graph, the subset, the write windows and the
//! read schedule of one run, all drawn from `--seed` with `rt::rng`.
//!
//! Nothing here touches a clock: arrival schedules are offsets from the
//! start of the load phase, so one seed gives identical inputs (pinned by
//! the tests below).

use tsvd_graph::EdgeEvent;
use tsvd_rt::rng::{Rng, SeedableRng, SliceRandom, StdRng};
use tsvd_serve::Metric;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestLocal,
    QueryZipf,
    MixedUniform,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IngestLocal,
        Workload::QueryZipf,
        Workload::MixedUniform,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestLocal => "ingest_local",
            Workload::QueryZipf => "query_zipf",
            Workload::MixedUniform => "mixed_uniform",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The fixed shape of the workload. Rates are per second; counts
    /// scale with the run length so every run does whole rounds of the
    /// same operations.
    pub fn spec(self) -> Spec {
        let base = Spec {
            subset: 256,
            dim: 16,
            wal: false,
            window_events: 32,
            events_per_s: 800.0,
            whole_windows: false,
            local_events: false,
            rows_per_s: 150.0,
            top_k_per_s: 150.0,
            capacity_windows: 240,
        };
        match self {
            Workload::IngestLocal => Spec {
                wal: true,
                events_per_s: 320.0,
                local_events: true,
                rows_per_s: 120.0,
                top_k_per_s: 120.0,
                capacity_windows: 160,
                ..base
            },
            Workload::QueryZipf => Spec {
                subset: 1024,
                dim: 32,
                window_events: 5,
                events_per_s: 10.0,
                whole_windows: true,
                rows_per_s: 300.0,
                top_k_per_s: 300.0,
                capacity_windows: 50,
                ..base
            },
            Workload::MixedUniform => base,
        }
    }
}

/// Nodes of the base graph.
pub const NODES: usize = 20_000;
/// Directed edges of the base graph.
pub const EDGES: usize = 120_000;
/// Inclusive bounds of a `GetRows` batch size.
pub const ROWS_BATCH: (usize, usize) = (4, 16);
/// `k` of every `TopK` query.
pub const TOP_K: u32 = 10;

/// Workload shape (see [`Workload::spec`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub subset: usize,
    pub dim: usize,
    /// Shards run with their WAL on.
    pub wal: bool,
    pub window_events: usize,
    /// Open-loop write rate. Events arrive one by one and a window closes
    /// (is submitted and flushed) when `window_events` have arrived.
    pub events_per_s: f64,
    /// All events of a window arrive together, at the window's due time
    /// (a client that writes in batches).
    pub whole_windows: bool,
    /// Every event has one endpoint drawn zipfian from the subset;
    /// otherwise both endpoints are uniform over the graph.
    pub local_events: bool,
    pub rows_per_s: f64,
    pub top_k_per_s: f64,
    /// Windows of the closed-loop capacity phase that follows the open-loop
    /// load: a fixed amount of work, whatever the run length.
    pub capacity_windows: usize,
}

/// One open-loop write window: event `i` is due `event_due_s[i]` seconds
/// into the load phase, and the window closes when its last event arrives
/// (`due_s`).
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub due_s: f64,
    pub events: Vec<EdgeEvent>,
    pub event_due_s: Vec<f64>,
}

/// One read operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadOp {
    Rows(Vec<u32>),
    TopK { node: u32, k: u32, metric: Metric },
}

#[derive(Debug, Clone, PartialEq)]
pub struct Read {
    pub due_s: f64,
    pub op: ReadOp,
}

/// Everything one run feeds the system.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub spec: Spec,
    pub base_edges: Vec<(u32, u32)>,
    /// The subset, ascending; the shard map splits it in this order.
    pub subset: Vec<u32>,
    pub windows: Vec<Window>,
    /// The capacity phase's windows, submitted back to back after `windows`.
    pub capacity: Vec<Vec<EdgeEvent>>,
    pub reads: Vec<Read>,
    /// Output-check queries: `TopK` anchors and PPR sample sources.
    pub check_top_k: Vec<(u32, u32, Metric)>,
    pub check_ppr_sources: Vec<u32>,
}

/// Zipfian sampler over ranks `0..n` (exponent `s`), by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Sub-streams of one seed, so adding draws to one part of the inputs
/// never shifts another.
fn stream(seed: u64, part: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ part.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        let spec = workload.spec();
        let n = NODES;
        let secs = seconds as f64;

        // Base graph: uniform sources, zipfian targets over a random node
        // order (a heavy-tailed in-degree, like the paper's datasets).
        let mut rng = stream(seed, 1);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rng);
        let hub = Zipf::new(n, 0.9);
        let mut seen = std::collections::HashSet::new();
        let mut base_edges = Vec::with_capacity(EDGES);
        while base_edges.len() < EDGES {
            let u = rng.gen_range(0..n as u32);
            let v = order[hub.sample(&mut rng)];
            if u != v && seen.insert((u, v)) {
                base_edges.push((u, v));
            }
        }

        let mut rng = stream(seed, 2);
        let mut nodes: Vec<u32> = (0..n as u32).collect();
        nodes.shuffle(&mut rng);
        let mut subset = nodes[..spec.subset].to_vec();
        subset.sort_unstable();
        // Popularity follows subset order: the hottest nodes are the lowest
        // ids (say, the oldest accounts), so the hot range is range 0, which
        // the router's sequential flush broadcast reaches first. (With the
        // hot range last, reads wait out its whole flush, and an open-loop
        // reader at the rates below falls ever further behind.)
        let popular = subset.clone();
        let zipf = Zipf::new(popular.len(), 1.0);

        let num_windows =
            ((secs * spec.events_per_s / spec.window_events as f64).floor() as usize).max(1);
        let mut rng = stream(seed, 3);
        // Subset-local writes concentrate harder than reads: the hot range
        // takes nearly all of them.
        let write_zipf = Zipf::new(popular.len(), 1.5);
        // The capacity phase continues the same stream of events.
        let mut windows = gen_windows(
            &spec,
            &popular,
            &write_zipf,
            num_windows + spec.capacity_windows,
            &mut rng,
        );
        let capacity = windows
            .split_off(num_windows)
            .into_iter()
            .map(|w| w.events)
            .collect();

        // Reads: exact counts per kind, arrival times uniform over the
        // run (a Poisson process conditioned on its count).
        let rows_n = (spec.rows_per_s * secs).ceil() as usize;
        let top_n = (spec.top_k_per_s * secs).ceil() as usize;
        let mut rng = stream(seed, 5);
        let mut kinds: Vec<bool> = (0..rows_n + top_n).map(|i| i < rows_n).collect();
        kinds.shuffle(&mut rng);
        let mut times: Vec<f64> = (0..kinds.len()).map(|_| rng.gen::<f64>() * secs).collect();
        times.sort_by(f64::total_cmp);
        let reads = times
            .into_iter()
            .zip(kinds)
            .map(|(due_s, is_rows)| Read {
                due_s,
                op: if is_rows {
                    let (lo, hi) = ROWS_BATCH;
                    let b = rng.gen_range(lo..hi + 1);
                    ReadOp::Rows((0..b).map(|_| popular[zipf.sample(&mut rng)]).collect())
                } else {
                    ReadOp::TopK {
                        node: popular[zipf.sample(&mut rng)],
                        k: TOP_K,
                        metric: if rng.gen_bool(0.5) {
                            Metric::Dot
                        } else {
                            Metric::Cosine
                        },
                    }
                },
            })
            .collect();

        let mut rng = stream(seed, 6);
        let check_top_k = (0..32)
            .map(|i| {
                let metric = if i % 2 == 0 {
                    Metric::Dot
                } else {
                    Metric::Cosine
                };
                (*subset.choose(&mut rng).unwrap(), TOP_K, metric)
            })
            .collect();
        let check_ppr_sources = (0..4).map(|_| *subset.choose(&mut rng).unwrap()).collect();

        Inputs {
            spec,
            base_edges,
            subset,
            windows,
            capacity,
            reads,
            check_top_k,
            check_ppr_sources,
        }
    }
}

/// Write windows: subset-local (one endpoint zipfian from the subset) or
/// uniform over the graph. A quarter of the events delete an edge the
/// stream inserted earlier, so windows mix inserts and deletes.
fn gen_windows(
    spec: &Spec,
    popular: &[u32],
    zipf: &Zipf,
    count: usize,
    rng: &mut StdRng,
) -> Vec<Window> {
    let n = NODES as u32;
    let mut inserted: Vec<(u32, u32)> = Vec::new();
    (0..count)
        .map(|i| {
            // Stratified arrivals: event j arrives in its own 1/rate slot;
            // a whole window arrives at once in its last event's slot.
            let first = i * spec.window_events;
            let last = first + spec.window_events - 1;
            let arrive = |slot: usize, rng: &mut StdRng| {
                (slot as f64 + rng.gen::<f64>()) / spec.events_per_s
            };
            let event_due_s: Vec<f64> = if spec.whole_windows {
                vec![arrive(last, rng); spec.window_events]
            } else {
                (first..=last).map(|j| arrive(j, rng)).collect()
            };
            let due_s = *event_due_s.last().expect("windows are non-empty");
            let mut events = Vec::with_capacity(spec.window_events);
            while events.len() < spec.window_events {
                if !inserted.is_empty() && rng.gen_bool(0.25) {
                    let j = rng.gen_range(0..inserted.len());
                    let (u, v) = inserted.swap_remove(j);
                    events.push(EdgeEvent::delete(u, v));
                    continue;
                }
                let (u, v) = if spec.local_events {
                    let s = popular[zipf.sample(rng)];
                    let o = rng.gen_range(0..n);
                    if rng.gen_bool(0.5) {
                        (s, o)
                    } else {
                        (o, s)
                    }
                } else {
                    (rng.gen_range(0..n), rng.gen_range(0..n))
                };
                if u != v {
                    inserted.push((u, v));
                    events.push(EdgeEvent::insert(u, v));
                }
            }
            Window {
                due_s,
                events,
                event_due_s,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_inputs() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 7, 2);
            let b = Inputs::generate(w, 7, 2);
            assert!(a == b, "{}: same seed, different inputs", w.name());
            let c = Inputs::generate(w, 8, 2);
            assert!(a != c, "{}: seed has no effect", w.name());
        }
    }

    #[test]
    fn counts_scale_with_the_run_and_not_with_the_seed() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 1, 4);
            let b = Inputs::generate(w, 2, 4);
            assert_eq!(a.windows.len(), b.windows.len());
            assert_eq!(a.capacity.len(), a.spec.capacity_windows);
            assert_eq!(a.reads.len(), b.reads.len());
            let rows = |i: &Inputs| {
                i.reads
                    .iter()
                    .filter(|r| matches!(r.op, ReadOp::Rows(_)))
                    .count()
            };
            assert_eq!(rows(&a), rows(&b));
            assert!(a
                .windows
                .iter()
                .all(|w| w.events.len() == a.spec.window_events));
            assert!(a.capacity.iter().all(|w| w.len() == a.spec.window_events));
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hist = [0usize; 100];
        for _ in 0..20_000 {
            hist[z.sample(&mut rng)] += 1;
        }
        assert!(hist[0] > hist[9] && hist[9] > hist[99]);
    }
}
