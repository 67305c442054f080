//! Output checks, computed apart from the serving path: an offline replay
//! of the journal, naive top-k scoring, exact PPR, and an exact SVD.

use std::io;

use tsvd_core::TreeSvdPipeline;
use tsvd_graph::{Direction, DynGraph, EdgeEvent};
use tsvd_linalg::qr::orthonormalize;
use tsvd_linalg::svd::exact_svd;
use tsvd_linalg::{CsrMatrix, DenseMatrix};
use tsvd_ppr::exact::exact_ppr_row;
use tsvd_serve::net::{RowsReply, WindowsPull};
use tsvd_serve::{Metric, NetClient, ShardMap};

use crate::deploy::{DeployCfg, RANGES};

/// Tolerance of the exact PPR power iteration (L1 mass left in flight).
pub const EXACT_PPR_TOL: f64 = 1e-10;

/// Page a shard's journal: windows `1..=upto`, in order.
pub fn pull_journal(client: &mut NetClient, upto: u64) -> io::Result<Vec<Vec<EdgeEvent>>> {
    let mut windows = Vec::new();
    let mut after = 0u64;
    while after < upto {
        match client.pull_windows(after, 64)? {
            WindowsPull::Windows(r) => {
                if r.windows.is_empty() || r.first_epoch != after + 1 {
                    return Err(io::Error::other(format!(
                        "journal stream gap after epoch {after}"
                    )));
                }
                after += r.windows.len() as u64;
                windows.extend(r.windows);
            }
            WindowsPull::Compacted { oldest, requested } => {
                return Err(io::Error::other(format!(
                    "journal compacted: oldest {oldest}, requested {requested}"
                )))
            }
        }
    }
    windows.truncate(upto as usize);
    Ok(windows)
}

/// A journal's bytes, in the WAL's own frame encoding.
pub fn journal_bytes(windows: &[Vec<EdgeEvent>]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, w) in windows.iter().enumerate() {
        tsvd_store::wal::encode_frame(i as u64 + 1, w, &mut out);
    }
    out
}

/// The offline replay: one `TreeSvdPipeline` per range, each on its own
/// copy of the base graph, fed the journal window by window.
pub struct Replay {
    pub pipelines: Vec<TreeSvdPipeline>,
    /// The graph after the last window.
    pub graph: DynGraph,
}

/// Replay every range on its own thread (the system is idle by now).
pub fn replay(cfg: &DeployCfg, windows: &[Vec<EdgeEvent>]) -> Replay {
    let map = cfg.map();
    let base = cfg.graph();
    let (pipelines, mut graphs): (Vec<TreeSvdPipeline>, Vec<DynGraph>) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..RANGES)
                .map(|k| {
                    let (map, base) = (&map, &base);
                    scope.spawn(move || {
                        let mut g = base.clone();
                        let mut p = TreeSvdPipeline::new(
                            &g,
                            map.sources_of(k),
                            cfg.ppr_cfg(),
                            cfg.tree_cfg(),
                        );
                        for w in windows {
                            p.update(&mut g, w);
                        }
                        (p, g)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread panicked"))
                .unzip()
        });
    Replay {
        pipelines,
        graph: graphs.pop().expect("at least one range"),
    }
}

/// Every served row equals the replay's row bitwise.
pub fn check_rows(
    reply: &RowsReply,
    subset: &[u32],
    map: &ShardMap,
    rp: &Replay,
) -> Result<(), String> {
    for k in 0..RANGES {
        let left = rp.pipelines[k].embedding().left();
        let (start, _) = map.range(k);
        for (i, node) in map.sources_of(k).iter().enumerate() {
            let slot = start + i;
            if subset[slot] != *node {
                return Err(format!("shard map out of subset order at row {slot}"));
            }
            let row = reply.rows[slot]
                .as_ref()
                .ok_or_else(|| format!("node {node} missing from the merged reply"))?;
            let want = left.row(i);
            if row.len() != want.len()
                || row
                    .iter()
                    .zip(want)
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err(format!(
                    "node {node} (range {k}) differs from the offline replay"
                ));
            }
        }
    }
    Ok(())
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut s = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

fn inv_norm(v: &[f64]) -> f64 {
    let n = dot(v, v).sqrt();
    if n == 0.0 {
        0.0
    } else {
        1.0 / n
    }
}

/// Naive top-k over the merged rows: every other subset row scored, score
/// descending, ties by ascending global row (the documented order).
pub fn naive_top_k(
    rows: &[Vec<f64>],
    subset: &[u32],
    anchor: usize,
    k: usize,
    metric: Metric,
) -> Vec<(u32, f64)> {
    let q = &rows[anchor];
    let q_inv = inv_norm(q);
    let mut hits: Vec<(f64, usize)> = (0..rows.len())
        .filter(|&r| r != anchor)
        .map(|r| {
            let d = dot(q, &rows[r]);
            let score = match metric {
                Metric::Dot => d,
                Metric::Cosine => (d * q_inv) * inv_norm(&rows[r]),
            };
            (score, r)
        })
        .collect();
    hits.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    hits.truncate(k);
    hits.into_iter().map(|(s, r)| (subset[r], s)).collect()
}

/// Alg. 2's invariant for one source and direction: the L1 distance from
/// the exact PPR row is at most the residue mass left unpushed.
pub fn check_ppr(rp: &Replay, map: &ShardMap, source: u32) -> Result<(), String> {
    let row = map
        .global_row(source)
        .ok_or_else(|| format!("PPR sample {source} outside the subset"))?;
    let k = (0..RANGES)
        .find(|&k| {
            let (s, e) = map.range(k);
            (s..e).contains(&row)
        })
        .expect("every global row has a range");
    let local = row - map.range(k).0;
    let ppr = rp.pipelines[k].ppr();
    let alpha = ppr.config().alpha;
    for (dir, state) in [
        (Direction::Out, ppr.forward_state(local)),
        (Direction::In, ppr.backward_state(local)),
    ] {
        let exact = exact_ppr_row(&rp.graph, dir, source, alpha, EXACT_PPR_TOL);
        let mut est = vec![0.0; exact.len()];
        for (u, p) in state.estimates() {
            est[u as usize] = p;
        }
        let l1: f64 = exact.iter().zip(&est).map(|(a, b)| (a - b).abs()).sum();
        let resid: f64 = state.residues().map(|(_, r)| r.abs()).sum();
        if l1 > resid + EXACT_PPR_TOL + 1e-9 {
            return Err(format!(
                "PPR invariant broken for source {source} ({dir:?}): \
                 L1 error {l1:e} > residue mass {resid:e}"
            ));
        }
    }
    Ok(())
}

/// The Gram matrix `M·Mᵀ` of a sparse matrix, accumulated column by
/// column (each column's nonzeros pair up once).
fn gram(m: &CsrMatrix) -> DenseMatrix {
    let r = m.rows();
    let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m.cols()];
    for i in 0..r {
        let (idx, val) = m.row(i);
        for (&c, &v) in idx.iter().zip(val) {
            cols[c as usize].push((i, v));
        }
    }
    let mut g = DenseMatrix::zeros(r, r);
    for col in &cols {
        for &(i, a) in col {
            for &(j, b) in col {
                g.set(i, j, g.get(i, j) + a * b);
            }
        }
    }
    g
}

/// Squared residuals of one range: `‖M − P_X M‖_F²` for the served rows
/// `x` (|S_r| × d), and the optimal `‖M − [M]_d‖_F²` — the tail of `M`'s
/// squared singular values, taken from an exact SVD of the small Gram
/// matrix `G = M·Mᵀ` (whose singular values are exactly those squares).
/// With `Q` an orthonormal basis of `x`, `‖M − QQᵀM‖_F² = tr G − tr QᵀGQ`.
pub fn residuals_sq(m: &CsrMatrix, x: &DenseMatrix) -> (f64, f64) {
    let g = gram(m);
    let q = orthonormalize(x);
    let gq = g.mul(&q);
    let trace_g: f64 = (0..g.rows()).map(|i| g.get(i, i)).sum();
    let kept: f64 = q
        .as_slice()
        .iter()
        .zip(gq.as_slice())
        .map(|(a, b)| a * b)
        .sum();
    let served = (trace_g - kept).max(0.0);
    let optimal: f64 = exact_svd(&g).s.iter().skip(x.cols()).sum();
    (served, optimal)
}

/// `err_ratio`: per-range residuals combined in quadrature.
pub fn err_ratio(parts: &[(f64, f64)]) -> f64 {
    let served: f64 = parts.iter().map(|p| p.0).sum();
    let optimal: f64 = parts.iter().map(|p| p.1).sum();
    (served / optimal).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_rt::rng::{Rng, SeedableRng, StdRng};

    fn random_orthonormal(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = DenseMatrix::from_fn(rows, cols, |_, _| rng.gen::<f64>() - 0.5);
        orthonormalize(&a)
    }

    #[test]
    fn err_ratio_is_exact_on_known_singular_values() {
        // M = U·diag(σ)·Vᵀ with σ = 10, 8, 6, 4, 2, 1.
        let sigma = [10.0, 8.0, 6.0, 4.0, 2.0, 1.0];
        let (m_rows, n_cols, d) = (12, 20, 3);
        let u = random_orthonormal(m_rows, sigma.len(), 1);
        let v = random_orthonormal(n_cols, sigma.len(), 2);
        let mut us = u.clone();
        us.scale_cols(&sigma);
        let dense = us.mul(&v.transpose());
        let rows: Vec<Vec<(u32, f64)>> = (0..m_rows)
            .map(|i| {
                dense
                    .row(i)
                    .iter()
                    .enumerate()
                    .map(|(j, &x)| (j as u32, x))
                    .collect()
            })
            .collect();
        let m = CsrMatrix::from_rows(n_cols, &rows);

        // The optimal rank-3 embedding X = U_d·√Σ_d: ratio exactly 1, and
        // both residuals equal the singular-value tail √(16 + 4 + 1).
        let mut x = u.take_cols(d);
        x.scale_cols(
            &sigma[..d]
                .iter()
                .map(|s: &f64| s.sqrt())
                .collect::<Vec<_>>(),
        );
        let (served, optimal) = residuals_sq(&m, &x);
        let tail = 16.0 + 4.0 + 1.0;
        assert!((optimal - tail).abs() < 1e-10, "optimal {optimal}");
        assert!((served - tail).abs() < 1e-10, "served {served}");
        assert!((err_ratio(&[(served, optimal)]) - 1.0).abs() < 1e-12);

        // Spanning singular directions 1, 2 and 4 instead loses σ₃² = 36
        // and keeps σ₄² = 16: residual² = 36 + 4 + 1.
        let pick = DenseMatrix::from_fn(m_rows, d, |i, j| u.get(i, [0, 1, 3][j]));
        let (served, optimal) = residuals_sq(&m, &pick);
        assert!((served - 41.0).abs() < 1e-10, "served {served}");
        let want = (41.0f64 / 21.0).sqrt();
        assert!((err_ratio(&[(served, optimal)]) - want).abs() < 1e-12);

        // Quadrature across ranges.
        assert!((err_ratio(&[(9.0, 4.0), (16.0, 5.0)]) - (25.0f64 / 9.0).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn naive_top_k_breaks_ties_by_row() {
        let rows = vec![
            vec![1.0, 0.0],
            vec![2.0, 0.0],
            vec![2.0, 0.0],
            vec![0.0, 1.0],
        ];
        let subset = [10, 20, 30, 40];
        let got = naive_top_k(&rows, &subset, 0, 2, Metric::Dot);
        assert_eq!(got, vec![(20, 2.0), (30, 2.0)]);
        let got = naive_top_k(&rows, &subset, 3, 3, Metric::Cosine);
        assert_eq!(
            got.iter().map(|h| h.0).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
    }
}
