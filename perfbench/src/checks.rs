//! Correctness checks the benchmark computes itself, apart from the
//! program: a rank-sum AUC, a scalar forward pass of the link MLP, the
//! planted-community separation, a walk validator against the input edge
//! list, and the serve response checks. Each is tested against a planted
//! wrong answer it must reject.

use std::collections::HashSet;

use nn::{Mlp, OutputHead};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rwserve::json::Json;
use tgraph::{NodeId, TemporalEdge};

/// Area under the ROC curve of `pos` against `neg` scores by the
/// Mann–Whitney rank sum, with tied scores sharing their mid-rank.
/// Returns 0.5 when either side is empty.
pub fn rank_auc(pos: &[f64], neg: &[f64]) -> f64 {
    if pos.is_empty() || neg.is_empty() {
        return 0.5;
    }
    let mut all: Vec<(f64, bool)> =
        pos.iter().map(|&s| (s, true)).chain(neg.iter().map(|&s| (s, false))).collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut rank_sum = 0.0;
    let mut i = 0;
    while i < all.len() {
        let mut j = i;
        while j + 1 < all.len() && all[j + 1].0 == all[i].0 {
            j += 1;
        }
        let mid = (i + j) as f64 / 2.0 + 1.0;
        rank_sum += mid * all[i..=j].iter().filter(|x| x.1).count() as f64;
        i = j + 1;
    }
    let (p, n) = (pos.len() as f64, neg.len() as f64);
    (rank_sum - p * (p + 1.0) / 2.0) / (p * n)
}

/// Scalar forward pass of a binary-head MLP read from its weights and
/// biases: ReLU hidden layers (plus the identity skip on square hidden
/// layers when the network is residual) and a sigmoid output.
pub fn forward_proba(mlp: &Mlp, x: &[f32]) -> f64 {
    assert_eq!(mlp.head(), OutputHead::Binary, "link model must have a binary head");
    let layers = mlp.weights().len();
    let mut act: Vec<f64> = x.iter().map(|&v| f64::from(v)).collect();
    for (i, (w, b)) in mlp.weights().iter().zip(mlp.biases()).enumerate() {
        assert_eq!(act.len(), w.rows(), "layer {i} input width");
        let mut z: Vec<f64> = (0..w.cols()).map(|c| f64::from(b.get(0, c))).collect();
        for (r, &a) in act.iter().enumerate() {
            for (c, zc) in z.iter_mut().enumerate() {
                *zc += a * f64::from(w.get(r, c));
            }
        }
        if i + 1 == layers {
            return 1.0 / (1.0 + (-z[0]).exp());
        }
        for zc in &mut z {
            *zc = zc.max(0.0);
        }
        if mlp.residual() && w.rows() == w.cols() {
            for (zc, a) in z.iter_mut().zip(&act) {
                *zc += a;
            }
        }
        act = z;
    }
    unreachable!("the loop returns at the output layer")
}

/// Edge feature `[f(u), f(v)]`, read from the embedding table.
pub fn edge_feature(emb: &embed::EmbeddingMatrix, u: NodeId, v: NodeId) -> Vec<f32> {
    let mut x = emb.get(u).to_vec();
    x.extend_from_slice(emb.get(v));
    x
}

/// AUC of the link model's scalar forward pass over held-out edges
/// against non-edges.
pub fn link_auc(
    emb: &embed::EmbeddingMatrix,
    mlp: &Mlp,
    pos: &[(NodeId, NodeId)],
    neg: &[(NodeId, NodeId)],
) -> f64 {
    let score = |pairs: &[(NodeId, NodeId)]| -> Vec<f64> {
        pairs.iter().map(|&(u, v)| forward_proba(mlp, &edge_feature(emb, u, v))).collect()
    };
    rank_auc(&score(pos), &score(neg))
}

/// The program's batched inference (`Mlp::predict_proba`) over `pairs`.
pub fn predict_pairs(
    emb: &embed::EmbeddingMatrix,
    mlp: &Mlp,
    pairs: &[(NodeId, NodeId)],
) -> Vec<f32> {
    let d = emb.dim();
    let mut rows = Vec::with_capacity(pairs.len() * 2 * d);
    for &(u, v) in pairs {
        rows.extend(edge_feature(emb, u, v));
    }
    mlp.predict_proba(&nn::Tensor2::from_vec(pairs.len(), 2 * d, rows))
}

/// Checks probabilities the program computed for `pairs` against the
/// scalar forward pass of `mlp`.
pub fn check_probs(
    emb: &embed::EmbeddingMatrix,
    mlp: &Mlp,
    pairs: &[(NodeId, NodeId)],
    probs: &[f32],
) -> Result<(), String> {
    if probs.len() != pairs.len() {
        return Err(format!("{} probabilities for {} pairs", probs.len(), pairs.len()));
    }
    for (&(u, v), &p) in pairs.iter().zip(probs) {
        let ours = forward_proba(mlp, &edge_feature(emb, u, v));
        if (f64::from(p) - ours).abs() > 1e-4 {
            return Err(format!("predict_proba({u},{v}) = {p}, forward pass gives {ours}"));
        }
    }
    Ok(())
}

/// Checks that the program's own batched inference agrees with the
/// scalar forward pass on `pairs`.
pub fn check_inference(
    emb: &embed::EmbeddingMatrix,
    mlp: &Mlp,
    pairs: &[(NodeId, NodeId)],
) -> Result<(), String> {
    check_probs(emb, mlp, pairs, &predict_pairs(emb, mlp, pairs))
}

/// Checks an embedding table's shape and that every entry is finite.
pub fn check_embedding(
    emb: &embed::EmbeddingMatrix,
    nodes: usize,
    dim: usize,
) -> Result<(), String> {
    if emb.num_nodes() != nodes || emb.dim() != dim {
        return Err(format!(
            "embedding is {} x {}, expected {nodes} x {dim}",
            emb.num_nodes(),
            emb.dim()
        ));
    }
    if !emb.as_slice().iter().all(|x| x.is_finite()) {
        return Err("embedding holds a non-finite entry".into());
    }
    Ok(())
}

fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let (mut ab, mut aa, mut bb) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        ab += f64::from(x) * f64::from(y);
        aa += f64::from(x) * f64::from(x);
        bb += f64::from(y) * f64::from(y);
    }
    if aa == 0.0 || bb == 0.0 {
        0.0
    } else {
        ab / (aa.sqrt() * bb.sqrt())
    }
}

/// Community-separation AUC: the probability that a random same-community
/// vertex pair has a higher embedding cosine than a random cross-community
/// pair, over `samples` pairs of each kind drawn with `seed`.
pub fn community_auc(
    emb: &embed::EmbeddingMatrix,
    labels: &[u16],
    samples: usize,
    seed: u64,
) -> f64 {
    let n = labels.len() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut same, mut diff) = (Vec::with_capacity(samples), Vec::with_capacity(samples));
    while same.len() < samples || diff.len() < samples {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let s = cosine(emb.get(u), emb.get(v));
        if labels[u as usize] == labels[v as usize] {
            if same.len() < samples {
                same.push(s);
            }
        } else if diff.len() < samples {
            diff.push(s);
        }
    }
    rank_auc(&same, &diff)
}

/// Validates walks against the input edge list per Algorithm 1: `K`
/// walks per vertex in walk-major order, lengths `1..=N`, every hop an
/// input edge whose timestamp exceeds the previous hop's, and a walk
/// shorter than `N` only where no later edge leaves its last vertex.
#[derive(Debug)]
pub struct WalkValidator {
    /// Edges sorted by `(src, dst, time)`; both directions of each input
    /// edge, as the graph is loaded undirected.
    edges: Vec<(NodeId, NodeId, f64)>,
    /// Offsets of each source's run in `edges`.
    offsets: Vec<usize>,
    /// Latest outgoing timestamp per vertex (−∞ when it has none).
    latest_out: Vec<f64>,
    walks_per_node: usize,
    max_length: usize,
}

impl WalkValidator {
    pub fn new(
        nodes: usize,
        input: &[TemporalEdge],
        walks_per_node: usize,
        max_length: usize,
    ) -> Self {
        let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::with_capacity(input.len() * 2);
        for e in input {
            edges.push((e.src, e.dst, e.time));
            edges.push((e.dst, e.src, e.time));
        }
        edges.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.total_cmp(&b.2)));
        let mut offsets = vec![0usize; nodes + 1];
        let mut latest_out = vec![f64::NEG_INFINITY; nodes];
        for &(s, _, t) in &edges {
            offsets[s as usize + 1] += 1;
            latest_out[s as usize] = latest_out[s as usize].max(t);
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        Self { edges, offsets, latest_out, walks_per_node, max_length }
    }

    /// Timestamps of the input edges `u → v`, ascending.
    fn times(&self, u: NodeId, v: NodeId) -> impl Iterator<Item = f64> + '_ {
        let run = &self.edges[self.offsets[u as usize]..self.offsets[u as usize + 1]];
        let lo = run.partition_point(|e| e.1 < v);
        run[lo..].iter().take_while(move |e| e.1 == v).map(|e| e.2)
    }

    /// Checks walk number `index` of the set.
    pub fn check_walk(&self, index: usize, walk: &[NodeId]) -> Result<(), String> {
        let nodes = self.latest_out.len();
        if walk.is_empty() || walk.len() > self.max_length {
            return Err(format!(
                "walk {index} has length {} outside 1..={}",
                walk.len(),
                self.max_length
            ));
        }
        if walk[0] as usize != index % nodes {
            return Err(format!("walk {index} starts at {} instead of {}", walk[0], index % nodes));
        }
        if walk.iter().any(|&v| v as usize >= nodes) {
            return Err(format!("walk {index} visits a vertex outside 0..{nodes}"));
        }
        // Earliest feasible arrival time per hop (greedy is exact for
        // feasibility), and the latest feasible time of the final hop.
        let mut earliest = f64::NEG_INFINITY;
        let mut latest = f64::NEG_INFINITY;
        for (h, pair) in walk.windows(2).enumerate() {
            let after = earliest;
            // The first hop admits any timestamp; later hops need a
            // strictly later one.
            let admissible = |t: f64| if h == 0 { true } else { t > after };
            let mut feasible = self.times(pair[0], pair[1]).filter(|&t| admissible(t));
            let Some(first) = feasible.next() else {
                return Err(format!(
                    "walk {index} hop {h} {}->{} is no input edge later than {after}",
                    pair[0], pair[1]
                ));
            };
            earliest = first;
            latest = feasible.last().unwrap_or(first);
        }
        if walk.len() < self.max_length {
            let last = *walk.last().expect("non-empty") as usize;
            let dead_end = if walk.len() == 1 {
                self.latest_out[last] == f64::NEG_INFINITY
            } else {
                self.latest_out[last] <= latest
            };
            if !dead_end {
                return Err(format!(
                    "walk {index} stops at {last} after {} vertices though a later edge leaves it",
                    walk.len()
                ));
            }
        }
        Ok(())
    }

    /// Checks a whole walk set: the walk count, then every walk. Returns
    /// the number of valid walks and the first error found.
    pub fn check_set(&self, walks: &twalk::WalkSet) -> (usize, Option<String>) {
        let expected = self.walks_per_node * self.latest_out.len();
        let mut first_error = (walks.num_walks() != expected)
            .then(|| format!("{} walks, expected K*|V| = {expected}", walks.num_walks()));
        let mut valid = 0;
        for i in 0..walks.num_walks() {
            match self.check_walk(i, walks.walk(i)) {
                Ok(()) => valid += 1,
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        (valid, first_error)
    }
}

/// The model a serve check compares version-1 answers against: the
/// packed snapshot's embedding table and link MLP.
pub struct ServeOracle<'a> {
    pub emb: &'a embed::EmbeddingMatrix,
    pub mlp: &'a Mlp,
}

/// What a well-formed response said, for the statistics the workload
/// derives from it.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Score(f64),
    Neighbors(usize),
    Queued,
    Stats,
}

/// One request the serve workload sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    Link(NodeId, NodeId),
    TopK(NodeId, usize),
    Ingest(NodeId, NodeId, f64),
    Stats,
}

impl Req {
    /// The request as one protocol line (no newline).
    pub fn line(&self) -> String {
        match *self {
            Req::Link(u, v) => format!("{{\"op\":\"link_score\",\"u\":{u},\"v\":{v}}}"),
            Req::TopK(u, k) => format!("{{\"op\":\"topk\",\"u\":{u},\"k\":{k}}}"),
            Req::Ingest(u, v, t) => format!("{{\"op\":\"ingest\",\"edges\":[[{u},{v},{t}]]}}"),
            Req::Stats => "{\"op\":\"stats\"}".to_string(),
        }
    }
}

const SCORE_TOLERANCE: f64 = 1e-4;

/// Checks one response to `req`: well formed, `"ok":true`, a version no
/// lower than `last_version` on the same connection, and, when answered
/// by version 1, equal to the oracle's own forward pass or brute-force
/// ranking. Returns the answer and its version.
pub fn check_response(
    req: &Req,
    line: &str,
    last_version: u64,
    oracle: &ServeOracle<'_>,
) -> Result<(Answer, u64), String> {
    let v = Json::parse(line).map_err(|e| format!("malformed response {line:?}: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("request {} failed: {line}", req.line()));
    }
    let version = v
        .get("version")
        .and_then(Json::as_u64)
        .filter(|&ver| ver >= 1)
        .ok_or_else(|| format!("response without a positive integer version: {line}"))?;
    if version < last_version {
        return Err(format!("version went back from {last_version} to {version}"));
    }
    let answer = match *req {
        Req::Link(u, w) => {
            let score = v
                .get("score")
                .and_then(Json::as_f64)
                .filter(|s| (0.0..=1.0).contains(s))
                .ok_or_else(|| format!("link_score without a probability: {line}"))?;
            if version == 1 {
                let ours = forward_proba(oracle.mlp, &edge_feature(oracle.emb, u, w));
                if (score - ours).abs() > SCORE_TOLERANCE {
                    return Err(format!(
                        "link_score({u},{w}) = {score}, forward pass gives {ours}"
                    ));
                }
            }
            Answer::Score(score)
        }
        Req::TopK(u, k) => {
            let items = v
                .get("neighbors")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("topk without neighbors: {line}"))?;
            let mut got = Vec::with_capacity(items.len());
            for item in items {
                let pair = item.as_array().filter(|p| p.len() == 2);
                let parsed = pair.and_then(|p| Some((p[0].as_u64()?, p[1].as_f64()?)));
                let (id, s) = parsed.ok_or_else(|| format!("malformed neighbor in {line}"))?;
                got.push((id, s));
            }
            if version == 1 {
                check_topk(oracle.emb, u, k, &got)?;
            } else if got.len() != k || got.windows(2).any(|w| w[0].1 < w[1].1) {
                return Err(format!("topk({u},{k}) returned an unordered or short list"));
            }
            Answer::Neighbors(got.len())
        }
        Req::Ingest(..) => {
            if v.get("queued").and_then(Json::as_u64) != Some(1) {
                return Err(format!("ingest of one edge did not queue it: {line}"));
            }
            Answer::Queued
        }
        Req::Stats => {
            v.get("stats").ok_or_else(|| format!("stats without payload: {line}"))?;
            Answer::Stats
        }
    };
    Ok((answer, version))
}

/// Checks a top-k answer against a brute-force dot-product ranking of
/// the whole table: the same `k` scores in order, each the true dot
/// product of its id, no repeats and never `u` itself. Ties may order
/// ids differently, so ids are checked through their scores.
pub fn check_topk(
    emb: &embed::EmbeddingMatrix,
    u: NodeId,
    k: usize,
    got: &[(u64, f64)],
) -> Result<(), String> {
    let n = emb.num_nodes();
    let dot = |v: usize| -> f64 {
        emb.get(u)
            .iter()
            .zip(emb.get(v as NodeId))
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum()
    };
    let mut all: Vec<f64> = (0..n).filter(|&v| v != u as usize).map(dot).collect();
    all.sort_by(|a, b| b.total_cmp(a));
    all.truncate(k);
    if got.len() != all.len() {
        return Err(format!(
            "topk({u},{k}) returned {} neighbors, expected {}",
            got.len(),
            all.len()
        ));
    }
    let mut seen = HashSet::new();
    for (i, (&(id, s), &want)) in got.iter().zip(&all).enumerate() {
        if id as usize >= n || id == u64::from(u) || !seen.insert(id) {
            return Err(format!("topk({u},{k}) rank {i} has invalid id {id}"));
        }
        if (s - dot(id as usize)).abs() > SCORE_TOLERANCE || (s - want).abs() > SCORE_TOLERANCE {
            return Err(format!("topk({u},{k}) rank {i}: id {id} score {s}, brute force {want}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use embed::EmbeddingMatrix;

    fn pairwise_auc(pos: &[f64], neg: &[f64]) -> f64 {
        let mut wins = 0.0;
        for &p in pos {
            for &n in neg {
                wins += if p > n {
                    1.0
                } else if p == n {
                    0.5
                } else {
                    0.0
                };
            }
        }
        wins / (pos.len() * neg.len()) as f64
    }

    #[test]
    fn rank_auc_matches_the_pairwise_definition_with_ties() {
        let mut rng = StdRng::seed_from_u64(3);
        let pos: Vec<f64> = (0..300).map(|_| f64::from(rng.gen_range(0..20u32))).collect();
        let neg: Vec<f64> = (0..200).map(|_| f64::from(rng.gen_range(0..15u32))).collect();
        assert!((rank_auc(&pos, &neg) - pairwise_auc(&pos, &neg)).abs() < 1e-12);
        assert_eq!(rank_auc(&[2.0, 3.0], &[0.0, 1.0]), 1.0);
        assert_eq!(rank_auc(&[0.0], &[1.0]), 0.0);
        assert_eq!(rank_auc(&[1.0], &[1.0]), 0.5);
    }

    #[test]
    fn rank_auc_rejects_a_planted_label_swap() {
        // Scores that separate perfectly; swapping the labels (the planted
        // wrong answer) must read as a failure, not as a good model.
        let pos: Vec<f64> = (0..50).map(|i| 1.0 + f64::from(i)).collect();
        let neg: Vec<f64> = (0..50).map(|i| -f64::from(i)).collect();
        assert_eq!(rank_auc(&pos, &neg), 1.0);
        assert_eq!(rank_auc(&neg, &pos), 0.0);
    }

    fn trained_model() -> (EmbeddingMatrix, Mlp) {
        let g = tgraph::gen::preferential_attachment(300, 3, 1).undirected(true).build();
        let model =
            rwalk_core::Pipeline::new(rwalk_core::Hyperparams::paper_optimal().quick_test())
                .train_link_model(&g)
                .unwrap();
        (model.emb, model.mlp)
    }

    #[test]
    fn forward_pass_matches_predict_and_rejects_a_planted_weight() {
        let (emb, mlp) = trained_model();
        let pairs: Vec<(NodeId, NodeId)> = (0..40).map(|i| (i, (i * 7 + 3) % 300)).collect();
        check_inference(&emb, &mlp, &pairs).unwrap();
        // Planted wrong answer: inference from the same network with its
        // output weights shifted must be rejected against the real one.
        let mut weights = mlp.weights().to_vec();
        let last = weights.len() - 1;
        for r in 0..weights[last].rows() {
            let w = weights[last].get(r, 0);
            weights[last].set(r, 0, w + 0.5);
        }
        let wrong =
            Mlp::from_parts(weights, mlp.biases().to_vec(), OutputHead::Binary, false).unwrap();
        let planted = predict_pairs(&emb, &wrong, &pairs);
        let err = check_probs(&emb, &mlp, &pairs, &planted).unwrap_err();
        assert!(err.contains("forward pass gives"), "{err}");
        assert!(check_probs(&emb, &mlp, &pairs, &planted[1..]).is_err());
    }

    #[test]
    fn residual_forward_pass_matches_predict() {
        let mlp = Mlp::new(&[4, 6, 6, 1], OutputHead::Binary, 9).with_residual(true);
        let emb = EmbeddingMatrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.25, -0.75, 1.5]);
        check_inference(&emb, &mlp, &[(0, 1), (1, 2), (2, 0)]).unwrap();
    }

    #[test]
    fn link_auc_separates_and_rejects_a_planted_inversion() {
        let (emb, mlp) = trained_model();
        // Score every vertex pair; the top and bottom deciles make a pair
        // set the model separates perfectly by construction.
        let mut scored: Vec<((NodeId, NodeId), f64)> = (0..300)
            .map(|i| {
                let p = (i, (i * 13 + 5) % 300);
                (p, forward_proba(&mlp, &edge_feature(&emb, p.0, p.1)))
            })
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        let neg: Vec<_> = scored[..30].iter().map(|x| x.0).collect();
        let pos: Vec<_> = scored[scored.len() - 30..].iter().map(|x| x.0).collect();
        assert!(link_auc(&emb, &mlp, &pos, &neg) > 0.99);
        assert!(link_auc(&emb, &mlp, &neg, &pos) < 0.01);
    }

    #[test]
    fn community_auc_accepts_planted_clusters_and_rejects_shuffled_labels() {
        let n = 400;
        let labels: Vec<u16> = (0..n).map(|v| (v % 4) as u16).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let mut data = Vec::new();
        for &c in &labels {
            for d in 0..4 {
                let centre = if d == c as usize { 1.0 } else { 0.0 };
                data.push(centre + rng.gen_range(-0.3f32..0.3));
            }
        }
        let emb = EmbeddingMatrix::from_vec(n, 4, data);
        assert!(community_auc(&emb, &labels, 2_000, 1) > 0.95);
        // Planted wrong answer: labels that ignore the clusters.
        let shuffled: Vec<u16> = (0..n).map(|v| ((v / 4) % 4) as u16).collect();
        let auc = community_auc(&emb, &shuffled, 2_000, 1);
        assert!((auc - 0.5).abs() < 0.1, "shuffled labels gave {auc}");
    }

    fn small_graph() -> (usize, Vec<TemporalEdge>) {
        let edges = vec![
            TemporalEdge::new(0, 1, 0.1),
            TemporalEdge::new(1, 2, 0.2),
            TemporalEdge::new(2, 3, 0.3),
            TemporalEdge::new(1, 3, 0.05),
            TemporalEdge::new(0, 1, 0.4),
        ];
        (5, edges)
    }

    #[test]
    fn walk_validator_accepts_the_program_walks() {
        let g = tgraph::gen::preferential_attachment(500, 4, 2).build();
        let input: Vec<TemporalEdge> = g.edges().collect();
        let g = tgraph::GraphBuilder::new()
            .extend_edges(input.clone())
            .undirected(true)
            .num_nodes(500)
            .build();
        let walks =
            twalk::WalkOptions::new(10, 6).seed(3).generate(&g, &par::ParConfig::with_threads(2));
        let v = WalkValidator::new(500, &input, 10, 6);
        let (valid, err) = v.check_set(&walks);
        assert_eq!(err, None);
        assert_eq!(valid, 5_000);
    }

    #[test]
    fn walk_validator_rejects_planted_wrong_walks() {
        let (n, edges) = small_graph();
        let v = WalkValidator::new(n, &edges, 1, 4);
        // Valid: 0 -(0.1)-> 1 -(0.2)-> 2 -(0.3)-> 3.
        v.check_walk(0, &[0, 1, 2, 3]).unwrap();
        // Valid dead end: vertex 4 has no edges at all.
        v.check_walk(4, &[4]).unwrap();
        // Valid early stop: 3 -(0.3)-> 2 leaves 2 with nothing later.
        v.check_walk(3, &[3, 2]).unwrap();
        let planted: [(usize, &[NodeId], &str); 7] = [
            (0, &[0, 2], "no input edge"),    // not an edge
            (2, &[2, 1, 3], "no input edge"), // 1->3 only at 0.05 < 0.2
            (0, &[1, 2], "starts at"),        // wrong start vertex
            (0, &[0, 1, 0, 1, 2], "length"),  // longer than N
            (0, &[0], "stops"),               // 0 has edges, cannot stop
            (2, &[2, 1], "stops"),            // 1 -(0.4)-> 0 was still open
            (0, &[], "length"),               // empty walk
        ];
        for (i, walk, needle) in planted {
            let err = v.check_walk(i, walk).unwrap_err();
            assert!(err.contains(needle), "{walk:?}: {err}");
        }
        // A set with the wrong walk count is rejected as a whole.
        let set = twalk::WalkSet::from_walks(&[vec![0, 1, 2, 3]], 4);
        assert!(v.check_set(&set).1.unwrap().contains("expected K*|V|"));
    }

    fn oracle_model() -> (EmbeddingMatrix, Mlp) {
        let data: Vec<f32> = (0..40).map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.1).collect();
        (EmbeddingMatrix::from_vec(10, 4, data), Mlp::new(&[8, 6, 1], OutputHead::Binary, 4))
    }

    #[test]
    fn serve_checks_accept_the_service_answers() {
        let (emb, mlp) = oracle_model();
        let store = std::sync::Arc::new(rwserve::EmbeddingStore::new(emb.clone(), mlp.clone()));
        let svc = rwserve::Service::new(
            store,
            par::ParConfig::with_threads(2),
            rwserve::BatchPolicy::default(),
        );
        let oracle = ServeOracle { emb: &emb, mlp: &mlp };
        for req in [Req::Link(1, 2), Req::Link(9, 0), Req::TopK(3, 4), Req::TopK(0, 9), Req::Stats]
        {
            let line = svc.handle_line(&req.line());
            check_response(&req, &line, 1, &oracle).unwrap();
        }
    }

    #[test]
    fn serve_checks_reject_planted_wrong_answers() {
        let (emb, mlp) = oracle_model();
        let oracle = ServeOracle { emb: &emb, mlp: &mlp };
        let right = forward_proba(&mlp, &edge_feature(&emb, 1, 2));
        let link = Req::Link(1, 2);
        let ok = format!("{{\"ok\":true,\"score\":{right},\"version\":1}}");
        assert_eq!(check_response(&link, &ok, 1, &oracle).unwrap(), (Answer::Score(right), 1));
        let wrong = format!("{{\"ok\":true,\"score\":{},\"version\":1}}", right + 0.01);
        assert!(check_response(&link, &wrong, 1, &oracle).unwrap_err().contains("forward pass"));
        // A later version is not compared with the version-1 oracle, but
        // a version going back on one connection is rejected.
        let later = format!("{{\"ok\":true,\"score\":{},\"version\":3}}", right + 0.01);
        check_response(&link, &later, 2, &oracle).unwrap();
        assert!(check_response(&link, &ok, 3, &oracle).unwrap_err().contains("went back"));
        assert!(check_response(&link, "{\"ok\":tru", 1, &oracle)
            .unwrap_err()
            .contains("malformed"));
        let refused = "{\"ok\":false,\"error\":\"overloaded\"}";
        assert!(check_response(&link, refused, 1, &oracle).is_err());

        // Top-k: the brute-force answer passes; a swapped id fails.
        let mut scored: Vec<(u64, f64)> = (0..10u64)
            .filter(|&v| v != 3)
            .map(|v| {
                let s = emb
                    .get(3)
                    .iter()
                    .zip(emb.get(v as NodeId))
                    .map(|(&a, &b)| f64::from(a * b))
                    .sum();
                (v, s)
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(3);
        check_topk(&emb, 3, 3, &scored).unwrap();
        let mut planted = scored.clone();
        planted[0].0 = scored[2].0;
        assert!(check_topk(&emb, 3, 3, &planted).is_err());
        let mut with_self = scored.clone();
        with_self[1].0 = 3;
        assert!(check_topk(&emb, 3, 3, &with_self).is_err());
        assert!(check_topk(&emb, 3, 3, &scored[..2]).is_err());

        let ingest = Req::Ingest(1, 2, 1.5);
        assert!(check_response(&ingest, "{\"ok\":true,\"queued\":0,\"version\":1}", 1, &oracle)
            .is_err());
    }
}
