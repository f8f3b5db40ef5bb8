//! Seeded input generation. Everything here runs before the timed
//! region; the program only ever sees the files written here.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tgraph::{NodeId, TemporalEdge, TemporalGraph};

/// Scratch directory for inputs and traces, inside the benchmark's own
/// directory of the checkout it was built in.
pub fn work_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
    dir
}

/// A file in the work directory, unique to this process.
pub fn work_file(stem: &str, ext: &str) -> PathBuf {
    work_dir().join(format!("{stem}-{}.{ext}", std::process::id()))
}

/// A generated input file, deleted when dropped.
pub struct TempFile(pub PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A graph written as a `.wel` file: what a pipeline workload sets up
/// from.
pub struct WelInput {
    file: TempFile,
    pub nodes: usize,
    /// Edges in the file (one direction each).
    pub edges: usize,
}

impl WelInput {
    pub fn write(stem: &str, nodes: usize, edges: &[TemporalEdge]) -> Self {
        let file = TempFile(work_file(stem, "wel"));
        tgraph::io::write_wel_file(&file.0, edges.iter().copied()).expect("write the .wel input");
        Self { file, nodes, edges: edges.len() }
    }

    /// The set-up step: parse the file and build the CSR graph,
    /// undirected as the pipeline expects.
    pub fn load(&self) -> TemporalGraph {
        tgraph::io::read_wel_file(&self.file.0)
            .expect("read the .wel input")
            .undirected(true)
            .num_nodes(self.nodes)
            .build()
    }
}

/// The edges of a generated graph (as generated: one direction each).
pub fn edges_of(builder: tgraph::GraphBuilder) -> Vec<TemporalEdge> {
    builder.build().edges().collect()
}

/// Temporal preferential attachment (`m` edges per arriving vertex):
/// sparse, degree-skewed, arrival-ordered timestamps in `[0, 1]`.
pub fn preferential_attachment(n: usize, m: usize, seed: u64) -> Vec<TemporalEdge> {
    edges_of(tgraph::gen::preferential_attachment(n, m, seed))
}

/// The latest `count` edges by timestamp (ties broken by endpoints), as
/// undirected pairs led by the lower id. They stay in the graph: the
/// pipeline's temporal split holds this tail out of classifier training,
/// so the link model never trained on them.
pub fn latest_pairs(edges: &[TemporalEdge], count: usize) -> Vec<(NodeId, NodeId)> {
    let mut sorted = edges.to_vec();
    sorted
        .sort_by(|a, b| a.time.total_cmp(&b.time).then(a.src.cmp(&b.src)).then(a.dst.cmp(&b.dst)));
    sorted[sorted.len() - count..].iter().map(|e| (e.src.min(e.dst), e.src.max(e.dst))).collect()
}

/// Undirected endpoint pairs of `edges`, for non-edge sampling.
pub fn pair_set(edges: &[TemporalEdge]) -> HashSet<(NodeId, NodeId)> {
    edges.iter().flat_map(|e| [(e.src, e.dst), (e.dst, e.src)]).collect()
}

/// `count` distinct vertex pairs that are no edge of `existing`, with the
/// first endpoint drawn by `first` and the second uniformly.
pub fn non_edges(
    nodes: usize,
    existing: &HashSet<(NodeId, NodeId)>,
    count: usize,
    rng: &mut StdRng,
    mut first: impl FnMut(&mut StdRng) -> NodeId,
) -> Vec<(NodeId, NodeId)> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let u = first(rng);
        let v = rng.gen_range(0..nodes as NodeId);
        if u != v && !existing.contains(&(u, v)) && seen.insert((u.min(v), u.max(v))) {
            out.push((u, v));
        }
    }
    out
}

/// Zipf(θ) sampler over `0..n` by inverse-CDF lookup; rank 0 is hottest.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|i| {
                total += 1.0 / (i as f64).powf(theta);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    pub fn draw(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    p.shuffle(rng);
    p
}

/// The seeded generator every workload draws its inputs from.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}
