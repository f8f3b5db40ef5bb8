//! The three pipeline workloads: `lp_sparse` (link prediction end to
//! end), `embed_dense` (walks + word2vec on the fused path) and
//! `walks_dense` (walk corpus generation alone).
//!
//! Untraced jobs call the program's entry points on [`Pipeline`]. Traced
//! jobs make the same calls into the layers the pipeline is built from,
//! in the pipeline's order, with a span around each, so the per-layer
//! times come from the benchmark's own files.

use std::time::Instant;

use dataprep::{link_prediction_data, temporal_edge_split, SplitRatios};
use embed::{EmbeddingMatrix, StreamTrainer};
use nn::{Mlp, OutputHead, Trainer};
use par::{BoundedQueue, ParConfig};
use rwalk_core::{Hyperparams, LinkModel, Pipeline, TaskReport};
use tgraph::{NodeId, TemporalGraph};
use twalk::{ChannelSink, WalkSet};

use crate::checks::{self, WalkValidator};
use crate::inputs::{self, WelInput};
use crate::measure::{self, median, Tracer};
use crate::{Metric, Outcome};

/// Set-ups before the first job: at least this many, and more while
/// they have used less than a tenth of the run, up to the cap. Every job
/// then loads the input once more, so `setup_s` is the median over these
/// and one set-up per job.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
/// Jobs every run completes, however short `--seconds` is.
const MIN_JOBS: usize = 2;
/// A traced job whose spans stray further than this share of the
/// program's own job time from the program's phase report is named on
/// stderr (see [`phase_drift`]).
const DRIFT_WARN: f64 = 0.25;

/// Per-layer figures of one traced job, by metric name.
type Layers = Vec<(&'static str, f64)>;

/// What [`drive`] needs from a pipeline workload.
trait Workload {
    type Out;
    /// The program's own account of a job, made once per traced run
    /// outside every span and timing: the traced jobs are checked
    /// against it.
    type Reference;
    /// The `.wel` input the set-up loads.
    fn input(&self) -> &WelInput;
    /// One untraced job through the program's entry point.
    fn run(&self, g: &TemporalGraph) -> Result<Self::Out, String>;
    /// The program's account a traced job is checked against.
    fn reference(&self, g: &TemporalGraph) -> Self::Reference;
    /// The same job composed from layer calls, each inside a span under
    /// `root`. Returns the output, the job's per-layer figures (with
    /// `trace.phase_drift` where the program reports phase times), and
    /// whether the composition still does what the program does: its
    /// deterministic outputs must equal `reference`'s.
    fn run_traced(
        &self,
        t: &Tracer,
        root: usize,
        g: &TemporalGraph,
        reference: &Self::Reference,
    ) -> (Self::Out, Layers, Result<(), String>);
    /// Checks the output and returns its quality score.
    fn check(&self, out: &Self::Out) -> Result<f64, String>;
}

fn hp() -> Hyperparams {
    Hyperparams::paper_optimal()
}

/// One set-up: parse the input and build the graph, inside a
/// `tgraph.load` span when traced. Returns the graph, its wall seconds
/// and whether it holds the input's vertices and edges.
fn set_up(input: &WelInput, tracer: Option<&Tracer>) -> (TemporalGraph, f64, bool) {
    let t0 = Instant::now();
    let g = match tracer {
        Some(t) => t.span("tgraph.load", None, || input.load()),
        None => input.load(),
    };
    let secs = t0.elapsed().as_secs_f64();
    let ok = g.num_nodes() == input.nodes && g.num_edges() == 2 * input.edges;
    if !ok {
        eprintln!(
            "set-up loaded {} vertices / {} directed edges, expected {} / {}",
            g.num_nodes(),
            g.num_edges(),
            input.nodes,
            2 * input.edges
        );
    }
    (g, secs, ok)
}

/// Runs a workload for `seconds`: repeated set-ups, then jobs, each
/// after a set-up of its own, until the time is used (at least
/// [`MIN_JOBS`]). With `trace`, untraced and traced jobs alternate and
/// the result holds the per-layer metrics.
fn drive<W: Workload>(w: &W, seconds: f64, trace: bool) -> Outcome {
    let tracer = Tracer::default();
    let spans = trace.then_some(&tracer);
    let started = Instant::now();
    let input = w.input();
    let mut setup_s = Vec::new();
    let mut correct = true;
    let mut graph = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < seconds / 10.0)
    {
        drop(graph.take()); // release the previous copy before loading again
        let (g, secs, ok) = set_up(input, spans);
        setup_s.push(secs);
        correct &= ok;
        graph = Some(g);
    }
    let reference = trace.then(|| w.reference(graph.as_ref().expect("at least one set-up")));

    let (mut job_s, mut cpu_s, mut request_ms, mut quality) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut traced_s, mut layers): (Vec<f64>, Vec<Layers>) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Checks one job's output; a failed check is a failed operation.
    let mut check = |result: Result<W::Out, String>| -> Option<f64> {
        attempted += 1;
        match result.and_then(|out| w.check(&out)) {
            Ok(q) => Some(q),
            Err(e) => {
                failed += 1;
                eprintln!("job failed its check: {e}");
                None
            }
        }
    };
    loop {
        drop(graph.take());
        let (g, load, ok) = set_up(input, spans);
        setup_s.push(load);
        correct &= ok;
        let (out, wall, cpu) = measure::timed(|| w.run(&g));
        eprintln!("job: {load:.3} s set-up, {wall:.3} s wall, {cpu:.3} s cpu");
        job_s.push(wall);
        cpu_s.push(cpu);
        request_ms.push((load + wall) * 1e3);
        quality.extend(check(out));
        if let Some(reference) = &reference {
            let root = tracer.open("job", None);
            let rid = root.id;
            let (out, mut l, same) = w.run_traced(&tracer, rid, &g, reference);
            let wall = tracer.close(root);
            traced_s.push(wall);
            l.push(("core.unattributed_s", wall - tracer.child_seconds(rid, None)));
            layers.push(l);
            check(same.map(|()| out));
        }
        graph = Some(g);
        if job_s.len() >= MIN_JOBS && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let g = graph.expect("a loaded graph");

    let metrics = if trace {
        let mut m: Vec<Metric> = Vec::new();
        let load = median(&setup_s);
        m.push(("tgraph.load_s", load));
        m.push(("tgraph.edges_per_s", g.num_edges() as f64 / load));
        let names: Vec<&'static str> =
            layers.first().map(|l| l.iter().map(|x| x.0).collect()).unwrap_or_default();
        for name in names {
            let values: Vec<f64> =
                layers.iter().filter_map(|l| l.iter().find(|x| x.0 == name)).map(|x| x.1).collect();
            m.push((name, median(&values)));
        }
        let parallelism: Vec<f64> = cpu_s.iter().zip(&job_s).map(|(c, j)| c / j).collect();
        m.push(("core.parallelism", median(&parallelism)));
        m.push(("trace.overhead_s", median(&traced_s) - median(&job_s)));
        m
    } else {
        vec![
            ("setup_s", median(&setup_s)),
            ("job_s", median(&job_s)),
            ("cpu_s", median(&cpu_s)),
            ("peak_rss_mib", measure::peak_rss_mib()),
            ("quality", median(&quality)),
            ("p50_ms", median(&request_ms)),
            ("p99_ms", measure::p99(&request_ms)),
        ]
    };
    if trace {
        let path = inputs::work_file("trace", "json");
        std::fs::write(&path, tracer.to_json()).expect("write the span trace");
        eprintln!("spans written to {}", path.display());
    }
    Outcome { correct, attempted, failed, metrics }
}

/// The largest gap between a traced span total and the program's own
/// time for the same phase, as a share of the program's job time.
/// `pairs` holds `(traced, program)` seconds per phase.
fn phase_drift(pairs: &[(f64, f64)], program_total: f64) -> f64 {
    let worst = pairs.iter().map(|(traced, program)| (traced - program).abs()).fold(0.0, f64::max);
    let drift = worst / program_total.max(f64::MIN_POSITIVE);
    if drift > DRIFT_WARN {
        eprintln!(
            "traced phases {pairs:.3?} (traced, program) stray {drift:.2} of the program's \
             {program_total:.3} s job from its own phase report"
        );
    }
    drift
}

/// The traced walk and word2vec phases.
struct TracedEmbed {
    emb: EmbeddingMatrix,
    layers: Layers,
    /// Walk-length histogram of the corpus, as the program reports it in
    /// `TaskReport::walk_stats`.
    histogram: Vec<u64>,
    fused: bool,
}

impl TracedEmbed {
    /// Checks the composition against the program's report of the same
    /// phases: the same path (fused or not) and the same walk-length
    /// histogram, which per-walk RNG streams make independent of thread
    /// timing. Returns the phase pairs for [`phase_drift`]: `(traced,
    /// program)` seconds for sampler preparation, the overlapped span,
    /// the walker's active time and both stall counters when fused; for
    /// walks and word2vec when not.
    fn compare(
        &self,
        t: &Tracer,
        root: usize,
        report: &TaskReport,
    ) -> (Vec<(f64, f64)>, Result<(), String>) {
        let times = &report.phase_times;
        let span = |name| t.descendant_seconds(root, name);
        let layer = |name| self.layers.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1);
        let pairs = match &times.fused {
            Some(f) => vec![
                (span("twalk.prepare"), times.rwalk.as_secs_f64()),
                (span("core.fused"), f.wall.as_secs_f64()),
                (span("twalk.walk"), f.producer.as_secs_f64()),
                (layer("core.fused_producer_stall_s"), f.producer_stall.as_secs_f64()),
                (layer("core.fused_trainer_stall_s"), f.consumer_stall.as_secs_f64()),
            ],
            None => vec![
                (span("twalk.prepare") + span("twalk.walk"), times.rwalk.as_secs_f64()),
                (span("embed.train"), times.word2vec.as_secs_f64()),
            ],
        };
        let same = if self.fused != times.fused.is_some() {
            Err(format!(
                "the traced job {} but the program {}",
                if self.fused { "fused" } else { "did not fuse" },
                if times.fused.is_some() { "fused" } else { "did not" }
            ))
        } else if self.histogram != report.walk_stats.histogram {
            Err("the traced corpus's walk-length histogram differs from the program's".into())
        } else {
            Ok(())
        };
        (pairs, same)
    }
}

/// Walk and word2vec phases composed from layer calls, following
/// `Pipeline::embeddings`: the fused streaming path when the pipeline
/// would fuse, else walks then batch word2vec. The fused branch copies
/// the policy of `Pipeline::fused_embed` (crates/core/src/pipeline.rs):
/// its thread split, channel capacity and producer chunk size; a change
/// there shows as `trace.phase_drift`.
fn traced_embed(t: &Tracer, root: usize, hp: &Hyperparams, g: &TemporalGraph) -> TracedEmbed {
    let opts = hp.walk_options();
    let w2v = hp.w2v_config();
    let prepared = t.span("twalk.prepare", Some(root), || opts.prepare(g));
    let cfg = opts.config();
    let mut layers: Layers = Vec::new();
    let fused = Pipeline::new(hp.clone()).fuses_for(g);
    let (emb, tokens, hops, histogram) = if fused {
        // The fused path's thread split: half the budget walks, the
        // rest trains, each side at least one thread.
        let threads = hp.par_config().threads().max(1);
        let producer_threads = (threads / 2).max(1);
        let par = ParConfig::with_threads((threads - producer_threads).max(1));
        let producer_par = ParConfig::with_threads(producer_threads).chunk_size(1024);
        let total_walks = hp.walks_per_node * g.num_nodes();
        let trainer = t.span("embed.train", Some(root), || {
            StreamTrainer::new(g.num_nodes(), &w2v, total_walks, hp.walk_length)
        });
        let fused = t.open("core.fused", Some(root));
        let fid = fused.id;
        let mut producer_stall = 0.0;
        for epoch in 0..w2v.epochs {
            let queue = BoundedQueue::new((par.threads() * 2).max(4));
            let sink = ChannelSink::new(&queue);
            std::thread::scope(|s| {
                let guard = queue.register_producer();
                let walker = s.spawn(|| {
                    let _guard = guard;
                    t.span("twalk.walk", Some(fid), || {
                        twalk::generate_walks_prepared_to_sink(
                            g,
                            &cfg,
                            &prepared,
                            &producer_par,
                            &sink,
                        );
                    });
                });
                t.span("embed.train", Some(fid), || trainer.run_epoch(&queue, epoch, &par));
                walker.join().expect("walk producer panicked");
            });
            producer_stall += sink.stalled().as_secs_f64();
        }
        t.close(fused);
        layers.push(("core.fused_producer_stall_s", producer_stall));
        layers.push(("core.fused_trainer_stall_s", trainer.stalled().as_secs_f64()));
        let epochs = w2v.epochs as u64;
        let (tokens, sentences) = (trainer.tokens_seen(), trainer.sentences_seen());
        let histogram = trainer.length_histogram();
        let emb = t.span("embed.train", Some(root), || trainer.finish());
        (emb, tokens * epochs, (tokens - sentences) * epochs, histogram)
    } else {
        let par = hp.par_config();
        let walks = t.span("twalk.walk", Some(root), || {
            twalk::generate_walks_prepared(g, &cfg, &prepared, &par)
        });
        let histogram = twalk::stats::length_stats(&walks).histogram;
        let emb =
            t.span("embed.train", Some(root), || embed::train(&walks, g.num_nodes(), &w2v, &par));
        let tokens = walks.total_vertices() as u64;
        (emb, tokens * w2v.epochs as u64, tokens - walks.num_walks() as u64, histogram)
    };
    let walk_s = t.descendant_seconds(root, "twalk.walk");
    let train_s = t.descendant_seconds(root, "embed.train");
    layers.extend([
        ("twalk.prepare_s", t.descendant_seconds(root, "twalk.prepare")),
        ("twalk.walk_s", walk_s),
        ("twalk.hops", hops as f64),
        ("twalk.ns_per_hop", walk_s * 1e9 / hops.max(1) as f64),
        ("embed.train_s", train_s),
        ("embed.tokens", tokens as f64),
        ("embed.ns_per_token", train_s * 1e9 / tokens.max(1) as f64),
    ]);
    TracedEmbed { emb, layers, histogram, fused }
}

/// `lp_sparse`: `Pipeline::train_link_model` on a sparse temporal
/// preferential-attachment graph; quality is the benchmark's own AUC of
/// the returned MLP over later-time edges held out of the input.
pub struct LinkPrediction {
    input: WelInput,
    held_out: Vec<(NodeId, NodeId)>,
    non_edges: Vec<(NodeId, NodeId)>,
}

impl LinkPrediction {
    pub const NODES: usize = 6_000;
    /// Latest edges (held out of classifier training) and as many
    /// non-edges scored.
    pub const HELD_OUT: usize = 2_000;

    pub fn new(seed: u64) -> Self {
        let all = inputs::preferential_attachment(Self::NODES, 3, seed);
        let existing = inputs::pair_set(&all);
        let held_out = inputs::latest_pairs(&all, Self::HELD_OUT);
        let mut rng = inputs::rng(seed, 1);
        let non_edges = inputs::non_edges(Self::NODES, &existing, Self::HELD_OUT, &mut rng, |r| {
            rand::Rng::gen_range(r, 0..Self::NODES as NodeId)
        });
        let input = WelInput::write("lp_sparse", Self::NODES, &all);
        Self { input, held_out, non_edges }
    }
}

impl Workload for LinkPrediction {
    type Out = (EmbeddingMatrix, Mlp);
    type Reference = LinkModel;

    fn input(&self) -> &WelInput {
        &self.input
    }

    fn run(&self, g: &TemporalGraph) -> Result<Self::Out, String> {
        let model = Pipeline::new(hp()).train_link_model(g).map_err(|e| e.to_string())?;
        Ok((model.emb, model.mlp))
    }

    fn reference(&self, g: &TemporalGraph) -> LinkModel {
        Pipeline::new(hp()).train_link_model(g).expect("the reference link model trains")
    }

    /// `Pipeline::train_link_model`'s phases (`link_pipeline` in
    /// crates/core/src/pipeline.rs, whose split seed and layer widths
    /// this copies): walks and word2vec, the temporal split and
    /// features, FNN training and test scoring.
    fn run_traced(
        &self,
        t: &Tracer,
        root: usize,
        g: &TemporalGraph,
        reference: &LinkModel,
    ) -> (Self::Out, Layers, Result<(), String>) {
        let hp = hp();
        let te = traced_embed(t, root, &hp, g);
        let split = t.span("dataprep.split", Some(root), || {
            temporal_edge_split(g, SplitRatios::default(), hp.seed ^ 0x5E1)
        });
        let data =
            t.span("dataprep.features", Some(root), || link_prediction_data(&split, &te.emb));
        let mut dims = vec![2 * hp.dim];
        dims.extend(std::iter::repeat_n(hp.hidden, 1 + hp.extra_hidden_layers));
        dims.push(1);
        let mut mlp = Mlp::new(&dims, OutputHead::Binary, hp.seed).with_residual(hp.residual);
        let report = t.span("nn.fit", Some(root), || {
            Trainer::new(hp.train_options()).fit_binary(
                &mut mlp,
                &data.x_train,
                &data.y_train,
                &data.x_valid,
                &data.y_valid,
            )
        });
        let scores = t.span("nn.predict", Some(root), || mlp.predict_proba(&data.x_test));
        // The pipeline scores its own test split too; keep that work.
        std::hint::black_box(nn::metrics::roc_auc(&scores, &data.y_test));
        let epochs = report.epochs.len();
        // Multiply-adds per row over the layer widths: 2 FLOPs each
        // forward, twice that backward (input and weight gradients);
        // validation rows run forward once per epoch.
        let macs: usize = dims.windows(2).map(|w| w[0] * w[1]).sum();
        let rows = data.x_train.rows() * epochs;
        let flops = (6 * macs * rows + 2 * macs * data.x_valid.rows() * epochs) as f64;
        let span = |name| t.descendant_seconds(root, name);
        let fit_s = span("nn.fit");

        let times = &reference.report.phase_times;
        let (mut pairs, same) = te.compare(t, root, &reference.report);
        pairs.extend([
            (span("dataprep.split") + span("dataprep.features"), times.data_prep.as_secs_f64()),
            (fit_s, times.train_total.as_secs_f64()),
            (span("nn.predict"), times.test.as_secs_f64()),
        ]);
        let same = same.and_then(|()| {
            let program = reference.mlp.layer_dims();
            if mlp.layer_dims() == program {
                Ok(())
            } else {
                Err(format!("traced MLP widths {dims:?}, the program's {program:?}"))
            }
        });
        let mut layers = te.layers;
        layers.extend([
            ("dataprep.split_s", span("dataprep.split")),
            ("dataprep.features_s", span("dataprep.features")),
            ("nn.fit_s", fit_s),
            ("nn.rows", rows as f64),
            ("nn.fit_gflops", flops / fit_s / 1e9),
            ("nn.predict_s", span("nn.predict")),
            ("trace.phase_drift", phase_drift(&pairs, times.total().as_secs_f64())),
        ]);
        ((te.emb, mlp), layers, same)
    }

    fn check(&self, (emb, mlp): &Self::Out) -> Result<f64, String> {
        let hp = hp();
        checks::check_embedding(emb, Self::NODES, hp.dim)?;
        let dims = mlp.layer_dims();
        if dims != [2 * hp.dim, hp.hidden, 1] {
            return Err(format!("link MLP has layer widths {dims:?}"));
        }
        let sample: Vec<_> =
            self.held_out.iter().chain(&self.non_edges).step_by(20).copied().collect();
        checks::check_inference(emb, mlp, &sample)?;
        let auc = checks::link_auc(emb, mlp, &self.held_out, &self.non_edges);
        if auc < 0.75 {
            return Err(format!("held-out link AUC {auc:.4} is below 0.75"));
        }
        Ok(auc)
    }
}

/// `embed_dense`: `Pipeline::embeddings` on a dense temporal SBM large
/// enough for `FusedMode::Auto` to fuse; quality is the separation of
/// the planted communities in the returned embedding.
pub struct DenseEmbedding {
    input: WelInput,
    labels: Vec<u16>,
    seed: u64,
}

impl DenseEmbedding {
    /// Just above the fused threshold: `K · |V| · N ≥ 2,000,000`.
    pub const NODES: usize = 34_000;
    pub const CLASSES: u16 = 8;
    /// Directed edges per vertex as generated (mean degree twice this).
    pub const EDGES_PER_NODE: usize = 12;

    pub fn new(seed: u64) -> Self {
        let gen = tgraph::gen::temporal_sbm(
            Self::NODES,
            Self::CLASSES,
            Self::NODES * Self::EDGES_PER_NODE,
            0.9,
            seed,
        );
        let input = WelInput::write("embed_dense", Self::NODES, &inputs::edges_of(gen.builder));
        Self { input, labels: gen.labels, seed }
    }
}

impl Workload for DenseEmbedding {
    type Out = EmbeddingMatrix;
    type Reference = TaskReport;

    fn input(&self) -> &WelInput {
        &self.input
    }

    fn run(&self, g: &TemporalGraph) -> Result<Self::Out, String> {
        Ok(Pipeline::new(hp()).embeddings(g))
    }

    /// `Pipeline::embeddings` reports no phases; node classification on
    /// the planted labels runs the same phases 1–2 first and does.
    fn reference(&self, g: &TemporalGraph) -> TaskReport {
        Pipeline::new(hp())
            .run_node_classification(g, &self.labels)
            .expect("the reference node classification runs")
    }

    fn run_traced(
        &self,
        t: &Tracer,
        root: usize,
        g: &TemporalGraph,
        reference: &TaskReport,
    ) -> (Self::Out, Layers, Result<(), String>) {
        let te = traced_embed(t, root, &hp(), g);
        let (pairs, same) = te.compare(t, root, reference);
        let times = &reference.phase_times;
        let total = (times.rwalk + times.word2vec).as_secs_f64();
        let mut layers = te.layers;
        layers.push(("trace.phase_drift", phase_drift(&pairs, total)));
        (te.emb, layers, same)
    }

    fn check(&self, emb: &Self::Out) -> Result<f64, String> {
        checks::check_embedding(emb, Self::NODES, hp().dim)?;
        let auc = checks::community_auc(emb, &self.labels, 20_000, self.seed);
        if auc < 0.6 {
            return Err(format!("community-separation AUC {auc:.4} is below 0.6"));
        }
        Ok(auc)
    }
}

/// `walks_dense`: `Pipeline::walks` on a dense, degree-skewed
/// preferential-attachment graph; every walk is validated against the
/// input edge list and quality is the share of valid walks.
pub struct DenseWalks {
    input: WelInput,
    validator: WalkValidator,
}

impl DenseWalks {
    pub const NODES: usize = 40_000;
    pub const EDGES_PER_NODE: usize = 32;

    pub fn new(seed: u64) -> Self {
        let edges = inputs::preferential_attachment(Self::NODES, Self::EDGES_PER_NODE, seed);
        let input = WelInput::write("walks_dense", Self::NODES, &edges);
        let hp = hp();
        let validator = WalkValidator::new(Self::NODES, &edges, hp.walks_per_node, hp.walk_length);
        Self { input, validator }
    }
}

impl Workload for DenseWalks {
    type Out = WalkSet;
    type Reference = WalkSet;

    fn input(&self) -> &WelInput {
        &self.input
    }

    fn run(&self, g: &TemporalGraph) -> Result<Self::Out, String> {
        Ok(Pipeline::new(hp()).walks(g))
    }

    fn reference(&self, g: &TemporalGraph) -> WalkSet {
        Pipeline::new(hp()).walks(g)
    }

    /// `Pipeline::walks`: sampler preparation, then the bulk engine. The
    /// program reports no phase times here; per-walk RNG streams make
    /// the corpus itself the cross-check.
    fn run_traced(
        &self,
        t: &Tracer,
        root: usize,
        g: &TemporalGraph,
        reference: &WalkSet,
    ) -> (Self::Out, Layers, Result<(), String>) {
        let opts = hp().walk_options();
        let prepared = t.span("twalk.prepare", Some(root), || opts.prepare(g));
        let walks = t.span("twalk.walk", Some(root), || {
            twalk::generate_walks_prepared(g, &opts.config(), &prepared, &hp().par_config())
        });
        let walk_s = t.descendant_seconds(root, "twalk.walk");
        let hops = (walks.total_vertices() - walks.num_walks()) as f64;
        let layers = vec![
            ("twalk.prepare_s", t.descendant_seconds(root, "twalk.prepare")),
            ("twalk.walk_s", walk_s),
            ("twalk.hops", hops),
            ("twalk.ns_per_hop", walk_s * 1e9 / hops.max(1.0)),
        ];
        let same = if walks == *reference {
            Ok(())
        } else {
            Err("the traced corpus differs from `Pipeline::walks`".into())
        };
        (walks, layers, same)
    }

    fn check(&self, walks: &Self::Out) -> Result<f64, String> {
        let (valid, error) = self.validator.check_set(walks);
        match error {
            None => Ok(valid as f64 / walks.num_walks() as f64),
            Some(e) => Err(e),
        }
    }
}

pub fn lp_sparse(seed: u64, seconds: f64, trace: bool) -> Outcome {
    drive(&LinkPrediction::new(seed), seconds, trace)
}

pub fn embed_dense(seed: u64, seconds: f64, trace: bool) -> Outcome {
    drive(&DenseEmbedding::new(seed), seconds, trace)
}

pub fn walks_dense(seed: u64, seconds: f64, trace: bool) -> Outcome {
    drive(&DenseWalks::new(seed), seconds, trace)
}
