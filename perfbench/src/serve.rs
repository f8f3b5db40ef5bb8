//! `serve_reads`: warm-start serving over TCP on the reactor transport,
//! set up the way `rwalk serve --snapshot FILE --graph-store FILE` runs,
//! driven by a closed loop of one client thread over 128 connections.
//!
//! Each job opens the packed snapshot and graph store, starts the
//! service with its background refresher and the reactor, waits for a
//! first answer on one connection (set-up), opens the other connections,
//! then sends the fixed read stream (job) and tears everything down. Every response is checked; version-1 answers
//! are compared with the benchmark's own forward pass and brute-force
//! top-k over the packed snapshot. Traced jobs follow the read stream
//! with a burst of `ingest` requests and time the refresher absorbing
//! it; writes stay out of the timed stream because the refresher's
//! timing-dependent work made every timing unsteady (see the README).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use embed::EmbeddingMatrix;
use nn::Mlp;
use rwalk_core::{Hyperparams, IncrementalEmbedder, Pipeline};
use rwserve::reactor::conn::{Frame, LineFramer, MAX_LINE_BYTES};
use rwserve::reactor::sys::{Epoll, EpollEvent, EPOLLIN};
use rwserve::{BatchPolicy, EmbeddingStore, ReactorConfig, ReactorServer, Service};
use tgraph::NodeId;

use crate::checks::{self, Answer, Req, ServeOracle};
use crate::inputs::{self, TempFile, Zipf};
use crate::measure::{self, median, p99, Tracer};
use crate::{Metric, Outcome};

/// Vertices of the served graph.
const NODES: usize = 5_000;
/// Latest edges scored as positives (held out of classifier training)
/// and as many non-edges as negatives: 95% of the stream.
const HELD_OUT: usize = 1_800;
/// `topk` requests per round: 5% of the stream.
const TOPK_PER_ROUND: usize = 190;
/// Rounds over the labeled pairs per job: 3,790 requests each.
const ROUNDS: usize = 2;
/// `ingest` requests in a traced job's write burst, one edge each.
const WRITES: usize = 200;
const TOPK_K: usize = 8;
/// Enough requests in flight to keep the service saturated. Below
/// saturation the loop waits on wake-ups and the batcher's linger, which
/// host steal stretched up to 2.5× from run to run (see the README).
const CONNECTIONS: usize = 128;
const ZIPF_THETA: f64 = 0.99;
/// Jobs every run completes, however short `--seconds` is.
const MIN_JOBS: usize = 3;
/// Set-ups measured without a job before the first job, so `setup_s`
/// is a median over more samples than there are jobs.
const EXTRA_SETUPS: usize = 8;
/// How long a set-up waits for the server's first answer.
const FIRST_ANSWER_TIMEOUT: Duration = Duration::from_secs(10);
/// How long one closed-loop stream may take before its unanswered
/// requests count as failed (a job takes well under a second).
const STREAM_DEADLINE: Duration = Duration::from_secs(30);

/// Generated inputs: the packed files the server starts from, the model
/// they hold (the check oracle), and the request stream.
struct Inputs {
    snapshot: TempFile,
    graph_store: TempFile,
    emb: EmbeddingMatrix,
    mlp: Mlp,
    stream: Vec<Req>,
    /// Per request: `Some(true)` for a held-out edge, `Some(false)` for a
    /// non-edge, `None` for other ops.
    labels: Vec<Option<bool>>,
    /// The traced write burst: `ingest` requests timestamped after the
    /// graph's last edge.
    writes: Vec<Req>,
}

fn hp() -> Hyperparams {
    Hyperparams::paper_optimal()
}

impl Inputs {
    /// Generates the graph, trains and packs the model as `rwalk pack`
    /// does, and draws the request stream.
    fn new(seed: u64) -> Self {
        let all = inputs::preferential_attachment(NODES, 3, seed);
        let existing = inputs::pair_set(&all);
        let pos = inputs::latest_pairs(&all, HELD_OUT);
        let last_time = all.iter().map(|e| e.time).fold(0.0, f64::max);
        let g =
            tgraph::GraphBuilder::new().extend_edges(all).undirected(true).num_nodes(NODES).build();
        let hp = hp();
        let model = Pipeline::new(hp.clone()).train_link_model(&g).expect("train the served model");
        let snapshot = TempFile(inputs::work_file("serve_snapshot", "rws"));
        let graph_store = TempFile(inputs::work_file("serve_graph", "rws"));
        store::pack_snapshot_to_path(&snapshot.0, 1, &model.emb, &model.mlp)
            .expect("pack the snapshot");
        let sampler = twalk::SamplerBuilder::new(hp.sampler).method(hp.sampler_method).build(&g);
        store::pack_graph_to_path(&graph_store.0, &g, Some(&sampler))
            .expect("pack the graph store");

        let mut rng = inputs::rng(seed, 2);
        let zipf = Zipf::new(NODES, ZIPF_THETA);
        // Preferential attachment makes low ids the hubs: Zipf rank r is
        // vertex r, and the scored latest edges lead with their older,
        // higher-degree endpoint, so request keys follow the degree skew.
        let neg = inputs::non_edges(NODES, &existing, HELD_OUT, &mut rng, |r| {
            rand::Rng::gen_range(r, 0..NODES as NodeId)
        });
        let links: Vec<(NodeId, NodeId, bool)> = pos
            .iter()
            .map(|&(u, v)| (u, v, true))
            .chain(neg.iter().map(|&(u, v)| (u, v, false)))
            .collect();
        // Each round asks every labeled pair once, in its own order, with
        // the top-k queries mixed in at random positions.
        let (mut stream, mut labels) = (Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            let order = inputs::permutation(links.len(), &mut rng);
            let mut next_link = 0;
            for op in inputs::permutation(links.len() + TOPK_PER_ROUND, &mut rng) {
                if op < links.len() {
                    let (u, v, label) = links[order[next_link]];
                    next_link += 1;
                    stream.push(Req::Link(u, v));
                    labels.push(Some(label));
                } else {
                    stream.push(Req::TopK(zipf.draw(&mut rng) as NodeId, TOPK_K));
                    labels.push(None);
                }
            }
        }
        let writes = (1..=WRITES)
            .map(|i| {
                let u = zipf.draw(&mut rng) as NodeId;
                let v = loop {
                    let v = zipf.draw(&mut rng) as NodeId;
                    if v != u {
                        break v;
                    }
                };
                // The last write adds vertex NODES (see `run_job`).
                let v = if i == WRITES { NODES as NodeId } else { v };
                Req::Ingest(u, v, last_time + i as f64 * 1e-4)
            })
            .collect();
        Self { snapshot, graph_store, emb: model.emb, mlp: model.mlp, stream, labels, writes }
    }
}

/// A started server plus the client's connections.
struct Running {
    server: ReactorServer,
    service: Arc<Service>,
    conns: Vec<TcpStream>,
}

/// Runs `f`, timed, inside a span named `name` when `spans` is set.
fn phase<T>(
    spans: Option<(&Tracer, usize)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let (out, wall, _) = measure::timed(|| match spans {
        Some((t, parent)) => t.span(name, Some(parent), f),
        None => f(),
    });
    (out, wall)
}

/// The set-up being measured: open the packed files, start service,
/// refresher and reactor as `rwalk serve` does, connect, and wait for a
/// first answer. Returns the running stack, the store-open and start-up
/// times in seconds, and the check of the first answer (one operation:
/// an error, a timeout or a wrong answer fails it).
fn start(inp: &Inputs, spans: Option<(&Tracer, usize)>) -> (Running, f64, f64, Result<(), String>) {
    let ((snap, graph), open_s) = phase(spans, "store.open", || {
        let snap = store::open_snapshot(&inp.snapshot.0).expect("open the snapshot");
        let graph = store::open_graph(&inp.graph_store.0).expect("open the graph store").graph;
        (snap, graph)
    });
    let ((running, first), start_s) = phase(spans, "serve.start", || {
        let store = Arc::new(EmbeddingStore::with_version(snap.version, snap.emb, snap.model));
        // Warm start: the embedder gets no initial refresh, as in the CLI.
        let embedder = IncrementalEmbedder::new(hp(), &graph);
        let service = Service::new(store, par::ParConfig::with_threads(0), BatchPolicy::default())
            .with_refresher(embedder, Duration::from_millis(1_000));
        let service = Arc::new(service);
        let server =
            ReactorServer::start(Arc::clone(&service), "127.0.0.1:0", ReactorConfig::default())
                .expect("start the reactor");
        let mut conn = connect(server.local_addr());
        let first = first_answer(&mut conn);
        (Running { server, service, conns: vec![conn] }, first)
    });
    let oracle = ServeOracle { emb: &inp.emb, mlp: &inp.mlp };
    let first = first
        .and_then(|line| checks::check_response(&Req::Stats, line.trim(), 1, &oracle).map(|_| ()));
    (running, open_s, start_s, first)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect to the server");
    s.set_nodelay(true).expect("set TCP_NODELAY");
    s
}

/// Sends a `stats` request on `conn` and reads its answer line, waiting
/// at most [`FIRST_ANSWER_TIMEOUT`].
fn first_answer(conn: &mut TcpStream) -> Result<String, String> {
    let line = format!("{}\n", Req::Stats.line());
    conn.write_all(line.as_bytes()).map_err(|e| format!("send the first request: {e}"))?;
    conn.set_read_timeout(Some(FIRST_ANSWER_TIMEOUT)).expect("set a read timeout");
    let mut first = Vec::new();
    let mut byte = [0u8; 1];
    while byte[0] != b'\n' {
        if first.len() > MAX_LINE_BYTES {
            return Err("first answer is longer than a protocol line".into());
        }
        conn.read_exact(&mut byte).map_err(|e| format!("read the first answer: {e}"))?;
        first.push(byte[0]);
    }
    conn.set_read_timeout(None).expect("clear the read timeout");
    Ok(String::from_utf8_lossy(&first).into_owned())
}

/// What one job measured.
#[derive(Default)]
struct JobResult {
    wall_s: f64,
    cpu_s: f64,
    latencies_ms: Vec<f64>,
    link_latencies_us: Vec<f64>,
    pos: Vec<f64>,
    neg: Vec<f64>,
    failed: u64,
    shed: u64,
    mean_batch: f64,
    /// Refreshes the write burst caused (traced jobs only).
    refreshes: u64,
    /// Time the refresher took to absorb the write burst: from the first
    /// `ingest` answer until a published snapshot holds the last edge.
    refresh_s: f64,
}

/// One client connection: the requests it owns are `next`, `next +
/// CONNECTIONS`, … of the list being sent.
struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    next: usize,
    sent_at: Instant,
    version: u64,
    /// Set when the connection broke; it sends nothing more.
    broken: bool,
}

impl Conn {
    /// Requests this connection still owes an answer for, the one in
    /// flight included.
    fn unanswered(&self, total: usize) -> u64 {
        if self.broken || self.next >= total {
            0
        } else {
            ((total - self.next).div_ceil(CONNECTIONS)) as u64
        }
    }
}

/// Sends `reqs` as a closed loop, each connection keeping one request in
/// flight, checking every answer. `labels` marks the scored pairs; `acks`
/// collects the answer times of `ingest` requests. A connection that
/// breaks (closed, read or write error, overlong line) fails the
/// requests it still owes; so does every connection still waiting when
/// `deadline` (from the start) passes.
#[allow(clippy::too_many_arguments)]
fn send_closed_loop(
    conns: &mut [Conn],
    epoll: &Epoll,
    reqs: &[Req],
    labels: &[Option<bool>],
    oracle: &ServeOracle<'_>,
    r: &mut JobResult,
    acks: &mut Vec<Instant>,
    deadline: Duration,
) {
    let send = |c: &mut Conn| -> std::io::Result<()> {
        let mut line = reqs[c.next].line().into_bytes();
        line.push(b'\n');
        c.sent_at = Instant::now();
        write_all_nonblocking(&mut c.stream, &line)
    };
    // Marks a connection broken and fails what it still owes.
    let break_conn = |c: &mut Conn, r: &mut JobResult, why: String| {
        r.failed += c.unanswered(reqs.len());
        c.broken = true;
        eprintln!("a connection broke at request {}: {why}", c.next);
    };
    let mut inflight = 0;
    for (i, c) in conns.iter_mut().enumerate() {
        c.next = i;
        if !c.broken && c.next < reqs.len() {
            match send(c) {
                Ok(()) => inflight += 1,
                Err(e) => break_conn(c, r, format!("send: {e}")),
            }
        }
    }
    let deadline_at = Instant::now() + deadline;
    let mut events = [EpollEvent::default(); CONNECTIONS];
    let mut buf = [0u8; 16 * 1024];
    while inflight > 0 {
        if Instant::now() >= deadline_at {
            for c in conns.iter_mut().filter(|c| c.unanswered(reqs.len()) > 0) {
                break_conn(c, r, format!("no answer within {deadline:?}"));
            }
            return;
        }
        let n = epoll.wait(&mut events, 1_000).expect("epoll wait");
        for ev in &events[..n] {
            let c = &mut conns[{ ev.data } as usize];
            while !c.broken {
                let got = match c.stream.read(&mut buf) {
                    Ok(0) => Err("closed by the server".to_string()),
                    Ok(got) => Ok(got),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => Err(format!("read: {e}")),
                };
                let frames = got.and_then(|got| {
                    c.framer.push(&buf[..got]).map_err(|e| format!("framing: {e:?}"))
                });
                let frames = match frames {
                    Ok(frames) => frames,
                    Err(why) => {
                        inflight -= 1;
                        break_conn(c, r, why);
                        break;
                    }
                };
                for frame in frames {
                    let Frame::Line(line) = frame else {
                        inflight -= 1;
                        break_conn(c, r, "overlong response line".into());
                        break;
                    };
                    let latency = c.sent_at.elapsed();
                    let i = c.next;
                    r.latencies_ms.push(latency.as_secs_f64() * 1e3);
                    if line.contains("\"error\":\"overloaded\"") {
                        r.shed += 1;
                    }
                    match checks::check_response(&reqs[i], line.trim(), c.version, oracle) {
                        Ok((answer, version)) => {
                            c.version = version;
                            match answer {
                                Answer::Score(score) => {
                                    r.link_latencies_us.push(latency.as_secs_f64() * 1e6);
                                    match labels.get(i).copied().flatten() {
                                        Some(true) => r.pos.push(score),
                                        Some(false) => r.neg.push(score),
                                        None => {}
                                    }
                                }
                                Answer::Queued => acks.push(Instant::now()),
                                Answer::Neighbors(_) | Answer::Stats => {}
                            }
                        }
                        Err(e) => {
                            r.failed += 1;
                            eprintln!("request {i} failed its check: {e}");
                        }
                    }
                    c.next += CONNECTIONS;
                    inflight -= 1;
                    if c.next < reqs.len() {
                        if let Err(e) = send(c) {
                            break_conn(c, r, format!("send: {e}"));
                            break;
                        }
                        inflight += 1;
                    }
                }
            }
        }
    }
}

/// Makes the connections non-blocking and registers them, in order, with
/// a new epoll instance for [`send_closed_loop`].
fn client(streams: Vec<TcpStream>) -> (Vec<Conn>, Epoll) {
    let epoll = Epoll::new().expect("create the client epoll");
    for (c, s) in streams.iter().enumerate() {
        s.set_nonblocking(true).expect("make the connection non-blocking");
        epoll.add(s.as_raw_fd(), EPOLLIN, c as u64).expect("register the connection");
    }
    let conns = streams
        .into_iter()
        .map(|stream| Conn {
            stream,
            framer: LineFramer::new(MAX_LINE_BYTES),
            next: 0,
            sent_at: Instant::now(),
            version: 1,
            broken: false,
        })
        .collect();
    (conns, epoll)
}

/// Runs one job on a started stack: the timed read stream, then, when
/// `writes` is set, the write burst until the refresher has published it. Tears
/// the stack down at the end.
fn run_job(inp: &Inputs, running: Running, writes: bool) -> JobResult {
    let Running { server, service, mut conns } = running;
    // The client's other connections open outside both timings.
    conns.extend((1..CONNECTIONS).map(|_| connect(server.local_addr())));
    let oracle = ServeOracle { emb: &inp.emb, mlp: &inp.mlp };
    let (mut conns, epoll) = client(conns);
    let mut r =
        JobResult { latencies_ms: Vec::with_capacity(inp.stream.len()), ..JobResult::default() };
    let mut acks = Vec::new();
    let cpu0 = measure::cpu_seconds();
    let t0 = Instant::now();
    send_closed_loop(
        &mut conns,
        &epoll,
        &inp.stream,
        &inp.labels,
        &oracle,
        &mut r,
        &mut acks,
        STREAM_DEADLINE,
    );
    r.wall_s = t0.elapsed().as_secs_f64();
    r.cpu_s = measure::cpu_seconds() - cpu0;
    r.mean_batch = service.stats().mean_batch;

    if writes {
        // The burst's last edge names a new vertex, so the published
        // table grows exactly when the refresh holding it is out.
        let before = service.stats().refreshes;
        let mut burst = JobResult::default();
        send_closed_loop(
            &mut conns,
            &epoll,
            &inp.writes,
            &[],
            &oracle,
            &mut burst,
            &mut acks,
            STREAM_DEADLINE,
        );
        r.failed += burst.failed;
        let deadline = Instant::now() + Duration::from_secs(60);
        while service.store().load().emb.num_nodes() <= NODES && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(500));
        }
        if service.store().load().emb.num_nodes() > NODES {
            r.refresh_s = acks.first().map_or(0.0, |first| first.elapsed().as_secs_f64());
        } else {
            r.failed += 1;
            eprintln!("the write burst was not published within 60 s");
        }
        r.refreshes = service.stats().refreshes - before;
    }
    drop(conns);
    stop(Running { server, service, conns: Vec::new() });
    r
}

/// Tears a started stack down: server first, then the last service
/// handle, whose drop stops and joins the refresher.
fn stop(running: Running) {
    let Running { server, service, conns } = running;
    drop(conns);
    server.shutdown();
    drop(service);
}

fn write_all_nonblocking(stream: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                ) =>
            {
                std::thread::yield_now();
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Replays the request stream in-process through a fresh `Service` over
/// the packed snapshot (no transport, no refresher) and times parsing,
/// each op, and the batched scorer per pair, in microseconds.
fn replay(inp: &Inputs, t: &Tracer) -> Vec<Metric> {
    let snap = store::open_snapshot(&inp.snapshot.0).expect("open the snapshot");
    let store = Arc::new(EmbeddingStore::with_version(snap.version, snap.emb, snap.model));
    let service =
        Service::new(Arc::clone(&store), par::ParConfig::with_threads(0), BatchPolicy::default());
    let root = t.open("serve.replay", None);
    let (mut parse, mut link, mut topk) = (Vec::new(), Vec::new(), Vec::new());
    let mut pairs = Vec::new();
    for req in &inp.stream {
        let line = req.line();
        let t0 = Instant::now();
        let parsed = rwserve::protocol::parse_request(&line).expect("the stream parses");
        parse.push(t0.elapsed().as_secs_f64() * 1e6);
        let times = match req {
            Req::Link(u, v) => {
                pairs.push((*u, *v));
                &mut link
            }
            Req::TopK(..) => &mut topk,
            Req::Ingest(..) | Req::Stats => continue,
        };
        let t0 = Instant::now();
        std::hint::black_box(service.respond(parsed));
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let snap = store.load();
    let batch = BatchPolicy::default().max_batch;
    let per_pair: Vec<f64> = pairs
        .chunks_exact(batch)
        .map(|chunk| {
            let t0 = Instant::now();
            std::hint::black_box(rwserve::engine::score_pairs(&snap, chunk));
            t0.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    t.close(root);
    vec![
        ("serve.parse_us", median(&parse)),
        ("serve.link_score_us", median(&link)),
        ("serve.topk_us", median(&topk)),
        ("serve.score_pairs_us_per_pair", median(&per_pair)),
    ]
}

/// Whether the packed snapshot reads back as the model it was packed
/// from: version 1, every vertex, the trained dimension and values.
fn snapshot_round_trips(inp: &Inputs) -> bool {
    let snap = store::open_snapshot(&inp.snapshot.0).expect("open the snapshot");
    let ok = snap.version == 1
        && snap.emb.num_nodes() == NODES
        && snap.emb.dim() == inp.emb.dim()
        && snap.emb.as_slice() == inp.emb.as_slice();
    if !ok {
        eprintln!("the packed snapshot does not read back as the trained model");
    }
    ok
}

pub fn serve_reads(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let inp = Inputs::new(seed);
    let correct = snapshot_round_trips(&inp);
    let tracer = Tracer::default();
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut plain: Vec<JobResult> = Vec::new();
    let mut traced: Vec<JobResult> = Vec::new();
    let (mut open_ms, mut start_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Every set-up's first answer is one operation.
    let first_answer = |checked: Result<(), String>, attempted: &mut u64, failed: &mut u64| {
        *attempted += 1;
        if let Err(e) = checked {
            *failed += 1;
            eprintln!("the server's first answer failed its check: {e}");
        }
    };
    for _ in 0..EXTRA_SETUPS {
        let t0 = Instant::now();
        let (running, _, _, first) = start(&inp, None);
        setup_s.push(t0.elapsed().as_secs_f64());
        first_answer(first, &mut attempted, &mut failed);
        stop(running);
    }
    loop {
        // Traced runs alternate plain jobs with traced ones.
        for traced_job in [false, true].into_iter().take(1 + usize::from(trace)) {
            let root = traced_job.then(|| tracer.open("serve.job", None));
            let t0 = Instant::now();
            let (running, open_s, start_s, first) =
                start(&inp, root.as_ref().map(|s| (&tracer, s.id)));
            first_answer(first, &mut attempted, &mut failed);
            if traced_job {
                open_ms.push(open_s * 1e3);
                start_ms.push(start_s * 1e3);
            } else {
                setup_s.push(t0.elapsed().as_secs_f64());
            }
            let r = run_job(&inp, running, traced_job);
            eprintln!(
                "job{}: {:.3} s wall, {:.3} s cpu, {} refreshes, p99 {:.3} ms",
                if traced_job { " (traced)" } else { "" },
                r.wall_s,
                r.cpu_s,
                r.refreshes,
                p99(&r.latencies_ms)
            );
            // A traced job's write burst is its requests plus the check
            // that the refresher published them.
            attempted +=
                (inp.stream.len() + if traced_job { inp.writes.len() + 1 } else { 0 }) as u64;
            failed += r.failed;
            if let Some(root) = root {
                tracer.close(root);
                traced.push(r);
            } else {
                plain.push(r);
            }
        }
        if plain.len() >= MIN_JOBS && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let med = |jobs: &[JobResult], f: &dyn Fn(&JobResult) -> f64| -> f64 {
        median(&jobs.iter().map(f).collect::<Vec<_>>())
    };
    let metrics = if trace {
        let client_p50 = med(&traced, &|r| median(&r.link_latencies_us));
        let mut m = vec![
            ("store.open_ms", median(&open_ms)),
            ("serve.start_ms", median(&start_ms)),
            ("serve.mean_batch", med(&traced, &|r| r.mean_batch)),
            ("serve.refreshes", med(&traced, &|r| r.refreshes as f64)),
            ("serve.refresh_s", med(&traced, &|r| r.refresh_s)),
            ("serve.shed", med(&traced, &|r| r.shed as f64)),
            ("trace.overhead_s", med(&traced, &|r| r.wall_s) - med(&plain, &|r| r.wall_s)),
        ];
        let replayed = replay(&inp, &tracer);
        let inproc_p50 =
            replayed.iter().find(|x| x.0 == "serve.link_score_us").map_or(0.0, |x| x.1);
        m.extend(replayed);
        m.push(("serve.gap_us", client_p50 - inproc_p50));
        m.push(("core.parallelism", med(&plain, &|r| r.cpu_s / r.wall_s)));
        let path = inputs::work_file("trace-serve", "json");
        std::fs::write(&path, tracer.to_json()).expect("write the span trace");
        eprintln!("spans written to {}", path.display());
        m
    } else {
        vec![
            ("setup_s", median(&setup_s)),
            ("job_s", med(&plain, &|r| r.wall_s)),
            ("cpu_s", med(&plain, &|r| r.cpu_s)),
            ("peak_rss_mib", measure::peak_rss_mib()),
            ("quality", med(&plain, &|r| checks::rank_auc(&r.pos, &r.neg))),
            ("p50_ms", med(&plain, &|r| median(&r.latencies_ms))),
            ("p99_ms", med(&plain, &|r| p99(&r.latencies_ms))),
        ]
    };
    Outcome { correct, attempted, failed, metrics }
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    use nn::OutputHead;

    use super::*;

    /// How the test server treats each request line.
    #[derive(Clone, Copy)]
    enum Peer {
        Answer,
        Close,
        Silent,
    }

    /// Sends `reqs` over [`CONNECTIONS`] connections to a server that
    /// behaves as `peer`, and returns what the client loop counted.
    fn closed_loop_against(peer: Peer, reqs: &[Req], deadline: Duration) -> JobResult {
        let data: Vec<f32> = (0..40).map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.1).collect();
        let emb = EmbeddingMatrix::from_vec(10, 4, data);
        let mlp = Mlp::new(&[8, 6, 1], OutputHead::Binary, 4);
        let store = Arc::new(EmbeddingStore::new(emb.clone(), mlp.clone()));
        let svc =
            Arc::new(Service::new(store, par::ParConfig::with_threads(1), BatchPolicy::default()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let streams: Vec<TcpStream> =
            (0..CONNECTIONS).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let servers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let (sock, _) = listener.accept().unwrap();
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    let mut out = sock.try_clone().unwrap();
                    for line in BufReader::new(sock).lines() {
                        let Ok(line) = line else { return };
                        match peer {
                            Peer::Answer => {
                                let answer = format!("{}\n", svc.handle_line(&line));
                                if out.write_all(answer.as_bytes()).is_err() {
                                    return;
                                }
                            }
                            Peer::Close => return,
                            Peer::Silent => {}
                        }
                    }
                })
            })
            .collect();
        let (mut conns, epoll) = client(streams);
        let oracle = ServeOracle { emb: &emb, mlp: &mlp };
        let mut r = JobResult::default();
        send_closed_loop(&mut conns, &epoll, reqs, &[], &oracle, &mut r, &mut Vec::new(), deadline);
        drop(conns);
        for server in servers {
            server.join().unwrap();
        }
        r
    }

    fn requests() -> Vec<Req> {
        (0..40).map(|i| Req::Link(i % 10, (i + 1) % 10)).collect()
    }

    #[test]
    fn every_answered_request_is_checked() {
        let r = closed_loop_against(Peer::Answer, &requests(), STREAM_DEADLINE);
        assert_eq!(r.failed, 0);
        assert_eq!(r.latencies_ms.len(), 40);
    }

    #[test]
    fn a_closed_connection_fails_what_it_owed_and_the_loop_ends() {
        let r = closed_loop_against(Peer::Close, &requests(), STREAM_DEADLINE);
        assert_eq!(r.failed, 40);
        assert!(r.latencies_ms.is_empty());
    }

    #[test]
    fn a_missing_or_overlong_first_answer_is_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            drop(listener.accept().unwrap()); // closes without answering
            let (mut sock, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(sock.try_clone().unwrap()).read_line(&mut request).unwrap();
            sock.write_all(&vec![b'x'; MAX_LINE_BYTES + 2]).unwrap();
        });
        let closed = first_answer(&mut TcpStream::connect(addr).unwrap());
        assert!(closed.unwrap_err().contains("read the first answer"));
        let overlong = first_answer(&mut TcpStream::connect(addr).unwrap());
        assert!(overlong.unwrap_err().contains("longer than a protocol line"));
        server.join().unwrap();
    }

    #[test]
    fn a_silent_server_fails_the_unanswered_requests_at_the_deadline() {
        let t0 = Instant::now();
        let r = closed_loop_against(Peer::Silent, &requests(), Duration::from_millis(200));
        assert_eq!(r.failed, 40);
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}
