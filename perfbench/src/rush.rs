//! `rush_hour_query`: 10⁵ objects placed by the scale workload's Zipf hotspot
//! model, loaded in process and served over TCP with no journal, queried by
//! one closed-loop connection at one fixed instant. The spatial index,
//! candidate deduplication and large responses do the work; the journal and
//! ingest do none.

use crate::inputs::{hotspot_cell, hotspot_fleet, SplitMix64, CELL_M, HOTSPOT_CELLS, WORLD_HALF_M};
use crate::metrics::Outcome;
use crate::spans::{SpanBuf, ROOT};
use crate::stats::mean;
use crate::{finish_trace, procfs, setup_seed, Args, Rounds, ROUNDS, SETUP_REPS};
use mbdr_core::{LinearPredictor, PositionRecord, Predictor};
use mbdr_geo::{Aabb, Point};
use mbdr_locserver::{LocationService, PositionReport, QueryScratch, ServiceConfig};
use mbdr_net::{ClientConfig, NetClient, NetError, NetServer, ServerConfig, ServerStatsSnapshot};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fleet size.
const OBJECTS: usize = 100_000;
/// Length of the seeded query list the connection cycles through.
const QUERIES: usize = 2000;
/// The one instant every query asks about, seconds after placement.
const QUERY_T: f64 = 5.0;
/// Span capacity of the query connection in the traced run.
const SPANS: usize = 1 << 18;

/// One query of the list.
#[derive(Debug, Clone, Copy)]
pub enum Query {
    Rect(Aabb),
    Nearest(Point, u16),
}

/// The query mix, in a fixed repeating pattern of five: two small rectangles
/// anywhere (index pruning), one rectangle over a hotspot cell (thousands of
/// results, so response encoding and bytes dominate), and two nearest queries
/// with k cycling through 1..=8, one from inside the hotspot block. The
/// pattern fixes the mix, the hotspot ranks and how far each hotspot rectangle
/// is inset from its cell; the seed places the other queries. Drawing ranks
/// and insets from the seed moved the mean response size by several percent
/// from seed to seed.
pub fn query_list(seed: u64) -> Vec<Query> {
    let mut rng = SplitMix64(seed ^ 0x5155_4552_5953);
    let world = WORLD_HALF_M;
    (0..QUERIES)
        .map(|i| {
            let round = i / 5;
            let anywhere = Point::new(rng.range(-world, world), rng.range(-world, world));
            match i % 5 {
                0 | 1 => Query::Rect(Aabb::around(anywhere, rng.range(25.0, 150.0))),
                2 => {
                    let (cx, cy) = hotspot_cell(round % HOTSPOT_CELLS);
                    let inset = 7.5 * ((round / HOTSPOT_CELLS) % 8) as f64;
                    let min = Point::new(cx * CELL_M + inset, cy * CELL_M + inset);
                    let max = Point::new((cx + 1.0) * CELL_M - inset, (cy + 1.0) * CELL_M - inset);
                    Query::Rect(Aabb::new(min, max))
                }
                3 => {
                    let inside =
                        Point::new(rng.range(0.0, 4.0 * CELL_M), rng.range(0.0, 2.0 * CELL_M));
                    Query::Nearest(inside, 1 + (round % 8) as u16)
                }
                _ => Query::Nearest(anywhere, 1 + ((round + 4) % 8) as u16),
            }
        })
        .collect()
}

/// Sends one query over the wire.
pub fn ask(
    client: &mut NetClient,
    q: &Query,
    t: f64,
    out: &mut Vec<PositionRecord>,
) -> Result<(), NetError> {
    match q {
        Query::Rect(area) => client.objects_in_rect_into(area, t, out),
        Query::Nearest(from, k) => client.nearest_objects_into(from, t, *k, out),
    }
}

/// Answers one query in process.
pub fn answer(
    service: &LocationService,
    q: &Query,
    t: f64,
    scratch: &mut QueryScratch,
    out: &mut Vec<PositionReport>,
) {
    match q {
        Query::Rect(area) => service.objects_in_rect_into(area, t, scratch, out),
        Query::Nearest(from, k) => {
            service.nearest_objects_into(from, t, usize::from(*k), scratch, out)
        }
    }
}

/// Whether a wire answer is bit-identical to the in-process one.
pub fn same_answer(wire: &[PositionRecord], local: &[PositionReport]) -> bool {
    wire.len() == local.len()
        && wire.iter().zip(local).all(|(w, l)| {
            w.object == l.object.0
                && w.position.x.to_bits() == l.position.x.to_bits()
                && w.position.y.to_bits() == l.position.y.to_bits()
                && w.information_age.to_bits() == l.information_age.to_bits()
        })
}

/// Span name of a query over the wire / in process.
fn span_names(q: &Query) -> (&'static str, &'static str) {
    match q {
        Query::Rect(_) => ("net.rect", "locserver.rect"),
        Query::Nearest(..) => ("net.nearest", "locserver.nearest"),
    }
}

/// A blocking client that gives up on a wedged server instead of hanging.
pub fn connect(addr: SocketAddr) -> Result<NetClient, NetError> {
    let config = ClientConfig {
        connect_timeout: Some(Duration::from_secs(5)),
        read_timeout: Some(Duration::from_secs(30)),
        max_message_bytes: 0,
    };
    NetClient::connect_with(addr, config).map_err(NetError::from)
}

struct Served {
    service: Arc<LocationService>,
    server: NetServer,
}

fn setup(seed: u64, queries: &[Query]) -> Result<Served, String> {
    let fleet = hotspot_fleet(seed, OBJECTS);
    let service = Arc::new(LocationService::with_config(ServiceConfig::default()));
    // Every object is tracked with the linear predictor.
    let predictor: Arc<dyn Predictor> = Arc::new(LinearPredictor);
    for (id, _) in &fleet {
        service.register(*id, Arc::clone(&predictor));
    }
    for (id, update) in &fleet {
        if !service.apply_update(*id, update) {
            return Err(format!("placement update of object {} was rejected", id.0));
        }
    }
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut client = connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut records = Vec::new();
    for q in queries.iter().take(64) {
        ask(&mut client, q, QUERY_T, &mut records).map_err(|e| format!("warm-up query: {e}"))?;
    }
    Ok(Served { service, server })
}

/// What the closed loop measured.
struct LoopResult {
    queries: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    wall_s: f64,
    spans: SpanBuf,
}

/// One closed-loop connection, on this thread, cycling through `queries`
/// until `run_for` has passed. One connection: on a 2-core host two kept both
/// cores busy, and throughput and CPU per query then spread 12-14 % (IQR over
/// median) across runs, against 4-5 % with one.
fn closed_loop(addr: SocketAddr, queries: &[Query], run_for: Duration, traced: bool) -> LoopResult {
    let epoch = Instant::now();
    let deadline = epoch + run_for;
    let mut spans = if traced { SpanBuf::new(epoch, SPANS) } else { SpanBuf::disabled() };
    let mut latencies_ms = Vec::with_capacity(1 << 16);
    let (mut queries_done, mut failed) = (0u64, 0u64);
    match connect(addr) {
        Err(_) => (queries_done, failed) = (1, 1),
        Ok(mut client) => {
            let mut records = Vec::new();
            let mut i = 0;
            while Instant::now() < deadline && spans.has_room(2) {
                let q = &queries[i % queries.len()];
                let t0 = Instant::now();
                let root = spans.open("bench.query", ROOT, i as u64);
                let ok = spans.time(span_names(q).0, root, i as u64, || {
                    ask(&mut client, q, QUERY_T, &mut records)
                });
                spans.close(root);
                latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                queries_done += 1;
                if ok.is_err() {
                    failed += 1;
                    match connect(addr) {
                        Ok(c) => client = c,
                        Err(_) => break,
                    }
                }
                i += 1;
            }
        }
    }
    let wall_s = epoch.elapsed().as_secs_f64();
    LoopResult { queries: queries_done, failed, latencies_ms, wall_s, spans }
}

/// Sets the serving counters' per-request figures over one phase.
pub fn set_net_counters(
    out: &mut Outcome,
    before: &ServerStatsSnapshot,
    after: &ServerStatsSnapshot,
    requests: u64,
) {
    let wakeups = after.readiness_wakeups - before.readiness_wakeups;
    let spurious = after.spurious_wakeups - before.spurious_wakeups;
    out.set("net.readiness_wakeups_per_request", wakeups as f64 / requests.max(1) as f64);
    out.set("net.spurious_wakeup_ratio", spurious as f64 / wakeups.max(1) as f64);
    out.set(
        "net.backpressure_stalls",
        (after.backpressure_stalls - before.backpressure_stalls) as f64,
    );
    let dropped = after.connections_dropped - before.connections_dropped;
    let evicted = after.evicted_slow - before.evicted_slow;
    out.set("net.connections_dropped", dropped as f64);
    out.set("net.evicted_slow", evicted as f64);
    out.check(dropped == 0 && evicted == 0, || {
        format!("server dropped {dropped} and evicted {evicted} connections")
    });
}

/// Waits, for at most 5 s, until the server has finished with every
/// connection it accepted, so that its byte and request counters are final.
fn quiesce(server: &NetServer) -> ServerStatsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = server.stats();
        if s.connections_closed + s.connections_dropped >= s.connections_accepted
            || Instant::now() >= deadline
        {
            return s;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What a checked pass measured.
#[derive(Debug, Default)]
pub struct PassFigures {
    pub queries: u64,
    pub results: u64,
    /// Summed round-trip time over the wire / in-process call time, ns.
    pub wire_ns: u128,
    pub local_ns: u128,
    /// Bytes the server sent during the pass.
    pub response_bytes: u64,
    /// `QueryScratch::dedup_counters` over the pass.
    pub inspected: u64,
    pub unique: u64,
}

impl PassFigures {
    pub fn response_bytes_per_query(&self) -> f64 {
        self.response_bytes as f64 / self.queries.max(1) as f64
    }

    /// Round trip over the wire minus the in-process call, per query, µs.
    pub fn query_overhead_us(&self) -> f64 {
        (self.wire_ns as f64 - self.local_ns as f64) / self.queries.max(1) as f64 / 1e3
    }

    /// Sets the per-layer query metrics this pass measures.
    pub fn set_layer_metrics(&self, out: &mut Outcome) {
        let n = self.queries.max(1) as f64;
        out.set("net.response_bytes_per_query", self.response_bytes_per_query());
        out.set("net.query_overhead_us", self.query_overhead_us());
        out.set("locserver.results_per_query", self.results as f64 / n);
        out.set("locserver.candidates_per_result", self.unique as f64 / self.results.max(1) as f64);
        out.set("locserver.dedup_ratio", self.unique as f64 / self.inspected.max(1) as f64);
    }
}

/// One pass over `queries` at instant `t` on one connection, every wire
/// answer checked against the in-process answer of the same service. Also
/// prices the round trip against the in-process call and counts response
/// bytes. The server must have no other traffic during the pass.
pub fn checked_pass(
    service: &LocationService,
    server: &NetServer,
    queries: &[Query],
    t: f64,
    spans: &mut SpanBuf,
    out: &mut Outcome,
) -> PassFigures {
    let mut fig = PassFigures { queries: queries.len() as u64, ..PassFigures::default() };
    let before = quiesce(server);
    let mut client = match connect(server.local_addr()) {
        Ok(c) => c,
        Err(e) => {
            out.problem(format!("check connection: {e}"));
            return fig;
        }
    };
    let mut scratch = QueryScratch::default();
    let (mut records, mut reports) = (Vec::new(), Vec::new());
    let (mut mismatches, mut errors) = (0u64, 0u64);
    for (i, q) in queries.iter().enumerate() {
        let (net_name, local_name) = span_names(q);
        let t0 = Instant::now();
        let sent = spans.time(net_name, ROOT, i as u64, || ask(&mut client, q, t, &mut records));
        let t1 = Instant::now();
        spans
            .time(local_name, ROOT, i as u64, || answer(service, q, t, &mut scratch, &mut reports));
        fig.wire_ns += (t1 - t0).as_nanos();
        fig.local_ns += t1.elapsed().as_nanos();
        fig.results += reports.len() as u64;
        if sent.is_err() {
            errors += 1;
        } else if !same_answer(&records, &reports) {
            mismatches += 1;
        }
    }
    drop(client);
    let after = quiesce(server);
    out.ops(fig.queries, errors + mismatches);
    out.check(errors == 0 && mismatches == 0, || {
        format!("{errors} wire errors and {mismatches} wire answers differing from the in-process answer")
    });
    let answered = after.queries_answered - before.queries_answered;
    out.check(answered == fig.queries, || {
        format!("server answered {answered} of {} check queries", fig.queries)
    });
    fig.response_bytes = after.bytes_sent - before.bytes_sent;
    (fig.inspected, fig.unique) = scratch.dedup_counters();
    fig
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let queries = query_list(args.seed);
    let mut setup_times = Vec::new();
    let mut served = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = served.take() {
            let Served { server, .. } = old;
            server.shutdown();
        }
        let t0 = Instant::now();
        match setup(setup_seed(args.seed, rep), &queries) {
            Ok(s) => served = Some(s),
            Err(e) => {
                out.problem(format!("setup: {e}"));
                return out;
            }
        }
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let served = served.expect("set up at least once");
    let addr = served.server.local_addr();
    let mut check_spans = SpanBuf::disabled();

    if !args.trace {
        let mut rounds = Rounds::default();
        let (mut queries_done, mut wall) = (0u64, 0.0);
        let before = served.server.stats();
        for _ in 0..ROUNDS {
            let cpu0 = procfs::cpu_seconds().unwrap_or(0.0);
            let mut r = closed_loop(addr, &queries, args.run_for / ROUNDS as u32, false);
            let cpu_s = procfs::cpu_seconds().unwrap_or(0.0) - cpu0;
            out.ops(r.queries, r.failed);
            let per_op = cpu_s * 1e6 / r.queries.max(1) as f64;
            rounds.add(&mut out, r.queries as f64 / r.wall_s, per_op, &mut r.latencies_ms);
            queries_done += r.queries;
            wall += r.wall_s;
        }
        let after = served.server.stats();
        set_net_counters(&mut out, &before, &after, queries_done);
        out.set("setup_s", mean(&setup_times));
        rounds.set_metrics(&mut out);
        out.detail("queries_per_s", queries_done as f64 / wall);
        let fig = checked_pass(
            &served.service,
            &served.server,
            &queries,
            QUERY_T,
            &mut check_spans,
            &mut out,
        );
        out.set("wire_bytes_per_unit", fig.response_bytes_per_query());
        out.detail("response_bytes_per_query", fig.response_bytes_per_query());
        served.server.shutdown();
        return out;
    }

    // Traced run: the closed loop untraced and then traced (the throughput
    // difference is the tracing overhead), then the checked pass with spans
    // around both the wire and the in-process call of every query.
    let half = args.run_for.mul_f64(0.4);
    let plain = closed_loop(addr, &queries, half, false);
    let before = served.server.stats();
    let traced = closed_loop(addr, &queries, half, true);
    let after = served.server.stats();
    out.ops(plain.queries + traced.queries, plain.failed + traced.failed);
    set_net_counters(&mut out, &before, &after, traced.queries);
    let plain_rate = plain.queries as f64 / plain.wall_s;
    let traced_rate = traced.queries as f64 / traced.wall_s;
    out.set("trace.overhead_pct", (plain_rate / traced_rate - 1.0) * 100.0);
    out.detail("untraced_queries_per_s", plain_rate);
    out.detail("traced_queries_per_s", traced_rate);
    check_spans = SpanBuf::new(Instant::now(), 2 * QUERIES);
    let fig = checked_pass(
        &served.service,
        &served.server,
        &queries,
        QUERY_T,
        &mut check_spans,
        &mut out,
    );
    fig.set_layer_metrics(&mut out);
    out.set("locserver.max_cell_occupancy", served.service.index_stats().max_cell_occupancy as f64);
    let bufs = [&traced.spans, &check_spans];
    let summary = finish_trace(&mut out, &bufs, args);
    let local = |name: &str| summary.get(name).mean_ns();
    out.set("locserver.rect_ns", local("locserver.rect"));
    out.set("locserver.nearest_ns", local("locserver.nearest"));
    served.server.shutdown();
    out
}
