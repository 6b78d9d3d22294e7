//! `city_served`: a few hundred vehicles of the paper's city scenario running
//! map-based DR at `u_s` = 100 m, their update streams replayed cyclically
//! into a loopback durable server (journal with `JournalConfig::new`
//! defaults, snapshots on), one update per frame.
//!
//! - Phase (a), saturation: one producer connection sends frames without
//!   waiting, then flushes. Gives `ingest_ups`.
//! - Phase (b), open loop: frames at [`OFFERED_UPS`] on a fixed schedule with
//!   a flush barrier every [`FLUSH_EVERY`] frames, each update timed from its
//!   scheduled send instant to the `FlushDone` covering it, while one query
//!   connection runs a closed-loop rect / nearest / zone mix.
//! - Phase (c), restart: shut down, recover from the journal, and check that
//!   answers are bit-identical to those just before shutdown.
//!
//! The rounds of phase (b) run before those of phase (a), so that phase (b)'s
//! latencies are those of its offered load and not of the segment compaction
//! that the saturating phase leaves behind.
//!
//! Phase (b)'s queries ask about the producer's current virtual time.
//! Replaying a few hundred vehicles at thousands of updates per second moves
//! virtual time 100-1000 times faster than real time, so a vehicle must never
//! fall silent for long in virtual time: each one repeats its own trip (see
//! [`crate::inputs::Replay`]). A replay that restarted the whole fleet on one
//! common period left vehicles with short trips silent for minutes; queries
//! at the current time then refreshed their grown index boxes under the shard
//! write locks, and ingest stalled for up to seconds.

use crate::inputs::{city_fleet, CityFleet, Replay, SplitMix64};
use crate::metrics::Outcome;
use crate::rush::{ask, checked_pass, connect, Query};
use crate::spans::{SpanBuf, ROOT};
use crate::stats::{mean, median, p50_p99, percentile, Reservoir};
use crate::{finish_trace, procfs, setup_seed, Args, Rounds, ROUNDS, SETUP_REPS};
use mbdr_core::{Frame, FrameView, PositionRecord};
use mbdr_geo::{Aabb, Point};
use mbdr_journal::{Journal, JournalConfig};
use mbdr_locserver::durable::recover_into;
use mbdr_locserver::{LocationService, ServiceConfig};
use mbdr_net::{NetClient, NetServer, ServerConfig, ServerStatsSnapshot};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fleet size.
const VEHICLES: usize = 300;
/// Trip length per vehicle, metres.
const TRIP_M: f64 = 3_000.0;
/// Phase (b) offered load, updates per second: well below phase (a)'s
/// saturation rate on a 2-core machine. The journal's `fdatasync` runs under a
/// shard write lock, so a query that meets one waits for the disk: at 4,000
/// updates/s (62 fsyncs/s) a slow spell of the shared disk moved the query
/// p99 from 0.33 to 0.70 ms in four of ten runs (IQR over median 0.62). At
/// 1,000 (16 fsyncs/s) the per-round p99 stayed within 0.26-0.40 ms beside a
/// concurrent fsync load that pushed it to 0.98 ms at 4,000.
const OFFERED_UPS: f64 = 1_000.0;
/// Phase (b): a flush barrier follows every this many frames.
const FLUSH_EVERY: usize = 4;
/// Journal snapshot cadence, frames: several snapshots per run.
const SNAPSHOT_EVERY_FRAMES: u64 = 50_000;
/// Phase (a) sends a fixed number of frames per round: as many as take the
/// round's share of `--seconds` at this rate. The journal then holds the same
/// frames on every run with the same arguments, so snapshots, segment
/// rotation and recovery, which reads whole segments into memory, repeat too.
const SATURATION_NOMINAL_UPS: f64 = 150_000.0;
/// Restarts in phase (c).
const RESTARTS: usize = 3;
/// Length of the seeded query list.
const QUERIES: usize = 256;
/// Queries of the list asked before and after each restart.
const RESTART_CHECK_QUERIES: usize = 64;
/// Query latencies kept per phase (b) round (a uniform sample beyond that).
const QUERY_LATENCY_SAMPLES: usize = 1 << 16;
/// Every this many queries of phase (b) is a zone poll.
const ZONE_POLL_EVERY: usize = 8;
/// The generator counts as fallen behind below this share of the offered
/// rate over the whole of phase (b).
const MIN_ACHIEVED_RATIO: f64 = 0.95;
/// Frames replayed through each in-process layer in the traced run.
const REPLAY_FRAMES: u64 = 50_000;
/// Length prefix plus request kind byte in front of every frame on the wire.
const REQUEST_OVERHEAD: u64 = 5;
/// The traced run records spans for every this many phase (a) updates and
/// phase (b) queries, so that span buffers of a fixed size last the run.
const UPDATE_TRACE_EVERY: u64 = 8;
const QUERY_TRACE_EVERY: u64 = 3;
/// Span capacity of each served connection in the traced run.
const SPANS_PER_CONNECTION: usize = 1 << 19;

fn journal_config(dir: &Path) -> JournalConfig {
    JournalConfig { snapshot_every_frames: SNAPSHOT_EVERY_FRAMES, ..JournalConfig::new(dir) }
}

/// A service with every vehicle registered.
fn registered_service(fleet: &CityFleet) -> Arc<LocationService> {
    let service = Arc::new(LocationService::with_config(ServiceConfig::default()));
    for v in &fleet.vehicles {
        service.register(v.id, Arc::clone(&v.predictor));
    }
    service
}

/// The serving stack: a registered service behind a durable loopback server
/// that recovers whatever the journal in `dir` holds.
struct Stack {
    service: Arc<LocationService>,
    server: NetServer,
}

fn start(fleet: &CityFleet, dir: &Path) -> Result<Stack, String> {
    let service = registered_service(fleet);
    let server = NetServer::bind_durable(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig::default(),
        journal_config(dir),
    )
    .map_err(|e| format!("bind_durable: {e}"))?;
    Ok(Stack { service, server })
}

/// Seeded rect / nearest queries over the city map.
fn city_queries(seed: u64, bounds: &Aabb) -> Vec<Query> {
    let mut rng = SplitMix64(seed ^ 0x000C_1770_0E21);
    (0..QUERIES)
        .map(|_| {
            let p = Point::new(
                rng.range(bounds.min.x, bounds.max.x),
                rng.range(bounds.min.y, bounds.max.y),
            );
            if rng.next_f64() < 0.5 {
                Query::Rect(Aabb::around(p, rng.range(100.0, 600.0)))
            } else {
                Query::Nearest(p, 1 + rng.below(8) as u16)
            }
        })
        .collect()
}

/// Writes the stream's next update into `frame`; returns its timestamp.
fn load_frame(stream: &mut Replay, frame: &mut Frame) -> f64 {
    let (source, update) = stream.next().expect("the replay never ends");
    frame.source = source;
    frame.updates.clear();
    frame.updates.push(update);
    update.state.timestamp
}

/// The measured part of phase (a).
struct Saturation {
    frames: u64,
    applied: u64,
    wall_s: f64,
}

/// Phase (a): one connection streams `count` frames back to back, then
/// flushes.
fn saturate(
    addr: SocketAddr,
    stream: &mut Replay,
    count: u64,
    spans: &mut SpanBuf,
    out: &mut Outcome,
) -> Saturation {
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.problem(format!("phase (a) connect: {e}"));
            return Saturation { frames: 0, applied: 0, wall_s: 1.0 };
        }
    };
    let mut frame = Frame::new(0);
    let mut untraced = SpanBuf::disabled();
    let (mut frames, mut expected_bytes) = (0u64, 0u64);
    let start = Instant::now();
    while frames < count && spans.has_room(2) {
        load_frame(stream, &mut frame);
        let req = frames;
        let sp = if req % UPDATE_TRACE_EVERY == 0 { &mut *spans } else { &mut untraced };
        let root = sp.open("bench.update", ROOT, req);
        let sent = sp.time("net.send_frame", root, req, || client.send_frame(&frame));
        sp.close(root);
        if let Err(e) = sent {
            out.problem(format!("phase (a) send: {e}"));
            break;
        }
        expected_bytes += REQUEST_OVERHEAD + frame.encoded_len() as u64;
        frames += 1;
    }
    let flushed = spans.time("net.flush", ROOT, frames, || client.flush());
    let wall_s = start.elapsed().as_secs_f64();
    out.ops(frames, 0);
    let applied = match flushed {
        Ok(f) => {
            out.check(f.frames == frames && f.updates_applied == frames, || {
                format!(
                    "phase (a) FlushDone covers {} frames / {} updates of {frames} sent",
                    f.frames, f.updates_applied
                )
            });
            f.updates_applied
        }
        Err(e) => {
            out.problem(format!("phase (a) flush: {e}"));
            0
        }
    };
    // The frames plus the flush request, which is a bare kind byte.
    let expected_bytes = expected_bytes + REQUEST_OVERHEAD;
    out.check(client.bytes_sent() == expected_bytes, || {
        format!("client sent {} bytes, expected {expected_bytes}", client.bytes_sent())
    });
    Saturation { frames, applied, wall_s }
}

/// The measured part of phase (b).
#[derive(Default)]
struct OpenLoop {
    frames: u64,
    flushes: u64,
    visible_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    /// What the schedule allowed for this round's sends, and what they took.
    scheduled_s: f64,
    sending_s: f64,
    queries: u64,
    query_failures: u64,
    query_ms: Vec<f64>,
}

/// Phase (b): the open-loop producer on this thread, one closed-loop query
/// connection on another.
fn open_loop(
    addr: SocketAddr,
    stream: &mut Replay,
    bounds: &Aabb,
    queries: &[Query],
    run_for: Duration,
    spans: (&mut SpanBuf, &mut SpanBuf),
    out: &mut Outcome,
) -> OpenLoop {
    let (producer_spans, query_spans) = spans;
    let stop = AtomicBool::new(false);
    let virtual_t = AtomicU64::new(stream.next_time().to_bits());
    let mut result = OpenLoop::default();
    let query_side = std::thread::scope(|scope| {
        let query_thread =
            scope.spawn(|| query_loop(addr, queries, bounds, &stop, &virtual_t, query_spans));
        let producer = produce(addr, stream, run_for, &virtual_t, producer_spans, &mut result);
        stop.store(true, Ordering::Relaxed);
        let query_side = query_thread.join().expect("query connection panicked");
        if let Err(e) = producer {
            out.problem(format!("phase (b) producer: {e}"));
        }
        query_side
    });
    match query_side {
        Ok((n, failed, ms)) => {
            result.queries = n;
            result.query_failures = failed;
            result.query_ms = ms;
        }
        Err(e) => out.problem(format!("phase (b) query connection: {e}")),
    }
    out.ops(result.frames + result.queries, result.query_failures);
    result
}

/// The open-loop producer. Frame `k` is due at `start + k / OFFERED_UPS`; the
/// producer sleeps until then, sends, and after every [`FLUSH_EVERY`] frames
/// waits for the flush barrier. Each update's visibility latency runs from
/// its due instant, so a stalled barrier delays every update behind it.
fn produce(
    addr: SocketAddr,
    stream: &mut Replay,
    run_for: Duration,
    virtual_t: &AtomicU64,
    spans: &mut SpanBuf,
    r: &mut OpenLoop,
) -> Result<(), String> {
    let mut client = connect(addr).map_err(|e| format!("connect: {e}"))?;
    let capacity = (OFFERED_UPS * run_for.as_secs_f64() * 1.1) as usize + 16;
    r.visible_ms.reserve(capacity);
    r.lateness_ms.reserve(capacity);
    let gap = Duration::from_secs_f64(1.0 / OFFERED_UPS);
    let mut frame = Frame::new(0);
    let mut due_batch: Vec<Instant> = Vec::with_capacity(FLUSH_EVERY);
    let start = Instant::now() + Duration::from_millis(2);
    let deadline = start + run_for;
    // Every frame due before the deadline is sent, late if need be; a producer
    // still behind one more `run_for` past the deadline gives up.
    let give_up = deadline + run_for;
    let mut due = start;
    let mut last_send = start;
    while due < deadline && Instant::now() < give_up && spans.has_room(FLUSH_EVERY + 1) {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        last_send = Instant::now();
        r.lateness_ms.push(last_send.saturating_duration_since(due).as_secs_f64() * 1e3);
        let t = load_frame(stream, &mut frame);
        virtual_t.store(t.to_bits(), Ordering::Relaxed);
        let req = r.frames;
        spans
            .time("net.send_frame", ROOT, req, || client.send_frame(&frame))
            .map_err(|e| format!("send: {e}"))?;
        r.frames += 1;
        due_batch.push(due);
        due += gap;
        if due_batch.len() == FLUSH_EVERY {
            barrier(&mut client, &mut due_batch, spans, r)?;
        }
    }
    if !due_batch.is_empty() {
        barrier(&mut client, &mut due_batch, spans, r)?;
    }
    r.scheduled_s = r.frames as f64 / OFFERED_UPS;
    r.sending_s = (last_send - start).as_secs_f64().max(r.scheduled_s);
    Ok(())
}

/// Flushes and records the visibility latency of every frame it covers.
fn barrier(
    client: &mut NetClient,
    due_batch: &mut Vec<Instant>,
    spans: &mut SpanBuf,
    r: &mut OpenLoop,
) -> Result<(), String> {
    let flushed = spans
        .time("net.flush", ROOT, r.frames, || client.flush())
        .map_err(|e| format!("flush: {e}"))?;
    let done = Instant::now();
    r.flushes += 1;
    if flushed.frames != r.frames || flushed.updates_applied != r.frames {
        return Err(format!(
            "FlushDone covers {} frames / {} updates of {} sent",
            flushed.frames, flushed.updates_applied, r.frames
        ));
    }
    r.visible_ms.extend(due_batch.drain(..).map(|d| (done - d).as_secs_f64() * 1e3));
    Ok(())
}

/// Phase (b)'s query connection: rect and nearest queries from the list and
/// a zone poll every [`ZONE_POLL_EVERY`] queries, each at the producer's
/// current virtual time. Returns (queries, failures, latencies).
fn query_loop(
    addr: SocketAddr,
    queries: &[Query],
    bounds: &Aabb,
    stop: &AtomicBool,
    virtual_t: &AtomicU64,
    spans: &mut SpanBuf,
) -> Result<(u64, u64, Vec<f64>), String> {
    let mut client = connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mid = bounds.center();
    for (zone, area) in [Aabb::new(bounds.min, mid), Aabb::new(mid, bounds.max)].iter().enumerate()
    {
        client.subscribe_zone(zone as u32, area).map_err(|e| format!("subscribe: {e}"))?;
    }
    let mut records: Vec<PositionRecord> = Vec::new();
    let mut latencies = Reservoir::new(QUERY_LATENCY_SAMPLES, 0x0C17);
    let (mut n, mut failed) = (0u64, 0u64);
    let mut untraced = SpanBuf::disabled();
    while !stop.load(Ordering::Relaxed) {
        let t = f64::from_bits(virtual_t.load(Ordering::Relaxed));
        let i = n as usize;
        let sp = if n % QUERY_TRACE_EVERY == 0 && spans.has_room(2) {
            &mut *spans
        } else {
            &mut untraced
        };
        let t0 = Instant::now();
        let root = sp.open("bench.query", ROOT, n);
        let ok = if i % ZONE_POLL_EVERY == ZONE_POLL_EVERY - 1 {
            sp.time("net.zone_poll", root, n, || client.poll_zones(t)).is_ok()
        } else {
            let q = &queries[i % queries.len()];
            let name = if matches!(q, Query::Rect(_)) { "net.rect" } else { "net.nearest" };
            sp.time(name, root, n, || ask(&mut client, q, t, &mut records)).is_ok()
        };
        sp.close(root);
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        n += 1;
        if !ok {
            failed += 1;
            client = connect(addr).map_err(|e| format!("reconnect: {e}"))?;
        }
    }
    Ok((n, failed, latencies.samples_mut().to_vec()))
}

/// Answers to the first [`RESTART_CHECK_QUERIES`] queries at instant `t`.
fn answers(
    addr: SocketAddr,
    queries: &[Query],
    t: f64,
) -> Result<Vec<Vec<PositionRecord>>, String> {
    let mut client = connect(addr).map_err(|e| format!("connect: {e}"))?;
    queries
        .iter()
        .take(RESTART_CHECK_QUERIES)
        .map(|q| {
            let mut records = Vec::new();
            ask(&mut client, q, t, &mut records)
                .map(|()| records)
                .map_err(|e| format!("query: {e}"))
        })
        .collect()
}

fn bit_identical(a: &[Vec<PositionRecord>], b: &[Vec<PositionRecord>]) -> bool {
    let bits = |r: &PositionRecord| {
        (r.object, r.position.x.to_bits(), r.position.y.to_bits(), r.information_age.to_bits())
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| bits(p) == bits(q)))
}

/// Phase (c): shut down and recover from the journal [`RESTARTS`] times.
/// Each recovery is timed from the restart until the first query is
/// answered, and its answers must equal those from just before shutdown.
/// Returns the recovery times in seconds.
fn restarts(
    stack: &mut Option<Stack>,
    fleet: &CityFleet,
    dir: &Path,
    queries: &[Query],
    t: f64,
    spans: &mut SpanBuf,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut times = Vec::new();
    for r in 0..RESTARTS {
        let Some(old) = stack.take() else { return times };
        let before = answers(old.server.local_addr(), queries, t);
        old.server.shutdown();
        drop(old.service);
        let t0 = Instant::now();
        let root = spans.open("bench.restart", ROOT, r as u64);
        let started = spans.time("net.bind_durable", root, r as u64, || start(fleet, dir));
        let first = started.as_ref().map_err(Clone::clone).and_then(|s| {
            let mut client = connect(s.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
            let mut records = Vec::new();
            ask(&mut client, &queries[0], t, &mut records).map_err(|e| format!("first query: {e}"))
        });
        spans.close(root);
        times.push(t0.elapsed().as_secs_f64());
        match (before, first, started) {
            (Ok(before), Ok(()), Ok(s)) => {
                let after = answers(s.server.local_addr(), queries, t);
                out.check(after.as_ref().is_ok_and(|a| bit_identical(&before, a)), || {
                    format!("restart {r}: answers after recovery differ from before shutdown")
                });
                *stack = Some(s);
            }
            (before, first, started) => {
                let errors = [before.err(), first.err(), started.err()];
                out.problem(format!(
                    "restart {r}: {:?}",
                    errors.into_iter().flatten().collect::<Vec<_>>()
                ));
                return times;
            }
        }
    }
    times
}

/// Sets the serving counters' figures over phases (a) and (b).
fn set_served_counters(
    out: &mut Outcome,
    before: &ServerStatsSnapshot,
    after: &ServerStatsSnapshot,
    requests: u64,
) {
    crate::rush::set_net_counters(out, before, after, requests);
    out.set("journal.snapshots", (after.journal.snapshots - before.journal.snapshots) as f64);
    out.detail("journal_fsyncs", (after.journal.fsyncs - before.journal.fsyncs) as f64);
    out.detail("journal_appends", (after.journal.appends - before.journal.appends) as f64);
    out.check(after.journal.append_errors == before.journal.append_errors, || {
        "journal append errors while serving".to_string()
    });
}

/// Uplink bytes per object-hour of one trip of every vehicle: what the
/// fleet's devices put on the wire, the paper's cost. Also returns bytes per
/// update.
fn uplink_cost(fleet: &CityFleet) -> (f64, f64) {
    let mut frame = Frame::new(0);
    let mut bytes = 0u64;
    for v in &fleet.vehicles {
        frame.source = v.id.0;
        for update in &v.updates {
            frame.updates.clear();
            frame.updates.push(*update);
            bytes += REQUEST_OVERHEAD + frame.encoded_len() as u64;
        }
    }
    (bytes as f64 / fleet.object_hours(), bytes as f64 / fleet.updates_per_cycle() as f64)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let dir = args.work_dir.join("journal");
    let mut setup_times = Vec::new();
    let mut setup = None;
    for rep in 0..SETUP_REPS {
        if let Some((_, old)) = setup.take() {
            let Stack { server, .. } = old;
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let fleet = city_fleet(setup_seed(args.seed, rep), VEHICLES, TRIP_M);
        let stack = match start(&fleet, &dir) {
            Ok(s) => s,
            Err(e) => {
                out.problem(format!("setup: {e}"));
                return out;
            }
        };
        let warm =
            connect(stack.server.local_addr()).map_err(|e| e.to_string()).and_then(|mut c| {
                c.flush().map_err(|e| e.to_string())?;
                c.nearest_objects(&fleet.map_bounds.center(), 0.0, 4).map_err(|e| e.to_string())
            });
        if let Err(e) = warm {
            out.problem(format!("warm-up: {e}"));
            return out;
        }
        setup_times.push(t0.elapsed().as_secs_f64());
        setup = Some((fleet, stack));
    }
    let (fleet, stack) = setup.expect("set up at least once");
    let addr = stack.server.local_addr();
    let queries = city_queries(args.seed, &fleet.map_bounds);
    let (uplink_per_object_hour, bytes_per_update) = uplink_cost(&fleet);
    out.detail("uplink_bytes_per_object_hour", uplink_per_object_hour);
    out.detail("vehicles", VEHICLES as f64);
    out.detail("updates_per_cycle", fleet.updates_per_cycle() as f64);
    out.detail("offered_ups", OFFERED_UPS);

    let traced = args.trace;
    let s = args.run_for.as_secs_f64();
    let epoch = Instant::now();
    let new_spans =
        |cap: usize| if traced { SpanBuf::new(epoch, cap) } else { SpanBuf::disabled() };
    let (mut sat_spans, mut producer_spans, mut query_spans) = (
        new_spans(SPANS_PER_CONNECTION),
        new_spans(SPANS_PER_CONNECTION / 4),
        new_spans(SPANS_PER_CONNECTION / 4),
    );
    let mut restart_spans = new_spans(4 * RESTARTS);
    let mut stream = fleet.stream();

    // ROUNDS rounds of phase (b), then ROUNDS rounds of phase (a); round r of
    // each pairs up for the per-round figures. In the traced run each phase
    // (a) round is first repeated untraced: the throughput difference is the
    // tracing overhead, and its time per update is layer L4.
    let (a_share, b_share) = if traced { (0.15, 0.3) } else { (0.3, 0.5) };
    let per_round = |share: f64| Duration::from_secs_f64(share * s / ROUNDS as f64);
    let frames_per_round = |share: f64| (SATURATION_NOMINAL_UPS * share * s / ROUNDS as f64) as u64;
    let mut rounds = Rounds::default();
    let (mut plain_ups, mut ingest_ups) = (Vec::new(), Vec::new());
    let (mut visible_p50, mut visible_p99, mut lateness_p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut frames_a, mut frames_b, mut requests) = (0u64, 0u64, 0u64);
    let (mut scheduled_s, mut sending_s) = (0.0, 0.0);
    let mut phase_b = Vec::new();
    let stats0 = stack.server.stats();
    for _ in 0..ROUNDS {
        let cpu0 = procfs::cpu_seconds().unwrap_or(0.0);
        let mut ol = open_loop(
            addr,
            &mut stream,
            &fleet.map_bounds,
            &queries,
            per_round(b_share),
            (&mut producer_spans, &mut query_spans),
            &mut out,
        );
        let cpu_s = procfs::cpu_seconds().unwrap_or(0.0) - cpu0;
        frames_b += ol.frames;
        requests += ol.frames + ol.flushes + ol.queries;
        scheduled_s += ol.scheduled_s;
        sending_s += ol.sending_s;
        if let Some((p50, p99)) = p50_p99(&mut ol.visible_ms) {
            visible_p50.push(p50.value);
            visible_p99.push(p99.value);
        }
        lateness_p99.push(percentile(&mut ol.lateness_ms, 0.99).map_or(0.0, |p| p.value));
        phase_b.push((ol, cpu_s));
    }
    for (mut ol, cpu_b) in phase_b {
        if traced {
            let mut off = SpanBuf::disabled();
            let p = saturate(addr, &mut stream, frames_per_round(0.15), &mut off, &mut out);
            plain_ups.push(p.applied as f64 / p.wall_s);
        }
        let cpu0 = procfs::cpu_seconds().unwrap_or(0.0);
        let sat = saturate(addr, &mut stream, frames_per_round(a_share), &mut sat_spans, &mut out);
        let cpu_s = procfs::cpu_seconds().unwrap_or(0.0) - cpu0 + cpu_b;
        let ops = sat.frames + ol.frames + ol.queries;
        let ups = sat.applied as f64 / sat.wall_s;
        ingest_ups.push(ups);
        rounds.add(&mut out, ups, cpu_s * 1e6 / ops.max(1) as f64, &mut ol.query_ms);
        frames_a += sat.frames;
        requests += sat.frames + 1;
    }
    let check_t = stream.next_time();
    let stats1 = stack.server.stats();
    let mut stack = Some(stack);
    let recovery =
        restarts(&mut stack, &fleet, &dir, &queries, check_t, &mut restart_spans, &mut out);

    set_served_counters(&mut out, &stats0, &stats1, requests);
    out.detail("ingest_ups", median(&ingest_ups));
    out.detail("phase_a_frames", frames_a as f64);
    out.detail("phase_b_frames", frames_b as f64);
    rounds.set_metrics(&mut out);
    out.detail("query_p50_ms", out.metrics["latency_p50_ms"]);
    out.detail("query_p99_ms", out.metrics["latency_p99_ms"]);
    // The generator's worst round.
    let lateness = lateness_p99.iter().copied().fold(0.0, f64::max);
    out.detail("gen_lateness_p99_ms", lateness);
    // Achieved over offered rate across phase (b): the time the schedule
    // allowed for the sends over the time they took. A stall the producer
    // catches up from costs little; a load the service cannot carry keeps the
    // producer behind and the ratio low.
    let achieved = scheduled_s / sending_s.max(f64::MIN_POSITIVE);
    out.detail("gen_achieved_ratio", achieved);
    out.set("gen.lateness_p99_ms", lateness);
    out.set("gen.achieved_ratio", achieved);
    out.check(achieved >= MIN_ACHIEVED_RATIO, || {
        format!(
            "open-loop generator fell behind: achieved {achieved:.4} of the offered {OFFERED_UPS} updates/s; run invalid"
        )
    });
    if !recovery.is_empty() {
        out.detail("recovery_s", median(&recovery));
        out.set("city.recovery_s", median(&recovery));
    }
    if visible_p99.len() == ROUNDS {
        out.detail("update_visible_p50_ms", median(&visible_p50));
        out.detail("update_visible_p99_ms", median(&visible_p99));
        out.set("city.update_visible_p50_ms", median(&visible_p50));
        out.set("city.update_visible_p99_ms", median(&visible_p99));
    } else {
        out.problem("a phase (b) round had too few updates for a p99");
    }

    // Every wire answer of the list equals the in-process answer at the same
    // instant on the recovered service; prices the round trip as well. The
    // index figures stay with rush_hour_query: here the index boxes depend on
    // when phase (b)'s queries happened to refresh them, so they would not
    // repeat from run to run.
    let mut check_spans = new_spans(2 * QUERIES);
    if let Some(st) = &stack {
        let fig =
            checked_pass(&st.service, &st.server, &queries, check_t, &mut check_spans, &mut out);
        out.set("net.query_overhead_us", fig.query_overhead_us());
    }
    if let Some(st) = stack.take() {
        st.server.shutdown();
    }

    out.set("setup_s", mean(&setup_times));
    out.set("wire_bytes_per_unit", uplink_per_object_hour);
    if !traced {
        return out;
    }

    let plain_ups = median(&plain_ups);
    out.set("trace.overhead_pct", (plain_ups / median(&ingest_ups) - 1.0) * 100.0);
    out.detail("untraced_ingest_ups", plain_ups);
    out.set("core.request_bytes_per_update", bytes_per_update);
    let mut replay_spans = SpanBuf::new(epoch, 10 * REPLAY_FRAMES as usize + 16);
    layer_replays(&fleet, &args.work_dir, &dir, &mut replay_spans, &mut out);

    let bufs =
        [&sat_spans, &producer_spans, &query_spans, &restart_spans, &check_spans, &replay_spans];
    let summary = finish_trace(&mut out, &bufs, args);
    let mean = |name: &str| summary.get(name).mean_ns();
    out.set("core.frame_encode_ns", mean("core.frame_encode"));
    out.set("core.frame_validate_ns", mean("core.frame_validate"));
    out.set("locserver.apply_ns_per_update", mean("locserver.apply_frame_bytes"));
    out.set("locserver.rect_ns", mean("locserver.rect"));
    out.set("locserver.nearest_ns", mean("locserver.nearest"));
    out.set("locserver.restore_ms", mean("locserver.recover_into") / 1e6);
    out.set("journal.append_ns_per_frame", mean("journal.append_frame"));
    out.set("journal.open_ms", mean("journal.open") / 1e6);
    out.set("journal.replay_ns_per_frame", mean("journal.replay") / REPLAY_FRAMES as f64);
    out.set("net.send_frame_ns", mean("net.send_frame"));
    out.set("net.flush_rtt_us", mean("net.flush") / 1e3);
    let (l0, l2, l3) = (mean("bench.l0"), mean("bench.l2"), mean("bench.l3"));
    out.set("ledger.l0_ns", l0);
    out.set("ledger.l2_minus_l0_ns", l2 - l0);
    out.set("ledger.l3_minus_l2_ns", l3 - l2);
    out.set("net.served_ingest_overhead_ns_per_update", 1e9 / plain_ups - l3);
    out
}

/// In-process replays of the first [`REPLAY_FRAMES`] frames of the stream
/// through each layer's entry point, cumulative as in the layer ledger:
/// L0 encode + validate, L2 encode + `apply_frame_bytes`, L3 the same with a
/// journal attached; plus `Journal::append_frame`, `Journal::open`,
/// `Journal::replay` on a scratch journal and `recover_into` on the served
/// journal in `served_dir`.
fn layer_replays(
    fleet: &CityFleet,
    work_dir: &Path,
    served_dir: &Path,
    spans: &mut SpanBuf,
    out: &mut Outcome,
) {
    let mut frame = Frame::new(0);
    let mut buf = Vec::new();
    let mut encode =
        |stream: &mut Replay, i: u64, root: u32, spans: &mut SpanBuf, buf: &mut Vec<u8>| {
            load_frame(stream, &mut frame);
            buf.clear();
            spans.time("core.frame_encode", root, i, || frame.encode_into(buf)).is_ok()
        };

    // L0.
    let mut bad = 0u64;
    let mut stream = fleet.stream();
    for i in 0..REPLAY_FRAMES {
        let root = spans.open("bench.l0", ROOT, i);
        let ok = encode(&mut stream, i, root, spans, &mut buf)
            && spans.time("core.frame_validate", root, i, || FrameView::parse(&buf)).is_ok();
        spans.close(root);
        bad += u64::from(!ok);
    }

    // L2: no journal.
    let service = registered_service(fleet);
    let (locks0, updates0) = (service.write_lock_acquisitions(), service.total_updates());
    let mut stream = fleet.stream();
    for i in 0..REPLAY_FRAMES {
        let root = spans.open("bench.l2", ROOT, i);
        let ok = encode(&mut stream, i, root, spans, &mut buf)
            && spans
                .time("locserver.apply_frame_bytes", root, i, || service.apply_frame_bytes(&buf))
                .is_ok();
        spans.close(root);
        bad += u64::from(!ok);
    }
    let frames = REPLAY_FRAMES as f64;
    out.set(
        "locserver.write_locks_per_frame",
        (service.write_lock_acquisitions() - locks0) as f64 / frames,
    );
    out.set("locserver.applied_ratio", (service.total_updates() - updates0) as f64 / frames);
    drop(service);

    // L3: the same with a journal attached.
    let l3_dir = work_dir.join("replay-l3");
    let service = registered_service(fleet);
    match Journal::open(JournalConfig::new(&l3_dir)) {
        Ok(journal) => {
            service.attach_journal(Arc::new(journal));
            let mut stream = fleet.stream();
            for i in 0..REPLAY_FRAMES {
                let root = spans.open("bench.l3", ROOT, i);
                let ok = encode(&mut stream, i, root, spans, &mut buf)
                    && spans
                        .time("locserver.apply_journaled", root, i, || {
                            service.apply_frame_bytes(&buf)
                        })
                        .is_ok();
                spans.close(root);
                bad += u64::from(!ok);
            }
        }
        Err(e) => out.problem(format!("L3 journal: {e}")),
    }
    drop(service);

    // The journal alone: append, reopen, replay.
    let append_dir = work_dir.join("replay-journal");
    let mut user_bytes = 0u64;
    match Journal::open(JournalConfig::new(&append_dir)) {
        Ok(journal) => {
            let mut stream = fleet.stream();
            for i in 0..REPLAY_FRAMES {
                encode(&mut stream, i, ROOT, &mut SpanBuf::disabled(), &mut buf);
                user_bytes += buf.len() as u64;
                let ok = spans
                    .time("journal.append_frame", ROOT, i, || journal.append_frame(&buf))
                    .is_ok();
                bad += u64::from(!ok);
            }
            let flushed = journal.flush();
            let stats = journal.stats();
            out.set(
                "journal.fsyncs_per_1k_frames",
                stats.fsyncs as f64 * 1000.0 / stats.appends.max(1) as f64,
            );
            out.check(flushed.is_ok() && stats.appends == REPLAY_FRAMES, || {
                format!("scratch journal appended {} of {REPLAY_FRAMES} frames", stats.appends)
            });
        }
        Err(e) => out.problem(format!("scratch journal: {e}")),
    }
    out.set(
        "journal.bytes_per_user_byte",
        dir_bytes(&append_dir) as f64 / user_bytes.max(1) as f64,
    );
    match spans.time("journal.open", ROOT, 0, || Journal::open(JournalConfig::new(&append_dir))) {
        Ok(journal) => {
            let replayed = spans.time("journal.replay", ROOT, 0, || journal.replay(|_, _| {}));
            out.check(replayed.as_ref().is_ok_and(|n| *n == REPLAY_FRAMES), || {
                format!("scratch journal replayed {replayed:?} of {REPLAY_FRAMES} frames")
            });
        }
        Err(e) => out.problem(format!("reopening the scratch journal: {e}")),
    }
    out.ops(4 * REPLAY_FRAMES, bad);

    // Recovery of the served journal into a fresh service.
    let service = registered_service(fleet);
    match Journal::open(journal_config(served_dir)) {
        Ok(journal) => {
            let report =
                spans.time("locserver.recover_into", ROOT, 0, || recover_into(&service, &journal));
            out.check(report.is_ok(), || format!("recover_into the served journal: {report:?}"));
        }
        Err(e) => out.problem(format!("opening the served journal: {e}")),
    }
}

/// Total size of the regular files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
