//! `device_protocol`: the mobile side. Every fix of three instances of each of
//! the paper's four Table 1 scenarios goes through the map-based protocol's
//! `on_sighting`, over each scenario's accuracy sweep, and every emitted
//! update is encoded as the ingest request a device would send. Nothing here
//! touches `locserver`, `journal` or `net`.
//!
//! The protocol runs on one thread. With two, throughput changed by up to half
//! from one process to the next with how the threads landed on the two cores;
//! one thread repeats within a few percent.

use crate::inputs::{device_scenarios, DeviceScenario};
use crate::metrics::Outcome;
use crate::spans::{SpanBuf, ROOT};
use crate::stats::{mean, Reservoir};
use crate::{finish_trace, procfs, setup_seed, Args, Rounds, ROUNDS, SETUP_REPS};
use mbdr_core::{Frame, Request, Sighting, Update};
use mbdr_mapmatch::{MapMatcher, MatcherConfig};
use mbdr_sim::protocols::ProtocolKind;
use mbdr_sim::{run_protocol, RunConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every `SAMPLE_EVERY`-th fix is timed on its own for the latency figures.
const SAMPLE_EVERY: usize = 8;
/// Length prefix every message carries on the wire.
const LENGTH_PREFIX: u64 = 4;
/// Sampled per-fix latencies kept per round.
const LATENCY_SAMPLES: usize = 1 << 18;
/// Span capacity of the traced protocol loop.
const SPANS: usize = 1 << 19;
/// Requested accuracy of the per-layer replays, metres.
const REPLAY_ACCURACY_M: f64 = 100.0;

/// One unit of work: a scenario's trace at one requested accuracy.
#[derive(Clone, Copy)]
struct Item {
    scenario: usize,
    accuracy: f64,
}

fn items(scenarios: &[DeviceScenario]) -> Vec<Item> {
    scenarios
        .iter()
        .enumerate()
        .flat_map(|(scenario, s)| {
            s.kind.accuracy_sweep().into_iter().map(move |accuracy| Item { scenario, accuracy })
        })
        .collect()
}

/// Totals of protocol runs.
struct Tally {
    fixes: u64,
    updates: u64,
    /// Updates the encoder refused.
    failed: u64,
    wire_bytes: u64,
    object_s: f64,
    latencies_ms: Reservoir,
}

impl Tally {
    /// Keeps a uniform sample of up to `samples` timed fixes.
    fn new(samples: usize) -> Self {
        Tally {
            fixes: 0,
            updates: 0,
            failed: 0,
            wire_bytes: 0,
            object_s: 0.0,
            latencies_ms: Reservoir::new(samples, 0x5EED),
        }
    }
}

/// Reusable per-thread encode buffers.
struct Encoder {
    frame: Frame,
    buf: Vec<u8>,
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder { frame: Frame::new(0), buf: Vec::new() }
    }
}

/// Runs one scenario at one requested accuracy: every fix through
/// `on_sighting`, every update encoded. Emitted updates are appended to
/// `stream` when given.
fn run_item(
    sc: &DeviceScenario,
    accuracy: f64,
    enc: &mut Encoder,
    spans: &mut SpanBuf,
    tally: &mut Tally,
    mut stream: Option<&mut Vec<Update>>,
) {
    let mut protocol = ProtocolKind::MapBased.build(&sc.ctx, accuracy);
    for (i, fix) in sc.data.trace.fixes.iter().enumerate() {
        let sighting = Sighting { t: fix.t, position: fix.position, accuracy: fix.accuracy };
        let timed = (i % SAMPLE_EVERY == 0).then(Instant::now);
        let req = tally.fixes;
        let root = spans.open("bench.fix", ROOT, req);
        let update = spans.time("core.on_sighting", root, req, || protocol.on_sighting(sighting));
        if let Some(update) = update {
            enc.frame.updates.clear();
            enc.frame.updates.push(update);
            enc.buf.clear();
            let encoded = spans.time("core.frame_encode", root, req, || {
                Request::encode_ingest_into(&enc.frame, &mut enc.buf)
            });
            tally.updates += 1;
            match encoded {
                Ok(()) => tally.wire_bytes += LENGTH_PREFIX + enc.buf.len() as u64,
                Err(_) => tally.failed += 1,
            }
            if let Some(stream) = stream.as_deref_mut() {
                stream.push(update);
            }
        }
        spans.close(root);
        if let Some(t0) = timed {
            tally.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        tally.fixes += 1;
    }
    tally.object_s += sc.data.trace.duration();
}

/// Runs the items in turn until `run_for` has passed (finishing the item in
/// hand) or the span buffer is nearly full. Returns the tally, the wall time
/// and the span buffer.
fn run_timed(
    scenarios: &[DeviceScenario],
    items: &[Item],
    run_for: Duration,
    traced: bool,
) -> (Tally, f64, SpanBuf) {
    let epoch = Instant::now();
    let deadline = epoch + run_for;
    let max_fixes = scenarios.iter().map(|s| s.data.trace.len()).max().unwrap_or(0);
    let mut spans = if traced { SpanBuf::new(epoch, SPANS) } else { SpanBuf::disabled() };
    let mut tally = Tally::new(LATENCY_SAMPLES);
    let mut enc = Encoder::default();
    for item in items.iter().cycle() {
        if Instant::now() >= deadline || !spans.has_room(3 * max_fixes) {
            break;
        }
        let sc = &scenarios[item.scenario];
        run_item(sc, item.accuracy, &mut enc, &mut spans, &mut tally, None);
    }
    (tally, epoch.elapsed().as_secs_f64(), spans)
}

/// One full sweep, checked against `mbdr_sim::run_protocol`: the update
/// stream must be identical item by item. Returns the deterministic totals.
fn checked_sweep(scenarios: &[DeviceScenario], items: &[Item], out: &mut Outcome) -> Tally {
    let mut tally = Tally::new(0);
    let mut enc = Encoder::default();
    let mut spans = SpanBuf::disabled();
    for item in items {
        let sc = &scenarios[item.scenario];
        let mut stream = Vec::new();
        run_item(sc, item.accuracy, &mut enc, &mut spans, &mut tally, Some(&mut stream));
        let reference = run_protocol(
            &sc.data.trace,
            ProtocolKind::MapBased.build(&sc.ctx, item.accuracy),
            RunConfig::default(),
        );
        out.check(stream == reference.updates, || {
            format!(
                "{:?} at u_s={}: update stream differs from run_protocol ({} vs {} updates)",
                sc.kind,
                item.accuracy,
                stream.len(),
                reference.updates.len()
            )
        });
    }
    out.check(tally.failed == 0, || format!("{} updates failed to encode", tally.failed));
    tally
}

/// Sets the deterministic cost figures of a checked sweep.
fn set_costs(out: &mut Outcome, sweep: &Tally) {
    let bytes_per_object_hour = sweep.wire_bytes as f64 / (sweep.object_s / 3600.0);
    let updates_per_1k = sweep.updates as f64 * 1000.0 / sweep.fixes.max(1) as f64;
    let bytes_per_update = sweep.wire_bytes as f64 / sweep.updates.max(1) as f64;
    out.detail("uplink_bytes_per_object_hour", bytes_per_object_hour);
    out.detail("sweep_fixes", sweep.fixes as f64);
    out.detail("sweep_updates", sweep.updates as f64);
    out.set("core.updates_per_1k_fixes", updates_per_1k);
    out.set("core.request_bytes_per_update", bytes_per_update);
    out.set("wire_bytes_per_unit", bytes_per_object_hour);
}

/// In-process replays of the protocol's building blocks on the same fixes:
/// map matching, link location and map prediction.
fn layer_replays(scenarios: &[DeviceScenario], epoch: Instant, out: &mut Outcome) -> SpanBuf {
    let fixes: usize = scenarios.iter().map(|s| s.data.trace.len()).sum();
    let mut spans = SpanBuf::new(epoch, 4 * fixes + 16);
    let (mut matched, mut lookups) = (0u64, 0u64);
    let mut enc = Encoder::default();
    for sc in scenarios {
        let ctx = &sc.ctx;
        let mut matcher = MapMatcher::new(
            Arc::clone(&ctx.network),
            Arc::clone(&ctx.locator),
            MatcherConfig::with_tolerance(ctx.matching_tolerance),
        );
        for (i, fix) in sc.data.trace.fixes.iter().enumerate() {
            let r = spans.time("mapmatch.update", ROOT, i as u64, || matcher.update(fix.position));
            matched += u64::from(r.is_matched());
            let link = spans.time("roadnet.nearest_link", ROOT, i as u64, || {
                ctx.locator.nearest_link(&ctx.network, &fix.position, ctx.matching_tolerance)
            });
            lookups += u64::from(link.is_some());
        }
        // Map prediction from the last update at every later fix, as the
        // protocol and the server do.
        let predictor = ProtocolKind::MapBased.build(ctx, REPLAY_ACCURACY_M).predictor();
        let mut stream = Vec::new();
        let mut tally = Tally::new(0);
        let mut off = SpanBuf::disabled();
        run_item(sc, REPLAY_ACCURACY_M, &mut enc, &mut off, &mut tally, Some(&mut stream));
        let mut last = stream.iter().peekable();
        let mut current: Option<&Update> = None;
        for (i, fix) in sc.data.trace.fixes.iter().enumerate() {
            while last.peek().is_some_and(|u| u.state.timestamp <= fix.t) {
                current = last.next();
            }
            if let Some(u) = current {
                let p = spans.time("core.map_predict", ROOT, i as u64, || {
                    predictor.predict(&u.state, fix.t)
                });
                std::hint::black_box(p);
            }
        }
    }
    out.set("mapmatch.matched_ratio", matched as f64 / fixes.max(1) as f64);
    out.detail("roadnet.links_found", lookups as f64);
    spans
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let mut scenarios = Vec::new();
    for rep in 0..SETUP_REPS {
        drop(std::mem::take(&mut scenarios));
        let t0 = Instant::now();
        scenarios = device_scenarios(setup_seed(args.seed, rep));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let items = items(&scenarios);

    if !args.trace {
        let mut rounds = Rounds::default();
        let (mut fixes, mut failed, mut wall) = (0u64, 0u64, 0.0);
        for _ in 0..ROUNDS {
            let cpu0 = procfs::cpu_seconds().unwrap_or(0.0);
            let (mut t, wall_s, _) =
                run_timed(&scenarios, &items, args.run_for / ROUNDS as u32, false);
            let cpu_s = procfs::cpu_seconds().unwrap_or(0.0) - cpu0;
            let n = t.fixes;
            rounds.add(
                &mut out,
                n as f64 / wall_s,
                cpu_s * 1e6 / n.max(1) as f64,
                t.latencies_ms.samples_mut(),
            );
            fixes += n;
            failed += t.failed;
            wall += wall_s;
        }
        out.ops(fixes, failed);
        out.set("setup_s", mean(&setup_times));
        rounds.set_metrics(&mut out);
        out.detail("protocol_fixes_per_s", fixes as f64 / wall);
        let sweep = checked_sweep(&scenarios, &items, &mut out);
        set_costs(&mut out, &sweep);
        return out;
    }

    // Traced run: the same protocol loop untraced and then traced (their
    // throughput difference is the tracing overhead), then per-layer replays.
    let half = args.run_for.mul_f64(0.4);
    let (plain, plain_wall, _) = run_timed(&scenarios, &items, half, false);
    let (traced, traced_wall, spans) = run_timed(&scenarios, &items, half, true);
    let plain_rate = plain.fixes as f64 / plain_wall;
    let traced_rate = traced.fixes as f64 / traced_wall;
    out.ops(plain.fixes + traced.fixes, plain.failed + traced.failed);
    out.set("trace.overhead_pct", (plain_rate / traced_rate - 1.0) * 100.0);
    out.detail("untraced_fixes_per_s", plain_rate);
    out.detail("traced_fixes_per_s", traced_rate);
    let replay = layer_replays(&scenarios, Instant::now(), &mut out);
    let sweep = checked_sweep(&scenarios, &items, &mut out);
    set_costs(&mut out, &sweep);

    let summary = finish_trace(&mut out, &[&spans, &replay], args);
    out.set("core.on_sighting_ns", summary.get("core.on_sighting").mean_ns());
    out.set("core.frame_encode_ns", summary.get("core.frame_encode").mean_ns());
    out.set("core.map_predict_ns", summary.get("core.map_predict").mean_ns());
    out.set("mapmatch.update_ns", summary.get("mapmatch.update").mean_ns());
    out.set("roadnet.nearest_link_ns", summary.get("roadnet.nearest_link").mean_ns());
    out
}
