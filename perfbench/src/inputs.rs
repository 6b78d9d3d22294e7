//! Workload inputs, all derived from the `--seed` argument. Generating them is
//! set-up work: it goes through `mbdr_trace` and `mbdr_sim` only, and its time
//! is charged to `setup_s`. It runs on one thread: with two, set-up time
//! depended on how the threads were placed on the cores more than on the work.

use mbdr_core::{ObjectState, Predictor, Update, UpdateKind};
use mbdr_geo::{Aabb, Point};
use mbdr_locserver::ObjectId;
use mbdr_roadnet::NodeId;
use mbdr_sim::protocols::{ProtocolContext, ProtocolKind};
use mbdr_sim::{run_protocol, RunConfig};
use mbdr_trace::gps::GpsNoiseModel;
use mbdr_trace::motion::{simulate_motion, MotionConfig};
use mbdr_trace::route_plan::{plan_wandering_route, trip_from_route};
use mbdr_trace::{DriverProfile, Fix, Scenario, ScenarioData, ScenarioKind, Trace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// SplitMix64: the benchmark's one seeded random stream.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

// ---------------------------------------------------------------------------
// city_served: a vehicle fleet on the paper's city map running map-based DR.

/// Requested accuracy `u_s` of the served fleet, metres.
const CITY_ACCURACY_M: f64 = 100.0;

/// One vehicle of the served fleet.
pub struct Vehicle {
    pub id: ObjectId,
    pub predictor: Arc<dyn Predictor>,
    /// The protocol's update stream over one trip, oldest first.
    pub updates: Vec<Update>,
    /// Trip duration, seconds.
    pub duration_s: f64,
}

/// The served fleet.
pub struct CityFleet {
    pub vehicles: Vec<Vehicle>,
    pub map_bounds: Aabb,
}

impl CityFleet {
    /// The fleet's endless update stream, from the start.
    pub fn stream(&self) -> Replay<'_> {
        let heap = (0..self.vehicles.len() as u32)
            .map(|v| Reverse((self.vehicles[v as usize].updates[0].state.timestamp.to_bits(), v)))
            .collect();
        Replay { fleet: self, heap, next: vec![(0, 0); self.vehicles.len()] }
    }

    /// Updates in one trip of every vehicle.
    pub fn updates_per_cycle(&self) -> usize {
        self.vehicles.iter().map(|v| v.updates.len()).sum()
    }

    /// Driving time of one trip of every vehicle, object-hours.
    pub fn object_hours(&self) -> f64 {
        self.vehicles.iter().map(|v| v.duration_s).sum::<f64>() / 3600.0
    }
}

/// The fleet's updates in timestamp order (ties by vehicle), as the devices
/// would send them. Each vehicle repeats its trip with period
/// `ceil(duration) + 1` s: cycle `c` shifts its timestamps by `c` periods and
/// its sequence numbers by `c` times its update count, so the trackers keep
/// accepting the stream and no vehicle falls silent for longer than its own
/// update interval.
pub struct Replay<'a> {
    fleet: &'a CityFleet,
    /// Next timestamp (as bits: timestamps are non-negative, so bit order is
    /// numeric order) of every vehicle.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per vehicle: current cycle and index of its next update.
    next: Vec<(u64, usize)>,
}

impl Replay<'_> {
    /// Timestamp of the next update.
    pub fn next_time(&self) -> f64 {
        self.heap.peek().map_or(0.0, |Reverse((bits, _))| f64::from_bits(*bits))
    }
}

impl Iterator for Replay<'_> {
    type Item = (u64, Update);

    fn next(&mut self) -> Option<(u64, Update)> {
        let Reverse((_, v)) = self.heap.pop()?;
        let vehicle = &self.fleet.vehicles[v as usize];
        let period = vehicle.duration_s.ceil() + 1.0;
        let (cycle, index) = self.next[v as usize];
        let mut update = vehicle.updates[index];
        update.sequence += cycle * vehicle.updates.len() as u64;
        update.state.timestamp += cycle as f64 * period;
        let (cycle, index) =
            if index + 1 == vehicle.updates.len() { (cycle + 1, 0) } else { (cycle, index + 1) };
        self.next[v as usize] = (cycle, index);
        let t = vehicle.updates[index].state.timestamp + cycle as f64 * period;
        self.heap.push(Reverse((t.to_bits(), v)));
        Some((vehicle.id.0, update))
    }
}

/// One vehicle's trip on the shared city map: a wandering errand route, driven
/// by the city-car profile and sensed through differential GPS.
fn vehicle_trace(base: &ScenarioData, seed: u64, trip_length_m: f64) -> Trace {
    let network = &base.network;
    let start = NodeId((seed % network.node_count() as u64) as u32);
    let profile = DriverProfile::city_car();
    let route = plan_wandering_route(network, start, trip_length_m, seed);
    let trip = trip_from_route(network, route, &profile, seed ^ 0x7);
    let truth = simulate_motion(
        &trip.path,
        &trip.speed_limits,
        &trip.stops,
        &profile,
        &MotionConfig { seed: seed ^ 0x9, ..MotionConfig::default() },
    );
    let mut gps = GpsNoiseModel::dgps(seed ^ 0xB);
    let accuracy = gps.nominal_accuracy();
    let mut trace = Trace::new();
    let mut prev_t = None;
    for g in truth {
        let dt = prev_t.map(|p| g.t - p).unwrap_or(1.0);
        prev_t = Some(g.t);
        trace.push(g, Fix { t: g.t, position: gps.observe(g.position, dt), accuracy });
    }
    trace
}

/// Builds `vehicles` vehicles, each running map-based DR at `u_s` = 100 m over
/// its own trip, and records their update streams.
pub fn city_fleet(seed: u64, vehicles: usize, trip_length_m: f64) -> CityFleet {
    let base = Scenario { kind: ScenarioKind::City, scale: 0.02, seed }.build();
    let ctx = ProtocolContext::for_scenario(&base);
    let built = (0..vehicles).map(|i| {
        let vehicle_seed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let trace = vehicle_trace(&base, vehicle_seed, trip_length_m);
        let protocol = ProtocolKind::MapBased.build(&ctx, CITY_ACCURACY_M);
        let predictor = protocol.predictor();
        let outcome = run_protocol(&trace, protocol, RunConfig::default());
        Vehicle {
            id: ObjectId(i as u64),
            predictor,
            updates: outcome.updates,
            duration_s: trace.duration(),
        }
    });
    let built: Vec<Vehicle> = built.collect();
    let map_bounds =
        base.network.bounding_box().unwrap_or_else(|| Aabb::around(Point::ORIGIN, 1_000.0));
    CityFleet { vehicles: built, map_bounds }
}

// ---------------------------------------------------------------------------
// rush_hour_query: the scale workload's Zipf hotspot fleet.

/// Grid cell size of the hotspot model and of the service index, metres.
pub const CELL_M: f64 = 250.0;
/// World half-extent, metres: 40 cells either side of the origin.
pub const WORLD_HALF_M: f64 = 40.0 * CELL_M;
/// Cells in the hotspot block (a 4-wide strip at the world centre).
pub const HOTSPOT_CELLS: usize = 8;
/// Share of the fleet drawn into the hotspot block.
const HOTSPOT_FRACTION: f64 = 0.3;
/// Share of the fleet that moves (the rest is parked).
const MOVER_FRACTION: f64 = 0.1;

/// The hotspot block in Zipf rank order (rank 0 is densest).
pub fn hotspot_cell(rank: usize) -> (f64, f64) {
    ((rank % 4) as f64, (rank / 4) as f64)
}

/// Draws a hotspot rank with Zipf(1) weights.
fn zipf_rank(rng: &mut SplitMix64, n: usize) -> usize {
    let harmonic: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut target = rng.next_f64() * harmonic;
    for rank in 0..n {
        target -= 1.0 / (rank + 1) as f64;
        if target <= 0.0 {
            return rank;
        }
    }
    n - 1
}

/// `objects` placement updates (one per object, reported at t = 0): ~30 % of
/// the fleet in the 8 hotspot cells with Zipf(1) weights, the rest uniform
/// over the world; one in ten objects moves at 3–15 m/s on a fixed heading.
pub fn hotspot_fleet(seed: u64, objects: usize) -> Vec<(ObjectId, Update)> {
    let mut rng = SplitMix64(seed ^ 0xA076_1D64_78BD_642F);
    let world = WORLD_HALF_M;
    (0..objects)
        .map(|i| {
            let position = if rng.next_f64() < HOTSPOT_FRACTION {
                let (cx, cy) = hotspot_cell(zipf_rank(&mut rng, HOTSPOT_CELLS));
                Point::new((cx + rng.next_f64()) * CELL_M, (cy + rng.next_f64()) * CELL_M)
            } else {
                Point::new(rng.range(-world, world), rng.range(-world, world))
            };
            let (speed, heading) = if rng.next_f64() < MOVER_FRACTION {
                (rng.range(3.0, 15.0), rng.range(0.0, std::f64::consts::TAU))
            } else {
                (0.0, 0.0)
            };
            let update = Update {
                sequence: 0,
                state: ObjectState::basic(position, speed, heading, 0.0),
                kind: UpdateKind::DeviationBound,
            };
            (ObjectId(i as u64), update)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// device_protocol: the paper's four Table 1 scenarios.

/// One scenario's trace and the shared map structures its protocols use.
pub struct DeviceScenario {
    pub kind: ScenarioKind,
    pub ctx: ProtocolContext,
    pub data: ScenarioData,
}

/// Traces built per scenario kind. Several instances average out how much
/// one seed's map and trip happen to cost.
const DEVICE_INSTANCES: u64 = 3;

/// [`DEVICE_INSTANCES`] full-length instances of each of the four scenarios.
pub fn device_scenarios(seed: u64) -> Vec<DeviceScenario> {
    ScenarioKind::ALL
        .iter()
        .flat_map(|&kind| (0..DEVICE_INSTANCES).map(move |i| (kind, i)))
        .enumerate()
        .map(|(n, (kind, _))| {
            let data =
                Scenario::full(kind, seed ^ (n as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407))
                    .build();
            let ctx = ProtocolContext::for_scenario(&data);
            DeviceScenario { kind, ctx, data }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotspot_fleet_is_seeded_and_skewed() {
        let a = hotspot_fleet(5, 4000);
        assert_eq!(a, hotspot_fleet(5, 4000));
        assert_ne!(a, hotspot_fleet(6, 4000));
        let block = Aabb::new(Point::new(0.0, 0.0), Point::new(4.0 * CELL_M, 2.0 * CELL_M));
        let inside = a.iter().filter(|(_, u)| block.contains(&u.state.position)).count();
        // ~30 % drawn into the block, plus the uniform share that lands there.
        assert!((1000..1400).contains(&inside), "{inside} of 4000 in the hotspot block");
    }

    #[test]
    fn city_replay_is_time_ordered_and_always_newer_per_vehicle() {
        let fleet = city_fleet(3, 4, 1_000.0);
        let n = 3 * fleet.updates_per_cycle();
        let stream: Vec<(u64, Update)> = fleet.stream().take(n).collect();
        let ts: Vec<f64> = stream.iter().map(|(_, u)| u.state.timestamp).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "the stream is in timestamp order");
        for v in &fleet.vehicles {
            let own: Vec<&Update> =
                stream.iter().filter(|(s, _)| *s == v.id.0).map(|(_, u)| u).collect();
            assert!(own.len() >= 2 * v.updates.len(), "every vehicle repeats its trip");
            assert!(own
                .windows(2)
                .all(|w| w[0].sequence < w[1].sequence
                    && w[0].state.timestamp < w[1].state.timestamp));
        }
        assert_eq!(stream, fleet.stream().take(n).collect::<Vec<_>>());
    }
}
