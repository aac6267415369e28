//! The four workloads: machine layouts, set-up (boot and preload), and
//! the timed loops.

use std::time::{Duration, Instant};

use contutto_core::{ContuttoConfig, MemoryPopulation};
use contutto_power8::firmware::layouts;
use contutto_power8::{ChannelConfig, FailoverMode, OverloadConfig, Power8System, SlotPopulation};
use contutto_sim::SimTime;

use crate::gen::{KeySpace, Popularity, Rng, Zipf};
use crate::spans::{install_shims, Kind, SpanHandle, Totals};
use crate::stats::LogHist;
use crate::sut::{first_difference, model_metrics, Ledger, Sut, Tally};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChaseSerial,
    MlpMixed,
    PacedIdle,
    CheckpointCycle,
}

pub const ALL: [Workload; 4] = [
    Workload::ChaseSerial,
    Workload::MlpMixed,
    Workload::PacedIdle,
    Workload::CheckpointCycle,
];

/// Lines read zipf-0.99 in `mlp-mixed` and `checkpoint-cycle`: 256 MB,
/// more than the six 16 MB Centaur caches hold.
const MLP_LINES: u64 = 1 << 21;
/// Written lines (the hot set) for the two Centaur-heavy workloads.
const MLP_HOT: u64 = 4096;
/// Written lines for the single-ConTutto workloads.
const CONTUTTO_HOT: u64 = 1024;
/// Closed-loop clients per channel in `mlp-mixed`.
const MLP_WINDOW: usize = 16;
/// Stores per `checkpoint-cycle` burst, and reads checked on the twin.
const CKPT_BURST: usize = 64;
const CKPT_READBACK: usize = 32;
/// Mean simulated gap between `paced-idle` arrivals.
const PACED_GAP_PS: f64 = 1_000_000.0;
/// Deadline each `paced-idle` request carries, from its due time.
const PACED_DEADLINE: SimTime = SimTime::from_us(20);
/// Snapshots of the end state taken by workloads whose timed loop
/// never checkpoints, for `snapshot_ms`, `restore_ms` and `image_mb`.
const END_SNAPSHOTS: usize = 9;
/// Trace ring capacity for the ring-overhead run, as the traffic
/// campaign sizes it.
const RING_CAPACITY: usize = 1 << 16;

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChaseSerial => "chase-serial",
            Workload::MlpMixed => "mlp-mixed",
            Workload::PacedIdle => "paced-idle",
            Workload::CheckpointCycle => "checkpoint-cycle",
        }
    }

    /// Units (requests, arrivals or cycles) whose simulated results the
    /// `sim_*` metrics cover: a fixed prefix of a seeded stream, so
    /// those metrics depend on the model and the seed but not on host
    /// speed.
    pub fn sim_prefix(self) -> u64 {
        match self {
            Workload::ChaseSerial => 20_000,
            Workload::MlpMixed => 200_000,
            Workload::PacedIdle => 5_000,
            Workload::CheckpointCycle => 30,
        }
    }

    fn layout(self) -> Vec<SlotPopulation> {
        match self {
            Workload::ChaseSerial => layouts::single_contutto_for_latency(ContuttoConfig::base()),
            Workload::MlpMixed | Workload::CheckpointCycle => layouts::one_contutto_six_cdimm(
                ContuttoConfig::base(),
                MemoryPopulation::dram_8gb(),
            ),
            Workload::PacedIdle => {
                layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb())
            }
        }
    }

    fn failover(self) -> FailoverMode {
        match self {
            Workload::PacedIdle => FailoverMode::Mirrored {
                primary: 2,
                mirror: 4,
            },
            _ => FailoverMode::None,
        }
    }

    fn keys(self, sys: &Power8System) -> KeySpace {
        let map = sys.memory_map();
        match self {
            Workload::ChaseSerial | Workload::PacedIdle => KeySpace::new(
                map,
                &[2],
                u64::MAX,
                CONTUTTO_HOT,
                Popularity::Uniform { hot_frac: 0.5 },
                None,
            ),
            Workload::MlpMixed | Workload::CheckpointCycle => {
                let mut slots: Vec<usize> = sys.channels().iter().map(|c| c.slot).collect();
                slots.retain(|&s| map.channel_is_mapped(s));
                KeySpace::new(
                    map,
                    &slots,
                    MLP_LINES,
                    MLP_HOT,
                    Popularity::Zipf(Zipf::new(MLP_LINES, 0.99)),
                    Some(0.99),
                )
            }
        }
    }
}

/// A booted, preloaded machine ready for the timed phase.
pub struct World {
    pub workload: Workload,
    pub sut: Sut,
    /// `checkpoint-cycle`'s restore target, booted during set-up.
    pub twin: Option<Sut>,
    pub keys: KeySpace,
    pub ledger: Ledger,
    pub rng: Rng,
    /// Frame-slot time of each slot's link, in ps (0 for empty slots).
    frame_ps: Vec<u64>,
    /// Set-up violations (preload reads, boot).
    pub setup_tally: Tally,
}

/// How the run tracks its spans and the simulator's trace ring.
#[derive(Clone)]
pub enum Instrument {
    None,
    Spans(SpanHandle),
    Ring,
}

fn boot(w: Workload, seed: u64, inst: &Instrument) -> Sut {
    let layout = w.layout();
    let spans = match inst {
        Instrument::Spans(s) => Some(s.clone()),
        _ => None,
    };
    if let Some(s) = &spans {
        s.borrow_mut().open(Kind::Boot, None);
    }
    let mut sys = Power8System::boot_with_failover(layout.clone(), seed, w.failover())
        .expect("benchmark layouts boot");
    if let Some(s) = &spans {
        s.borrow_mut().close(None);
        install_shims(&mut sys, &layout, seed, s);
    }
    if let Instrument::Ring = inst {
        sys.enable_tracing(RING_CAPACITY);
    }
    match w {
        Workload::ChaseSerial => sys.set_mlp_window(1),
        Workload::PacedIdle => sys.set_overload_config(OverloadConfig::protective()),
        Workload::MlpMixed | Workload::CheckpointCycle => sys.set_mlp_window(MLP_WINDOW),
    }
    Sut::new(sys, spans)
}

/// Boots the workload's machine and writes its hot set: the set-up
/// that `setup_s` times.
pub fn setup(w: Workload, seed: u64, inst: &Instrument) -> World {
    let mut sut = boot(w, seed, inst);
    let keys = w.keys(&sut.sys);
    let mut ledger = Ledger::new(seed);
    let mut tally = Tally::default();
    let limit = 16 * sut.sys.channels().len();
    if w == Workload::ChaseSerial {
        sut.sys.set_mlp_window(MLP_WINDOW);
    }
    for rank in 0..keys.hot {
        let phys = keys.phys(rank);
        sut.submit(&mut tally, &mut ledger, phys, true, None, None);
        while sut.outstanding() >= limit {
            sut.poll(&mut tally, &mut ledger);
        }
    }
    sut.drain(&mut tally, &mut ledger);
    if w == Workload::ChaseSerial {
        sut.sys.set_mlp_window(1);
    }
    if tally.failures.total() > 0 {
        tally.mismatch(format!("{} preload stores failed", tally.failures.total()));
    }
    let twin = (w == Workload::CheckpointCycle).then(|| boot(w, seed, inst));
    let frame_ps = w
        .layout()
        .iter()
        .map(|p| match p {
            SlotPopulation::Empty => 0,
            SlotPopulation::Cdimm { .. } => ChannelConfig::centaur().speed.frame_time().as_ps(),
            SlotPopulation::ConTutto { .. } => ChannelConfig::contutto().speed.frame_time().as_ps(),
        })
        .collect();
    World {
        workload: w,
        sut,
        twin,
        keys,
        ledger,
        rng: Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ w as u64),
        frame_ps,
        setup_tally: tally,
    }
}

/// When the timed phase stops: after a host-time budget, or after a
/// fixed number of units (requests, arrivals or cycles), whichever
/// comes first. The phase is cut into slices of `slice` host time.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    pub until: Option<Instant>,
    pub units: Option<u64>,
    pub slice: Duration,
}

impl Limit {
    fn done(&self, units: u64) -> bool {
        self.units.is_some_and(|n| units >= n) || self.until.is_some_and(|t| Instant::now() >= t)
    }
}

/// One slice of the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub host_s: f64,
    pub completed: u64,
    pub sim_ps: u64,
    /// Host latency quantiles of the requests seen in the slice (ns).
    pub host_p50_ns: f64,
    pub host_p99_ns: f64,
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// The phase cut into slices of equal host time; the end-to-end
    /// host metrics are medians over slices, so a burst of load from
    /// elsewhere on the host moves them less.
    pub slices: Vec<Slice>,
    slice_start: Option<(Instant, u64, u64)>,
    pub tally: Tally,
    /// Requests (closed loop), arrivals (open loop) or cycles.
    pub units: u64,
    pub host: Duration,
    /// Simulated time the phase covered.
    pub sim_ps: u64,
    /// Frame slots simulated, summed over channels.
    pub slots: f64,
    /// Snapshot and restore durations (ns), and image sizes (bytes).
    pub snapshot_ns: Vec<u64>,
    pub restore_ns: Vec<u64>,
    pub image_bytes: Vec<u64>,
    /// Counter deltas over the phase.
    pub counters: Vec<(String, u64)>,
    /// Span totals over the phase, in the traced run.
    pub spans: Option<Totals>,
    /// The simulated results of the first [`Workload::sim_prefix`] units.
    pub prefix: Option<Prefix>,
    /// Every model metric at the end of the phase, for the
    /// transparency check.
    pub model: Vec<(String, contutto_sim::Metric)>,
}

/// Where the phase stood after its first [`Workload::sim_prefix`] units.
#[derive(Debug, Clone, Copy)]
pub struct Prefix {
    pub sim_ps: u64,
    pub completed: u64,
    /// Simulated read latencies recorded so far.
    pub reads: usize,
}

/// Counters whose phase deltas the per-layer report uses.
const COUNTERS: [&str; 16] = [
    "dmi.host.frames_tx",
    "dmi.buffer.frames_tx",
    "dmi.host.crc_errors",
    "dmi.buffer.crc_errors",
    "dmi.host.frames_replayed",
    "dmi.buffer.frames_replayed",
    "channel.retries_scheduled",
    "buffer.cache.hits",
    "buffer.cache.misses",
    "buffer.avalon_transfers",
    "system.overload.shed_admission",
    "system.overload.shed_deadline",
    "system.overload.shed_breaker",
    "system.overload.expired_at_submit",
    "system.overload.hedges_issued",
    "system.overload.hedges_won",
];

fn add_counters(ph: &mut Phase, before: &[u64], after: &[u64]) {
    if ph.counters.is_empty() {
        ph.counters = COUNTERS.iter().map(|n| ((*n).to_string(), 0)).collect();
    }
    for ((_, total), (b, a)) in ph.counters.iter_mut().zip(before.iter().zip(after)) {
        *total += a - b;
    }
}

/// Books progress after each unit: records the prefix once the phase
/// has run `prefix` units, and closes the slice once its host time is
/// up. `sim_ps` is the simulated time covered so far.
fn progress(ph: &mut Phase, limit: &Limit, prefix: u64, sim_ps: u64) {
    if ph.units == prefix {
        ph.prefix = Some(Prefix {
            sim_ps,
            completed: ph.tally.completed,
            reads: ph.tally.sim_read_ps.len(),
        });
        ph.tally.sim_done = true;
    }
    let now = Instant::now();
    if ph
        .slice_start
        .is_some_and(|(start, _, _)| now.duration_since(start) >= limit.slice)
    {
        close_slice(ph, now, sim_ps);
    }
}

fn close_slice(ph: &mut Phase, now: Instant, sim_ps: u64) {
    let Some((start, completed0, sim0)) = ph.slice_start.take() else {
        return;
    };
    ph.slices.push(Slice {
        host_s: now.duration_since(start).as_secs_f64(),
        completed: ph.tally.completed - completed0,
        sim_ps: sim_ps - sim0,
        host_p50_ns: ph.tally.host.quantile(0.5),
        host_p99_ns: ph.tally.host.quantile(0.99),
    });
    ph.tally.host = LogHist::default();
    ph.slice_start = Some((now, ph.tally.completed, sim_ps));
}

fn since(sys: &Power8System, sim0: SimTime) -> u64 {
    sys.now().saturating_sub(sim0).as_ps()
}

fn counters(sys: &Power8System) -> Vec<u64> {
    let m = sys.metrics();
    COUNTERS.iter().map(|n| m.counter(n)).collect()
}

fn slots(world: &World, sys: &Power8System, from: &[(usize, u64)]) -> f64 {
    sys.channels()
        .iter()
        .map(|c| {
            let start = from.iter().find(|(s, _)| *s == c.slot).map_or(0, |x| x.1);
            c.channel.now().as_ps().saturating_sub(start) as f64 / world.frame_ps[c.slot] as f64
        })
        .sum()
}

fn clocks(sys: &Power8System) -> Vec<(usize, u64)> {
    sys.channels()
        .iter()
        .map(|c| (c.slot, c.channel.now().as_ps()))
        .collect()
}

/// Runs the timed phase.
pub fn run(world: &mut World, limit: Limit) -> Phase {
    let mut ph = Phase::default();
    world.sut.start_phase();
    let spans0 = world.sut.span_totals();
    let before = counters(&world.sut.sys);
    let clocks0 = clocks(&world.sut.sys);
    let sim0 = world.sut.sys.now();
    let prefix = world.workload.sim_prefix();
    let start = Instant::now();
    ph.slice_start = Some((start, 0, 0));
    match world.workload {
        Workload::ChaseSerial => chase(world, limit, prefix, sim0, &mut ph),
        Workload::MlpMixed => mlp(world, limit, prefix, sim0, &mut ph),
        Workload::PacedIdle => paced(world, limit, prefix, sim0, &mut ph),
        Workload::CheckpointCycle => checkpoint(world, limit, prefix, sim0, &mut ph),
    }
    ph.host = start.elapsed();
    ph.sim_ps += world.sut.sys.now().saturating_sub(sim0).as_ps();
    // The last slice counts if it ran at least half a slice.
    let now = Instant::now();
    if ph
        .slice_start
        .is_some_and(|(t, _, _)| now.duration_since(t) >= limit.slice / 2)
    {
        let sim_ps = ph.sim_ps;
        close_slice(&mut ph, now, sim_ps);
    }
    ph.slots += slots(world, &world.sut.sys, &clocks0);
    add_counters(&mut ph, &before, &counters(&world.sut.sys));
    if let (Some(t0), Some(t1)) = (spans0, world.sut.span_totals()) {
        ph.spans = Some(t1.since(&t0));
    }
    ph.model = model_metrics(&world.sut.sys);
    ph
}

/// Draws a request the ledger can check: a read or write key whose
/// line has no conflicting request in flight. `None` when every draw
/// conflicted.
fn draw(world: &mut World, write: bool) -> Option<u64> {
    world.sut.gen_begin();
    let phys = draw_inner(world, write);
    world.sut.gen_end();
    phys
}

fn draw_inner(world: &mut World, write: bool) -> Option<u64> {
    for _ in 0..64 {
        let rank = if write {
            world.keys.write_rank(&mut world.rng)
        } else {
            world.keys.read_rank(&mut world.rng)
        };
        let phys = world.keys.phys(rank);
        if world.sut.may_issue(phys & !127, write) {
            return Some(phys);
        }
    }
    None
}

fn chase(world: &mut World, limit: Limit, prefix: u64, sim0: SimTime, ph: &mut Phase) {
    while !limit.done(ph.units) {
        let phys = draw(world, false).expect("reads never conflict in a serial chase");
        let id = world
            .sut
            .submit(&mut ph.tally, &mut world.ledger, phys, false, None, None);
        if let Some(id) = id {
            world.sut.wait(&mut ph.tally, &mut world.ledger, id);
        }
        ph.units += 1;
        progress(ph, &limit, prefix, since(&world.sut.sys, sim0));
    }
}

fn mlp(world: &mut World, limit: Limit, prefix: u64, sim0: SimTime, ph: &mut Phase) {
    let clients = MLP_WINDOW * world.sut.sys.channels().len();
    while !limit.done(ph.units) {
        while world.sut.outstanding() < clients && !limit.done(ph.units) {
            let write = world.rng.chance(0.3);
            let Some(phys) = draw(world, write) else {
                break;
            };
            world
                .sut
                .submit(&mut ph.tally, &mut world.ledger, phys, write, None, None);
            ph.units += 1;
            progress(ph, &limit, prefix, since(&world.sut.sys, sim0));
        }
        world.sut.poll(&mut ph.tally, &mut world.ledger);
    }
    world.sut.drain(&mut ph.tally, &mut world.ledger);
}

fn paced(world: &mut World, limit: Limit, prefix: u64, sim0: SimTime, ph: &mut Phase) {
    let mut due_ps = world.sut.sys.now().as_ps() as f64;
    while !limit.done(ph.units) {
        due_ps += world.rng.exp(PACED_GAP_PS);
        let due = SimTime::from_ps(due_ps as u64);
        world.sut.advance_to(due);
        world.sut.poll(&mut ph.tally, &mut world.ledger);
        let write = world.rng.chance(0.2);
        if let Some(phys) = draw(world, write) {
            world.sut.submit(
                &mut ph.tally,
                &mut world.ledger,
                phys,
                write,
                Some(due),
                Some(due + PACED_DEADLINE),
            );
        }
        ph.units += 1;
        progress(ph, &limit, prefix, since(&world.sut.sys, sim0));
    }
    world.sut.drain(&mut ph.tally, &mut world.ledger);
}

fn checkpoint(world: &mut World, limit: Limit, prefix: u64, sim0: SimTime, ph: &mut Phase) {
    let mut twin = world.twin.take().expect("checkpoint-cycle boots a twin");
    while !limit.done(ph.units) {
        let mut burst = Vec::with_capacity(CKPT_BURST);
        while burst.len() < CKPT_BURST {
            match draw(world, true) {
                Some(phys) => {
                    world
                        .sut
                        .submit(&mut ph.tally, &mut world.ledger, phys, true, None, None);
                    burst.push(phys);
                }
                None => world.sut.poll(&mut ph.tally, &mut world.ledger),
            }
        }
        world.sut.settle(&mut ph.tally, &mut world.ledger);

        let t = Instant::now();
        let image = world.sut.snapshot();
        ph.snapshot_ns.push(t.elapsed().as_nanos() as u64);
        ph.image_bytes.push(image.len() as u64);
        let t = Instant::now();
        let restored = twin.restore(&image);
        ph.restore_ns.push(t.elapsed().as_nanos() as u64);
        if let Err(e) = restored {
            ph.tally
                .mismatch(format!("restore into the twin failed: {e}"));
            break;
        }
        if let Some(d) = first_difference(&model_metrics(&world.sut.sys), &model_metrics(&twin.sys))
        {
            ph.tally.mismatch(format!(
                "restored twin's metrics differ from the source: {d}"
            ));
        }

        let twin0 = twin.sys.now();
        let twin_clocks = clocks(&twin.sys);
        let twin_before = counters(&twin.sys);
        for i in 0..CKPT_READBACK {
            let phys = if i % 2 == 0 {
                burst[i * CKPT_BURST / CKPT_READBACK]
            } else {
                world.keys.phys(world.keys.read_rank(&mut world.rng))
            };
            if twin.may_issue(phys & !127, false) {
                twin.submit(&mut ph.tally, &mut world.ledger, phys, false, None, None);
            }
        }
        twin.settle(&mut ph.tally, &mut world.ledger);
        ph.sim_ps += twin.sys.now().saturating_sub(twin0).as_ps();
        ph.slots += slots(world, &twin.sys, &twin_clocks);
        add_counters(ph, &twin_before, &counters(&twin.sys));
        ph.units += 1;
        let sim_ps = ph.sim_ps + since(&world.sut.sys, sim0);
        progress(ph, &limit, prefix, sim_ps);
    }
    world.twin = Some(twin);
}

/// Snapshots the end state of a workload whose timed loop never
/// checkpoints, restoring each image onto the machine it came from and
/// checking that the restore changed no model metric.
pub fn end_snapshots(world: &mut World, ph: &mut Phase) {
    if world.workload == Workload::CheckpointCycle {
        return;
    }
    let before = model_metrics(&world.sut.sys);
    for _ in 0..END_SNAPSHOTS {
        let t = Instant::now();
        let image = world.sut.snapshot();
        ph.snapshot_ns.push(t.elapsed().as_nanos() as u64);
        ph.image_bytes.push(image.len() as u64);
        let t = Instant::now();
        let restored = world.sut.restore(&image);
        ph.restore_ns.push(t.elapsed().as_nanos() as u64);
        if let Err(e) = restored {
            ph.tally
                .mismatch(format!("restoring the end state failed: {e}"));
            return;
        }
    }
    if let Some(d) = first_difference(&before, &model_metrics(&world.sut.sys)) {
        ph.tally
            .mismatch(format!("restoring the end state changed a metric: {d}"));
    }
}
