//! In-memory spans for the traced run, and the forwarding shim that
//! times `DmiBuffer` calls.
//!
//! Every call the benchmark makes into a layer opens a span: a kind,
//! a start and end on the host clock, the span that encloses it and
//! the `ReqId` it serves. Self time is a span's duration minus the
//! time of its children. Totals per kind are kept for every span; the
//! first [`LOG_CAP`] spans of the timed phase are also kept whole and
//! written out at the end of the run.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use contutto_centaur::Centaur;
use contutto_core::ConTutto;
use contutto_dmi::frame::{CommandHeader, DownstreamPayload, UpstreamPayload};
use contutto_dmi::training::TrainerConfig;
use contutto_dmi::{DmiBuffer, MediaFaultSpec, PowerRestoreOutcome};
use contutto_power8::firmware::{P8_MAX_FRTL_BUS_CYCLES, TRAINING_RETRIES};
use contutto_power8::{ChannelConfig, DmiChannel, Power8System, SlotPopulation};
use contutto_sim::snapshot::{RestoreError, SnapReader};
use contutto_sim::{MetricsRegistry, SimTime, Tracer};

/// Spans kept whole for the span file; later spans only feed totals.
pub const LOG_CAP: usize = 400_000;

/// No request: shared pump work, or work the shim cannot attribute
/// (hedge arms, retries, link control).
const NO_REQ: u64 = u64::MAX;
const NO_SPAN: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Boot,
    Submit,
    Poll,
    WaitReq,
    AdvanceTo,
    Drain,
    Snapshot,
    Restore,
    Push,
    Pull,
    Gen,
}

pub const KINDS: [Kind; 11] = [
    Kind::Boot,
    Kind::Submit,
    Kind::Poll,
    Kind::WaitReq,
    Kind::AdvanceTo,
    Kind::Drain,
    Kind::Snapshot,
    Kind::Restore,
    Kind::Push,
    Kind::Pull,
    Kind::Gen,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Boot => "Power8System::boot",
            Kind::Submit => "Power8System::submit",
            Kind::Poll => "Power8System::poll",
            Kind::WaitReq => "Power8System::wait_req",
            Kind::AdvanceTo => "Power8System::advance_to",
            Kind::Drain => "Power8System::drain",
            Kind::Snapshot => "Power8System::snapshot",
            Kind::Restore => "Power8System::restore",
            Kind::Push => "DmiBuffer::push_downstream",
            Kind::Pull => "DmiBuffer::pull_upstream",
            Kind::Gen => "bench::generator",
        }
    }

    /// The calls that step the channels.
    pub fn is_pump(self) -> bool {
        matches!(
            self,
            Kind::Poll | Kind::WaitReq | Kind::AdvanceTo | Kind::Drain
        )
    }

    pub fn is_buffer(self) -> bool {
        matches!(self, Kind::Push | Kind::Pull)
    }
}

/// Totals for one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub incl_ns: u64,
    pub self_ns: u64,
}

struct Open {
    kind: Kind,
    start: u64,
    child: u64,
    req: u64,
    log: u32,
}

#[derive(Debug, Clone, Copy)]
struct Rec {
    kind: Kind,
    start: u64,
    dur: u64,
    self_ns: u64,
    parent: u32,
    req: u64,
}

/// Buffer-side counters the shim takes where the work happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShimCounts {
    /// Downstream payloads that carried a command or write data.
    pub push_payloads: u64,
    /// Upstream slot grants that returned data or a done.
    pub pull_useful: u64,
    /// Downstream command headers, and those matched to a benchmark
    /// request.
    pub push_commands: u64,
    pub push_attributed: u64,
}

impl ShimCounts {
    fn minus(self, o: ShimCounts) -> ShimCounts {
        ShimCounts {
            push_payloads: self.push_payloads - o.push_payloads,
            pull_useful: self.pull_useful - o.pull_useful,
            push_commands: self.push_commands - o.push_commands,
            push_attributed: self.push_attributed - o.push_attributed,
        }
    }
}

/// Span totals at one moment; the difference of two covers the calls
/// made between them.
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    agg: [Agg; KINDS.len()],
    /// Buffer time spent inside pump calls.
    pub buffer_in_pump_ns: u64,
    pub counts: ShimCounts,
}

impl Totals {
    pub fn agg(&self, kind: Kind) -> Agg {
        self.agg[kind as usize]
    }

    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut agg = self.agg;
        for (a, e) in agg.iter_mut().zip(&earlier.agg) {
            a.calls -= e.calls;
            a.incl_ns -= e.incl_ns;
            a.self_ns -= e.self_ns;
        }
        Totals {
            agg,
            buffer_in_pump_ns: self.buffer_in_pump_ns - earlier.buffer_in_pump_ns,
            counts: self.counts.minus(earlier.counts),
        }
    }
}

/// The span recorder shared by the workload loop and every shim.
pub struct Spans {
    epoch: Instant,
    stack: Vec<Open>,
    agg: [Agg; KINDS.len()],
    buffer_in_pump_ns: u64,
    log: Vec<Rec>,
    counts: ShimCounts,
    /// Requests submitted but whose command has not reached the
    /// buffer yet, per (slot, channel-local line address).
    awaiting: HashMap<(usize, u64), VecDeque<u64>>,
    /// The request each live link tag carries, per slot.
    tags: HashMap<(usize, usize), u64>,
}

pub type SpanHandle = Rc<RefCell<Spans>>;

impl Spans {
    pub fn new() -> SpanHandle {
        Rc::new(RefCell::new(Spans {
            epoch: Instant::now(),
            stack: Vec::new(),
            agg: [Agg::default(); KINDS.len()],
            buffer_in_pump_ns: 0,
            log: Vec::new(),
            counts: ShimCounts::default(),
            awaiting: HashMap::new(),
            tags: HashMap::new(),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, kind: Kind, req: Option<u64>) {
        let inherited = self.stack.last().map_or(NO_REQ, |o| o.req);
        let req = req.unwrap_or(inherited);
        let log = if self.log.len() < LOG_CAP {
            let parent = self.stack.last().map_or(NO_SPAN, |o| o.log);
            self.log.push(Rec {
                kind,
                start: 0,
                dur: 0,
                self_ns: 0,
                parent,
                req,
            });
            (self.log.len() - 1) as u32
        } else {
            NO_SPAN
        };
        let start = self.now_ns();
        self.stack.push(Open {
            kind,
            start,
            child: 0,
            req,
            log,
        });
    }

    /// Closes the innermost span; `req` names the request when it is
    /// only known on return (a submit).
    pub fn close(&mut self, req: Option<u64>) {
        let end = self.now_ns();
        let o = self.stack.pop().expect("close matches an open span");
        let dur = end.saturating_sub(o.start);
        let self_ns = dur.saturating_sub(o.child);
        let a = &mut self.agg[o.kind as usize];
        a.calls += 1;
        a.incl_ns += dur;
        a.self_ns += self_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child += dur;
        }
        if o.kind.is_buffer() && self.stack.iter().any(|s| s.kind.is_pump()) {
            self.buffer_in_pump_ns += dur;
        }
        if let Some(r) = self.log.get_mut(o.log as usize) {
            r.start = o.start;
            r.dur = dur;
            r.self_ns = self_ns;
            if let Some(id) = req {
                r.req = id;
            }
        }
    }

    /// Drops the whole spans kept so far, so the span file shows the
    /// timed phase. Call only with no span open.
    pub fn restart_log(&mut self) {
        debug_assert!(self.stack.is_empty(), "no span may be open");
        self.log.clear();
    }

    pub fn totals(&self) -> Totals {
        Totals {
            agg: self.agg,
            buffer_in_pump_ns: self.buffer_in_pump_ns,
            counts: self.counts,
        }
    }

    /// Notes a submitted request so the shim can match its command.
    pub fn expect_command(&mut self, slot: usize, line: u64, req: u64) {
        self.awaiting
            .entry((slot, line))
            .or_default()
            .push_back(req);
    }

    fn attribute_push(&mut self, slot: usize, payload: &DownstreamPayload) -> Option<u64> {
        match payload {
            DownstreamPayload::Command { tag, header } => {
                self.counts.push_payloads += 1;
                self.counts.push_commands += 1;
                let addr = match *header {
                    CommandHeader::Read { addr }
                    | CommandHeader::Write { addr }
                    | CommandHeader::Rmw { addr, .. } => addr,
                    CommandHeader::Flush => return None,
                };
                let queue = self.awaiting.get_mut(&(slot, addr))?;
                let req = queue.pop_front()?;
                if queue.is_empty() {
                    self.awaiting.remove(&(slot, addr));
                }
                self.counts.push_attributed += 1;
                self.tags.insert((slot, tag.index()), req);
                Some(req)
            }
            DownstreamPayload::WriteData { tag, .. } => {
                self.counts.push_payloads += 1;
                self.tags.get(&(slot, tag.index())).copied()
            }
            _ => None,
        }
    }

    fn attribute_pull(&mut self, slot: usize, payload: &Option<UpstreamPayload>) -> Option<u64> {
        let tag = match payload {
            Some(UpstreamPayload::ReadData { tag, .. }) => *tag,
            Some(UpstreamPayload::Done { first, .. }) => *first,
            _ => return None,
        };
        self.counts.pull_useful += 1;
        self.tags.get(&(slot, tag.index())).copied()
    }

    /// Sets the request of the innermost open span.
    fn tag_current(&mut self, req: Option<u64>) {
        if let (Some(id), Some(o)) = (req, self.stack.last_mut()) {
            o.req = id;
            if let Some(r) = self.log.get_mut(o.log as usize) {
                r.req = id;
            }
        }
    }

    /// The whole spans, one per line: index, parent, kind, request,
    /// start, duration and self time in host nanoseconds.
    pub fn render(&self) -> String {
        let mut out = String::from("# span\tparent\tkind\treq\tstart_ns\tdur_ns\tself_ns\n");
        for (i, r) in self.log.iter().enumerate() {
            let parent = if r.parent == NO_SPAN {
                "-".to_string()
            } else {
                r.parent.to_string()
            };
            let req = if r.req == NO_REQ {
                "-".to_string()
            } else {
                r.req.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{req}\t{}\t{}\t{}",
                r.kind.name(),
                r.start,
                r.dur,
                r.self_ns
            );
        }
        out
    }

    pub fn logged(&self) -> usize {
        self.log.len()
    }
}

/// Forwards every `DmiBuffer` call to the real buffer, timing the two
/// data-path calls.
pub struct Shim {
    inner: Box<dyn DmiBuffer>,
    slot: usize,
    spans: SpanHandle,
}

impl DmiBuffer for Shim {
    fn push_downstream(&mut self, now: SimTime, payload: DownstreamPayload) {
        {
            let mut s = self.spans.borrow_mut();
            let req = s.attribute_push(self.slot, &payload);
            s.open(Kind::Push, req);
        }
        self.inner.push_downstream(now, payload);
        self.spans.borrow_mut().close(None);
    }

    fn pull_upstream(&mut self, now: SimTime) -> Option<UpstreamPayload> {
        self.spans.borrow_mut().open(Kind::Pull, None);
        let out = self.inner.pull_upstream(now);
        let mut s = self.spans.borrow_mut();
        let req = s.attribute_pull(self.slot, &out);
        s.tag_current(req);
        s.close(None);
        out
    }

    fn frtl_turnaround(&self) -> SimTime {
        self.inner.frtl_turnaround()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn attach_tracer(&mut self, tracer: Tracer) {
        self.inner.attach_tracer(tracer);
    }

    fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        self.inner.register_metrics(prefix, registry);
    }

    fn sideband_read_line(&mut self, now: SimTime, addr: u64) -> Option<([u8; 128], bool)> {
        self.inner.sideband_read_line(now, addr)
    }

    fn sideband_write_line(&mut self, addr: u64, data: &[u8; 128], poison: bool) -> bool {
        self.inner.sideband_write_line(addr, data, poison)
    }

    fn epow_flush(&mut self, now: SimTime, energy_nj: &mut u64) -> SimTime {
        self.inner.epow_flush(now, energy_nj)
    }

    fn power_cut(&mut self, now: SimTime) -> SimTime {
        self.inner.power_cut(now)
    }

    fn power_restore(&mut self, now: SimTime) -> (SimTime, PowerRestoreOutcome) {
        self.inner.power_restore(now)
    }

    fn set_save_armed(&mut self, armed: bool) -> bool {
        self.inner.set_save_armed(armed)
    }

    fn set_supercap_budget_nj(&mut self, nj: u64) {
        self.inner.set_supercap_budget_nj(nj);
    }

    fn arm_media_faults(&mut self, now: SimTime, spec: MediaFaultSpec) -> bool {
        self.inner.arm_media_faults(now, spec)
    }

    fn set_scrub(&mut self, now: SimTime, interval: Option<SimTime>) -> bool {
        self.inner.set_scrub(now, interval)
    }

    fn scrub_interval(&self) -> Option<SimTime> {
        self.inner.scrub_interval()
    }

    fn snapshot_state(&self, out: &mut Vec<u8>) {
        self.inner.snapshot_state(out);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), RestoreError> {
        self.inner.restore_state(r)
    }
}

/// Replaces every booted channel of `sys` with an identical channel
/// whose buffer sits behind a [`Shim`]: the same buffer model built
/// from the same slot population, trained with the firmware's trainer
/// settings and seed sequence — the way the traffic campaign installs
/// its scrub-storm victim channel. Panics if a retrained channel does
/// not reproduce the booted training outcome, since the traced run
/// would then model a different machine.
pub fn install_shims(
    sys: &mut Power8System,
    layout: &[SlotPopulation],
    seed: u64,
    spans: &SpanHandle,
) {
    let trainer = TrainerConfig {
        max_frtl_bus_cycles: P8_MAX_FRTL_BUS_CYCLES,
        ..TrainerConfig::default()
    };
    let slots: Vec<usize> = sys.channels().iter().map(|c| c.slot).collect();
    for slot in slots {
        let (cfg, buffer): (ChannelConfig, Box<dyn DmiBuffer>) = match &layout[slot] {
            SlotPopulation::Cdimm { config, capacity } => (
                ChannelConfig::centaur(),
                Box::new(Centaur::new(config.clone(), *capacity)),
            ),
            SlotPopulation::ConTutto { config, population } => (
                ChannelConfig::contutto(),
                Box::new(ConTutto::new(*config, *population)),
            ),
            SlotPopulation::Empty => unreachable!("a booted slot is populated"),
        };
        let mut channel = DmiChannel::new(
            cfg,
            Box::new(Shim {
                inner: buffer,
                slot,
                spans: Rc::clone(spans),
            }),
        );
        let outcome = (0..TRAINING_RETRIES)
            .find_map(|attempt| {
                channel
                    .train(trainer.clone(), seed ^ u64::from(attempt))
                    .ok()
            })
            .expect("a slot that trained at boot trains again");
        let booted = sys.channel_mut(slot).expect("slot listed above");
        assert_eq!(
            booted.training, outcome,
            "shimmed channel {slot} must train exactly as at boot"
        );
        booted.channel = channel;
    }
}
