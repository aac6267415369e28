//! The system under test, as the benchmark drives it: every call into
//! `Power8System` goes through [`Sut`], which opens a span around it in
//! the traced run, and every result is checked against the [`Ledger`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

use contutto_dmi::{CacheLine, DmiError};
use contutto_power8::system::{MemCompletion, ReqId};
use contutto_power8::{Power8System, SystemError};
use contutto_sim::snapshot::RestoreError;
use contutto_sim::{Metric, SimTime};

use crate::spans::{Kind, SpanHandle, Totals};
use crate::stats::LogHist;

/// The last value written to each line. A line never written reads as
/// zero. Values are `CacheLine::patterned(v)`; `None` marks a line
/// whose last write failed, so its content is unknown.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    lines: HashMap<u64, Option<u64>>,
    next: u64,
}

impl Ledger {
    pub fn new(seed: u64) -> Self {
        Ledger {
            lines: HashMap::new(),
            next: seed.wrapping_mul(0xA24B_AED4_963E_E407) | 1,
        }
    }

    /// A fresh value for a store to `line`; recorded at once, since
    /// the generator keeps every other request off a line with a
    /// write in flight.
    pub fn write(&mut self, line: u64) -> CacheLine {
        self.next = self.next.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.lines.insert(line, Some(self.next));
        CacheLine::patterned(self.next)
    }

    pub fn write_failed(&mut self, line: u64) {
        self.lines.insert(line, None);
    }

    /// What a read of `line` must return, or `None` if unknown.
    pub fn expect(&self, line: u64) -> Option<CacheLine> {
        match self.lines.get(&line) {
            None => Some(CacheLine::ZERO),
            Some(v) => v.map(CacheLine::patterned),
        }
    }

    /// Lines ever written.
    pub fn written(&self) -> usize {
        self.lines.len()
    }
}

/// Why a request did not complete, by `SystemError` kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    pub shed: u64,
    pub deadline: u64,
    pub route: u64,
    pub stalled: u64,
    pub rmw_aborted: u64,
    pub poisoned: u64,
    pub other: u64,
}

impl Failures {
    pub fn count(&mut self, e: &SystemError) {
        match e {
            SystemError::Shed { .. } => self.shed += 1,
            SystemError::DeadlineExceeded | SystemError::Dmi(DmiError::DeadlineExceeded { .. }) => {
                self.deadline += 1
            }
            SystemError::Route(_) => self.route += 1,
            SystemError::Stalled => self.stalled += 1,
            SystemError::Dmi(DmiError::RmwAborted { .. }) => self.rmw_aborted += 1,
            SystemError::Dmi(DmiError::Poisoned { .. }) => self.poisoned += 1,
            _ => self.other += 1,
        }
    }

    pub fn total(&self) -> u64 {
        self.shed
            + self.deadline
            + self.route
            + self.stalled
            + self.rmw_aborted
            + self.poisoned
            + self.other
    }
}

/// A request the benchmark submitted and has not seen complete.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    line: u64,
    write: bool,
    host_start: Instant,
    /// When the request was due (open loop) or submitted (closed
    /// loop), on its channel's clock.
    sim_start: SimTime,
    /// Whether a closed-loop client issued it, so its completion frees
    /// that client.
    closed: bool,
}

/// What the run measured, request by request, in memory that does not
/// grow with the length of the run.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub completed: u64,
    pub failures: Failures,
    /// Host latency (ns) of the requests seen in the current slice.
    pub host: LogHist,
    /// Simulated read latencies (ps) until `sim_done` is set.
    pub sim_read_ps: Vec<u64>,
    pub sim_done: bool,
    /// Every simulated read latency, as a count and a digest.
    pub sim_reads: u64,
    pub sim_digest: u64,
    /// How far `Power8System::now()` had passed each request's due
    /// time when the generator submitted it (ps).
    pub late: LogHist,
    /// Correctness violations; any one fails the run.
    pub mismatches: u64,
}

/// The latency booked for a request that failed or was refused: it
/// misses every latency limit.
pub const MISSED: u64 = u64::MAX;

/// Poll rounds [`Sut::settle`] tries before it leaves the rest to the
/// simulator's own stall watchdog in `drain`.
const SETTLE_POLLS: u32 = 1_000_000;

impl Tally {
    fn failed(&mut self, e: &SystemError, write: bool) {
        self.failures.count(e);
        self.host.record(MISSED);
        if !write {
            self.sim_read(MISSED);
        }
    }

    fn sim_read(&mut self, ps: u64) {
        if !self.sim_done {
            self.sim_read_ps.push(ps);
        }
        self.sim_reads += 1;
        self.sim_digest = (self.sim_digest ^ ps).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Books a correctness violation; the first few are printed.
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches < 16 {
            eprintln!("perfbench: MISMATCH: {what}");
        }
        self.mismatches += 1;
    }
}

pub struct Sut {
    pub sys: Power8System,
    spans: Option<SpanHandle>,
    inflight: HashMap<u64, InFlight>,
    /// Requests in flight per line, and the lines with a write in
    /// flight.
    busy: HashMap<u64, u32>,
    writes_busy: HashSet<u64>,
    /// When each freed closed-loop client became free: the due time of
    /// its next request.
    free_since: VecDeque<SimTime>,
}

impl Sut {
    pub fn new(sys: Power8System, spans: Option<SpanHandle>) -> Self {
        Sut {
            sys,
            spans,
            inflight: HashMap::new(),
            busy: HashMap::new(),
            writes_busy: HashSet::new(),
            free_since: VecDeque::new(),
        }
    }

    fn span<T>(
        &mut self,
        kind: Kind,
        req: Option<u64>,
        f: impl FnOnce(&mut Power8System) -> T,
    ) -> T {
        match &self.spans {
            None => f(&mut self.sys),
            Some(s) => {
                s.borrow_mut().open(kind, req);
                let out = f(&mut self.sys);
                s.borrow_mut().close(None);
                out
            }
        }
    }

    /// Opens a generator span: benchmark-side work (drawing inputs,
    /// checking outputs) that the traced run charges to the benchmark.
    pub fn gen_begin(&self) {
        if let Some(s) = &self.spans {
            s.borrow_mut().open(Kind::Gen, None);
        }
    }

    pub fn gen_end(&self) {
        if let Some(s) = &self.spans {
            s.borrow_mut().close(None);
        }
    }

    fn complete_all(
        &mut self,
        tally: &mut Tally,
        ledger: &mut Ledger,
        done: Vec<(ReqId, Result<MemCompletion, SystemError>)>,
    ) {
        self.gen_begin();
        for (id, res) in done {
            self.complete(tally, ledger, id, res);
        }
        self.gen_end();
    }

    /// Whether a request of this kind may go to `line` now without
    /// making its expected value ambiguous.
    pub fn may_issue(&self, line: u64, write: bool) -> bool {
        if write {
            !self.busy.contains_key(&line)
        } else {
            !self.writes_busy.contains(&line)
        }
    }

    /// Span totals so far, in the traced run.
    pub fn span_totals(&self) -> Option<Totals> {
        self.spans.as_ref().map(|s| s.borrow().totals())
    }

    /// Marks the start of the timed phase: closed-loop clients freed
    /// during set-up are forgotten, and in the traced run whole spans
    /// are kept from here on only.
    pub fn start_phase(&mut self) {
        self.free_since.clear();
        if let Some(s) = &self.spans {
            s.borrow_mut().restart_log();
        }
    }

    pub fn outstanding(&self) -> usize {
        self.inflight.len()
    }

    /// Submits a load (`data == None`) or store, due at `due` if the
    /// caller paces arrivals; otherwise a closed-loop client issues it,
    /// due when that client's previous request completed. Submit-time
    /// refusals are counted and return `None`.
    pub fn submit(
        &mut self,
        tally: &mut Tally,
        ledger: &mut Ledger,
        phys: u64,
        write: bool,
        due: Option<SimTime>,
        deadline: Option<SimTime>,
    ) -> Option<ReqId> {
        let line = phys & !127;
        let data = write.then(|| ledger.write(line));
        let host_start = Instant::now();
        let spans = self.spans.clone();
        if let Some(s) = &spans {
            s.borrow_mut().open(Kind::Submit, None);
        }
        let res = match data {
            None => self.sys.submit_load_deadline(phys, deadline),
            Some(d) => self.sys.submit_store_deadline(phys, d, deadline),
        };
        if let Some(s) = &spans {
            s.borrow_mut().close(res.as_ref().ok().map(ReqId::raw));
        }
        tally.attempted += 1;
        match res {
            Ok(id) => {
                let slot_local = self.sys.route(phys);
                if let (Some(s), Some((slot, local))) = (&spans, slot_local) {
                    s.borrow_mut().expect_command(slot, local & !127, id.raw());
                }
                let now = slot_local.map_or(SimTime::ZERO, |(slot, _)| {
                    self.sys
                        .channels()
                        .iter()
                        .find(|c| c.slot == slot)
                        .map_or(SimTime::ZERO, |c| c.channel.now())
                });
                if let Some(d) = due.or_else(|| self.free_since.pop_front()) {
                    tally.late.record(self.sys.now().saturating_sub(d).as_ps());
                }
                self.inflight.insert(
                    id.raw(),
                    InFlight {
                        line,
                        write,
                        host_start,
                        sim_start: due.unwrap_or(now),
                        closed: due.is_none(),
                    },
                );
                *self.busy.entry(line).or_insert(0) += 1;
                if write {
                    self.writes_busy.insert(line);
                }
                Some(id)
            }
            Err(e) => {
                if write {
                    ledger.write_failed(line);
                }
                tally.failed(&e, write);
                None
            }
        }
    }

    /// Books one completion: host and simulated latency, the ledger
    /// check for reads, the failure kind for errors.
    pub fn complete(
        &mut self,
        tally: &mut Tally,
        ledger: &mut Ledger,
        id: ReqId,
        res: Result<MemCompletion, SystemError>,
    ) {
        let seen = Instant::now();
        let Some(req) = self.inflight.remove(&id.raw()) else {
            tally.mismatch(format!("completion for unknown request {}", id.raw()));
            return;
        };
        if let Some(n) = self.busy.get_mut(&req.line) {
            *n -= 1;
            if *n == 0 {
                self.busy.remove(&req.line);
            }
        }
        if req.write {
            self.writes_busy.remove(&req.line);
        }
        if req.closed {
            let at = res.as_ref().map_or(self.sys.now(), |c| c.completed_at);
            self.free_since.push_back(at);
        }
        match res {
            Ok(c) => {
                tally.completed += 1;
                tally
                    .host
                    .record(seen.duration_since(req.host_start).as_nanos() as u64);
                if c.phys & !127 != req.line {
                    tally.mismatch(format!(
                        "request {} for line {:#x} completed for {:#x}",
                        id.raw(),
                        req.line,
                        c.phys
                    ));
                }
                if !req.write {
                    tally.sim_read(c.completed_at.saturating_sub(req.sim_start).as_ps());
                    match (c.data, ledger.expect(req.line)) {
                        (Some(got), Some(want)) if got != want => tally.mismatch(format!(
                            "read of line {:#x} returned data that differs from the last write",
                            req.line
                        )),
                        (None, _) => tally.mismatch(format!(
                            "read of line {:#x} completed without data",
                            req.line
                        )),
                        _ => {}
                    }
                }
            }
            Err(e) => {
                if req.write {
                    ledger.write_failed(req.line);
                }
                tally.failed(&e, req.write);
            }
        }
    }

    pub fn poll(&mut self, tally: &mut Tally, ledger: &mut Ledger) {
        let done = self.span(Kind::Poll, None, Power8System::poll);
        self.complete_all(tally, ledger, done);
    }

    pub fn wait(&mut self, tally: &mut Tally, ledger: &mut Ledger, id: ReqId) {
        let res = self.span(Kind::WaitReq, Some(id.raw()), |sys| sys.wait_req(id));
        self.complete_all(tally, ledger, vec![(id, res)]);
    }

    pub fn advance_to(&mut self, t: SimTime) {
        self.span(Kind::AdvanceTo, None, |sys| sys.advance_to(t));
    }

    /// Polls until every request has completed, so each completion is
    /// seen as soon as it happens; `drain` then catches a stalled one.
    pub fn settle(&mut self, tally: &mut Tally, ledger: &mut Ledger) {
        for _ in 0..SETTLE_POLLS {
            if self.inflight.is_empty() {
                return;
            }
            self.poll(tally, ledger);
        }
        self.drain(tally, ledger);
    }

    pub fn drain(&mut self, tally: &mut Tally, ledger: &mut Ledger) {
        let done = self.span(Kind::Drain, None, Power8System::drain);
        self.complete_all(tally, ledger, done);
        if !self.inflight.is_empty() {
            tally.mismatch(format!(
                "{} requests never completed after drain",
                self.inflight.len()
            ));
            self.inflight.clear();
            self.busy.clear();
            self.writes_busy.clear();
        }
    }

    pub fn snapshot(&mut self) -> Vec<u8> {
        self.span(Kind::Snapshot, None, Power8System::snapshot)
    }

    pub fn restore(&mut self, image: &[u8]) -> Result<(), RestoreError> {
        self.span(Kind::Restore, None, |sys| sys.restore(image))
    }
}

/// Every metric except the `system.snapshot.*` observer namespace,
/// which `Power8System::restore` documents as the only part a restore
/// may change.
pub fn model_metrics(sys: &Power8System) -> Vec<(String, Metric)> {
    sys.metrics()
        .iter()
        .filter(|(name, _)| !name.starts_with("system.snapshot."))
        .map(|(name, m)| (name.to_owned(), m.clone()))
        .collect()
}

/// The first metric on which two systems differ, if any.
pub fn first_difference(a: &[(String, Metric)], b: &[(String, Metric)]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} metrics against {}", a.len(), b.len()));
    }
    a.iter()
        .zip(b)
        .find(|(x, y)| x != y)
        .map(|(x, y)| format!("{} = {} against {} = {}", x.0, x.1, y.0, y.1))
}
