//! SLO-under-fault traffic campaign: what does the tail do *during* a
//! fault?
//!
//! Every prior campaign asserts correctness (no lost bytes, typed
//! errors, determinism). This one asserts the *service level*: an
//! open-loop zipfian request stream runs over the failover testbed
//! while a fault fires mid-run, and the report answers the question
//! none of the earlier tables could — p50/p99/p99.9/p99.99 and
//! SLO-violation counts for steady state versus the fault window, for
//! each of:
//!
//! * **steady** — no fault; the baseline row;
//! * **scrub-storm** — a seeded media flip storm lands while patrol
//!   scrub sweeps the victim card and both link directions turn noisy
//!   (CRC replays are what genuinely stretch the tail — scrub itself
//!   runs in the controller's idle slots);
//! * **failover** — a concurrent-maintenance pull evacuates the victim
//!   to the hot spare while demand traffic keeps arriving;
//! * **epow-reboot** — an orderly EPOW flush, a power cut that orphans
//!   every in-flight request, and a cold reboot, with arrivals
//!   continuing on the nominal clock throughout (open loop: recovery
//!   backlog is measured, not hidden).
//!
//! Determinism is part of the contract: every scenario × seed runs
//! twice and both the trace fingerprint *and the full
//! [`TrafficReport`] — histograms included —* must be identical.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use contutto_core::{ConTutto, ContuttoConfig, MemoryPopulation};
use contutto_dmi::link::BitErrorInjector;
use contutto_memdev::FaultConfig;
use contutto_power8::channel::{ChannelConfig, DmiChannel};
use contutto_power8::failover::FailoverMode;
use contutto_power8::firmware::layouts;
use contutto_power8::system::Power8System;
use contutto_sim::{MetricsRegistry, SimTime};
use contutto_workloads::traffic::{
    ArrivalProcess, LoopMode, Phase, TrafficConfig, TrafficEngine, TrafficReport,
};

use crate::failover::{SPARE_SLOT, VICTIM_SLOT};
use crate::faults::campaign_policy;
use crate::report::{BenchReport, Kind};

/// Flips rained on the victim during the scrub storm. Spread across a
/// wide hot range so they stay single-bit per ECC word (corrected, not
/// uncorrectable — this scenario measures the tail, not the budget).
pub const SCRUB_STORM_FLIPS: u32 = 40;

/// The storm lands inside this window from the victim's power-on.
pub const SCRUB_STORM_WINDOW: SimTime = SimTime::from_us(20);

/// Patrol-scrub interval on the victim during the storm.
pub const SCRUB_STORM_INTERVAL: SimTime = SimTime::from_us(8);

/// Per-frame corruption probability on each link direction during the
/// storm — the CRC-replay traffic that actually moves the tail.
pub const SCRUB_STORM_NOISE: f64 = 0.002;

/// Simulated outage between the power cut and the reboot.
pub const OUTAGE: SimTime = SimTime::from_us(50);

/// What fires mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// No fault: the baseline SLO row.
    Steady,
    /// Media flip storm + armed patrol scrub + noisy links.
    ScrubStorm,
    /// Concurrent-maintenance pull, evacuation to the hot spare.
    Failover,
    /// EPOW flush, power cut, cold reboot.
    EpowReboot,
}

impl Scenario {
    /// Every scenario, table order.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario::Steady,
            Scenario::ScrubStorm,
            Scenario::Failover,
            Scenario::EpowReboot,
        ]
    }

    /// Stable display name (also the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Steady => "steady",
            Scenario::ScrubStorm => "scrub-storm",
            Scenario::Failover => "failover",
            Scenario::EpowReboot => "epow-reboot",
        }
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seeds swept per scenario.
    pub seeds: Vec<u64>,
    /// Requests issued per run.
    pub requests: u64,
}

impl CampaignConfig {
    /// The quick gate used by `scripts/verify.sh`.
    pub fn smoke() -> Self {
        CampaignConfig {
            seeds: vec![1, 2],
            requests: 150,
        }
    }

    /// The full sweep.
    pub fn full() -> Self {
        CampaignConfig {
            seeds: (1..=3).collect(),
            requests: 450,
        }
    }
}

/// The traffic shape every scenario runs: open-loop Poisson (queueing
/// delay during the fault is the result), zipfian keys, mostly reads.
fn traffic_config(requests: u64, seed: u64) -> TrafficConfig {
    TrafficConfig {
        mode: LoopMode::Open,
        arrival: ArrivalProcess::Poisson,
        requests,
        users: 1000,
        per_user_rps: 4_000.0, // 4M rps aggregate of simulated time
        think: SimTime::from_us(1),
        keys: 2048,
        zipf_theta: 0.99,
        read_fraction: 0.9,
        mlp_window: 16,
        slo: SimTime::from_us(4),
        deadline: None,
        client_retries: 0,
        client_backoff: SimTime::from_us(2),
        seed,
    }
}

/// One scenario × seed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario that ran.
    pub scenario: Scenario,
    /// Seed parameterizing boot, arrivals and the fault pattern.
    pub seed: u64,
    /// The traffic engine's full report (histograms included).
    pub report: TrafficReport,
    /// Scenario-specific evidence that the fault actually fired.
    pub fault_fired: bool,
    /// Second same-seed run produced an identical fingerprint AND an
    /// identical report (histogram identity).
    pub deterministic: bool,
    /// Trace fingerprint of the run.
    pub fingerprint: u64,
    /// Full metrics snapshot for `--metrics` aggregation.
    pub metrics: MetricsRegistry,
    /// Panic payload, if the run panicked (always a violation).
    pub panicked: Option<String>,
}

impl RunReport {
    /// Whether this run breaks the campaign contract.
    pub fn is_violation(&self) -> bool {
        if self.panicked.is_some() || !self.deterministic {
            return true;
        }
        let r = &self.report;
        // Every issued request must be accounted for, and some must
        // actually complete.
        if r.completed == 0 || r.completed + r.errors + r.orphaned != r.submitted {
            return true;
        }
        match self.scenario {
            // The baseline must be clean: any error or orphan in
            // steady state is a failure of the serving layer itself.
            Scenario::Steady => r.errors + r.orphaned > 0 || r.fault.count() > 0,
            // A fault scenario whose fault never fired proves nothing.
            _ => !self.fault_fired || r.fault.count() == 0,
        }
    }
}

/// The campaign result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Every run, scenario-major.
    pub runs: Vec<RunReport>,
    /// The configuration that ran (requests as clamped) — the baseline
    /// key, so a smoke run never gates against a full-campaign
    /// baseline (a reboot outage amortizes differently over 150 vs 450
    /// requests).
    pub config: CampaignConfig,
}

/// Drives one run: boots the failover testbed (with the scrub-storm
/// victim pre-armed when the scenario needs it), runs the traffic with
/// the scenario's fault hook, and snapshots metrics.
fn run_once(scenario: Scenario, seed: u64, requests: u64) -> RunReport {
    let result = catch_unwind(AssertUnwindSafe(move || {
        let mut sys = Power8System::boot_with_failover(
            layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            seed,
            FailoverMode::Spare { spare: SPARE_SLOT },
        )
        .expect("traffic testbed boots");
        if scenario == Scenario::ScrubStorm {
            let mut card = ConTutto::new(ContuttoConfig::base(), MemoryPopulation::dram_8gb());
            card.attach_media_faults(FaultConfig {
                transient_flips: SCRUB_STORM_FLIPS,
                window: SCRUB_STORM_WINDOW,
                hot_start: 0,
                hot_len: 1 << 20, // thin spread: single-bit, correctable
                ..FaultConfig::none(seed)
            });
            card.enable_scrub(SCRUB_STORM_INTERVAL);
            let victim = DmiChannel::new(ChannelConfig::contutto(), Box::new(card));
            sys.channel_mut(VICTIM_SLOT).expect("victim slot").channel = victim;
        }
        sys.set_retry_policy(campaign_policy());
        let tracer = sys.enable_tracing(1 << 16);
        let engine = TrafficEngine::new(traffic_config(requests, seed), &sys);
        let trigger = requests / 3;
        let mut fired = false;
        let report = engine.run(&mut sys, |sys, tick| {
            if !fired && tick.completed >= trigger {
                fired = true;
                match scenario {
                    Scenario::Steady => {}
                    Scenario::ScrubStorm => {
                        // The flips and scrub are armed from power-on;
                        // the trigger turns the links noisy.
                        let ch = sys.channel_mut(VICTIM_SLOT).expect("victim slot");
                        ch.channel.set_down_injector(BitErrorInjector::bernoulli(
                            SCRUB_STORM_NOISE,
                            seed.wrapping_mul(31).wrapping_add(1),
                        ));
                        ch.channel.set_up_injector(BitErrorInjector::bernoulli(
                            SCRUB_STORM_NOISE,
                            seed.wrapping_mul(31).wrapping_add(2),
                        ));
                    }
                    Scenario::Failover => {
                        sys.maintenance_pull(VICTIM_SLOT)
                            .expect("pull has a spare to fail over to");
                    }
                    Scenario::EpowReboot => {
                        sys.epow();
                        let at = sys.now();
                        sys.power_cut(at);
                        sys.reboot(at + OUTAGE).expect("reboot after the outage");
                    }
                }
            }
            if fired && scenario != Scenario::Steady {
                Phase::Fault
            } else {
                Phase::Steady
            }
        });
        let metrics = {
            let mut m = sys.metrics();
            report.publish(&mut m);
            m
        };
        let fault_fired = match scenario {
            Scenario::Steady => true,
            Scenario::ScrubStorm => {
                metrics.counter("buffer.media.scrub_passes") > 0
                    && metrics.counter("buffer.media.scrub_corrected")
                        + metrics.counter("buffer.media.demand_corrected")
                        > 0
            }
            Scenario::Failover => metrics.counter("system.failover.failovers") > 0,
            Scenario::EpowReboot => fired && report.orphaned + report.errors > 0,
        };
        RunReport {
            scenario,
            seed,
            report,
            fault_fired,
            deterministic: true,
            fingerprint: tracer.fingerprint(),
            metrics,
            panicked: None,
        }
    }));
    result.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        RunReport {
            scenario,
            seed,
            report: TrafficReport {
                submitted: 0,
                completed: 0,
                errors: 0,
                orphaned: 0,
                elapsed: SimTime::ZERO,
                steady: Default::default(),
                fault: Default::default(),
                recovery: Default::default(),
                steady_slo_violations: 0,
                fault_slo_violations: 0,
                recovery_slo_violations: 0,
                shed: [0; 3],
                deadline_expired: 0,
                client_retries: 0,
                client_retries_denied: 0,
                duplicate_completions: 0,
                hedges: [0; 3],
                hot_key_completions: 0,
            },
            fault_fired: false,
            deterministic: true,
            fingerprint: 0,
            metrics: MetricsRegistry::new(),
            panicked: Some(msg),
        }
    })
}

/// Runs one scenario at one seed — twice. The fingerprints must match
/// and the two [`TrafficReport`]s must be structurally identical
/// (latency histograms included), or the run is marked
/// non-deterministic.
pub fn run_scenario(scenario: Scenario, seed: u64, requests: u64) -> RunReport {
    let requests = requests.max(30);
    let (mut report, deterministic) = crate::harness::run_twice_assert_identical(
        || run_once(scenario, seed, requests),
        |a, b| a.fingerprint == b.fingerprint && a.report == b.report && a.panicked == b.panicked,
    );
    report.deterministic = deterministic;
    report
}

/// Runs every scenario across every seed.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut runs = Vec::new();
    for scenario in Scenario::all() {
        for &seed in &cfg.seeds {
            runs.push(run_scenario(scenario, seed, cfg.requests));
        }
    }
    CampaignReport {
        runs,
        config: CampaignConfig {
            seeds: cfg.seeds.clone(),
            requests: cfg.requests.max(30),
        },
    }
}

impl CampaignReport {
    /// Runs that break the contract.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for r in &self.runs {
            if let Some(msg) = &r.panicked {
                v.push(format!(
                    "{} seed {}: PANIC: {msg}",
                    r.scenario.name(),
                    r.seed
                ));
            } else if !r.deterministic {
                v.push(format!(
                    "{} seed {}: double run diverged (fingerprint or histogram)",
                    r.scenario.name(),
                    r.seed
                ));
            } else if r.is_violation() {
                v.push(format!(
                    "{} seed {}: contract violated (completed {}, errors {}, orphaned {}, fault_fired {})",
                    r.scenario.name(),
                    r.seed,
                    r.report.completed,
                    r.report.errors,
                    r.report.orphaned,
                    r.fault_fired,
                ));
            }
        }
        v
    }

    fn scenario_runs<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a RunReport> + 'a {
        self.runs.iter().filter(move |r| r.scenario.name() == name)
    }

    /// Mean achieved requests/sec across a scenario's seeds.
    pub fn scenario_rps(&self, name: &str) -> Option<f64> {
        let (sum, n) = self.scenario_runs(name).fold((0.0, 0u32), |(s, n), r| {
            (s + r.report.achieved_rps(), n + 1)
        });
        (n > 0).then(|| sum / f64::from(n))
    }

    /// A scenario's seeds-merged latency distribution (steady + fault
    /// phases folded together), exercising histogram mergeability.
    fn merged_latency(&self, name: &str) -> contutto_sim::LogHistogram {
        let mut h = contutto_sim::LogHistogram::new();
        for r in self.scenario_runs(name) {
            h.merge(&r.report.steady);
            h.merge(&r.report.fault);
        }
        h
    }

    /// All run metrics merged (counters accumulate, log-histograms
    /// fold).
    pub fn merged_metrics(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        for r in &self.runs {
            merged.merge(&r.metrics);
        }
        merged
    }

    /// Renders the SLO-under-fault table: per run, the steady-phase
    /// and fault-phase tails side by side.
    pub fn render_table(&self) -> String {
        let q = |h: &contutto_sim::LogHistogram, q: f64| -> String {
            if h.count() == 0 {
                "-".into()
            } else {
                format!("{:.1}", h.quantile(q) as f64 / 1000.0)
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>4} {:>5} {:>4} {:>4}  {:>8} {:>8} {:>8} {:>9}  {:>8} {:>9}  {:>7} {:>4}  {:<16}",
            "scenario", "seed", "done", "err", "orph",
            "s-p50us", "s-p99us", "s-p99.9", "s-p99.99",
            "f-p99.9", "f-p99.99", "slo s/f", "det", "fingerprint"
        );
        out.push_str(&"-".repeat(132));
        out.push('\n');
        for r in &self.runs {
            if let Some(msg) = &r.panicked {
                let _ = writeln!(out, "{:<12} {:>4}  PANIC: {msg}", r.scenario.name(), r.seed);
                continue;
            }
            let t = &r.report;
            let _ = writeln!(
                out,
                "{:<12} {:>4} {:>5} {:>4} {:>4}  {:>8} {:>8} {:>8} {:>9}  {:>8} {:>9}  {:>7} {:>4}  {:016x}",
                r.scenario.name(),
                r.seed,
                t.completed,
                t.errors,
                t.orphaned,
                q(&t.steady, 0.5),
                q(&t.steady, 0.99),
                q(&t.steady, 0.999),
                q(&t.steady, 0.9999),
                q(&t.fault, 0.999),
                q(&t.fault, 0.9999),
                format!("{}/{}", t.steady_slo_violations, t.fault_slo_violations),
                if r.deterministic { "yes" } else { "NO" },
                r.fingerprint,
            );
        }
        let _ = writeln!(
            out,
            "\n{} runs, {} violations (latencies in µs)",
            self.runs.len(),
            self.violations().len(),
        );
        out
    }

    /// The gated numbers per scenario, all simulated-time model
    /// metrics: mean requests/sec over seeds, merged p99.9 and SLO
    /// violations.
    pub fn bench_report(&self) -> BenchReport {
        let mut report = BenchReport::new("traffic", &self.config);
        for scenario in Scenario::all() {
            let name = scenario.name();
            let slo: u64 = self
                .scenario_runs(name)
                .map(|r| r.report.steady_slo_violations + r.report.fault_slo_violations)
                .sum();
            report.push(
                format!("{name}.requests_per_sec"),
                self.scenario_rps(name).unwrap_or(0.0),
                Kind::Model,
            );
            report.push(
                format!("{name}.p999_ns"),
                self.merged_latency(name).quantile(0.999) as f64,
                Kind::Model,
            );
            report.push(format!("{name}.slo_violations"), slo as f64, Kind::Model);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_run_is_clean_and_deterministic() {
        let r = run_scenario(Scenario::Steady, 1, 90);
        assert!(r.panicked.is_none(), "{:?}", r.panicked);
        assert!(!r.is_violation(), "steady run violated the contract");
        assert_eq!(r.report.errors, 0);
        assert_eq!(r.report.fault.count(), 0);
        assert!(r.deterministic);

        let report = CampaignReport {
            runs: vec![r],
            config: CampaignConfig {
                seeds: vec![1],
                requests: 90,
            },
        };
        let bench = report.bench_report();
        assert_eq!(bench.key, "CampaignConfig { seeds: [1], requests: 90 }");
        let names: Vec<&str> = bench.metrics.iter().map(|m| m.0.as_str()).collect();
        let steady = [
            "steady.requests_per_sec",
            "steady.p999_ns",
            "steady.slo_violations",
        ];
        assert_eq!(names[..3], steady);
        assert_eq!(names.len(), 3 * Scenario::all().len());
        assert!(bench.metrics.iter().all(|m| m.2 == Kind::Model));
    }

    #[test]
    fn failover_moves_the_tail_but_loses_nothing() {
        let r = run_scenario(Scenario::Failover, 1, 90);
        assert!(!r.is_violation(), "failover run violated the contract");
        assert!(r.fault_fired, "maintenance pull must register a failover");
        assert!(r.report.fault.count() > 0, "no fault-phase completions");
    }

    #[test]
    fn epow_reboot_orphans_and_recovers() {
        let r = run_scenario(Scenario::EpowReboot, 1, 90);
        assert!(!r.is_violation(), "epow run violated the contract");
        assert!(
            r.report.orphaned + r.report.errors > 0,
            "a power cut mid-traffic must orphan or fail something"
        );
        assert!(r.report.completed > 0, "traffic must resume after reboot");
    }

    #[test]
    fn scrub_storm_scrubs_and_corrects() {
        let r = run_scenario(Scenario::ScrubStorm, 1, 90);
        assert!(!r.is_violation(), "scrub-storm run violated the contract");
        assert!(r.metrics.counter("buffer.media.scrub_passes") > 0);
    }
}
