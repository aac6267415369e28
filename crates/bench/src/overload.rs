//! Metastable-failure campaign: does the system *stay* congested after
//! the trigger clears?
//!
//! A metastable failure needs two ingredients: a trigger that
//! temporarily cuts capacity, and a sustaining feedback loop — retries,
//! queue backlog — that keeps demand above the restored capacity after
//! the trigger is gone. This campaign builds exactly that trigger (a
//! slow-not-dead channel plus link noise for a bounded window, mid-run,
//! under open-loop load that does not slow down) and runs it against
//! two service-path configurations:
//!
//! * **naive** — client retries on, every overload defense off
//!   ([`OverloadConfig::off`]). The contract is that congestion
//!   *persists*: the recovery-phase p99 must stay more than
//!   [`NAIVE_CONGESTION_FACTOR`]× the steady-phase p99 after the
//!   trigger has cleared. If the naive row recovers cleanly the
//!   trigger is too weak and the campaign proves nothing.
//! * **protected** — the same trigger, same retrying clients, but with
//!   deadlines on every request and [`OverloadConfig::protective`]:
//!   admission control, the success-funded retry budget, per-channel
//!   circuit breakers, hedged reads against the mirror, brownout. The
//!   contract is the opposite: recovery-phase p99 back within
//!   [`PROTECTED_RECOVERY_FACTOR`]× of steady, with zero duplicate
//!   completions (a hedge and its loser must never both deliver).
//!
//! Both rows run over the mirrored failover testbed (hedging needs a
//! shadow copy), both run twice per seed, and fingerprint + full
//! report must be byte-identical — the defenses are deterministic
//! policy, not wall-clock heuristics.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use contutto_core::{ContuttoConfig, MemoryPopulation};
use contutto_power8::failover::FailoverMode;
use contutto_power8::firmware::layouts;
use contutto_power8::inject::FaultAction;
use contutto_power8::system::Power8System;
use contutto_power8::{HedgeConfig, OverloadConfig};
use contutto_sim::{MetricsRegistry, SimTime};
use contutto_workloads::traffic::{
    ArrivalProcess, LoopMode, Phase, TrafficConfig, TrafficEngine, TrafficReport,
};

use crate::failover::{SPARE_SLOT, VICTIM_SLOT};
use crate::faults::campaign_policy;
use crate::report::{BenchReport, Kind};

/// How long the trigger holds: the victim channel's in-flight window is
/// collapsed to one tag and its links are noisy for this long, then
/// both clear.
pub const FAULT_HOLD: SimTime = SimTime::from_us(25);

/// Per-frame corruption probability on the victim's links during the
/// trigger window — enough CRC replays to feed the ladder, not a
/// blackout.
pub const LINK_NOISE: f64 = 0.06;

/// Client retries per logical request, both rows. The naive row is not
/// allowed to win by simply not retrying — the retries *are* the
/// sustaining feedback loop under test.
pub const CLIENT_RETRIES: u32 = 4;

/// Request deadline in the protected row, relative to nominal arrival
/// — a small multiple of the steady-state p99 (~1.3 µs on this
/// testbed), the way latency-sensitive clients actually set them. The
/// deadline is what stops backlog survivors from being serviced long
/// after anyone wants the answer: a completion past its deadline is a
/// typed error, not a late success.
pub const DEADLINE: SimTime = SimTime::from_ns(1300);

/// Hedge threshold in the protected row. It must sit *below* the
/// deadline or the hedge can never rescue a read before the deadline
/// kills it.
pub const HEDGE_AFTER: SimTime = SimTime::from_ns(600);

/// The naive row must stay at least this many times worse than steady
/// in the recovery phase — the evidence that congestion outlived the
/// trigger.
pub const NAIVE_CONGESTION_FACTOR: u64 = 5;

/// The protected row must be back within this factor of steady p99 in
/// the recovery phase.
pub const PROTECTED_RECOVERY_FACTOR: u64 = 2;

/// Service-path configuration under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Client retries, no defenses: must go metastable.
    Naive,
    /// Deadlines + the full overload policy: must recover.
    Protected,
}

impl Scenario {
    /// Every scenario, table order.
    pub fn all() -> Vec<Scenario> {
        vec![Scenario::Naive, Scenario::Protected]
    }

    /// Stable display name (also the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Naive => "naive",
            Scenario::Protected => "protected",
        }
    }

    fn overload_config(self) -> OverloadConfig {
        match self {
            Scenario::Naive => OverloadConfig::off(),
            Scenario::Protected => {
                let mut cfg = OverloadConfig::protective();
                cfg.hedge = Some(HedgeConfig {
                    after: HEDGE_AFTER,
                    ..HedgeConfig::default()
                });
                cfg
            }
        }
    }

    fn deadline(self) -> Option<SimTime> {
        match self {
            Scenario::Naive => None,
            Scenario::Protected => Some(DEADLINE),
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
            requests: 420,
        }
    }

    /// The full sweep.
    pub fn full() -> Self {
        CampaignConfig {
            seeds: (1..=3).collect(),
            requests: 840,
        }
    }
}

/// The demand stream: open-loop Poisson (arrivals do not slow down when
/// the system congests — the precondition for metastability), zipfian
/// keys, mostly reads so the mirror can hedge.
fn traffic_config(scenario: Scenario, requests: u64, seed: u64) -> TrafficConfig {
    TrafficConfig {
        mode: LoopMode::Open,
        arrival: ArrivalProcess::Poisson,
        requests,
        users: 1000,
        per_user_rps: 6_000.0, // 6M rps aggregate of simulated time
        think: SimTime::from_us(1),
        keys: 2048,
        zipf_theta: 0.99,
        read_fraction: 0.9,
        mlp_window: 16,
        slo: SimTime::from_us(4),
        deadline: scenario.deadline(),
        client_retries: CLIENT_RETRIES,
        client_backoff: SimTime::from_us(2),
        seed,
    }
}

/// One scenario × seed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario that ran.
    pub scenario: Scenario,
    /// Seed parameterizing boot, arrivals and the trigger noise.
    pub seed: u64,
    /// The traffic engine's full report (histograms included).
    pub report: TrafficReport,
    /// The trigger fired AND cleared, and work completed under it.
    pub fault_fired: bool,
    /// Second same-seed run produced an identical fingerprint AND an
    /// identical report (histogram identity).
    pub deterministic: bool,
    /// Trace fingerprint of the run.
    pub fingerprint: u64,
    /// Full metrics snapshot (`system.overload.*` included).
    pub metrics: MetricsRegistry,
    /// Panic payload, if the run panicked (always a violation).
    pub panicked: Option<String>,
}

impl RunReport {
    /// Recovery-phase p99 in picoseconds.
    pub fn recovery_p99(&self) -> u64 {
        self.report.quantile(Phase::Recovery, 0.99).as_ps()
    }

    /// Whether this run breaks the campaign contract.
    pub fn is_violation(&self) -> bool {
        self.violation_reason().is_some()
    }

    /// The first broken clause, if any — the table and the gate both
    /// name it.
    pub fn violation_reason(&self) -> Option<String> {
        if self.panicked.is_some() {
            return Some("panicked".into());
        }
        if !self.deterministic {
            return Some("double run diverged (fingerprint or report)".into());
        }
        let r = &self.report;
        if r.completed == 0 {
            return Some("nothing completed".into());
        }
        if r.completed + r.errors + r.orphaned != r.submitted {
            return Some(format!(
                "accounting leak: {} + {} + {} != {}",
                r.completed, r.errors, r.orphaned, r.submitted
            ));
        }
        if !self.fault_fired {
            return Some("trigger never fired/cleared under load".into());
        }
        if r.duplicate_completions > 0 {
            return Some(format!(
                "{} duplicate completions (hedge double-apply)",
                r.duplicate_completions
            ));
        }
        if r.recovery.count() == 0 {
            return Some("no recovery-phase completions to judge".into());
        }
        if self.scenario == Scenario::Protected {
            // A protected row where no defense ever engaged proves only
            // that the trigger missed it.
            let shed: u64 = r.shed.iter().sum();
            let hedges: u64 = r.hedges.iter().sum();
            if shed + hedges + r.client_retries_denied == 0 {
                return Some("no defense engaged (nothing shed, hedged or denied)".into());
            }
        }
        None
    }
}

/// The campaign result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Every run, scenario-major.
    pub runs: Vec<RunReport>,
    /// The configuration that ran (requests as clamped) — the baseline
    /// key, so a smoke run never gates against a full-campaign
    /// baseline.
    pub config: CampaignConfig,
}

/// Drives one run: boots the mirrored testbed, arms the scenario's
/// overload policy, runs open-loop traffic with the trigger hook, and
/// snapshots metrics.
fn run_once(scenario: Scenario, seed: u64, requests: u64) -> RunReport {
    let result = catch_unwind(AssertUnwindSafe(move || {
        let mut sys = Power8System::boot_with_failover(
            layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            seed,
            FailoverMode::Mirrored {
                primary: VICTIM_SLOT,
                mirror: SPARE_SLOT,
            },
        )
        .expect("overload testbed boots");
        sys.set_retry_policy(campaign_policy());
        sys.set_overload_config(scenario.overload_config());
        let tracer = sys.enable_tracing(1 << 16);
        let engine = TrafficEngine::new(traffic_config(scenario, requests, seed), &sys);
        let trigger = requests / 3;
        let mut fired_at: Option<SimTime> = None;
        let mut cleared = false;
        let report = engine.run(&mut sys, |sys, tick| {
            if fired_at.is_none() && tick.completed >= trigger {
                fired_at = Some(tick.now);
                sys.apply_fault_action(
                    tick.now,
                    &FaultAction::SlowChannel {
                        slot: VICTIM_SLOT,
                        window: FAULT_HOLD,
                    },
                );
                sys.apply_fault_action(
                    tick.now,
                    &FaultAction::LinkNoise {
                        slot: VICTIM_SLOT,
                        down: LINK_NOISE,
                        up: LINK_NOISE,
                        seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(7),
                    },
                );
            }
            match fired_at {
                None => Phase::Steady,
                Some(at) if !cleared && tick.now < at + FAULT_HOLD => Phase::Fault,
                Some(_) => {
                    if !cleared {
                        cleared = true;
                        sys.apply_fault_action(
                            tick.now,
                            &FaultAction::LinkClear { slot: VICTIM_SLOT },
                        );
                    }
                    Phase::Recovery
                }
            }
        });
        let metrics = {
            let mut m = sys.metrics();
            report.publish(&mut m);
            m
        };
        let fault_fired = fired_at.is_some() && cleared && report.fault.count() > 0;
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

/// Runs one scenario at one seed — twice. Fingerprints AND the full
/// reports must match or the run is marked non-deterministic.
pub fn run_scenario(scenario: Scenario, seed: u64, requests: u64) -> RunReport {
    let requests = requests.max(60);
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
            requests: cfg.requests.max(60),
        },
    }
}

impl CampaignReport {
    /// The steady-state p99 yardstick in picoseconds, from the
    /// seeds-merged steady-phase histogram of every run. Per-run steady
    /// p99 over ~100 completions is one unlucky arrival wide; pooling
    /// every run's pre-trigger phase (same testbed, same load) makes
    /// the baseline the factor checks divide by statistically stable.
    pub fn steady_ref_ps(&self) -> u64 {
        let mut merged = contutto_sim::LogHistogram::new();
        for r in &self.runs {
            merged.merge(&r.report.steady);
        }
        if merged.count() == 0 {
            0
        } else {
            SimTime::from_ns(merged.quantile(0.99)).as_ps()
        }
    }

    /// Runs that break the contract — structural per-run clauses and
    /// the campaign-level metastability verdicts.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for r in &self.runs {
            if let Some(reason) = r.violation_reason() {
                v.push(format!("{} seed {}: {reason}", r.scenario.name(), r.seed));
            }
        }
        let steady = self.steady_ref_ps();
        if steady == 0 {
            v.push("no steady-phase completions anywhere: no yardstick".into());
        }
        for r in &self.runs {
            if steady == 0 || r.violation_reason().is_some() {
                continue;
            }
            let recovery = r.recovery_p99();
            match r.scenario {
                // The whole campaign rests on the naive row actually
                // going metastable: congestion must outlive the
                // trigger.
                Scenario::Naive if recovery <= NAIVE_CONGESTION_FACTOR * steady => {
                    v.push(format!(
                        "naive seed {}: metastable congestion did not reproduce: recovery \
                         p99 {recovery} ps <= {NAIVE_CONGESTION_FACTOR}x steady {steady} ps",
                        r.seed
                    ));
                }
                Scenario::Protected if recovery > PROTECTED_RECOVERY_FACTOR * steady => {
                    v.push(format!(
                        "protected seed {}: defenses failed to restore service: recovery \
                         p99 {recovery} ps > {PROTECTED_RECOVERY_FACTOR}x steady {steady} ps",
                        r.seed
                    ));
                }
                _ => {}
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

    /// Worst recovery p99 : steady-yardstick ratio across a scenario's
    /// seeds.
    fn worst_recovery_ratio(&self, name: &str) -> f64 {
        let steady = self.steady_ref_ps();
        if steady == 0 {
            return 0.0;
        }
        self.scenario_runs(name)
            .filter(|r| r.panicked.is_none())
            .map(|r| r.recovery_p99() as f64 / steady as f64)
            .fold(0.0, f64::max)
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

    /// Renders the metastability table: steady / fault / recovery p99
    /// side by side, plus what the defenses did.
    pub fn render_table(&self) -> String {
        let q = |r: &TrafficReport, p: Phase| -> String {
            let h = match p {
                Phase::Steady => &r.steady,
                Phase::Fault => &r.fault,
                Phase::Recovery => &r.recovery,
            };
            if h.count() == 0 {
                "-".into()
            } else {
                format!("{:.1}", h.quantile(0.99) as f64 / 1000.0)
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>4} {:>5} {:>5}  {:>8} {:>8} {:>8} {:>6}  {:>5} {:>6} {:>7} {:>6} {:>4}  {:<16}",
            "scenario", "seed", "done", "err",
            "s-p99us", "f-p99us", "r-p99us", "r/s",
            "shed", "dlexp", "retries", "hedge", "det", "fingerprint"
        );
        out.push_str(&"-".repeat(124));
        out.push('\n');
        let steady_ref = self.steady_ref_ps();
        for r in &self.runs {
            if let Some(msg) = &r.panicked {
                let _ = writeln!(out, "{:<10} {:>4}  PANIC: {msg}", r.scenario.name(), r.seed);
                continue;
            }
            let t = &r.report;
            let ratio = if steady_ref > 0 {
                format!("{:.1}", r.recovery_p99() as f64 / steady_ref as f64)
            } else {
                "-".into()
            };
            let _ = writeln!(
                out,
                "{:<10} {:>4} {:>5} {:>5}  {:>8} {:>8} {:>8} {:>6}  {:>5} {:>6} {:>7} {:>6} {:>4}  {:016x}",
                r.scenario.name(),
                r.seed,
                t.completed,
                t.errors,
                q(t, Phase::Steady),
                q(t, Phase::Fault),
                q(t, Phase::Recovery),
                ratio,
                t.shed.iter().sum::<u64>(),
                t.deadline_expired,
                format!("{}/{}", t.client_retries, t.client_retries_denied),
                t.hedges.iter().sum::<u64>(),
                if r.deterministic { "yes" } else { "NO" },
                r.fingerprint,
            );
        }
        let _ = writeln!(
            out,
            "\n{} runs, {} violations (p99 latencies in µs; r/s = recovery p99 : merged \
             steady p99 ({:.1} µs); retries = granted/denied)",
            self.runs.len(),
            self.violations().len(),
            steady_ref as f64 / 1_000_000.0,
        );
        out
    }

    /// The gated numbers per scenario, all simulated-time model
    /// metrics: mean requests/sec over seeds, worst recovery ratio,
    /// and what the defenses did (sheds, hedges).
    pub fn bench_report(&self) -> BenchReport {
        let mut report = BenchReport::new("overload", &self.config);
        for scenario in Scenario::all() {
            let name = scenario.name();
            let (shed, hedges): (u64, u64) = self
                .scenario_runs(name)
                .map(|r| {
                    (
                        r.report.shed.iter().sum::<u64>(),
                        r.report.hedges.iter().sum::<u64>(),
                    )
                })
                .fold((0, 0), |(s, h), (a, b)| (s + a, h + b));
            report.push(
                format!("{name}.requests_per_sec"),
                self.scenario_rps(name).unwrap_or(0.0),
                Kind::Model,
            );
            report.push(
                format!("{name}.recovery_ratio"),
                self.worst_recovery_ratio(name),
                Kind::Model,
            );
            report.push(format!("{name}.shed"), shed as f64, Kind::Model);
            report.push(format!("{name}.hedges"), hedges as f64, Kind::Model);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_row_goes_metastable_and_protected_recovers() {
        let report = run_campaign(&CampaignConfig {
            seeds: vec![1],
            requests: 420,
        });
        let violations = report.violations();
        assert!(
            violations.is_empty(),
            "{violations:?}\n{}",
            report.render_table()
        );
        let bench = report.bench_report();
        assert_eq!(bench.key, "CampaignConfig { seeds: [1], requests: 420 }");
        let names: Vec<&str> = bench.metrics.iter().map(|m| m.0.as_str()).collect();
        let naive =
            ["requests_per_sec", "recovery_ratio", "shed", "hedges"].map(|m| format!("naive.{m}"));
        assert_eq!(names[..4], naive);
        assert_eq!(names.len(), 4 * Scenario::all().len());
        assert!(bench.metrics.iter().all(|m| m.2 == Kind::Model));
        // The pair is the point: same trigger, opposite outcomes.
        let naive = &report.runs[0];
        let protected = &report.runs[1];
        assert!(
            naive.recovery_p99() > protected.recovery_p99(),
            "naive recovery p99 ({}) must exceed protected ({})",
            naive.recovery_p99(),
            protected.recovery_p99()
        );
    }
}
