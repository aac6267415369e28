//! Runs the deterministic fault-injection campaigns and renders the
//! pass/degrade/fail tables.
//!
//! ```text
//! faults [--chaos | --media | --failover | --power | --traffic | --overload
//!         | --checkpoint]
//!        [--smoke] [--seeds N] [--lines N] [--metrics] [--replay FILE]
//!        [--reuse-prefix]
//! ```
//!
//! * `--chaos` — run the chaos campaign: seed-generated composable
//!   fault plans (link noise, flip storms, scrub toggles, maintenance
//!   pulls, EPOW, power cuts, rate steps, checkpoints and timeline
//!   rewinds) against a ledgered load,
//!   every plan executed twice and held to the global durability
//!   oracle; failing plans are shrunk to minimal JSON reproducers
//!   (`CHAOS_repro_*.json`) replayable with `--replay FILE`, and
//!   `BENCH_chaos.json` gates plans/sec (a host metric);
//! * `--traffic` — run the SLO-under-fault traffic campaign: an
//!   open-loop zipfian request stream over the failover testbed while
//!   {nothing, a scrub storm, a channel failover, an EPOW + reboot}
//!   fires mid-run; steady-phase vs fault-phase tail percentiles and
//!   SLO-violation counts are reported, every run is executed twice
//!   and must be byte-identical (fingerprint + histogram identity),
//!   and `BENCH_traffic.json` gates requests/sec, p99.9 and SLO
//!   violations per scenario (model metrics);
//! * `--overload` — run the metastable-failure campaign: the same
//!   open-loop stream over the *mirrored* testbed while a slow-channel
//!   plus link-noise trigger holds for a bounded window mid-run; the
//!   naive row (client retries, no defenses) must stay congested after
//!   the trigger clears, the protected row (deadlines, admission
//!   control, retry budget, breakers, hedged reads, brownout) must
//!   recover to within 2× of steady p99 with zero duplicate
//!   completions; `BENCH_overload.json` gates requests/sec, recovery
//!   ratio, sheds and hedges per scenario (model metrics);
//! * `--media`   — run the media-fault campaign (seeded bit flips in
//!   the DIMM arrays across {DRAM, MRAM, NVDIMM} × {scrub on/off})
//!   instead of the link-fault campaign;
//! * `--failover` — run the channel-failover campaign ({spare,
//!   mirrored} × {error-budget, dead-link, maintenance-pull}): a
//!   victim buffer dies mid-workload and zero data loss is asserted;
//! * `--power`   — run the power-fail crash-point sweep ({armed,
//!   disarmed supercap} × {generous, starved energy} × {orderly EPOW,
//!   surprise cut} × crash points): the whole system loses power and
//!   the durability contract is asserted — NVDIMM contents survive or
//!   produce a typed loss report, never silent corruption;
//! * `--reuse-prefix` — with `--power`: simulate each (scenario, seed)
//!   store prefix once, snapshot it at every crash point, and restore
//!   the snapshot instead of re-simulating the stores. Results are
//!   byte-identical to the straight sweep;
//! * `--checkpoint` — run the checkpoint campaign: snapshot/restore
//!   throughput plus a prefix-reuse identity proof (the reused power
//!   sweep must match the straight sweep record-for-record while
//!   simulating strictly fewer stores); `BENCH_checkpoint.json` gates
//!   snapshots/sec and restores/sec (host metrics) and both sweeps'
//!   store counts (model metrics);
//! * `--smoke`   — the quick `scripts/verify.sh` gate;
//! * `--seeds N` — sweep seeds 1..=N (default: the full 5-seed sweep);
//! * `--lines N` — lines written/read back per run;
//! * `--metrics` — also print the merged metrics registry.
//!
//! Every `BENCH_*.json` is a [`contutto_bench::report::BenchReport`]:
//! model metrics must equal the previous report exactly, host metrics
//! must stay at or above [`contutto_bench::report::HOST_FLOOR`] × it,
//! and only a previous report with the same config key gates. A failed
//! run leaves the previous report in place.
//!
//! Exits nonzero if any run panics, corrupts data, or fails where the
//! scenario does not permit a typed failure — and, for `--media`, if
//! disabling scrub does not raise the uncorrectable aggregate — or if
//! a bench report regresses or cannot be written.

use contutto_bench::report::gate_and_write;
use contutto_bench::{chaos, checkpoint, failover, faults, media, overload, power, traffic};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let text = |name: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let value = |name: &str| -> Option<u64> { text(name).and_then(|v| v.parse().ok()) };

    if flag("--chaos") {
        if let Some(path) = text("--replay") {
            let json = match std::fs::read_to_string(path) {
                Ok(json) => json,
                Err(e) => {
                    eprintln!("cannot read reproducer {path}: {e}");
                    std::process::exit(1);
                }
            };
            let plan = match chaos::FaultPlan::from_json(&json) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("cannot parse reproducer {path}: {e}");
                    std::process::exit(1);
                }
            };
            println!(
                "replaying {path}: {} layout, seed {}, {} requests, {} actions",
                plan.layout.name(),
                plan.seed,
                plan.requests,
                plan.actions.len()
            );
            let report = chaos::run_plan(&plan);
            println!(
                "fingerprint {:016x}, {} applied, {} reboots, deterministic: {}",
                report.fingerprint,
                report.applied,
                report.reboots,
                if report.deterministic { "yes" } else { "NO" }
            );
            for v in &report.violations {
                println!("VIOLATION: {v}");
            }
            if report.clean() {
                println!("plan upheld the durability contract");
            } else {
                std::process::exit(1);
            }
            return;
        }
        let mut cfg = if flag("--smoke") {
            chaos::CampaignConfig::smoke()
        } else {
            chaos::CampaignConfig::full()
        };
        if let Some(n) = value("--seeds") {
            cfg.seeds = (1..=n.max(1)).collect();
        }
        if let Some(n) = value("--lines") {
            cfg.requests = n.max(16);
        }
        let report = chaos::run_campaign(&cfg);
        print!("{}", report.render_table());
        let mut repro = 0usize;
        for record in &report.records {
            if let Some(plan) = &record.reproducer {
                let path = format!("CHAOS_repro_{repro}.json");
                match std::fs::write(&path, plan.to_json()) {
                    Ok(()) => eprintln!(
                        "wrote minimal reproducer {path} (seed {} plan {}) — replay with \
                         `faults --chaos --replay {path}`",
                        record.seed, record.index
                    ),
                    Err(e) => eprintln!("warning: could not write {path}: {e}"),
                }
                repro += 1;
            }
        }
        if !gate_and_write(
            "BENCH_chaos.json",
            &report.bench_report(),
            report.violations(),
        ) {
            std::process::exit(1);
        }
        return;
    }

    if flag("--traffic") {
        let mut cfg = if flag("--smoke") {
            traffic::CampaignConfig::smoke()
        } else {
            traffic::CampaignConfig::full()
        };
        if let Some(n) = value("--seeds") {
            cfg.seeds = (1..=n.max(1)).collect();
        }
        if let Some(n) = value("--lines") {
            cfg.requests = n.max(30);
        }
        let report = traffic::run_campaign(&cfg);
        print!("{}", report.render_table());
        if flag("--metrics") {
            println!("\nmerged metrics across all runs:");
            print!("{}", report.merged_metrics().render());
        }
        if !gate_and_write(
            "BENCH_traffic.json",
            &report.bench_report(),
            report.violations(),
        ) {
            std::process::exit(1);
        }
        return;
    }

    if flag("--overload") {
        let mut cfg = if flag("--smoke") {
            overload::CampaignConfig::smoke()
        } else {
            overload::CampaignConfig::full()
        };
        if let Some(n) = value("--seeds") {
            cfg.seeds = (1..=n.max(1)).collect();
        }
        if let Some(n) = value("--lines") {
            cfg.requests = n.max(60);
        }
        let report = overload::run_campaign(&cfg);
        print!("{}", report.render_table());
        if flag("--metrics") {
            println!("\nmerged metrics across all runs:");
            print!("{}", report.merged_metrics().render());
        }
        if !gate_and_write(
            "BENCH_overload.json",
            &report.bench_report(),
            report.violations(),
        ) {
            std::process::exit(1);
        }
        return;
    }

    if flag("--checkpoint") {
        let mut cfg = if flag("--smoke") {
            checkpoint::CampaignConfig::smoke()
        } else {
            checkpoint::CampaignConfig::full()
        };
        if let Some(n) = value("--seeds") {
            cfg.seeds = (1..=n.max(1)).collect();
        }
        if let Some(n) = value("--lines") {
            cfg.lines = n.max(1);
        }
        let report = checkpoint::run_campaign(&cfg);
        print!("{}", report.render_table());
        if !gate_and_write(
            "BENCH_checkpoint.json",
            &report.bench_report(),
            report.violations(),
        ) {
            std::process::exit(1);
        }
        return;
    }

    if flag("--power") {
        let mut cfg = if flag("--smoke") {
            power::CampaignConfig::smoke()
        } else {
            power::CampaignConfig::full()
        };
        if let Some(n) = value("--seeds") {
            cfg.seeds = (1..=n.max(1)).collect();
        }
        if let Some(n) = value("--lines") {
            cfg.lines = n.max(1);
        }
        cfg.reuse_prefix = flag("--reuse-prefix");
        let report = power::run_campaign(&cfg);
        print!("{}", report.render_table());
        println!(
            "stores simulated: {}{}",
            report.stores_executed,
            if cfg.reuse_prefix {
                " (prefix reused)"
            } else {
                ""
            }
        );
        if flag("--metrics") {
            println!("\nmerged metrics across all runs:");
            print!("{}", report.merged_metrics().render());
        }
        if !report.violations().is_empty() {
            eprintln!("power-fail campaign FAILED: see violations above");
            std::process::exit(1);
        }
        return;
    }

    if flag("--failover") {
        let mut cfg = if flag("--smoke") {
            failover::CampaignConfig::smoke()
        } else {
            failover::CampaignConfig::full()
        };
        if let Some(n) = value("--seeds") {
            cfg.seeds = (1..=n.max(1)).collect();
        }
        if let Some(n) = value("--lines") {
            cfg.lines = n.max(1);
        }
        let report = failover::run_campaign(&cfg);
        print!("{}", report.render_table());
        if flag("--metrics") {
            println!("\nmerged metrics across all runs:");
            print!("{}", report.merged_metrics().render());
        }
        if !report.violations().is_empty() {
            eprintln!("failover campaign FAILED: see violations above");
            std::process::exit(1);
        }
        return;
    }

    if flag("--media") {
        let mut cfg = if flag("--smoke") {
            media::CampaignConfig::smoke()
        } else {
            media::CampaignConfig::full()
        };
        if let Some(n) = value("--seeds") {
            cfg.seeds = (1..=n.max(1)).collect();
        }
        if let Some(n) = value("--lines") {
            cfg.lines = n.max(1);
        }
        let report = media::run_campaign(&cfg);
        print!("{}", report.render_table());
        if flag("--metrics") {
            println!("\nmerged metrics across all runs:");
            print!("{}", report.merged_metrics().render());
        }
        if !report.violations().is_empty() {
            eprintln!("media-fault campaign FAILED: see violations above");
            std::process::exit(1);
        }
        if !report.scrub_helps() {
            eprintln!("media-fault campaign FAILED: scrub showed no benefit");
            std::process::exit(1);
        }
        return;
    }

    let mut cfg = if flag("--smoke") {
        faults::CampaignConfig::smoke()
    } else {
        faults::CampaignConfig::full()
    };
    if let Some(n) = value("--seeds") {
        cfg.seeds = (1..=n.max(1)).collect();
    }
    if let Some(n) = value("--lines") {
        cfg.lines = n.max(1);
    }

    let report = faults::run_campaign(&cfg);
    print!("{}", report.render_table());

    if flag("--metrics") {
        println!("\nmerged metrics across all runs:");
        print!("{}", report.merged_metrics().render());
    }

    if !report.violations().is_empty() {
        eprintln!("fault campaign FAILED: see violations above");
        std::process::exit(1);
    }
}
