//! Host-cost benchmark for the ConTutto simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chase-serial|mlp-mixed|paced-idle|checkpoint-cycle> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the machine up several times, runs the workload
//! untraced for `--seconds` and prints the end-to-end metrics.
//! `--trace 1` runs it three times on the same inputs — untraced,
//! with spans around every call into a layer, and with the simulator's
//! trace ring on — checks that the spans changed no model output, and
//! prints the per-layer split. Both print a readable table and, as the
//! last line, one JSON object. Any wrong output exits with code 1.

mod gen;
mod spans;
mod stats;
mod sut;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::{Kind, SpanHandle, Spans, KINDS};
use stats::{median, peak_rss_mb, quantile, ratio};
use workloads::{end_snapshots, run, setup, Instrument, Limit, Phase, Prefix, Workload, World};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Slices per untraced timed phase.
const SLICES: u32 = 10;
/// The paper's Table 3 ConTutto-base load latency, in ns.
const PAPER_CONTUTTO_BASE_NS: f64 = 390.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn print(o: &Outcome) {
    for x in &o.metrics {
        println!("  {:<30} {:>18.6} {}", x.name, x.value, x.unit);
    }
    let body: Vec<String> = o
        .metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        body.join(", ")
    );
}

fn counter(ph: &Phase, name: &str) -> f64 {
    ph.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

fn mismatches(world: &World, ph: &Phase) -> u64 {
    world.setup_tally.mismatches + ph.tally.mismatches
}

fn model_reference(w: Workload, sim_read_p50_ns: f64) {
    if w == Workload::ChaseSerial {
        println!(
            "model reference: sim_read_p50_ns {sim_read_p50_ns:.1} ns against the paper's \
             Table 3 ConTutto-base load latency of {PAPER_CONTUTTO_BASE_NS} ns ({:+.1} %)",
            100.0 * (sim_read_p50_ns / PAPER_CONTUTTO_BASE_NS - 1.0)
        );
    } else {
        println!(
            "model reference: none for {}; its sim_* outputs are unvalidated",
            w.name()
        );
    }
}

/// `--trace 0`: the end-to-end metrics, untraced.
fn end_to_end(args: &Args) -> Outcome {
    let w = args.workload;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut world = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous machine first, so the peak holds one.
        drop(world.take());
        let t = Instant::now();
        let fresh = setup(w, args.seed, &Instrument::None);
        setup_s.push(t.elapsed().as_secs_f64());
        world = Some(fresh);
    }
    let mut world = world.expect("at least one set-up");
    let budget = Duration::from_secs(args.seconds);
    let mut ph = run(
        &mut world,
        Limit {
            until: Some(Instant::now() + budget),
            units: None,
            slice: budget / SLICES,
        },
    );
    end_snapshots(&mut world, &mut ph);
    let host_s = ph.host.as_secs_f64();
    let prefix = ph.prefix.unwrap_or_else(|| {
        eprintln!(
            "perfbench: the run ended before its {}-unit simulated prefix; sim_* cover {} units",
            w.sim_prefix(),
            ph.units
        );
        Prefix {
            sim_ps: ph.sim_ps,
            completed: ph.tally.completed,
            reads: ph.tally.sim_read_ps.len(),
        }
    });
    let mut sim_reads = ph.tally.sim_read_ps[..prefix.reads].to_vec();
    let sim_read_mean_ns = ratio(
        sim_reads.iter().map(|&ps| ps as f64).sum::<f64>() / 1e3,
        sim_reads.len() as f64,
    );
    let sim_read_p50_ns = quantile(&mut sim_reads, 0.5) / 1e3;
    let sim_read_p99_ns = quantile(&mut sim_reads, 0.99) / 1e3;
    let over_slices =
        |f: &dyn Fn(&workloads::Slice) -> f64| median(ph.slices.iter().map(f).collect());
    let metrics = vec![
        m(
            "req_per_host_s",
            "1/s",
            over_slices(&|s| ratio(s.completed as f64, s.host_s)),
        ),
        m(
            "host_us_per_req_p50",
            "us",
            over_slices(&|s| s.host_p50_ns / 1e3),
        ),
        m(
            "host_us_per_req_p99",
            "us",
            over_slices(&|s| s.host_p99_ns / 1e3),
        ),
        m(
            "host_ns_per_sim_ns",
            "ns/ns",
            over_slices(&|s| ratio(s.host_s * 1e9, s.sim_ps as f64 / 1e3)),
        ),
        m("setup_s", "s", median(setup_s)),
        m("peak_rss_mb", "MB", peak_rss_mb()),
        m("sim_read_mean_ns", "ns", sim_read_mean_ns),
        m(
            "sim_req_per_sim_us",
            "1/us",
            ratio(prefix.completed as f64, prefix.sim_ps as f64 / 1e6),
        ),
        m(
            "snapshot_ms",
            "ms",
            quantile(&mut ph.snapshot_ns, 0.5) / 1e6,
        ),
        m("restore_ms", "ms", quantile(&mut ph.restore_ns, 0.5) / 1e6),
        m(
            "image_mb",
            "MB",
            quantile(&mut ph.image_bytes, 0.5) / f64::from(1 << 20),
        ),
    ];
    let failed = ph.tally.failures.total();
    println!(
        "{} seed {}: {} requests in {:.3} s host, {} slices of {:.3} s, {} simulated reads",
        w.name(),
        args.seed,
        ph.tally.attempted,
        host_s,
        ph.slices.len(),
        budget.as_secs_f64() / f64::from(SLICES),
        ph.tally.sim_reads
    );
    let per_slice: Vec<String> = ph
        .slices
        .iter()
        .map(|s| format!("{:.0}", ratio(s.completed as f64, s.host_s)))
        .collect();
    println!("req_per_host_s by slice: {}", per_slice.join(" "));
    println!(
        "failed_frac {} ({} of {} attempted)",
        ratio(failed as f64, ph.tally.attempted as f64),
        failed,
        ph.tally.attempted
    );
    println!(
        "simulated reads of the first {} units: {} reads, p50 {sim_read_p50_ns} ns, \
         p99 {sim_read_p99_ns} ns (printed here only: they sit on the model's discrete \
         latencies and can read the same on every seed)",
        w.sim_prefix(),
        sim_reads.len()
    );
    model_reference(w, sim_read_p50_ns);
    Outcome {
        correct: mismatches(&world, &ph) == 0,
        attempted: ph.tally.attempted,
        failed,
        metrics,
    }
}

/// One run of `units` on fresh set-up, for the traced comparison.
fn fixed_run(
    w: Workload,
    seed: u64,
    inst: &Instrument,
    units: u64,
    snapshots: bool,
) -> (World, Phase) {
    let mut world = setup(w, seed, inst);
    let mut ph = run(
        &mut world,
        Limit {
            until: None,
            units: Some(units),
            slice: Duration::MAX,
        },
    );
    if snapshots {
        end_snapshots(&mut world, &mut ph);
    }
    (world, ph)
}

/// The first way the traced run's model outputs differ from the
/// untraced run's, if any.
fn transparency(a: &Phase, b: &Phase) -> Option<String> {
    if let Some(d) = sut::first_difference(&a.model, &b.model) {
        return Some(format!("model metric: {d}"));
    }
    if (a.tally.sim_reads, a.tally.sim_digest) != (b.tally.sim_reads, b.tally.sim_digest) {
        return Some("simulated read latencies".into());
    }
    if a.sim_ps != b.sim_ps || a.units != b.units || a.tally.completed != b.tally.completed {
        return Some("simulated span or request count".into());
    }
    if a.counters != b.counters {
        return Some("link or buffer counters over the phase".into());
    }
    None
}

fn write_spans(args: &Args, spans: &SpanHandle) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "{}-seed{}.spans.tsv",
        args.workload.name(),
        args.seed
    ));
    let s = spans.borrow();
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, s.render())) {
        Ok(()) => println!("spans: {} written to {}", s.logged(), path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

/// `--trace 1`: the per-layer split.
fn per_layer(args: &Args) -> Outcome {
    let w = args.workload;
    // Untraced reference: as many units as fit in a quarter of the
    // budget; the traced runs repeat exactly those units.
    let mut plain_world = setup(w, args.seed, &Instrument::None);
    let budget = Duration::from_secs(args.seconds).div_f64(4.0);
    let plain = run(
        &mut plain_world,
        Limit {
            until: Some(Instant::now() + budget),
            units: None,
            slice: budget,
        },
    );
    let units = plain.units;
    drop(plain_world);

    let spans = Spans::new();
    let (traced_world, mut traced) =
        fixed_run(w, args.seed, &Instrument::Spans(spans.clone()), units, true);
    let (_, ring) = fixed_run(w, args.seed, &Instrument::Ring, units, false);

    let mut bad = mismatches(&traced_world, &traced) + plain.tally.mismatches;
    if let Some(d) = transparency(&plain, &traced) {
        eprintln!("perfbench: TRANSPARENCY: the traced run differs from the untraced run: {d}");
        bad += 1;
    }
    if let Some(d) = transparency(&plain, &ring) {
        eprintln!("perfbench: TRANSPARENCY: the trace ring changed the model: {d}");
        bad += 1;
    }

    let s = traced.spans.expect("the traced run records spans");
    // Boots happen only in set-up, so the run's totals hold them all.
    let boot = spans.borrow().totals().agg(Kind::Boot);
    let req = traced.tally.attempted.max(1) as f64;
    let pump: Vec<_> = KINDS
        .iter()
        .filter(|k| k.is_pump())
        .map(|k| s.agg(*k))
        .collect();
    let pump_ns: u64 = pump.iter().map(|a| a.incl_ns).sum();
    let pump_calls: u64 = pump.iter().map(|a| a.calls).sum();
    let push = s.agg(Kind::Push);
    let pull = s.agg(Kind::Pull);
    let frames_tx =
        counter(&traced, "dmi.host.frames_tx") + counter(&traced, "dmi.buffer.frames_tx");
    let hits = counter(&traced, "buffer.cache.hits");
    let misses = counter(&traced, "buffer.cache.misses");
    let f = traced.tally.failures;
    let per_call = |k: Kind| {
        let a = s.agg(k);
        ratio(a.incl_ns as f64, a.calls as f64)
    };
    let metrics = vec![
        m(
            "firmware.boot_ms",
            "ms",
            ratio(boot.incl_ns as f64, boot.calls as f64) / 1e6,
        ),
        m("system.submit_ns", "ns", per_call(Kind::Submit)),
        m("system.pump_ns", "ns/req", pump_ns as f64 / req),
        m(
            "system.pump_calls_per_req",
            "count",
            pump_calls as f64 / req,
        ),
        m(
            "pump.self_ns_per_slot",
            "ns/slot",
            ratio(
                pump_ns.saturating_sub(s.buffer_in_pump_ns) as f64,
                traced.slots,
            ),
        ),
        m("link.slots_per_req", "count", traced.slots / req),
        m("link.frames_tx_per_req", "count", frames_tx / req),
        m(
            "link.payload_frame_ratio",
            "ratio",
            ratio(
                (s.counts.push_payloads + s.counts.pull_useful) as f64,
                frames_tx,
            ),
        ),
        m("buffer.push_ns", "ns", per_call(Kind::Push)),
        m("buffer.pull_ns", "ns", per_call(Kind::Pull)),
        m(
            "buffer.calls_per_req",
            "count",
            (push.calls + pull.calls) as f64 / req,
        ),
        m(
            "buffer.pull_useful_ratio",
            "ratio",
            ratio(s.counts.pull_useful as f64, pull.calls as f64),
        ),
        m(
            "buffer.device_ops_per_req",
            "count",
            (misses + counter(&traced, "buffer.avalon_transfers")) / req,
        ),
        m(
            "buffer.cache_hit_ratio",
            "ratio",
            ratio(hits, hits + misses),
        ),
        m(
            "overload.shed",
            "count",
            counter(&traced, "system.overload.shed_admission")
                + counter(&traced, "system.overload.shed_deadline")
                + counter(&traced, "system.overload.shed_breaker")
                + counter(&traced, "system.overload.expired_at_submit"),
        ),
        m(
            "overload.hedges_issued",
            "count",
            counter(&traced, "system.overload.hedges_issued"),
        ),
        m(
            "overload.hedges_won",
            "count",
            counter(&traced, "system.overload.hedges_won"),
        ),
        m(
            "link.crc_errors",
            "count",
            counter(&traced, "dmi.host.crc_errors") + counter(&traced, "dmi.buffer.crc_errors"),
        ),
        m(
            "link.frames_replayed",
            "count",
            counter(&traced, "dmi.host.frames_replayed")
                + counter(&traced, "dmi.buffer.frames_replayed"),
        ),
        m(
            "channel.retries_scheduled",
            "count",
            counter(&traced, "channel.retries_scheduled"),
        ),
        m("snapshot.ns", "ns", quantile(&mut traced.snapshot_ns, 0.5)),
        m("restore.ns", "ns", quantile(&mut traced.restore_ns, 0.5)),
        m(
            "snapshot.bytes_per_dirty_line",
            "B/line",
            ratio(
                quantile(&mut traced.image_bytes, 0.5),
                traced_world.ledger.written() as f64,
            ),
        ),
        m(
            "trace.ring_overhead",
            "ratio",
            ratio(ring.host.as_secs_f64(), plain.host.as_secs_f64()),
        ),
        m(
            "trace.span_overhead",
            "ratio",
            ratio(traced.host.as_secs_f64(), plain.host.as_secs_f64()),
        ),
        m(
            "gen.self_ns_per_req",
            "ns",
            s.agg(Kind::Gen).self_ns as f64 / req,
        ),
        m(
            "gen.late_ns_p99",
            "ns",
            traced.tally.late.quantile(0.99) / 1e3,
        ),
        m("failed_frac", "ratio", f.total() as f64 / req),
        m("fail.shed", "count", f.shed as f64),
        m("fail.deadline", "count", f.deadline as f64),
        m("fail.route", "count", f.route as f64),
        m("fail.stalled", "count", f.stalled as f64),
        m("fail.rmw_aborted", "count", f.rmw_aborted as f64),
        m("fail.poisoned", "count", f.poisoned as f64),
        m("fail.other", "count", f.other as f64),
    ];
    println!(
        "{} seed {}: {} units traced ({} requests); untraced {:.3} s, spans {:.3} s, ring {:.3} s",
        w.name(),
        args.seed,
        units,
        traced.tally.attempted,
        plain.host.as_secs_f64(),
        traced.host.as_secs_f64(),
        ring.host.as_secs_f64()
    );
    println!("span totals (calls, inclusive ms, self ms):");
    for k in KINDS {
        let a = s.agg(k);
        if a.calls > 0 {
            println!(
                "  {:<28} {:>10} {:>12.3} {:>12.3}",
                k.name(),
                a.calls,
                a.incl_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6
            );
        }
    }
    println!(
        "attribution: {} of {} downstream commands matched a request; pump self time covers \
         power8::system and power8::channel together, since splitting them needs spans inside \
         the simulator",
        s.counts.push_attributed, s.counts.push_commands
    );
    write_spans(args, &spans);
    Outcome {
        correct: bad == 0,
        attempted: traced.tally.attempted,
        failed: f.total(),
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <chase-serial|mlp-mixed|paced-idle|checkpoint-cycle> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    print(&outcome);
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: an output was wrong; see the MISMATCH and TRANSPARENCY lines");
        ExitCode::FAILURE
    }
}
