//! Integration: the DMI replay machinery under injected faults, end
//! to end through buffer models — data integrity is the invariant.

use contutto_system::centaur::{Centaur, CentaurConfig};
use contutto_system::contutto::{ConTutto, ContuttoConfig, MemoryPopulation};
use contutto_system::dmi::{BitErrorInjector, CacheLine};
use contutto_system::power8::channel::{ChannelConfig, DmiChannel};

fn noisy_contutto(down_p: f64, up_p: f64, seed: u64) -> DmiChannel {
    let mut cfg = ChannelConfig::contutto();
    if down_p > 0.0 {
        cfg.down_errors = BitErrorInjector::bernoulli(down_p, seed);
    }
    if up_p > 0.0 {
        cfg.up_errors = BitErrorInjector::bernoulli(up_p, seed.wrapping_add(1));
    }
    DmiChannel::new(
        cfg,
        Box::new(ConTutto::new(
            ContuttoConfig::base(),
            MemoryPopulation::dram_8gb(),
        )),
    )
}

#[test]
fn integrity_under_bidirectional_errors_contutto() {
    // The freeze workaround is on this path (buffer side).
    let mut ch = noisy_contutto(0.02, 0.02, 424242);
    for i in 0..30u64 {
        let line = CacheLine::patterned(i * 31 + 7);
        ch.write_line_blocking(i * 128, line).expect("write");
        let (back, _) = ch.read_line_blocking(i * 128).expect("read");
        assert_eq!(back, line, "iteration {i}");
    }
    let s = ch.host_stats();
    assert!(s.replays_triggered > 0, "errors must have caused replays");
}

#[test]
fn integrity_under_errors_centaur() {
    let mut cfg = ChannelConfig::centaur();
    cfg.down_errors = BitErrorInjector::bernoulli(0.02, 7);
    cfg.up_errors = BitErrorInjector::bernoulli(0.02, 8);
    let mut ch = DmiChannel::new(
        cfg,
        Box::new(Centaur::new(CentaurConfig::optimized(), 8 << 30)),
    );
    for i in 0..30u64 {
        let line = CacheLine::patterned(i);
        ch.write_line_blocking(0x8000 + i * 128, line)
            .expect("write");
        let (back, _) = ch.read_line_blocking(0x8000 + i * 128).expect("read");
        assert_eq!(back, line);
    }
}

#[test]
fn noisy_channel_is_slower_but_correct() {
    let run = |noise: f64, seed: u64| {
        let mut ch = noisy_contutto(noise, 0.0, seed);
        for i in 0..20u64 {
            ch.write_line_blocking(i * 128, CacheLine::patterned(i))
                .expect("write");
        }
        ch.now()
    };
    let clean = run(0.0, 1);
    let noisy = run(0.03, 1);
    assert!(noisy > clean, "replays cost time: {noisy} !> {clean}");
}

#[test]
fn determinism_same_seed_same_trace() {
    let run = || {
        let mut ch = noisy_contutto(0.02, 0.02, 99);
        for i in 0..10u64 {
            ch.write_line_blocking(i * 128, CacheLine::patterned(i))
                .expect("write");
        }
        (ch.now(), ch.host_stats().clone())
    };
    let (t1, s1) = run();
    let (t2, s2) = run();
    assert_eq!(t1, t2, "bit-reproducible timing");
    assert_eq!(s1, s2, "bit-reproducible protocol stats");
}

#[test]
fn tag_exhaustion_reports_not_hangs() {
    let mut ch = noisy_contutto(0.0, 0.0, 1);
    for _ in 0..40 {
        ch.enqueue_command(contutto_system::dmi::CommandOp::Read { addr: 0 });
    }
    ch.step();
    assert_eq!(ch.tracked_in_flight(), 32, "exactly the paper's 32 tags");
    assert_eq!(ch.tags_available(), 0);
    assert_eq!(ch.queued_commands(), 8, "the rest wait, not fail");
    let deadline = ch.now() + contutto_system::sim::SimTime::from_ms(1);
    while ch.has_command_work() {
        assert!(ch.now() <= deadline, "tag exhaustion hung");
        ch.step();
        assert!(ch.tracked_in_flight() <= 32);
    }
    let mut finished = 0;
    while let Some((_, result)) = ch.poll_command() {
        result.expect("read completes");
        finished += 1;
    }
    assert_eq!(finished, 40);
}

#[test]
fn randomized_ops_against_reference_model() {
    // Random mixed read/write traffic with a windowed submission
    // pattern, on a noisy channel, checked against a flat reference
    // model: the strongest end-to-end integrity property we can state.
    use contutto_system::dmi::CommandOp;
    use std::collections::HashMap;

    let mut ch = noisy_contutto(0.01, 0.01, 31337);
    let mut reference: HashMap<u64, CacheLine> = HashMap::new();
    let mut lcg: u64 = 0xACE1;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg
    };
    for op in 0..120u64 {
        let r = next();
        let addr = (r % 64) * 128; // 64-line working set
        if r & (1 << 40) != 0 {
            let line = CacheLine::patterned(op);
            ch.write_line_blocking(addr, line).expect("write");
            reference.insert(addr, line);
        } else {
            let (got, _) = ch.read_line_blocking(addr).expect("read");
            let want = reference.get(&addr).copied().unwrap_or(CacheLine::ZERO);
            assert_eq!(got, want, "op {op} at {addr:#x}");
        }
    }
    // Interleaved window: fire 16 reads at once over written lines and
    // match them back by command id.
    let mut expected_by_id = HashMap::new();
    let addrs: Vec<u64> = reference.keys().copied().take(16).collect();
    for addr in &addrs {
        let id = ch.enqueue_command(CommandOp::Read { addr: *addr });
        expected_by_id.insert(id, reference[addr]);
    }
    let deadline = ch.now() + contutto_system::sim::SimTime::from_ms(10);
    for _ in 0..addrs.len() {
        let (id, result) = ch.next_completion(deadline).expect("completion");
        let want = expected_by_id.remove(&id).expect("our command");
        assert_eq!(result.expect("read").data.expect("read data"), want);
    }
}

#[test]
fn burst_errors_on_consecutive_frames_recover() {
    // Five consecutive corrupted downstream frames — the replay must
    // rewind far enough (FRTL-based) to recover all of them.
    let mut cfg = ChannelConfig::contutto();
    cfg.down_errors = BitErrorInjector::at_frames(vec![40, 41, 42, 43, 44]);
    let mut ch = DmiChannel::new(
        cfg,
        Box::new(ConTutto::new(
            ContuttoConfig::base(),
            MemoryPopulation::dram_8gb(),
        )),
    );
    for i in 0..20u64 {
        let line = CacheLine::patterned(i + 100);
        ch.write_line_blocking(i * 128, line).expect("write");
        let (back, _) = ch.read_line_blocking(i * 128).expect("read");
        assert_eq!(back, line);
    }
}

#[test]
fn burst_plus_bernoulli_noise_on_both_directions_recover() {
    // A multi-frame burst on one wire while the other wire carries
    // continuous Bernoulli noise — replays fire in both directions at
    // once and data must still arrive intact. Run both assignments of
    // burst/noise to the two wires.
    let scenarios = [
        (
            BitErrorInjector::at_frames(vec![40, 41, 42, 43, 44]),
            BitErrorInjector::bernoulli(0.03, 555),
        ),
        (
            BitErrorInjector::bernoulli(0.03, 777),
            BitErrorInjector::at_frames(vec![60, 61, 62, 63]),
        ),
    ];
    for (down, up) in scenarios {
        let mut cfg = ChannelConfig::contutto();
        cfg.down_errors = down;
        cfg.up_errors = up;
        let mut ch = DmiChannel::new(
            cfg,
            Box::new(ConTutto::new(
                ContuttoConfig::base(),
                MemoryPopulation::dram_8gb(),
            )),
        );
        for i in 0..20u64 {
            let line = CacheLine::patterned(i * 13 + 5);
            ch.write_line_blocking(i * 128, line).expect("write");
            let (back, _) = ch.read_line_blocking(i * 128).expect("read");
            assert_eq!(back, line, "iteration {i}");
        }
        let m = ch.metrics();
        assert!(
            m.counter("dmi.host.replays_triggered") + m.counter("dmi.buffer.replays_triggered") > 0,
            "errors on both wires must have caused replays"
        );
    }
}

#[test]
fn trace_captures_every_replay_crc_and_tag_event() {
    // The burst scenario again, now with the tracer on: every replay
    // trigger, CRC failure and tag lifecycle event the counters report
    // must appear in the trace, one for one.
    use contutto_system::sim::TraceEvent;

    let mut cfg = ChannelConfig::contutto();
    cfg.down_errors = BitErrorInjector::at_frames(vec![40, 41, 42, 43, 44]);
    let mut ch = DmiChannel::new(
        cfg,
        Box::new(ConTutto::new(
            ContuttoConfig::base(),
            MemoryPopulation::dram_8gb(),
        )),
    );
    let tracer = ch.enable_tracing(1 << 16);
    let commands = 40; // 20 writes + 20 reads
    for i in 0..20u64 {
        let line = CacheLine::patterned(i + 100);
        ch.write_line_blocking(i * 128, line).expect("write");
        let (back, _) = ch.read_line_blocking(i * 128).expect("read");
        assert_eq!(back, line);
    }
    assert_eq!(tracer.dropped(), 0, "ring must retain the whole run");

    let m = ch.metrics();
    let traced_crc = tracer.count_matching(|e| matches!(e, TraceEvent::CrcFailure { .. })) as u64;
    assert!(traced_crc > 0, "the burst must surface CRC failures");
    assert_eq!(
        traced_crc,
        m.counter("dmi.host.crc_errors") + m.counter("dmi.buffer.crc_errors"),
        "every CRC failure is traced"
    );

    let traced_triggers =
        tracer.count_matching(|e| matches!(e, TraceEvent::ReplayTrigger { .. })) as u64;
    assert!(traced_triggers > 0, "the burst must trigger replays");
    assert_eq!(
        traced_triggers,
        m.counter("dmi.host.replays_triggered") + m.counter("dmi.buffer.replays_triggered"),
        "every replay trigger is traced"
    );
    let traced_rewinds =
        tracer.count_matching(|e| matches!(e, TraceEvent::ReplayRewind { .. })) as u64;
    assert_eq!(traced_rewinds, traced_triggers, "each trigger rewinds once");

    let acquires = tracer.count_matching(|e| matches!(e, TraceEvent::TagAcquire { .. }));
    let releases = tracer.count_matching(|e| matches!(e, TraceEvent::TagRelease { .. }));
    assert_eq!(acquires, commands, "every command's tag acquire is traced");
    assert_eq!(releases, commands, "every command's tag release is traced");

    let replayed_tx =
        tracer.count_matching(|e| matches!(e, TraceEvent::FrameTx { replayed: true, .. })) as u64;
    assert!(replayed_tx > 0, "replayed frames are marked in the trace");
}

#[test]
fn same_seed_runs_produce_byte_identical_traces_and_metrics() {
    let run = || {
        let mut ch = noisy_contutto(0.02, 0.02, 2024);
        let tracer = ch.enable_tracing(4096);
        for i in 0..10u64 {
            let line = CacheLine::patterned(i);
            ch.write_line_blocking(i * 128, line).expect("write");
            let (back, _) = ch.read_line_blocking(i * 128).expect("read");
            assert_eq!(back, line);
        }
        (tracer.render(), ch.metrics().render(), tracer.fingerprint())
    };
    let (trace_a, metrics_a, fp_a) = run();
    let (trace_b, metrics_b, fp_b) = run();
    assert_eq!(trace_a, trace_b, "byte-identical trace render");
    assert_eq!(metrics_a, metrics_b, "byte-identical metrics snapshot");
    assert_eq!(fp_a, fp_b, "identical trace fingerprints");
    // The trace is non-trivial: it carries frame traffic and stamps.
    assert!(trace_a.lines().count() > 100, "trace has real content");
}
