//! Design-choice ablations from paper §3.3: the clock-crossing-FIFO
//! bypass, the 4-to-2-stage CRC reduction (both gate the FRTL limit),
//! the replay path under injected errors, and raw channel throughput.

use contutto_bench::harness::{criterion_group, criterion_main, Criterion};

use contutto_bench::contutto_channel;
use contutto_core::{ConTutto, ContuttoConfig, MemoryPopulation};
use contutto_dmi::command::CommandOp;
use contutto_dmi::link::BitErrorInjector;
use contutto_dmi::training::{LinkTrainer, TrainerConfig};
use contutto_dmi::DmiBuffer;
use contutto_power8::channel::{ChannelConfig, DmiChannel};
use contutto_power8::firmware::P8_MAX_FRTL_BUS_CYCLES;
use contutto_power8::latency::read_throughput_lines_per_sec;

fn bench_frtl_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("frtl_design_ablation");
    group.bench_function("optimized_vs_naive_frtl", |b| {
        b.iter(|| {
            let opt = ConTutto::new(ContuttoConfig::base(), MemoryPopulation::dram_8gb());
            let naive = ConTutto::new(ContuttoConfig::naive(), MemoryPopulation::dram_8gb());
            // The design story: the naive FPGA misses the FRTL budget.
            let cfg = TrainerConfig {
                max_frtl_bus_cycles: P8_MAX_FRTL_BUS_CYCLES,
                ..TrainerConfig::default()
            };
            let opt_ok = LinkTrainer::new(cfg.clone(), 1)
                .train(opt.frtl_turnaround() + contutto_sim::SimTime::from_ns(8))
                .is_ok();
            let naive_ok = LinkTrainer::new(cfg, 1)
                .train(naive.frtl_turnaround() + contutto_sim::SimTime::from_ns(8))
                .is_ok();
            assert!(opt_ok && !naive_ok);
            (opt_ok, naive_ok)
        })
    });
    group.finish();
}

fn bench_replay_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_overhead");
    group.sample_size(10);
    group.bench_function("clean_channel_64_reads", |b| {
        b.iter(|| {
            let mut ch = contutto_channel(ContuttoConfig::base());
            read_throughput_lines_per_sec(&mut ch, 64)
        })
    });
    group.bench_function("noisy_channel_64_reads", |b| {
        b.iter(|| {
            let mut cfg = ChannelConfig::contutto();
            cfg.down_errors = BitErrorInjector::bernoulli(0.005, 3);
            let mut ch = DmiChannel::new(
                cfg,
                Box::new(ConTutto::new(
                    ContuttoConfig::base(),
                    MemoryPopulation::dram_8gb(),
                )),
            );
            read_throughput_lines_per_sec(&mut ch, 64)
        })
    });
    group.finish();
}

fn bench_tag_throttling(c: &mut Criterion) {
    let mut group = c.benchmark_group("tag_throttling");
    group.sample_size(10);
    group.bench_function("pipelined_256_reads_base", |b| {
        b.iter(|| {
            let mut ch = contutto_channel(ContuttoConfig::base());
            let mut done = 0;
            for i in 0..32u64 {
                ch.enqueue_command(CommandOp::Read { addr: i * 128 });
            }
            let deadline = ch.now() + contutto_sim::SimTime::from_ms(10);
            while done < 32 {
                ch.next_completion(deadline).unwrap().1.unwrap();
                done += 1;
            }
            ch.now()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_frtl_ablation,
    bench_replay_overhead,
    bench_tag_throttling
);
criterion_main!(benches);
