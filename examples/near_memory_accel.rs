//! The §4.3 experiments: acceleration close to memory — in-line
//! command engines (Figure 11), block accelerators driven by control
//! blocks through the Access processor (Figure 12), and the Table 5
//! comparison against single-thread software.
//!
//! ```text
//! cargo run --release --example near_memory_accel
//! ```

use contutto_system::contutto::accel::block::{BlockAccelDriver, BlockOp, ControlBlock};
use contutto_system::contutto::accel::inline::min_store_command;
use contutto_system::contutto::access::{assemble, AccessConfig, AccessProcessor};
use contutto_system::contutto::avalon::AvalonBus;
use contutto_system::contutto::memctl::{MemoryController, MemoryKind};
use contutto_system::contutto::{ConTutto, ContuttoConfig, MemoryPopulation};
use contutto_system::dmi::{CacheLine, Tag};
use contutto_system::power8::channel::{ChannelConfig, DmiChannel};
use contutto_system::sim::SimTime;
use contutto_system::workloads::baseline::SoftwareBaselines;

fn accel_bus() -> AvalonBus {
    AvalonBus::new(
        vec![
            MemoryController::new(MemoryKind::Ddr3Dram, 1 << 30),
            MemoryController::new(MemoryKind::Ddr3Dram, 1 << 30),
        ],
        5,
    )
}

fn main() {
    // 1. In-line acceleration (Figure 11): a min-store executes as one
    //    atomic round trip instead of software's read-modify-write.
    println!("-- in-line acceleration: min-store through the full channel --");
    let mut ch = DmiChannel::new(
        ChannelConfig::contutto(),
        Box::new(ConTutto::new(
            ContuttoConfig::base(),
            MemoryPopulation::dram_8gb(),
        )),
    );
    let mut initial = CacheLine::ZERO;
    for w in 0..16 {
        initial.set_word(w, 1000 + w as u64);
    }
    ch.write_line_blocking(0x4000, initial).expect("seed");
    let mut candidate = CacheLine::ZERO;
    for w in 0..16 {
        candidate.set_word(w, if w % 2 == 0 { 5 } else { 5000 });
    }
    let cmd = min_store_command(Tag::new(0).unwrap(), 0x4000, candidate);
    // (The channel assigns its own tag; reuse the op.)
    let op = cmd.op;
    let t0 = ch.now();
    let id = ch.enqueue_command(op);
    ch.wait_for_command(id).expect("min-store");
    println!(
        "min-store completed in {:.0} ns (one command round trip)",
        (ch.now() - t0).as_ns_f64()
    );
    let (result, _) = ch.read_line_blocking(0x4000).expect("read back");
    assert_eq!(result.word(0), 5);
    assert_eq!(result.word(1), 1001);
    println!(
        "word0 = min(1000, 5) = {}, word1 = min(1001, 5000) = {} (verified)",
        result.word(0),
        result.word(1)
    );

    // 2. The programmable Access processor (Figure 12): write, load
    //    and run a real program.
    println!("\n-- Access processor: a hand-written block-copy program --");
    let program_text = "set r1, 0          ; source
set r2, 0x1000000  ; destination
set r3, 1048576    ; one MiB
copy r1, r2, r3
fence
halt";
    println!("{program_text}\n");
    let program = assemble(program_text).expect("assembles");
    let mut avalon = accel_bus();
    let mut ap = AccessProcessor::new(AccessConfig::default(), &mut avalon);
    let payload: Vec<u8> = (0..1_048_576u32).map(|i| (i % 253) as u8).collect();
    ap.dma_write(0, &payload);
    let done = ap.run(&program, 1, SimTime::ZERO).expect("program runs");
    let mut back = vec![0u8; payload.len()];
    ap.dma_read(0x100_0000, &mut back);
    assert_eq!(back, payload);
    println!(
        "copied 1 MiB in {:.1} us ({:.2} GB/s), {} instructions, verified",
        done.as_us_f64(),
        payload.len() as f64 / done.as_secs_f64() / 1e9,
        ap.perf().instructions
    );

    // 3. Table 5: the three accelerated functions vs software.
    println!("\n-- Table 5: near-memory accelerators vs software --");
    let size: u64 = 32 << 20;
    let sw = SoftwareBaselines;

    let mut avalon = accel_bus();
    let cb = BlockAccelDriver
        .execute(
            &mut avalon,
            ControlBlock::new(BlockOp::Memcpy {
                src: 0,
                dst: 1 << 29,
                len: size,
            }),
            SimTime::ZERO,
        )
        .expect("memcpy");
    let (_, sw_memcpy) = sw.memcpy(&vec![0u8; 1 << 20], &mut vec![0u8; 1 << 20]);
    println!(
        "memcpy:  ConTutto {:.2} GB/s  vs software {:.2} GB/s (paper: 6 vs 3.2)",
        cb.throughput_bytes_per_sec(SimTime::ZERO) / 1e9,
        sw_memcpy
    );

    let mut avalon = accel_bus();
    let cb = BlockAccelDriver
        .execute(
            &mut avalon,
            ControlBlock::new(BlockOp::MinMax { addr: 0, len: size }),
            SimTime::ZERO,
        )
        .expect("minmax");
    let (_, _, _, sw_minmax) = sw.minmax(&vec![9u32; 1 << 18]);
    println!(
        "min/max: ConTutto {:.2} GB/s  vs software {:.2} GB/s (paper: 10.5 vs 0.5)",
        cb.throughput_bytes_per_sec(SimTime::ZERO) / 1e9,
        sw_minmax
    );

    let mut avalon = accel_bus();
    let fft_len: u64 = 8 << 20;
    let cb = BlockAccelDriver
        .execute(
            &mut avalon,
            ControlBlock::new(BlockOp::Fft {
                src: 0,
                dst: 1 << 29,
                len: fft_len,
            }),
            SimTime::ZERO,
        )
        .expect("fft");
    let gs = (fft_len as f64 / 8.0) / cb.completed_at.as_secs_f64() / 1e9;
    let mut samples = vec![contutto_system::contutto::accel::fft::Complex32::default(); 8192];
    let (_, sw_fft) = sw.fft_blocks(&mut samples);
    println!(
        "FFT:     ConTutto {gs:.2} Gsamples/s vs software {sw_fft:.2} Gsamples/s (paper: 1.3 vs 0.68)"
    );
    println!(
        "         ({} x 1024-point blocks transformed and deposited)",
        cb.blocks_done
    );
}
