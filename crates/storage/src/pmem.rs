//! The persistent-memory driver.
//!
//! Paper §4.2: "Using the ConTutto-enabled STT-MRAM, we have developed
//! a persistent memory (pmem) kernel driver, guaranteeing persistence
//! on the memory bus. ... the persistent memory controller in the
//! software stack requires support for flush and sync commands to
//! ensure that outstanding commands have been written to memory. We
//! extended the MBS logic to add a special flush command."
//!
//! [`PmemDriver`] moves spans through a live [`DmiChannel`] as
//! cache-line loads/stores with a bounded number outstanding (the
//! core's memory-level parallelism), and makes writes durable with the
//! ConTutto flush command. This is the data path behind the
//! memory-bus rows of Figures 9/10 and Table 4 — its latency is
//! *measured through the simulated channel*, not assumed.

use std::collections::HashMap;

use contutto_dmi::command::{CacheLine, CommandOp};
use contutto_sim::SimTime;

use contutto_power8::channel::{CmdId, DmiChannel};

/// The pmem driver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmemDriver {
    /// Maximum outstanding line commands (core MLP for copies).
    pub mlp: usize,
    /// Fixed per-call software cost (mapping, fence instructions).
    pub software_overhead: SimTime,
}

impl Default for PmemDriver {
    fn default() -> Self {
        PmemDriver {
            mlp: 4,
            software_overhead: SimTime::from_ns(300),
        }
    }
}

impl PmemDriver {
    /// Reads `buf.len()` bytes at a line-aligned address; returns the
    /// completion time.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 128-byte aligned, `buf` is not a
    /// multiple of 128 bytes, or the channel hangs or fails a read.
    pub fn read(&self, channel: &mut DmiChannel, addr: u64, buf: &mut [u8]) -> SimTime {
        assert_eq!(addr % 128, 0, "pmem reads are line aligned");
        assert_eq!(buf.len() % 128, 0, "pmem reads whole lines");
        let lines = buf.len() / 128;
        let mut cmd_to_line: HashMap<CmdId, usize> = HashMap::new();
        let mut next = 0usize;
        let mut completed = 0usize;
        let deadline = channel.now() + SimTime::from_ms(100);
        while completed < lines {
            while next < lines && cmd_to_line.len() < self.mlp {
                let id = channel.enqueue_command(CommandOp::Read {
                    addr: addr + next as u64 * 128,
                });
                cmd_to_line.insert(id, next);
                next += 1;
            }
            let (id, result) = channel.next_completion(deadline).expect("pmem read hung");
            let line_idx = cmd_to_line.remove(&id).expect("our command");
            let data = result.expect("pmem read failed").data.expect("read data");
            buf[line_idx * 128..(line_idx + 1) * 128].copy_from_slice(&data.0);
            completed += 1;
        }
        channel.now() + self.software_overhead
    }

    /// Writes `data` persistently: pipelined line stores followed by a
    /// flush command; returns the time the data is durable at the
    /// media.
    ///
    /// # Panics
    ///
    /// Panics on misalignment or a hung or failing channel.
    pub fn write_persistent(&self, channel: &mut DmiChannel, addr: u64, data: &[u8]) -> SimTime {
        let done = self.write_posted(channel, addr, data);
        // The flush command drains everything outstanding.
        let flush = channel.enqueue_command(CommandOp::Flush);
        let deadline = channel.now() + SimTime::from_ms(100);
        loop {
            match channel.next_completion(deadline) {
                Some((id, result)) if id == flush => {
                    result.expect("flush failed");
                    break;
                }
                Some(_) => {}
                None => panic!("flush hung"),
            }
        }
        channel.now().max(done) + self.software_overhead
    }

    /// Posted (non-durable) write path: all stores completed, no flush.
    ///
    /// # Panics
    ///
    /// Panics on misalignment or a hung or failing channel.
    pub fn write_posted(&self, channel: &mut DmiChannel, addr: u64, data: &[u8]) -> SimTime {
        assert_eq!(addr % 128, 0, "pmem writes are line aligned");
        assert_eq!(data.len() % 128, 0, "pmem writes whole lines");
        let lines = data.len() / 128;
        let mut outstanding = 0usize;
        let mut next = 0usize;
        let mut completed = 0usize;
        let deadline = channel.now() + SimTime::from_ms(100);
        while completed < lines {
            while next < lines && outstanding < self.mlp.max(8) {
                let mut line = CacheLine::ZERO;
                line.0.copy_from_slice(&data[next * 128..(next + 1) * 128]);
                channel.enqueue_command(CommandOp::Write {
                    addr: addr + next as u64 * 128,
                    data: line,
                });
                outstanding += 1;
                next += 1;
            }
            let (_, result) = channel.next_completion(deadline).expect("pmem write hung");
            result.expect("pmem write failed");
            outstanding -= 1;
            completed += 1;
        }
        channel.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contutto_core::{ConTutto, ContuttoConfig, MemoryPopulation};
    use contutto_memdev::MramGeneration;
    use contutto_power8::channel::ChannelConfig;

    fn mram_channel() -> DmiChannel {
        DmiChannel::new(
            ChannelConfig::contutto(),
            Box::new(ConTutto::new(
                ContuttoConfig::base(),
                MemoryPopulation::mram_512mb(MramGeneration::Pmtj),
            )),
        )
    }

    #[test]
    fn span_roundtrip() {
        let mut ch = mram_channel();
        let driver = PmemDriver::default();
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 241) as u8).collect();
        driver.write_persistent(&mut ch, 0x1_0000, &data);
        let mut back = vec![0u8; 4096];
        driver.read(&mut ch, 0x1_0000, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn mram_4k_read_latency_is_microseconds() {
        let mut ch = mram_channel();
        let driver = PmemDriver::default();
        let mut buf = vec![0u8; 4096];
        // Warm rows.
        driver.read(&mut ch, 0, &mut buf);
        let t0 = ch.now();
        let done = driver.read(&mut ch, 0, &mut buf);
        let us = (done - t0).as_us_f64();
        // 32 lines / MLP 4 over a ~400+ ns channel: a few microseconds —
        // the memory-bus attach point's whole advantage (Figure 10).
        assert!((2.0..6.0).contains(&us), "4K read took {us} us");
    }

    #[test]
    fn persistent_write_pays_for_the_flush() {
        let mut ch = mram_channel();
        let driver = PmemDriver::default();
        let data = vec![0xA5u8; 4096];
        driver.write_posted(&mut ch, 0, &data); // warm
        let t0 = ch.now();
        driver.write_posted(&mut ch, 0, &data);
        let posted = ch.now() - t0;
        let t0 = ch.now();
        driver.write_persistent(&mut ch, 0, &data);
        let durable = ch.now() - t0;
        assert!(durable > posted, "durable {durable} !> posted {posted}");
        // Both stay in the low microseconds — the memory-bus advantage.
        assert!(
            durable < contutto_sim::SimTime::from_us(8),
            "durable {durable}"
        );
    }

    #[test]
    fn flush_makes_writes_durable_after_power_loss_story() {
        // Functional: flush returns only after the controller reports
        // all writes durable; MRAM then retains across power loss.
        let mut ch = mram_channel();
        let driver = PmemDriver::default();
        driver.write_persistent(&mut ch, 0x2000, &[0xEE; 128]);
        // (Power loss on MRAM retains contents by construction;
        // the read-back confirms the data reached the media model.)
        let mut buf = vec![0u8; 128];
        driver.read(&mut ch, 0x2000, &mut buf);
        assert_eq!(buf, vec![0xEE; 128]);
    }

    #[test]
    fn higher_mlp_reduces_read_latency() {
        let run = |mlp: usize| {
            let mut ch = mram_channel();
            let driver = PmemDriver {
                mlp,
                ..PmemDriver::default()
            };
            let mut buf = vec![0u8; 4096];
            driver.read(&mut ch, 0, &mut buf); // warm
            let t0 = ch.now();
            let done = driver.read(&mut ch, 0, &mut buf);
            done - t0
        };
        assert!(run(8) < run(2), "mlp 8 {} vs mlp 2 {}", run(8), run(2));
    }

    #[test]
    #[should_panic(expected = "line aligned")]
    fn misaligned_read_rejected() {
        let mut ch = mram_channel();
        PmemDriver::default().read(&mut ch, 64, &mut [0u8; 128]);
    }
}
