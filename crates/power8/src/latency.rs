//! The memory-latency probe.
//!
//! Paper §4.1: "The latency to memory is the measured latency of a
//! single memory command, averaged over multiple single commands
//! issued from POWER8" (Table 2) and "The measurement represents the
//! total roundtrip latency through software, processor, caches, Power
//! bus nest, DMI link and ConTutto" (Table 3).
//!
//! [`LatencyProbe`] issues strictly dependent cache-line reads (each
//! waits for the previous completion) over a small ring of lines —
//! after a warm-up pass the DRAM row buffers hit, so the probe
//! measures the command path rather than DRAM bank luck. Two
//! measurement levels reproduce the two tables' vantage points.

use contutto_dmi::command::{CommandOp, NUM_TAGS};
use contutto_sim::{LatencyStats, SimTime};

use crate::channel::DmiChannel;

/// Where the measurement is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasurementLevel {
    /// At the nest / DMI master: command issue to done, plus nest
    /// arbitration (Table 2's vantage).
    Nest,
    /// Through software: adds core, L1–L3 traversal and the load/store
    /// unit path (Table 3's vantage).
    Software,
}

impl MeasurementLevel {
    /// Fixed processor-side overhead added to the channel round trip.
    pub fn overhead(self) -> SimTime {
        match self {
            MeasurementLevel::Nest => SimTime::from_ns(17),
            MeasurementLevel::Software => SimTime::from_ns(35),
        }
    }
}

/// Dependent-load latency probe.
///
/// # Example
///
/// ```
/// use contutto_power8::channel::{ChannelConfig, DmiChannel};
/// use contutto_power8::latency::{LatencyProbe, MeasurementLevel};
/// use contutto_centaur::{Centaur, CentaurConfig};
///
/// let mut ch = DmiChannel::new(
///     ChannelConfig::centaur(),
///     Box::new(Centaur::new(CentaurConfig::optimized(), 8 << 30)),
/// );
/// let probe = LatencyProbe { iterations: 16, ..Default::default() };
/// let mean = probe.measure(&mut ch, MeasurementLevel::Nest);
/// // Table 2's optimized row sits near 79 ns.
/// assert!((70.0..90.0).contains(&mean.as_ns_f64()));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyProbe {
    /// Number of distinct lines in the probe ring.
    pub ring_lines: u64,
    /// Measured iterations (after one warm-up pass).
    pub iterations: u64,
    /// Base address of the ring.
    pub base_addr: u64,
}

impl Default for LatencyProbe {
    fn default() -> Self {
        LatencyProbe {
            ring_lines: 16,
            iterations: 256,
            base_addr: 0x10_0000,
        }
    }
}

impl LatencyProbe {
    /// Runs the probe on a channel; returns the mean round-trip
    /// latency at the requested measurement level.
    ///
    /// # Panics
    ///
    /// Panics if the channel hangs (propagated from the blocking read).
    pub fn measure(&self, channel: &mut DmiChannel, level: MeasurementLevel) -> SimTime {
        self.measure_stats(channel, level).mean()
    }

    /// Full statistics variant of [`LatencyProbe::measure`].
    pub fn measure_stats(&self, channel: &mut DmiChannel, level: MeasurementLevel) -> LatencyStats {
        // Warm-up: open the rows.
        for i in 0..self.ring_lines {
            let addr = self.base_addr + i * 128;
            channel
                .read_line_blocking(addr)
                .expect("probe read must not exhaust tags");
        }
        let mut stats = LatencyStats::new();
        for i in 0..self.iterations {
            let addr = self.base_addr + (i % self.ring_lines) * 128;
            let before = channel.now();
            channel
                .read_line_blocking(addr)
                .expect("probe read must not exhaust tags");
            let roundtrip = channel.now() - before;
            stats.record(roundtrip + level.overhead());
        }
        stats
    }

    /// Measures store latency (issue to done) instead of loads.
    pub fn measure_writes(
        &self,
        channel: &mut DmiChannel,
        level: MeasurementLevel,
    ) -> LatencyStats {
        let mut stats = LatencyStats::new();
        for i in 0..self.iterations {
            let addr = self.base_addr + (i % self.ring_lines) * 128;
            let before = channel.now();
            channel
                .write_line_blocking(addr, contutto_dmi::CacheLine::patterned(i))
                .expect("probe write must not exhaust tags");
            stats.record(channel.now() - before + level.overhead());
        }
        stats
    }
}

/// Issues `count` independent reads as fast as tags allow and returns
/// achieved throughput in lines/second — the tag-throttling
/// experiment (paper §2.3: too-high latency makes the processor cycle
/// through all tags and stall).
pub fn read_throughput_lines_per_sec(channel: &mut DmiChannel, count: u64) -> f64 {
    let start = channel.now();
    let mut submitted = 0u64;
    let mut completed = 0u64;
    let deadline = start + SimTime::from_ms(100);
    while completed < count {
        // Keep every tag busy: a new read joins as each one finishes.
        while submitted < count && submitted - completed < NUM_TAGS as u64 {
            // A 64-line ring: rows stay open, so the wire and the tag
            // window are the limiters, not DRAM bank luck.
            let addr = (submitted % 64) * 128;
            channel.enqueue_command(CommandOp::Read { addr });
            submitted += 1;
        }
        match channel.next_completion(deadline) {
            Some(_) => completed += 1,
            None => panic!("throughput run hung"),
        }
    }
    let elapsed = channel.now() - start;
    count as f64 / elapsed.as_secs_f64()
}

/// Measures sustained read bandwidth of one channel: keep the 32-tag
/// window full for `lines` cache-line reads and divide by elapsed
/// time. Paper §2.1 quotes 410 GB/s peak / 230 GB/s sustained across
/// all eight channels (with four DDR ports per Centaur); our per-port
/// model reaches a substantial fraction of the per-channel share, and
/// the upstream wire (4 data beats + done per line) is the ceiling.
pub fn read_bandwidth_bytes_per_sec(channel: &mut DmiChannel, lines: u64) -> f64 {
    let tp = read_throughput_lines_per_sec(channel, lines);
    tp * 128.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelConfig, DmiChannel};
    use contutto_centaur::{Centaur, CentaurConfig};
    use contutto_core::{ConTutto, ContuttoConfig, MemoryPopulation};

    fn centaur(cfg: CentaurConfig) -> DmiChannel {
        DmiChannel::new(
            ChannelConfig::centaur(),
            Box::new(Centaur::new(cfg, 8 << 30)),
        )
    }

    fn contutto(cfg: ContuttoConfig) -> DmiChannel {
        DmiChannel::new(
            ChannelConfig::contutto(),
            Box::new(ConTutto::new(cfg, MemoryPopulation::dram_8gb())),
        )
    }

    #[test]
    fn overheads_ordered() {
        assert!(MeasurementLevel::Software.overhead() > MeasurementLevel::Nest.overhead());
    }

    #[test]
    fn probe_is_deterministic() {
        let probe = LatencyProbe::default();
        let a = probe.measure(
            &mut centaur(CentaurConfig::optimized()),
            MeasurementLevel::Nest,
        );
        let b = probe.measure(
            &mut centaur(CentaurConfig::optimized()),
            MeasurementLevel::Nest,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn centaur_optimized_is_about_79ns_at_nest() {
        // Table 2 row 1.
        let probe = LatencyProbe::default();
        let mean = probe.measure(
            &mut centaur(CentaurConfig::optimized()),
            MeasurementLevel::Nest,
        );
        let ns = mean.as_ns_f64();
        assert!((74.0..84.0).contains(&ns), "measured {ns} ns");
    }

    #[test]
    fn centaur_optimized_is_about_97ns_at_software() {
        // Table 3 row 1.
        let probe = LatencyProbe::default();
        let mean = probe.measure(
            &mut centaur(CentaurConfig::optimized()),
            MeasurementLevel::Software,
        );
        let ns = mean.as_ns_f64();
        assert!((92.0..102.0).contains(&ns), "measured {ns} ns");
    }

    #[test]
    fn contutto_base_is_about_390ns_at_software() {
        // Table 3 row 2.
        let probe = LatencyProbe::default();
        let mean = probe.measure(
            &mut contutto(ContuttoConfig::base()),
            MeasurementLevel::Software,
        );
        let ns = mean.as_ns_f64();
        assert!((370.0..410.0).contains(&ns), "measured {ns} ns");
    }

    #[test]
    fn knob_steps_add_24ns() {
        // Minima are refresh-free, so the inserted delay shows exactly.
        let probe = LatencyProbe::default();
        let min_of = |knob: u8| {
            probe
                .measure_stats(
                    &mut contutto(ContuttoConfig::with_knob(knob)),
                    MeasurementLevel::Software,
                )
                .min()
                .unwrap()
                .as_ns_f64()
        };
        let base = min_of(0);
        let k2 = min_of(2);
        let k7 = min_of(7);
        assert!((k2 - base - 48.0).abs() < 4.0, "k2 delta {}", k2 - base);
        assert!((k7 - base - 168.0).abs() < 4.0, "k7 delta {}", k7 - base);
    }

    #[test]
    fn write_latency_is_measurable() {
        let probe = LatencyProbe {
            iterations: 16,
            ..LatencyProbe::default()
        };
        let stats = probe.measure_writes(
            &mut centaur(CentaurConfig::optimized()),
            MeasurementLevel::Nest,
        );
        assert_eq!(stats.count(), 16);
        assert!(stats.mean() > SimTime::from_ns(40));
    }

    #[test]
    fn centaur_sustained_read_bandwidth_is_wire_limited() {
        // Upstream ceiling: 128 B per (4 data + ~0.5 done) frames of
        // 1.664 ns = ~15-17 GB/s per channel. Eight channels would
        // aggregate >100 GB/s — same order as the paper's 230 GB/s
        // with its 4 DDR ports per buffer (we model one port pair).
        let mut ch = centaur(CentaurConfig::optimized());
        let bw = read_bandwidth_bytes_per_sec(&mut ch, 512);
        let gbps = bw / 1e9;
        assert!((10.0..18.0).contains(&gbps), "sustained {gbps} GB/s");
        // Raw upstream wire: 21 lanes x 9.6 Gb/s = 25.2 GB/s — we must
        // stay below it.
        assert!(bw < contutto_dmi::LinkSpeed::Gbps9_6.raw_bandwidth_bytes_per_sec(21));
    }

    #[test]
    fn contutto_sustained_bandwidth_is_on_par_despite_latency() {
        // Paper §3.3: the FPGA's widened datapath targets "throughput
        // performance on par or near that of the Centaur ASIC". With
        // 32 tags in flight, latency hides and the 8 Gb/s wire is the
        // difference, not the FPGA pipeline.
        let mut cen = centaur(CentaurConfig::optimized());
        let mut con = contutto(ContuttoConfig::base());
        let cen_bw = read_bandwidth_bytes_per_sec(&mut cen, 512);
        let con_bw = read_bandwidth_bytes_per_sec(&mut con, 512);
        let ratio = con_bw / cen_bw;
        // The FPGA's 390 ns round trip against 32 tags caps it at
        // ~32x128B/390ns = 10.5 GB/s — the §2.3 throttling effect —
        // while Centaur is wire-bound; "on par or near" holds at the
        // slower link speed.
        assert!(
            ratio > 0.55,
            "contutto reaches {ratio:.2}x of centaur bandwidth"
        );
    }

    #[test]
    fn tag_throttling_limits_throughput_of_slow_buffer() {
        // With 32 tags, throughput <= 32 / round-trip. The slower
        // ConTutto must achieve less than Centaur.
        let mut fast = centaur(CentaurConfig::optimized());
        let mut slow = contutto(ContuttoConfig::with_knob(7));
        let fast_tp = read_throughput_lines_per_sec(&mut fast, 256);
        let slow_tp = read_throughput_lines_per_sec(&mut slow, 256);
        assert!(fast_tp > slow_tp, "fast {fast_tp} slow {slow_tp}");
    }
}
