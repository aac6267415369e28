//! Integration: the deterministic checkpoint/restore contract.
//!
//! For every (seed, phase) cell the matrix runs the same workload
//! twice: once straight through, and once cut at the phase's snapshot
//! point, restored into a freshly booted system, and continued. The
//! two legs must agree on every observable — request results, the
//! trace fingerprint, and the full metrics registry (minus the
//! `system.snapshot.*` observer namespace, which exists precisely to
//! tell the legs apart).
//!
//! The four phases pin the snapshot point to the hairiest moments the
//! simulator knows: steady state with loads in flight, a fault ladder
//! mid-climb (error budget partially charged, poison planted), an
//! evacuation mid-copy (migration backlog live), and the powered-off
//! window between an EPOW power cut and the reboot.

use contutto_system::contutto::{ContuttoConfig, MemoryKind, MemoryPopulation};
use contutto_system::dmi::CacheLine;
use contutto_system::power8::failover::FailoverMode;
use contutto_system::power8::firmware::layouts;
use contutto_system::power8::system::{Power8System, ReqId};
use contutto_system::sim::SimTime;

const SEEDS: [u64; 8] = [3, 5, 7, 9, 11, 13, 17, 19];
const TRACE_CAP: usize = 1 << 10;

/// A small NVDIMM population so EPOW save/restore sweeps stay fast.
fn nvdimm_small() -> MemoryPopulation {
    MemoryPopulation {
        kind: MemoryKind::NvdimmN,
        dimm_capacity: 512 << 10,
        dimms: 2,
    }
}

/// Rendered metrics minus the `system.snapshot.*` namespace.
fn metrics_digest(sys: &Power8System) -> String {
    sys.metrics()
        .render()
        .lines()
        .filter(|l| !l.contains("system.snapshot."))
        .collect::<Vec<_>>()
        .join("\n")
}

/// One matrix cell: run `prefix` then `suffix` straight; separately
/// run `prefix`, snapshot, restore into a fresh boot, run `suffix`.
/// Both legs must produce identical digests, fingerprints and
/// metrics.
fn double_run(
    seed: u64,
    boot: &dyn Fn(u64) -> Power8System,
    prefix: &dyn Fn(&mut Power8System, u64) -> Vec<ReqId>,
    suffix: &dyn Fn(&mut Power8System, u64, &[ReqId]) -> String,
) {
    // Straight leg.
    let mut straight = boot(seed);
    straight.enable_tracing(TRACE_CAP);
    let ids = prefix(&mut straight, seed);
    let straight_digest = suffix(&mut straight, seed, &ids);

    // Checkpointed leg: prefix on one system, suffix on another.
    let mut source = boot(seed);
    source.enable_tracing(TRACE_CAP);
    let source_ids = prefix(&mut source, seed);
    assert_eq!(ids, source_ids, "seed {seed}: prefix must be deterministic");
    let image = source.snapshot();
    drop(source);

    let mut resumed = boot(seed);
    resumed
        .restore(&image)
        .unwrap_or_else(|e| panic!("seed {seed}: restore failed: {e}"));
    assert!(resumed.tracer().is_enabled(), "tracer survives the image");
    let resumed_digest = suffix(&mut resumed, seed, &ids);

    assert_eq!(
        straight_digest, resumed_digest,
        "seed {seed}: results diverge after restore"
    );
    assert_eq!(
        straight.tracer().fingerprint(),
        resumed.tracer().fingerprint(),
        "seed {seed}: trace fingerprints diverge after restore"
    );
    assert_eq!(
        metrics_digest(&straight),
        metrics_digest(&resumed),
        "seed {seed}: metrics diverge after restore"
    );
}

/// First line-granular physical addresses routed to `slot`.
fn slot_base(sys: &Power8System, slot: usize) -> u64 {
    sys.memory_map()
        .regions()
        .iter()
        .find(|r| r.channel == slot)
        .expect("slot backs a region")
        .base
}

/// Plants poison on channel 2's line `idx` via the sideband path.
fn poison_line(sys: &mut Power8System, idx: u64) {
    let ch = sys.channel_mut(2).expect("channel 2 is live");
    let now = ch.channel.now();
    let (bytes, _) = ch
        .channel
        .buffer_mut()
        .sideband_read_line(now, idx * 128)
        .expect("sideband read");
    assert!(ch
        .channel
        .buffer_mut()
        .sideband_write_line(idx * 128, &bytes, true));
}

// --------------------------------------------------------- mid-steady

#[test]
fn matrix_mid_steady() {
    let boot = |seed| {
        Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            seed,
        )
        .expect("boots")
    };
    let prefix = |sys: &mut Power8System, seed: u64| {
        for i in 0..6u64 {
            sys.store_line(0x10_0000 + i * 128, CacheLine::patterned(seed * 31 + i))
                .unwrap();
        }
        // Leave four pipelined loads in flight across the cut.
        (0..4u64)
            .map(|i| sys.submit_load(0x10_0000 + i * 128).unwrap())
            .collect()
    };
    let suffix = |sys: &mut Power8System, seed: u64, ids: &[ReqId]| {
        let mut digest = String::new();
        for &id in ids {
            digest.push_str(&format!("{:?}\n", sys.wait_req(id)));
        }
        for i in 0..4u64 {
            let t = sys
                .store_line(0x20_0000 + i * 128, CacheLine::patterned(seed + 100 + i))
                .unwrap();
            digest.push_str(&format!("store@{t}\n"));
        }
        for i in 0..4u64 {
            digest.push_str(&format!("{:?}\n", sys.load_line(0x20_0000 + i * 128)));
        }
        digest
    };
    for seed in SEEDS {
        double_run(seed, &boot, &prefix, &suffix);
    }
}

// ---------------------------------------------------------- mid-fault

#[test]
fn matrix_mid_fault() {
    let boot = |seed| {
        Power8System::boot_with_failover(
            layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            seed,
            FailoverMode::Spare { spare: 4 },
        )
        .expect("boots")
    };
    let prefix = |sys: &mut Power8System, seed: u64| {
        let base = slot_base(sys, 2);
        for i in 0..8u64 {
            sys.store_line(base + i * 128, CacheLine::patterned(seed * 7 + i))
                .unwrap();
        }
        // Two poisoned reads: the error budget (3) is part-charged at
        // the cut, the ladder mid-climb but the channel still alive.
        poison_line(sys, 0);
        poison_line(sys, 1);
        let _ = sys.load_line(base);
        let _ = sys.load_line(base + 128);
        Vec::new()
    };
    let suffix = |sys: &mut Power8System, _seed: u64, _ids: &[ReqId]| {
        let base = slot_base(sys, 2);
        // The third strike deconfigures channel 2 → failover → spare.
        poison_line(sys, 2);
        let mut digest = String::new();
        for i in 0..8u64 {
            digest.push_str(&format!("{:?}\n", sys.load_line(base + i * 128)));
        }
        sys.complete_migration();
        for i in 0..8u64 {
            digest.push_str(&format!("{:?}\n", sys.load_line(base + i * 128)));
        }
        digest.push_str(&format!(
            "deconf={:?} stats={:?}\n",
            sys.fsp().deconfigured_channels(),
            sys.failover_stats()
        ));
        digest
    };
    for seed in SEEDS {
        double_run(seed, &boot, &prefix, &suffix);
    }
}

// ----------------------------------------------------- mid-evacuation

#[test]
fn matrix_mid_evacuation() {
    let boot = |seed| {
        Power8System::boot_with_failover(
            layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
            seed,
            FailoverMode::Spare { spare: 4 },
        )
        .expect("boots")
    };
    let prefix = |sys: &mut Power8System, seed: u64| {
        let base = slot_base(sys, 2);
        for i in 0..12u64 {
            sys.store_line(base + i * 128, CacheLine::patterned(seed * 13 + i))
                .unwrap();
        }
        // Concurrent maintenance pulls the card; the snapshot lands
        // with the evacuation's backlog still live.
        sys.maintenance_pull(2).unwrap();
        assert!(sys.migration_backlog() > 0, "cut must land mid-copy");
        Vec::new()
    };
    let suffix = |sys: &mut Power8System, _seed: u64, _ids: &[ReqId]| {
        // The pull already rebound channel 2's regions onto the spare.
        let base = slot_base(sys, 4);
        let mut digest = String::new();
        // Demand accesses pull lines ahead of the copy frontier.
        for i in 0..4u64 {
            digest.push_str(&format!("{:?}\n", sys.load_line(base + i * 128)));
        }
        sys.complete_migration();
        for i in 0..12u64 {
            digest.push_str(&format!("{:?}\n", sys.load_line(base + i * 128)));
        }
        digest.push_str(&format!(
            "backlog={} stats={:?}\n",
            sys.migration_backlog(),
            sys.failover_stats()
        ));
        digest
    };
    for seed in SEEDS {
        double_run(seed, &boot, &prefix, &suffix);
    }
}

// ------------------------------------------------------- post-EPOW

#[test]
fn matrix_post_epow() {
    let boot = |seed| {
        Power8System::boot(
            layouts::one_contutto_six_cdimm(ContuttoConfig::base(), nvdimm_small()),
            seed,
        )
        .expect("boots")
    };
    let prefix = |sys: &mut Power8System, seed: u64| {
        let nv_base = sys.memory_map().nonvolatile_regions()[0].base;
        for i in 0..4u64 {
            sys.store_line(nv_base + i * 128, CacheLine::patterned(seed + i))
                .unwrap();
        }
        sys.store_line(0x10_0000, CacheLine::patterned(seed ^ 0xDEAD))
            .unwrap();
        // EPOW cascade, then the cut: the snapshot is taken in the
        // dark window with the machine off and saves on the media.
        let epow = sys.epow();
        sys.power_cut(epow.done_at + SimTime::from_us(1));
        assert!(!sys.powered(), "cut must land powered off");
        Vec::new()
    };
    let suffix = |sys: &mut Power8System, _seed: u64, _ids: &[ReqId]| {
        let nv_base = sys.memory_map().nonvolatile_regions()[0].base;
        let at = sys.now() + SimTime::from_ms(50);
        let report = sys.reboot(at).expect("reboots");
        let mut digest = format!("{report:?}\n");
        for i in 0..4u64 {
            digest.push_str(&format!("{:?}\n", sys.load_line(nv_base + i * 128)));
        }
        digest.push_str(&format!("{:?}\n", sys.load_line(0x10_0000)));
        digest
    };
    for seed in SEEDS {
        double_run(seed, &boot, &prefix, &suffix);
    }
}

// ------------------------------------------------------ image oracle

/// Renders one line per section of `image`: image label, section
/// name, payload length and payload CRC-32.
fn section_lines(label: &str, image: &[u8]) -> String {
    use contutto_system::sim::snapshot::{crc32, SnapshotImage};
    let parsed = SnapshotImage::parse(image).expect("valid image");
    let mut lines = String::new();
    for name in parsed.names() {
        let mut r = parsed.section(name).expect("listed section");
        let payload = r.take(r.remaining()).expect("whole payload");
        lines.push_str(&format!(
            "{label} {name} {} {:08x}\n",
            payload.len(),
            crc32(payload)
        ));
    }
    lines
}

/// The image layout is part of the format: these images must keep
/// every section byte-identical to `tests/golden/snapshot_sections.txt`
/// until a change means to move a field (and bumps the version).
#[test]
fn snapshot_sections_match_the_golden_layout() {
    use contutto_system::power8::OverloadConfig;

    // Traced CDIMM system with stores landed and loads in flight.
    let mut traced = Power8System::boot(
        layouts::one_contutto_six_cdimm(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
        23,
    )
    .expect("boots");
    traced.enable_tracing(256);
    for i in 0..6u64 {
        traced
            .store_line(0x10_0000 + i * 128, CacheLine::patterned(900 + i))
            .unwrap();
    }
    for i in 0..3u64 {
        traced.submit_load(0x10_0000 + i * 128).unwrap();
    }

    // Mirrored pair under full overload protection: breakers, retry
    // budget, hedged loads in flight, then the primary pulled.
    let mut mirrored = Power8System::boot_with_failover(
        layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
        5,
        FailoverMode::Mirrored {
            primary: 2,
            mirror: 4,
        },
    )
    .expect("boots");
    mirrored.set_overload_config(OverloadConfig::protective());
    mirrored.set_mlp_window(16);
    let base = slot_base(&mirrored, 2);
    for i in 0..8u64 {
        mirrored
            .store_line(base + i * 128, CacheLine::patterned(i))
            .unwrap();
    }
    for i in 0..8u64 {
        mirrored.submit_load(base + i * 128).unwrap();
    }
    mirrored.maintenance_pull(2).unwrap();
    mirrored.submit_load(base).unwrap();

    // Spare pair mid-evacuation under the same protection.
    let mut spare = Power8System::boot_with_failover(
        layouts::failover_pair(ContuttoConfig::base(), MemoryPopulation::dram_8gb()),
        7,
        FailoverMode::Spare { spare: 4 },
    )
    .expect("boots");
    spare.set_overload_config(OverloadConfig::protective());
    let base = slot_base(&spare, 2);
    for i in 0..12u64 {
        spare
            .store_line(base + i * 128, CacheLine::patterned(i))
            .unwrap();
    }
    spare.maintenance_pull(2).unwrap();
    assert!(spare.migration_backlog() > 0, "cut must land mid-copy");

    // NVDIMM system powered off after EPOW, saves on the media.
    let mut nvdimm = Power8System::boot(
        layouts::one_contutto_six_cdimm(ContuttoConfig::base(), nvdimm_small()),
        9,
    )
    .expect("boots");
    let nv_base = nvdimm.memory_map().nonvolatile_regions()[0].base;
    for i in 0..4u64 {
        nvdimm
            .store_line(nv_base + i * 128, CacheLine::patterned(i))
            .unwrap();
    }
    let epow = nvdimm.epow();
    nvdimm.power_cut(epow.done_at + SimTime::from_us(1));

    let mut rendered = String::new();
    for (label, sys) in [
        ("traced", &mut traced),
        ("mirrored", &mut mirrored),
        ("spare", &mut spare),
        ("nvdimm", &mut nvdimm),
    ] {
        rendered.push_str(&section_lines(label, &sys.snapshot()));
    }
    let golden = include_str!("golden/snapshot_sections.txt");
    assert!(
        rendered == golden,
        "snapshot sections moved; this build renders:\n{rendered}"
    );
}
