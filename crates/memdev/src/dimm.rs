//! DIMM modules and SPD (serial presence detect).
//!
//! Paper §3.4: "The final use of the external FSI slave is to directly
//! read the SPD (serial presence detect) on the DIMMs plugged into
//! ConTutto, which is critical for detecting and controlling the
//! NVDIMMs." The firmware model reads these structures to decide
//! memory-map placement and NVDIMM arming.

use crate::dram::{DdrTimings, Dram};
use crate::mram::{MramGeneration, SttMram};
use crate::nvdimm::NvdimmN;
use crate::traits::{MediaKind, MemoryDevice};

/// Serial-presence-detect contents of a DIMM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spd {
    /// Backing technology.
    pub kind: MediaKind,
    /// Usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Module part identifier string.
    pub part_number: String,
    /// Whether the module preserves contents across power loss.
    pub nonvolatile: bool,
    /// Whether the save sequence is vendor-specific (DDR3 NVDIMMs,
    /// paper §4.2(iii)) rather than JEDEC-standardized (DDR4).
    pub vendor_specific_save: bool,
}

impl Spd {
    /// SPD for a stock DDR3 DRAM DIMM.
    pub fn dram(capacity_bytes: u64) -> Self {
        Spd {
            kind: MediaKind::Dram,
            capacity_bytes,
            part_number: format!("DDR3-1600-{}GB", capacity_bytes >> 30),
            nonvolatile: false,
            vendor_specific_save: false,
        }
    }

    /// SPD for a 256 MB STT-MRAM DIMM (the paper's parts).
    pub fn mram(capacity_bytes: u64, gen: MramGeneration) -> Self {
        Spd {
            kind: MediaKind::SttMram,
            capacity_bytes,
            part_number: format!(
                "MRAM-{}-{}MB",
                match gen {
                    MramGeneration::Imtj => "iMTJ",
                    MramGeneration::Pmtj => "pMTJ",
                },
                capacity_bytes >> 20
            ),
            nonvolatile: true,
            vendor_specific_save: false,
        }
    }

    /// SPD for a DDR3 NVDIMM-N.
    pub fn nvdimm(capacity_bytes: u64) -> Self {
        Spd {
            kind: MediaKind::NvdimmN,
            capacity_bytes,
            part_number: format!("NVDIMM-N-DDR3-{}GB", capacity_bytes >> 30),
            nonvolatile: true,
            vendor_specific_save: true,
        }
    }
}

/// A populated DIMM: SPD plus the live device model.
#[derive(Debug)]
pub struct DimmModule {
    spd: Spd,
    device: DimmDevice,
}

/// The device variants a DIMM slot can hold.
#[derive(Debug)]
pub enum DimmDevice {
    /// Plain DRAM.
    Dram(Box<Dram>),
    /// STT-MRAM.
    Mram(Box<SttMram>),
    /// Flash-backed DRAM.
    Nvdimm(Box<NvdimmN>),
}

impl DimmModule {
    /// Builds a DRAM DIMM.
    pub fn new_dram(capacity: u64, timings: DdrTimings) -> Self {
        DimmModule {
            spd: Spd::dram(capacity),
            device: DimmDevice::Dram(Box::new(Dram::new(capacity, timings))),
        }
    }

    /// Builds an STT-MRAM DIMM.
    pub fn new_mram(capacity: u64, gen: MramGeneration) -> Self {
        DimmModule {
            spd: Spd::mram(capacity, gen),
            device: DimmDevice::Mram(Box::new(SttMram::new(capacity, gen))),
        }
    }

    /// Builds an NVDIMM-N.
    pub fn new_nvdimm(capacity: u64, timings: DdrTimings) -> Self {
        DimmModule {
            spd: Spd::nvdimm(capacity),
            device: DimmDevice::Nvdimm(Box::new(NvdimmN::new(capacity, timings))),
        }
    }

    /// The SPD contents (what the firmware reads over FSI/I²C).
    pub fn spd(&self) -> &Spd {
        &self.spd
    }

    /// Mutable access to the device model.
    pub fn device_mut(&mut self) -> &mut dyn MemoryDevice {
        match &mut self.device {
            DimmDevice::Dram(d) => d.as_mut(),
            DimmDevice::Mram(d) => d.as_mut(),
            DimmDevice::Nvdimm(d) => d.as_mut(),
        }
    }

    /// Shared access to the device model.
    pub fn device(&self) -> &dyn MemoryDevice {
        match &self.device {
            DimmDevice::Dram(d) => d.as_ref(),
            DimmDevice::Mram(d) => d.as_ref(),
            DimmDevice::Nvdimm(d) => d.as_ref(),
        }
    }

    /// The NVDIMM engine, if this module is one (firmware needs the
    /// arming controls).
    pub fn as_nvdimm_mut(&mut self) -> Option<&mut NvdimmN> {
        match &mut self.device {
            DimmDevice::Nvdimm(d) => Some(d.as_mut()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contutto_sim::SimTime;

    #[test]
    fn spd_matches_device() {
        let dimm = DimmModule::new_mram(256 << 20, MramGeneration::Pmtj);
        assert_eq!(dimm.spd().kind, MediaKind::SttMram);
        assert_eq!(dimm.spd().capacity_bytes, 256 << 20);
        assert!(dimm.spd().nonvolatile);
        assert_eq!(dimm.device().capacity_bytes(), 256 << 20);
        assert_eq!(dimm.device().kind(), MediaKind::SttMram);
    }

    #[test]
    fn nvdimm_spd_flags_vendor_specific_save() {
        let dimm = DimmModule::new_nvdimm(1 << 30, DdrTimings::ddr3_1600());
        assert!(dimm.spd().vendor_specific_save);
        assert!(dimm.spd().nonvolatile);
        let dram = DimmModule::new_dram(4 << 30, DdrTimings::ddr3_1600());
        assert!(!dram.spd().vendor_specific_save);
        assert!(!dram.spd().nonvolatile);
    }

    #[test]
    fn device_access_through_module() {
        let mut dimm = DimmModule::new_dram(1 << 20, DdrTimings::ddr3_1600());
        dimm.device_mut().write(SimTime::ZERO, 0, &[3u8; 64]);
        let mut buf = [0u8; 64];
        dimm.device_mut().read(SimTime::from_us(1), 0, &mut buf);
        assert_eq!(buf, [3u8; 64]);
    }

    #[test]
    fn as_nvdimm_only_for_nvdimms() {
        let mut nv = DimmModule::new_nvdimm(1 << 20, DdrTimings::ddr3_1600());
        assert!(nv.as_nvdimm_mut().is_some());
        let mut dram = DimmModule::new_dram(1 << 20, DdrTimings::ddr3_1600());
        assert!(dram.as_nvdimm_mut().is_none());
    }

    #[test]
    fn part_numbers_are_descriptive() {
        assert!(Spd::mram(256 << 20, MramGeneration::Imtj)
            .part_number
            .contains("iMTJ"));
        assert!(Spd::dram(16 << 30).part_number.contains("16GB"));
    }
}
