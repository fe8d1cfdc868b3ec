//! Device catalog reproducing **Table 1** of the paper: the on-chip RAM
//! resources of Xilinx Virtex (BlockRAM), Altera FLEX 10K (Embedded Array
//! Block), and Altera APEX 20K/E (Embedded System Block) families, plus
//! generic off-chip SRAM/DRAM models for building full boards.
//!
//! | Family      | RAM name  | #banks    | bits | configurations            |
//! |-------------|-----------|-----------|------|---------------------------|
//! | Virtex      | BlockRAM  | 8 → 208   | 4096 | 4096x1 … 256x16 (5)       |
//! | FLEX 10K    | EAB       | 9 → 20    | 2048 | 2048x1 … 128x16 (5)       |
//! | APEX E      | ESB       | 12 → 216  | 2048 | 2048x1 … 128x16 (5)       |
//!
//! Per-device bank counts follow the vendor data sheets the paper cites;
//! the catalog brackets exactly the ranges Table 1 reports.

use crate::bank::{BankType, Placement};
use crate::config::{geometric_ladder, RamConfig};
use serde::{Deserialize, Serialize};

/// Vendor family of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Family {
    /// Xilinx Virtex / Virtex-E: 4096-bit dual-port BlockRAMs.
    Virtex,
    /// Altera FLEX 10K: 2048-bit Embedded Array Blocks.
    Flex10K,
    /// Altera APEX 20K(E): 2048-bit Embedded System Blocks.
    Apex20K,
}

impl Family {
    /// On-chip RAM block name used by the vendor.
    pub fn ram_name(self) -> &'static str {
        match self {
            Family::Virtex => "BlockRAM",
            Family::Flex10K => "EAB",
            Family::Apex20K => "ESB",
        }
    }

    /// Bits per on-chip RAM block (Table 1 "Size" column).
    pub fn block_bits(self) -> u64 {
        match self {
            Family::Virtex => 4096,
            Family::Flex10K | Family::Apex20K => 2048,
        }
    }

    /// Ports per on-chip block. Virtex BlockRAMs and APEX ESBs are true
    /// dual-port; FLEX 10K EABs expose a single port.
    pub fn block_ports(self) -> u32 {
        match self {
            Family::Virtex | Family::Apex20K => 2,
            Family::Flex10K => 1,
        }
    }

    /// Table 1 configuration ladder for this family.
    pub fn configurations(self) -> Vec<RamConfig> {
        match self {
            Family::Virtex => geometric_ladder(4096, 256),
            Family::Flex10K | Family::Apex20K => geometric_ladder(2048, 128),
        }
    }
}

/// A catalog entry: a named FPGA device with its on-chip RAM count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Device {
    pub name: &'static str,
    pub family: Family,
    /// Number of on-chip RAM blocks.
    pub ram_blocks: u32,
}

impl Device {
    /// Materialize this device's on-chip RAM as a [`BankType`]
    /// (synchronous on-chip RAM: 1-cycle read, 1-cycle write, 0 pins).
    pub fn on_chip_bank(&self) -> BankType {
        BankType::new(
            format!("{} {}", self.name, self.family.ram_name()),
            self.ram_blocks,
            self.family.block_ports(),
            self.family.configurations(),
            1,
            1,
            Placement::OnChip,
        )
        .expect("catalog entries are valid by construction")
    }
}

/// Xilinx Virtex and Virtex-E devices (data sheet \[18\] of the paper).
/// BlockRAM counts run from 8 (XCV50) to 208 (XCV3200E) — Table 1's range.
pub const VIRTEX: &[Device] = &[
    Device {
        name: "XCV50",
        family: Family::Virtex,
        ram_blocks: 8,
    },
    Device {
        name: "XCV100",
        family: Family::Virtex,
        ram_blocks: 10,
    },
    Device {
        name: "XCV150",
        family: Family::Virtex,
        ram_blocks: 12,
    },
    Device {
        name: "XCV200",
        family: Family::Virtex,
        ram_blocks: 14,
    },
    Device {
        name: "XCV300",
        family: Family::Virtex,
        ram_blocks: 16,
    },
    Device {
        name: "XCV400",
        family: Family::Virtex,
        ram_blocks: 20,
    },
    Device {
        name: "XCV600",
        family: Family::Virtex,
        ram_blocks: 24,
    },
    Device {
        name: "XCV800",
        family: Family::Virtex,
        ram_blocks: 28,
    },
    Device {
        name: "XCV1000",
        family: Family::Virtex,
        ram_blocks: 32,
    },
    Device {
        name: "XCV400E",
        family: Family::Virtex,
        ram_blocks: 40,
    },
    Device {
        name: "XCV600E",
        family: Family::Virtex,
        ram_blocks: 72,
    },
    Device {
        name: "XCV1000E",
        family: Family::Virtex,
        ram_blocks: 96,
    },
    Device {
        name: "XCV1600E",
        family: Family::Virtex,
        ram_blocks: 144,
    },
    Device {
        name: "XCV2000E",
        family: Family::Virtex,
        ram_blocks: 160,
    },
    Device {
        name: "XCV2600E",
        family: Family::Virtex,
        ram_blocks: 184,
    },
    Device {
        name: "XCV3200E",
        family: Family::Virtex,
        ram_blocks: 208,
    },
];

/// Altera FLEX 10K devices (data sheet \[2\]). Table 1 brackets the EAB count
/// between 9 (EPF10K70) and 20 (EPF10K250A).
pub const FLEX10K: &[Device] = &[
    Device {
        name: "EPF10K70",
        family: Family::Flex10K,
        ram_blocks: 9,
    },
    Device {
        name: "EPF10K100",
        family: Family::Flex10K,
        ram_blocks: 12,
    },
    Device {
        name: "EPF10K130",
        family: Family::Flex10K,
        ram_blocks: 16,
    },
    Device {
        name: "EPF10K200",
        family: Family::Flex10K,
        ram_blocks: 18,
    },
    Device {
        name: "EPF10K250A",
        family: Family::Flex10K,
        ram_blocks: 20,
    },
];

/// Altera APEX 20K-E devices (data sheet \[1\]). ESB counts run from 12
/// (EP20K30E) to 216 (EP20K1500E) — Table 1's range.
pub const APEX20K: &[Device] = &[
    Device {
        name: "EP20K30E",
        family: Family::Apex20K,
        ram_blocks: 12,
    },
    Device {
        name: "EP20K60E",
        family: Family::Apex20K,
        ram_blocks: 16,
    },
    Device {
        name: "EP20K100E",
        family: Family::Apex20K,
        ram_blocks: 26,
    },
    Device {
        name: "EP20K160E",
        family: Family::Apex20K,
        ram_blocks: 40,
    },
    Device {
        name: "EP20K200E",
        family: Family::Apex20K,
        ram_blocks: 52,
    },
    Device {
        name: "EP20K300E",
        family: Family::Apex20K,
        ram_blocks: 72,
    },
    Device {
        name: "EP20K400E",
        family: Family::Apex20K,
        ram_blocks: 104,
    },
    Device {
        name: "EP20K600E",
        family: Family::Apex20K,
        ram_blocks: 152,
    },
    Device {
        name: "EP20K1000E",
        family: Family::Apex20K,
        ram_blocks: 160,
    },
    Device {
        name: "EP20K1500E",
        family: Family::Apex20K,
        ram_blocks: 216,
    },
];

/// Look a device up by name across all families.
pub fn find_device(name: &str) -> Option<&'static Device> {
    VIRTEX
        .iter()
        .chain(FLEX10K)
        .chain(APEX20K)
        .find(|d| d.name.eq_ignore_ascii_case(name))
}

/// Generic off-chip memory models for assembling boards.
pub mod off_chip {
    use super::*;

    /// Synchronous ZBT SRAM directly wired to the FPGA: 2-cycle read and
    /// write, fixed geometry, single port.
    pub fn zbt_sram(name: &str, instances: u32, depth: u32, width: u32) -> BankType {
        BankType::new(
            name,
            instances,
            1,
            vec![RamConfig::new(depth, width)],
            2,
            2,
            Placement::DirectOffChip,
        )
        .expect("static parameters are valid")
    }

    /// Asynchronous SRAM reached through a bus hop (e.g. a crossbar on
    /// multi-FPGA boards): slower and further away.
    pub fn bus_sram(name: &str, instances: u32, depth: u32, width: u32) -> BankType {
        BankType::new(
            name,
            instances,
            1,
            vec![RamConfig::new(depth, width)],
            3,
            3,
            Placement::IndirectOffChip { hops: 1 },
        )
        .expect("static parameters are valid")
    }

    /// Large commodity DRAM behind a controller: long latency, far away.
    pub fn dram(name: &str, instances: u32, depth: u32, width: u32) -> BankType {
        BankType::new(
            name,
            instances,
            1,
            vec![RamConfig::new(depth, width)],
            6,
            4,
            Placement::IndirectOffChip { hops: 2 },
        )
        .expect("static parameters are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_virtex_row() {
        // "Xilinx Virtex BlockRAM 8 -> 208, 4096 bits, 5 configurations".
        let min = VIRTEX.iter().map(|d| d.ram_blocks).min().unwrap();
        let max = VIRTEX.iter().map(|d| d.ram_blocks).max().unwrap();
        assert_eq!((min, max), (8, 208));
        assert_eq!(Family::Virtex.block_bits(), 4096);
        assert_eq!(Family::Virtex.configurations().len(), 5);
        assert_eq!(
            Family::Virtex.configurations(),
            vec![
                RamConfig::new(4096, 1),
                RamConfig::new(2048, 2),
                RamConfig::new(1024, 4),
                RamConfig::new(512, 8),
                RamConfig::new(256, 16),
            ]
        );
    }

    #[test]
    fn table1_flex10k_row() {
        // "Altera Flex 10K EAB 9 -> 20, 2048 bits, 5 configurations".
        let min = FLEX10K.iter().map(|d| d.ram_blocks).min().unwrap();
        let max = FLEX10K.iter().map(|d| d.ram_blocks).max().unwrap();
        assert_eq!((min, max), (9, 20));
        assert_eq!(Family::Flex10K.block_bits(), 2048);
        assert_eq!(
            Family::Flex10K.configurations(),
            vec![
                RamConfig::new(2048, 1),
                RamConfig::new(1024, 2),
                RamConfig::new(512, 4),
                RamConfig::new(256, 8),
                RamConfig::new(128, 16),
            ]
        );
    }

    #[test]
    fn table1_apex_row() {
        // "Altera Apex E ESB 12 -> 216, 2048 bits, 5 configurations".
        let min = APEX20K.iter().map(|d| d.ram_blocks).min().unwrap();
        let max = APEX20K.iter().map(|d| d.ram_blocks).max().unwrap();
        assert_eq!((min, max), (12, 216));
        assert_eq!(Family::Apex20K.block_bits(), 2048);
        assert_eq!(Family::Apex20K.configurations().len(), 5);
    }

    #[test]
    fn device_lookup() {
        assert_eq!(find_device("XCV1000").unwrap().ram_blocks, 32);
        assert_eq!(find_device("epf10k70").unwrap().ram_blocks, 9);
        assert!(find_device("XC4010").is_none());
    }

    #[test]
    fn on_chip_bank_materialization() {
        let bank = find_device("XCV300").unwrap().on_chip_bank();
        assert_eq!(bank.instances, 16);
        assert_eq!(bank.ports, 2);
        assert_eq!(bank.capacity_bits(), 4096);
        assert_eq!(bank.pins_traversed(), 0);
        assert_eq!(bank.read_latency, 1);
    }

    #[test]
    fn flex_banks_are_single_ported() {
        let bank = find_device("EPF10K100").unwrap().on_chip_bank();
        assert_eq!(bank.ports, 1);
    }

    #[test]
    fn off_chip_models() {
        let sram = off_chip::zbt_sram("SRAM0", 4, 262_144, 32);
        assert_eq!(sram.pins_traversed(), 2);
        assert_eq!(sram.num_configs(), 1);
        let dram = off_chip::dram("DRAM", 1, 1 << 20, 64);
        assert_eq!(dram.pins_traversed(), 6);
        assert!(dram.round_trip_latency() > sram.round_trip_latency());
    }
}
