//! Reconfigurable-board descriptions: an ordered collection of bank types
//! visible to a single processing unit (the paper's architecture model,
//! §3.1).

use crate::bank::{BankError, BankType, BankTypeId};
use crate::devices::{find_device, off_chip};
use serde::{Deserialize, Serialize};

/// A complete RC-board memory architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Board {
    pub name: String,
    bank_types: Vec<BankType>,
}

/// Errors detected while assembling a board.
#[derive(Debug, Clone, PartialEq)]
pub enum BoardError {
    /// Boards need at least one bank type.
    Empty,
    /// Bank type names must be unique (they key reports and serde files).
    DuplicateName(String),
    Bank(BankError),
    /// Unknown device name passed to a builder helper.
    UnknownDevice(String),
}

impl std::fmt::Display for BoardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoardError::Empty => write!(f, "board has no bank types"),
            BoardError::DuplicateName(n) => write!(f, "duplicate bank type name `{n}`"),
            BoardError::Bank(e) => write!(f, "invalid bank: {e}"),
            BoardError::UnknownDevice(d) => write!(f, "unknown device `{d}`"),
        }
    }
}

impl std::error::Error for BoardError {}

impl From<BankError> for BoardError {
    fn from(e: BankError) -> Self {
        BoardError::Bank(e)
    }
}

impl Board {
    /// Assemble and validate a board.
    pub fn new(name: impl Into<String>, bank_types: Vec<BankType>) -> Result<Self, BoardError> {
        if bank_types.is_empty() {
            return Err(BoardError::Empty);
        }
        let mut seen = std::collections::BTreeSet::new();
        for b in &bank_types {
            if !seen.insert(b.name.clone()) {
                return Err(BoardError::DuplicateName(b.name.clone()));
            }
        }
        Ok(Board {
            name: name.into(),
            bank_types,
        })
    }

    /// All bank types in id order.
    #[inline]
    pub fn bank_types(&self) -> &[BankType] {
        &self.bank_types
    }

    #[inline]
    pub fn num_types(&self) -> usize {
        self.bank_types.len()
    }

    #[inline]
    pub fn bank(&self, id: BankTypeId) -> &BankType {
        &self.bank_types[id.0]
    }

    /// Iterate `(id, bank)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BankTypeId, &BankType)> {
        self.bank_types
            .iter()
            .enumerate()
            .map(|(i, b)| (BankTypeId(i), b))
    }

    /// Find a bank type by name.
    pub fn find(&self, name: &str) -> Option<BankTypeId> {
        self.bank_types
            .iter()
            .position(|b| b.name == name)
            .map(BankTypeId)
    }

    /// Total physical banks (Table 3's "#banks" complexity column).
    pub fn total_banks(&self) -> u32 {
        self.bank_types.iter().map(|b| b.instances).sum()
    }

    /// Total ports summed over all instances of all types (Table 3's
    /// "#ports").
    pub fn total_ports(&self) -> u32 {
        self.bank_types.iter().map(BankType::total_ports).sum()
    }

    /// Total configuration settings summed over all multi-configuration
    /// ports of all bank types (Table 3's "#configs"): single-configuration
    /// banks contribute nothing because their geometry is not a decision.
    pub fn total_config_settings(&self) -> u32 {
        self.bank_types
            .iter()
            .filter(|b| b.num_configs() > 1)
            .map(|b| b.num_configs() as u32 * b.total_ports())
            .sum()
    }

    /// Total storage across the whole board, in bits.
    pub fn total_capacity_bits(&self) -> u64 {
        self.bank_types
            .iter()
            .map(BankType::total_capacity_bits)
            .sum()
    }

    /// A typical single-FPGA prototyping board: the device's on-chip RAM
    /// plus `sram_banks` direct off-chip 256Kx32 ZBT SRAMs — the kind of
    /// platform (e.g. WildCard/WildForce-class) the paper targets.
    pub fn prototyping(device_name: &str, sram_banks: u32) -> Result<Self, BoardError> {
        let device = find_device(device_name)
            .ok_or_else(|| BoardError::UnknownDevice(device_name.to_string()))?;
        let mut banks = vec![device.on_chip_bank()];
        if sram_banks > 0 {
            banks.push(off_chip::zbt_sram("ZBT SRAM", sram_banks, 262_144, 32));
        }
        Board::new(format!("{device_name} prototyping board"), banks)
    }

    /// A hierarchical board with three levels of the memory hierarchy:
    /// on-chip RAM, direct SRAM, and bus-attached DRAM. Exercises the full
    /// pin-traversal model.
    pub fn hierarchical(device_name: &str) -> Result<Self, BoardError> {
        let device = find_device(device_name)
            .ok_or_else(|| BoardError::UnknownDevice(device_name.to_string()))?;
        Board::new(
            format!("{device_name} hierarchical board"),
            vec![
                device.on_chip_bank(),
                off_chip::zbt_sram("ZBT SRAM", 2, 262_144, 32),
                off_chip::bus_sram("Bus SRAM", 2, 524_288, 16),
                off_chip::dram("DRAM", 1, 1 << 20, 64),
            ],
        )
    }
}

/// Incremental builder for custom boards.
#[derive(Debug, Default)]
pub struct BoardBuilder {
    name: String,
    banks: Vec<BankType>,
}

impl BoardBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        BoardBuilder {
            name: name.into(),
            banks: Vec::new(),
        }
    }

    /// Add an already-constructed bank type.
    pub fn bank(mut self, bank: BankType) -> Self {
        self.banks.push(bank);
        self
    }

    /// Add a device's on-chip RAM.
    pub fn device(mut self, device_name: &str) -> Result<Self, BoardError> {
        let device = find_device(device_name)
            .ok_or_else(|| BoardError::UnknownDevice(device_name.to_string()))?;
        self.banks.push(device.on_chip_bank());
        Ok(self)
    }

    pub fn build(self) -> Result<Board, BoardError> {
        Board::new(self.name, self.banks)
    }
}

/// Re-export for builder ergonomics.
pub use crate::bank::Placement as BankPlacement;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::Placement;
    use crate::config::RamConfig;

    #[test]
    fn prototyping_board() {
        let b = Board::prototyping("XCV1000", 4).unwrap();
        assert_eq!(b.num_types(), 2);
        assert_eq!(b.total_banks(), 36); // 32 BlockRAM + 4 SRAM
        assert_eq!(b.total_ports(), 68); // 64 + 4
                                         // Only the BlockRAM is multi-config: 5 configs * 64 ports.
        assert_eq!(b.total_config_settings(), 320);
    }

    #[test]
    fn hierarchical_board_has_depth() {
        let b = Board::hierarchical("XCV300").unwrap();
        assert_eq!(b.num_types(), 4);
        let pins: Vec<u32> = b
            .bank_types()
            .iter()
            .map(BankType::pins_traversed)
            .collect();
        assert_eq!(pins, vec![0, 2, 4, 6]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let b1 = off_chip::zbt_sram("S", 1, 1024, 8);
        let b2 = off_chip::zbt_sram("S", 2, 2048, 8);
        assert!(matches!(
            Board::new("bad", vec![b1, b2]),
            Err(BoardError::DuplicateName(_))
        ));
    }

    #[test]
    fn empty_board_rejected() {
        assert_eq!(Board::new("x", vec![]).unwrap_err(), BoardError::Empty);
    }

    #[test]
    fn find_and_index() {
        let b = Board::prototyping("XCV300", 2).unwrap();
        let id = b.find("ZBT SRAM").unwrap();
        assert_eq!(b.bank(id).instances, 2);
        assert!(b.find("nope").is_none());
    }

    #[test]
    fn builder_composes() {
        let board = BoardBuilder::new("custom")
            .device("EPF10K100")
            .unwrap()
            .bank(
                BankType::new(
                    "scratch",
                    1,
                    1,
                    vec![RamConfig::new(1024, 16)],
                    1,
                    1,
                    Placement::DirectOffChip,
                )
                .unwrap(),
            )
            .build()
            .unwrap();
        assert_eq!(board.num_types(), 2);
        assert_eq!(board.total_banks(), 13);
    }

    #[test]
    fn serde_roundtrip() {
        let b = Board::hierarchical("XCV300").unwrap();
        let json = serde_json::to_string(&b).unwrap();
        let back: Board = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn unknown_device_is_error() {
        assert!(matches!(
            Board::prototyping("XC9999", 1),
            Err(BoardError::UnknownDevice(_))
        ));
    }
}
