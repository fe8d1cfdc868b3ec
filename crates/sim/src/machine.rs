//! Cycle-level replay of an access trace against a detailed mapping.
//!
//! The machine models the paper's single-processing-unit board: one
//! access is issued per cycle in trace order; an access to a logical word
//! touches **every column fragment** storing bits of that word (a wide
//! segment split over several instances reads them in parallel); the
//! access occupies each involved fragment's ports for the bank's
//! read/write latency plus a pin-traversal penalty (pins/2 extra cycles —
//! §3.1: off-chip distance costs clock speed). If any needed port is
//! still busy, issue stalls — which is how a bad mapping (hot segments on
//! slow, far banks) shows up as wall-clock cycles.

use crate::trace::{Access, AccessKind, Trace};
use gmm_arch::{BankTypeId, Board};
use gmm_core::mapping::DetailedMapping;
use gmm_design::{Design, SegmentId};
use serde::{Deserialize, Serialize};

/// Per-segment simulation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SegmentStats {
    pub accesses: u64,
    /// Sum of (completion - issue) latencies.
    pub latency_cycles: u64,
    /// Cycles the access had to wait for a busy port.
    pub stall_cycles: u64,
}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Cycle at which the last access completed.
    pub makespan: u64,
    /// Sum of all access latencies (the cost-model analogue).
    pub total_latency: u64,
    pub total_stalls: u64,
    pub per_segment: Vec<SegmentStats>,
    /// Accesses that crossed chip pins (off-chip traffic).
    pub pin_crossings: u64,
    /// Busy cycles per physical port (flattened (type, instance, port)
    /// order), for congestion analysis.
    pub port_busy: Vec<u64>,
    /// Accesses served per bank type.
    pub traffic_by_type: Vec<u64>,
}

impl SimReport {
    /// Mean utilization of the ports that saw any traffic.
    pub fn active_port_utilization(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        let active: Vec<u64> = self.port_busy.iter().copied().filter(|&b| b > 0).collect();
        if active.is_empty() {
            return 0.0;
        }
        let sum: u64 = active.iter().sum();
        sum as f64 / (active.len() as u64 * self.makespan) as f64
    }

    /// The single busiest port's busy-cycle count.
    pub fn hottest_port_busy(&self) -> u64 {
        self.port_busy.iter().copied().max().unwrap_or(0)
    }
}

/// Errors raised while preparing the machine.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A trace access touches a word no fragment stores.
    Unmapped { segment: SegmentId, word: u32 },
    /// The mapping references an unknown bank type.
    BadMapping(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Unmapped { segment, word } => {
                write!(f, "word {word} of segment {} is unmapped", segment.0)
            }
            SimError::BadMapping(m) => write!(f, "bad mapping: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Pre-resolved fragment info for fast lookup during replay.
#[derive(Debug, Clone)]
struct FragInfo {
    bank_type: BankTypeId,
    /// Global port key: (type, instance, port) flattened.
    port_keys: Vec<usize>,
    word_lo: u32,
    word_hi: u32,
    read_cost: u64,
    write_cost: u64,
    pins: u32,
}

/// The prepared simulator.
pub struct Machine {
    frags_by_segment: Vec<Vec<FragInfo>>,
    num_ports: usize,
    num_types: usize,
}

impl Machine {
    /// Resolve a mapping into the fast replay structures.
    pub fn new(
        design: &Design,
        board: &Board,
        mapping: &DetailedMapping,
    ) -> Result<Self, SimError> {
        // Flatten (type, instance, port) into a dense index space.
        let mut port_base = Vec::with_capacity(board.num_types());
        let mut acc = 0usize;
        for (_, bank) in board.iter() {
            port_base.push(acc);
            acc += bank.total_ports() as usize;
        }
        let num_ports = acc;

        let mut frags_by_segment: Vec<Vec<FragInfo>> = vec![Vec::new(); design.num_segments()];
        for f in &mapping.fragments {
            if f.bank_type.0 >= board.num_types() {
                return Err(SimError::BadMapping(format!(
                    "fragment references type {}",
                    f.bank_type.0
                )));
            }
            let bank = board.bank(f.bank_type);
            if f.instance >= bank.instances {
                return Err(SimError::BadMapping(format!(
                    "fragment references instance {} of `{}`",
                    f.instance, bank.name
                )));
            }
            let hop_cycles = (bank.pins_traversed() / 2) as u64;
            let info = FragInfo {
                bank_type: f.bank_type,
                port_keys: f
                    .ports
                    .iter()
                    .map(|&p| port_base[f.bank_type.0] + (f.instance * bank.ports + p) as usize)
                    .collect(),
                word_lo: f.word_offset,
                word_hi: f.word_offset + f.used_depth,
                read_cost: bank.read_latency as u64 + hop_cycles,
                write_cost: bank.write_latency as u64 + hop_cycles,
                pins: bank.pins_traversed(),
            };
            frags_by_segment[f.segment.0].push(info);
        }
        Ok(Machine {
            frags_by_segment,
            num_ports,
            num_types: board.num_types(),
        })
    }

    /// Replay a trace; in-order issue, one access per cycle when ports are
    /// free.
    pub fn run(&self, design: &Design, trace: &Trace) -> Result<SimReport, SimError> {
        let mut port_free_at = vec![0u64; self.num_ports];
        let mut port_busy = vec![0u64; self.num_ports];
        let mut traffic_by_type = vec![0u64; self.num_types];
        let mut per_segment = vec![SegmentStats::default(); design.num_segments()];
        let mut cycle: u64 = 0;
        let mut makespan: u64 = 0;
        let mut total_latency: u64 = 0;
        let mut total_stalls: u64 = 0;
        let mut pin_crossings: u64 = 0;

        for &Access {
            segment,
            word,
            kind,
        } in &trace.accesses
        {
            let frags = &self.frags_by_segment[segment.0];
            // All column fragments covering this word participate.
            let involved: Vec<&FragInfo> = frags
                .iter()
                .filter(|fi| fi.word_lo <= word && word < fi.word_hi)
                .collect();
            if involved.is_empty() {
                return Err(SimError::Unmapped { segment, word });
            }
            // Earliest cycle every involved port is free.
            let ready = involved
                .iter()
                .flat_map(|fi| fi.port_keys.iter().map(|&k| port_free_at[k]))
                .max()
                .unwrap_or(0)
                .max(cycle);
            let stall = ready - cycle;
            let cost = involved
                .iter()
                .map(|fi| match kind {
                    AccessKind::Read => fi.read_cost,
                    AccessKind::Write => fi.write_cost,
                })
                .max()
                .unwrap();
            let done = ready + cost;
            for fi in &involved {
                for &k in &fi.port_keys {
                    port_free_at[k] = done;
                    port_busy[k] += cost;
                }
                if fi.pins > 0 {
                    pin_crossings += 1;
                }
                traffic_by_type[fi.bank_type.0] += 1;
            }
            let stats = &mut per_segment[segment.0];
            stats.accesses += 1;
            stats.latency_cycles += cost;
            stats.stall_cycles += stall;
            total_latency += cost;
            total_stalls += stall;
            makespan = makespan.max(done);
            cycle += 1; // next issue slot
        }

        Ok(SimReport {
            makespan,
            total_latency,
            total_stalls,
            per_segment,
            pin_crossings,
            port_busy,
            traffic_by_type,
        })
    }
}

/// Convenience: map + simulate in one call.
pub fn simulate_mapping(
    design: &Design,
    board: &Board,
    mapping: &DetailedMapping,
    trace: &Trace,
) -> Result<SimReport, SimError> {
    Machine::new(design, board, mapping)?.run(design, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmm_core::pipeline::{Mapper, MapperOptions};
    use gmm_design::DesignBuilder;

    fn world() -> (Design, Board) {
        let mut b = DesignBuilder::new("d");
        b.segment("hot", 256, 8).unwrap();
        b.segment("cold", 4096, 16).unwrap();
        let design = b.build().unwrap();
        let board = Board::prototyping("XCV300", 2).unwrap();
        (design, board)
    }

    #[test]
    fn mapped_design_simulates() {
        let (design, board) = world();
        let out = Mapper::new(MapperOptions::new())
            .map(&design, &board)
            .unwrap();
        let trace = Trace::from_profiles(&design);
        let report = simulate_mapping(&design, &board, &out.detailed, &trace).unwrap();
        assert!(report.makespan > 0);
        assert_eq!(
            report.per_segment.iter().map(|s| s.accesses).sum::<u64>(),
            trace.len() as u64
        );
        // Every access costs at least one cycle.
        assert!(report.total_latency >= trace.len() as u64);
    }

    #[test]
    fn onchip_mapping_beats_offchip() {
        let (design, board) = world();
        let trace = Trace::from_profiles(&design);

        // Mapping A: optimal (mapper's choice).
        let good = Mapper::new(MapperOptions::new())
            .map(&design, &board)
            .unwrap();
        let good_report = simulate_mapping(&design, &board, &good.detailed, &trace).unwrap();

        // Mapping B: force everything off-chip via a no-good on both
        // segments for the on-chip type.
        use gmm_core::global::NoGood;
        use gmm_core::{CostMatrix, CostWeights, PreTable};
        let pre = PreTable::build(&design, &board);
        let matrix = CostMatrix::build(&design, &board, &pre);
        let forced = gmm_core::global::solve_global(
            &design,
            &board,
            &pre,
            &matrix,
            &CostWeights::default(),
            &gmm_core::SolverBackend::default(),
            false,
            &[
                NoGood {
                    bank_type: gmm_arch::BankTypeId(0),
                    segments: vec![gmm_design::SegmentId(0)],
                },
                NoGood {
                    bank_type: gmm_arch::BankTypeId(0),
                    segments: vec![gmm_design::SegmentId(1)],
                },
            ],
        )
        .unwrap();
        let bad_detail = gmm_core::map_detailed(&design, &board, &pre, &forced).unwrap();
        let bad_report = simulate_mapping(&design, &board, &bad_detail, &trace).unwrap();

        assert!(
            good_report.total_latency < bad_report.total_latency,
            "cost-optimal mapping must simulate faster: {} vs {}",
            good_report.total_latency,
            bad_report.total_latency
        );
        assert!(good_report.pin_crossings <= bad_report.pin_crossings);
    }

    #[test]
    fn port_stats_accumulate() {
        let (design, board) = world();
        let out = Mapper::new(MapperOptions::new())
            .map(&design, &board)
            .unwrap();
        let trace = Trace::from_profiles(&design);
        let report = simulate_mapping(&design, &board, &out.detailed, &trace).unwrap();
        // Busy cycles exist on exactly the ports the mapping uses, and
        // per-type traffic covers every access at least once.
        assert!(report.port_busy.iter().any(|&b| b > 0));
        assert!(report.traffic_by_type.iter().sum::<u64>() >= trace.len() as u64);
        let util = report.active_port_utilization();
        assert!(util > 0.0 && util <= 1.0, "utilization {util}");
        assert!(report.hottest_port_busy() <= report.makespan);
    }

    #[test]
    fn strided_trace_replays() {
        let (design, board) = world();
        let out = Mapper::new(MapperOptions::new())
            .map(&design, &board)
            .unwrap();
        let trace = Trace::strided(&design, 7, 1);
        let report = simulate_mapping(&design, &board, &out.detailed, &trace).unwrap();
        assert_eq!(
            report.per_segment.iter().map(|s| s.accesses).sum::<u64>(),
            trace.len() as u64
        );
    }

    #[test]
    fn unmapped_word_detected() {
        let (design, board) = world();
        let empty = DetailedMapping::default();
        let machine = Machine::new(&design, &board, &empty).unwrap();
        let trace = Trace::random(&design, 5, 1);
        assert!(matches!(
            machine.run(&design, &trace),
            Err(SimError::Unmapped { .. })
        ));
    }
}
