//! Parameterised random design and board generation (seeded, reproducible).

use gmm_arch::{BankType, Board, Placement, RamConfig};
use gmm_design::{AccessProfile, Design, DesignBuilder, Lifetime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Specification of a random design.
#[derive(Debug, Clone)]
pub struct RandomDesignSpec {
    pub segments: usize,
    /// Inclusive depth range.
    pub depth: (u32, u32),
    /// Inclusive width range.
    pub width: (u32, u32),
    /// When `Some(phases)`, segments receive lifetimes drawn from that
    /// many execution phases (enabling storage overlap).
    pub phases: Option<u32>,
    /// Attach non-default access profiles (hot/cold skew).
    pub skewed_profiles: bool,
    pub seed: u64,
}

impl Default for RandomDesignSpec {
    fn default() -> Self {
        RandomDesignSpec {
            segments: 16,
            depth: (16, 1024),
            width: (1, 24),
            phases: None,
            skewed_profiles: false,
            seed: 0xC0FFEE,
        }
    }
}

/// Generate a random design.
pub fn random_design(spec: &RandomDesignSpec) -> Design {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut b = DesignBuilder::new(format!("random-{}", spec.seed));
    for i in 0..spec.segments {
        let depth = rng.gen_range(spec.depth.0..=spec.depth.1);
        let width = rng.gen_range(spec.width.0..=spec.width.1);
        let id = b
            .segment(format!("seg{i}"), depth, width)
            .expect("nonzero dimensions by construction");
        if spec.skewed_profiles {
            // A minority of segments is hot (10x depth accesses).
            let hot = rng.gen_bool(0.25);
            let factor = if hot { 10 } else { 1 };
            b.profile(
                id,
                AccessProfile::new(depth as u64 * factor, depth as u64 * factor),
            );
        }
        if let Some(phases) = spec.phases {
            let phase = rng.gen_range(0..phases);
            // Phase p lives in [p*10, p*10 + 10 + overlap-jitter).
            let start = phase * 10;
            let end = start + 10 + rng.gen_range(0u32..3);
            b.lifetime(id, Lifetime::new(start, end).expect("end > start"));
        }
    }
    b.build().expect("at least one segment")
}

/// Specification of one bank type in a random board.
#[derive(Debug, Clone)]
pub struct TypeSpec {
    pub name: String,
    pub instances: u32,
    pub ports: u32,
    /// Capacity in bits; configurations become the Table-1-style geometric
    /// ladder when `multi_config`, otherwise a single square-ish config.
    pub capacity_bits: u64,
    pub multi_config: bool,
    pub read_latency: u32,
    pub write_latency: u32,
    pub placement: Placement,
}

impl TypeSpec {
    pub fn build(&self) -> BankType {
        let configs = if self.multi_config {
            gmm_arch::geometric_ladder(self.capacity_bits, (self.capacity_bits >> 4).max(1) as u32)
        } else {
            // Single configuration: width 16 unless capacity is tiny.
            let width = 16u32.min(self.capacity_bits as u32);
            vec![RamConfig::new(
                (self.capacity_bits / width as u64) as u32,
                width,
            )]
        };
        BankType::new(
            self.name.clone(),
            self.instances,
            self.ports,
            configs,
            self.read_latency,
            self.write_latency,
            self.placement,
        )
        .expect("spec parameters are valid")
    }
}

/// Assemble a board from type specs.
pub fn board_from_specs(name: &str, specs: &[TypeSpec]) -> Board {
    Board::new(name, specs.iter().map(TypeSpec::build).collect()).expect("nonempty, unique names")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible() {
        let spec = RandomDesignSpec::default();
        let a = random_design(&spec);
        let b = random_design(&spec);
        assert_eq!(a, b);
        let c = random_design(&RandomDesignSpec {
            seed: 1,
            ..spec.clone()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn dimensions_in_range() {
        let spec = RandomDesignSpec {
            segments: 40,
            depth: (8, 64),
            width: (2, 4),
            ..Default::default()
        };
        let d = random_design(&spec);
        assert_eq!(d.num_segments(), 40);
        for (_, s) in d.iter() {
            assert!((8..=64).contains(&s.depth));
            assert!((2..=4).contains(&s.width));
        }
    }

    #[test]
    fn phases_create_nonconflicting_pairs() {
        let d = random_design(&RandomDesignSpec {
            segments: 30,
            phases: Some(3),
            seed: 7,
            ..Default::default()
        });
        assert!(d.lifetimes().is_some());
        // With 3 well-separated phases, at least one pair must be
        // non-conflicting.
        let mut found = false;
        for i in 0..30 {
            for j in i + 1..30 {
                if !d
                    .conflicts()
                    .conflicts(gmm_design::SegmentId(i), gmm_design::SegmentId(j))
                {
                    found = true;
                }
            }
        }
        assert!(found);
    }

    #[test]
    fn multi_config_ladder() {
        let spec = TypeSpec {
            name: "x".into(),
            instances: 4,
            ports: 2,
            capacity_bits: 4096,
            multi_config: true,
            read_latency: 1,
            write_latency: 1,
            placement: Placement::OnChip,
        };
        let bank = spec.build();
        assert_eq!(bank.num_configs(), 5);
        assert_eq!(bank.capacity_bits(), 4096);
    }

    #[test]
    fn single_config_geometry() {
        let spec = TypeSpec {
            name: "s".into(),
            instances: 1,
            ports: 1,
            capacity_bits: 65536,
            multi_config: false,
            read_latency: 2,
            write_latency: 2,
            placement: Placement::DirectOffChip,
        };
        let bank = spec.build();
        assert_eq!(bank.num_configs(), 1);
        assert_eq!(bank.capacity_bits(), 65536);
    }
}
