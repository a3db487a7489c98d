//! Comparison call-graph generators for §2.4.
//!
//! The paper compares its tree-shape findings against three published
//! populations: Alibaba's microservice call graphs (Luo et al., SoCC'21),
//! Meta's request workflows (Huye et al., ATC'23), and the DeathStarBench
//! service graphs (Gan et al., ASPLOS'19). Each generator here produces
//! tree-size/depth samples with those studies' published shape parameters
//! so `repro compare` can regenerate the §2.4 comparison table.

use crate::catalog::FanoutDist;
use rpclens_simcore::rng::Prng;

/// A sampled call-tree shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeShape {
    /// Total RPCs in the tree, excluding the root.
    pub descendants: u32,
    /// Maximum depth (root = 0).
    pub depth: u32,
}

/// Which study's population to imitate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Alibaba microservices: heavy-tailed sizes, wider than deep,
    /// median depths ~3-5, sizes with a long tail into the thousands.
    Alibaba,
    /// Meta request workflows: P99 depth 5-6, max depth 9-19, median
    /// blocks per trace 2-498, P99 ~1k-10k.
    Meta,
    /// DeathStarBench: small fixed graphs, depth 3-9, 21-41 services.
    DeathStarBench,
}

impl BaselineKind {
    /// All baselines.
    pub const ALL: [BaselineKind; 3] = [
        BaselineKind::Alibaba,
        BaselineKind::Meta,
        BaselineKind::DeathStarBench,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            BaselineKind::Alibaba => "Alibaba (Luo et al.)",
            BaselineKind::Meta => "Meta (Huye et al.)",
            BaselineKind::DeathStarBench => "DeathStarBench (Gan et al.)",
        }
    }
}

/// Generates tree shapes for one baseline population.
#[derive(Debug)]
pub struct BaselineGenerator {
    kind: BaselineKind,
    rng: Prng,
}

impl BaselineGenerator {
    /// Creates a generator.
    pub fn new(kind: BaselineKind, seed: u64) -> Self {
        BaselineGenerator {
            kind,
            rng: Prng::seed_from(seed).stream(kind as u64 ^ 0xBA5E),
        }
    }

    /// The population kind.
    pub fn kind(&self) -> BaselineKind {
        self.kind
    }

    /// Samples one tree shape by expanding a branching process with the
    /// study's parameters.
    pub fn sample(&mut self) -> TreeShape {
        let (max_depth, p_leaf, fan_max, fan_alpha) = match self.kind {
            // Alibaba: heavy-tailed fan-out, shallow.
            BaselineKind::Alibaba => (7u32, 0.65, 20u32, 1.1),
            // Meta: similar depth, somewhat smaller bursts.
            BaselineKind::Meta => (8, 0.60, 24, 1.1),
            // DSB: small graphs, bounded fan-out.
            BaselineKind::DeathStarBench => (6, 0.42, 5, 1.4),
        };
        let fanout = FanoutDist::pareto(fan_max, fan_alpha);
        let mut descendants = 0u32;
        let mut deepest = 0u32;
        // Iterative expansion with an explicit frontier.
        let mut frontier = vec![0u32]; // Depths of nodes to expand.
        let cap = 20_000;
        while let Some(depth) = frontier.pop() {
            deepest = deepest.max(depth);
            if depth >= max_depth || descendants >= cap {
                continue;
            }
            if self.rng.chance(p_leaf) {
                continue;
            }
            // Bounded-Pareto fan-out on [1, fan_max].
            let k = fanout.sample(&mut self.rng);
            for _ in 0..k {
                descendants += 1;
                frontier.push(depth + 1);
                if descendants >= cap {
                    break;
                }
            }
        }
        TreeShape {
            descendants,
            depth: deepest,
        }
    }

    /// Samples `n` shapes.
    pub fn sample_n(&mut self, n: usize) -> Vec<TreeShape> {
        (0..n).map(|_| self.sample()).collect()
    }
}

/// Shape summary statistics for a population.
#[derive(Debug, Clone, Copy)]
pub struct ShapeSummary {
    /// Median descendants.
    pub median_size: f64,
    /// 99th-percentile descendants.
    pub p99_size: f64,
    /// Median depth.
    pub median_depth: f64,
    /// 99th-percentile depth.
    pub p99_depth: f64,
    /// Maximum depth observed.
    pub max_depth: u32,
}

impl ShapeSummary {
    /// Summarises a sample of shapes.
    ///
    /// # Panics
    ///
    /// Panics if `shapes` is empty.
    pub fn from_shapes(shapes: &[TreeShape]) -> ShapeSummary {
        assert!(!shapes.is_empty(), "need at least one shape");
        let mut sizes: Vec<f64> = shapes.iter().map(|s| s.descendants as f64).collect();
        let mut depths: Vec<f64> = shapes.iter().map(|s| s.depth as f64).collect();
        sizes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        depths.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |v: &[f64], q: f64| v[((v.len() - 1) as f64 * q) as usize];
        ShapeSummary {
            median_size: pct(&sizes, 0.5),
            p99_size: pct(&sizes, 0.99),
            median_depth: pct(&depths, 0.5),
            p99_depth: pct(&depths, 0.99),
            max_depth: shapes.iter().map(|s| s.depth).max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(kind: BaselineKind) -> ShapeSummary {
        let mut g = BaselineGenerator::new(kind, 1);
        ShapeSummary::from_shapes(&g.sample_n(20_000))
    }

    #[test]
    fn all_populations_are_wider_than_deep() {
        for kind in BaselineKind::ALL {
            let s = summary(kind);
            assert!(
                s.p99_size > s.p99_depth * 3.0,
                "{kind:?}: size P99 {} vs depth P99 {}",
                s.p99_size,
                s.p99_depth
            );
        }
    }

    #[test]
    fn meta_depths_match_published_ranges() {
        // Huye et al.: P99 depth 5-6, max depth 9-19.
        let s = summary(BaselineKind::Meta);
        assert!(
            (4.0..=8.0).contains(&s.p99_depth),
            "P99 depth {}",
            s.p99_depth
        );
        assert!(s.max_depth <= 19 && s.max_depth >= 7, "max {}", s.max_depth);
    }

    #[test]
    fn dsb_graphs_are_small() {
        // Gan et al.: tens of services per application.
        let s = summary(BaselineKind::DeathStarBench);
        assert!(s.p99_size < 120.0, "P99 size {}", s.p99_size);
        assert!(s.p99_depth <= 6.0, "P99 depth {}", s.p99_depth);
    }

    #[test]
    fn alibaba_has_heavy_size_tail() {
        // Luo et al.: a heavy tail many times the median.
        let s = summary(BaselineKind::Alibaba);
        assert!(
            s.p99_size > s.median_size.max(1.0) * 10.0,
            "median {} p99 {}",
            s.median_size,
            s.p99_size
        );
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = BaselineGenerator::new(BaselineKind::Alibaba, 9);
        let mut b = BaselineGenerator::new(BaselineKind::Alibaba, 9);
        assert_eq!(a.sample_n(100), b.sample_n(100));
    }

    /// The generator as it was before it drew fan-out through
    /// [`FanoutDist::pareto`]: the bounded-Pareto inverse CDF inline,
    /// truncated, then clamped to `fan_max`.
    fn reference_sample(kind: BaselineKind, rng: &mut Prng) -> TreeShape {
        let (max_depth, p_leaf, fan_max, fan_alpha) = match kind {
            BaselineKind::Alibaba => (7u32, 0.65, 20u32, 1.1),
            BaselineKind::Meta => (8, 0.60, 24, 1.1),
            BaselineKind::DeathStarBench => (6, 0.42, 5, 1.4),
        };
        let mut descendants = 0u32;
        let mut deepest = 0u32;
        let mut frontier = vec![0u32];
        let cap = 20_000;
        while let Some(depth) = frontier.pop() {
            deepest = deepest.max(depth);
            if depth >= max_depth || descendants >= cap {
                continue;
            }
            if rng.chance(p_leaf) {
                continue;
            }
            let u = rng.next_f64_open();
            let ha = (fan_max as f64).powf(fan_alpha);
            let k = ((1.0 - u * (1.0 - 1.0 / ha)).powf(-1.0 / fan_alpha) as u32).min(fan_max);
            for _ in 0..k {
                descendants += 1;
                frontier.push(depth + 1);
                if descendants >= cap {
                    break;
                }
            }
        }
        TreeShape {
            descendants,
            depth: deepest,
        }
    }

    #[test]
    fn sample_matches_the_inline_fanout_reference() {
        for kind in BaselineKind::ALL {
            for seed in 0..200 {
                let mut g = BaselineGenerator::new(kind, seed);
                let mut rng = Prng::seed_from(seed).stream(kind as u64 ^ 0xBA5E);
                for i in 0..20 {
                    let want = reference_sample(kind, &mut rng);
                    assert_eq!(g.sample(), want, "{kind:?} seed {seed} shape {i}");
                }
                assert_eq!(g.rng.next_u64(), rng.next_u64(), "{kind:?} seed {seed}");
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            BaselineKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 3);
    }
}
