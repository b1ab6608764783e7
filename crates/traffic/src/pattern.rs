//! The synthetic benchmark patterns of Section 7, plus extensions.
//!
//! Each node generates packets whose destinations follow one of these
//! patterns. The four patterns used in the paper are:
//!
//! * **Uniform** — destinations drawn uniformly at random among the
//!   other nodes. ("Representative of well-balanced shared-memory
//!   computations.") Self-sends are excluded; a node is never its own
//!   destination.
//! * **Complement** — `a_0 a_1 … a_{B-1} -> !a_0 !a_1 … !a_{B-1}`: every
//!   packet crosses the bisection of the network.
//! * **Bit reversal** — `a_{B-1} … a_0`, common in FFT-style computation.
//! * **Transpose** — `a_{B/2} … a_{B-1} a_0 … a_{B/2-1}`, i.e. matrix
//!   transpose.
//!
//! The deterministic patterns are permutations; a node whose image is
//! itself (e.g. the 16 palindromes under bit reversal on 256 nodes)
//! **injects nothing**, exactly as in the paper.
//!
//! As extensions we also provide perfect shuffle, butterfly, tornado,
//! nearest-neighbor and a parametric hot-spot pattern; these are not part
//! of the paper's evaluation but exercise the same machinery and are used
//! by the ablation benchmarks.

use crate::bits::AddressBits;
use crate::rng::Rng64;
use topology::NodeId;

/// A destination-selection pattern.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pattern {
    /// Uniformly random destination, excluding the source itself.
    Uniform,
    /// Bitwise complement of the address.
    Complement,
    /// Bit-reversed address.
    BitReversal,
    /// Two halves of the bit string swapped.
    Transpose,
    /// Perfect shuffle (rotate bit string left by one). Extension.
    Shuffle,
    /// Swap most- and least-significant bits. Extension.
    Butterfly,
    /// Half-ring offset on the linear node ring:
    /// `dest = (src + ceil(N/2) - 1) mod N`. Extension (adversarial for
    /// tori: maximizes link load in one ring direction).
    Tornado,
    /// `dest = (src + 1) mod N`. Extension (best case for tori).
    NearestNeighbor,
    /// With probability `percent/100` send to `hot`, otherwise uniform.
    /// Extension (models a shared lock / home node).
    HotSpot {
        /// The hot node.
        hot: u32,
        /// Percentage of traffic directed at the hot node (0..=100).
        percent: u8,
    },
}

impl Pattern {
    /// The four patterns evaluated in the paper, in presentation order.
    pub const PAPER_SET: [Pattern; 4] = [
        Pattern::Uniform,
        Pattern::Complement,
        Pattern::Transpose,
        Pattern::BitReversal,
    ];

    /// Stable lowercase name, used in CSV headers and CLI arguments.
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::Uniform => "uniform",
            Pattern::Complement => "complement",
            Pattern::BitReversal => "bitrev",
            Pattern::Transpose => "transpose",
            Pattern::Shuffle => "shuffle",
            Pattern::Butterfly => "butterfly",
            Pattern::Tornado => "tornado",
            Pattern::NearestNeighbor => "neighbor",
            Pattern::HotSpot { .. } => "hotspot",
        }
    }

    /// Title as used in the paper's figure captions (extensions get
    /// their conventional names).
    pub fn title(&self) -> &'static str {
        match self {
            Pattern::Uniform => "Uniform traffic",
            Pattern::Complement => "Complement traffic",
            Pattern::BitReversal => "Bit reversal traffic",
            Pattern::Transpose => "Transpose traffic",
            Pattern::Shuffle => "Perfect shuffle traffic",
            Pattern::Butterfly => "Butterfly traffic",
            Pattern::Tornado => "Tornado traffic",
            Pattern::NearestNeighbor => "Nearest neighbor traffic",
            Pattern::HotSpot { .. } => "Hot-spot traffic",
        }
    }

    /// Parse a pattern name (as produced by [`Pattern::name`]) or a
    /// [`Pattern::spec`]. Plain `hotspot` uses node 0 and 20% hot
    /// traffic; `hotspot:<node>:<percent>` names both (percent <= 100).
    pub fn parse(s: &str) -> Option<Pattern> {
        Some(match s {
            "uniform" => Pattern::Uniform,
            "complement" => Pattern::Complement,
            "bitrev" | "bit-reversal" | "bitreversal" => Pattern::BitReversal,
            "transpose" => Pattern::Transpose,
            "shuffle" => Pattern::Shuffle,
            "butterfly" => Pattern::Butterfly,
            "tornado" => Pattern::Tornado,
            "neighbor" => Pattern::NearestNeighbor,
            "hotspot" => Pattern::HotSpot {
                hot: 0,
                percent: 20,
            },
            _ => {
                let (hot, percent) = s.strip_prefix("hotspot:")?.split_once(':')?;
                Pattern::HotSpot {
                    hot: hot.parse().ok()?,
                    percent: percent.parse().ok().filter(|p| *p <= 100)?,
                }
            }
        })
    }

    /// The canonical spelling [`Pattern::parse`] reads back as this
    /// exact pattern: the name, plus `:<node>:<percent>` for the hot
    /// spot.
    pub fn spec(&self) -> String {
        match *self {
            Pattern::HotSpot { hot, percent } => format!("hotspot:{hot}:{percent}"),
            p => p.name().to_string(),
        }
    }

    /// Whether destinations are a deterministic function of the source.
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, Pattern::Uniform | Pattern::HotSpot { .. })
    }
}

/// A pattern bound to a concrete network size, ready to generate
/// destinations.
///
/// ```
/// use traffic::{Pattern, Rng64, TrafficGen};
/// use topology::NodeId;
///
/// let gen = TrafficGen::new(Pattern::Complement, 256);
/// let mut rng = Rng64::seed_from(1);
/// assert_eq!(gen.dest(NodeId(0), &mut rng), Some(NodeId(255)));
/// // Palindromes under bit reversal stay silent:
/// let gen = TrafficGen::new(Pattern::BitReversal, 256);
/// assert_eq!(gen.dest(NodeId(0), &mut rng), None);
/// ```
#[derive(Clone, Debug)]
pub struct TrafficGen {
    pattern: Pattern,
    num_nodes: usize,
    /// Present when the pattern needs the bit-string view.
    bits: Option<AddressBits>,
}

impl TrafficGen {
    /// Bind `pattern` to a network with `num_nodes` nodes.
    ///
    /// # Panics
    /// Panics if a bit-defined pattern is used with a non-power-of-two
    /// node count, or a hot-spot node is out of range.
    pub fn new(pattern: Pattern, num_nodes: usize) -> Self {
        assert!(num_nodes >= 2, "need at least two nodes");
        let bits = match pattern {
            Pattern::Complement
            | Pattern::BitReversal
            | Pattern::Transpose
            | Pattern::Shuffle
            | Pattern::Butterfly => Some(AddressBits::for_nodes(num_nodes)),
            Pattern::HotSpot { hot, .. } => {
                assert!((hot as usize) < num_nodes, "hot node out of range");
                None
            }
            _ => None,
        };
        TrafficGen {
            pattern,
            num_nodes,
            bits,
        }
    }

    /// The bound pattern.
    pub fn pattern(&self) -> Pattern {
        self.pattern
    }

    /// The network size this generator was bound to.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Destination for a packet from `src`; `None` means the source does
    /// not inject (fixed point of a permutation pattern).
    pub fn dest(&self, src: NodeId, rng: &mut Rng64) -> Option<NodeId> {
        let s = src.index();
        debug_assert!(s < self.num_nodes);
        let d = match self.pattern {
            Pattern::Uniform => {
                // Uniform over the other N-1 nodes.
                let r = rng.index(self.num_nodes - 1);
                if r >= s {
                    r + 1
                } else {
                    r
                }
            }
            Pattern::Complement => self.bits.unwrap().complement(s),
            Pattern::BitReversal => self.bits.unwrap().reverse(s),
            Pattern::Transpose => self.bits.unwrap().transpose(s),
            Pattern::Shuffle => self.bits.unwrap().shuffle(s),
            Pattern::Butterfly => self.bits.unwrap().butterfly(s),
            Pattern::Tornado => (s + self.num_nodes.div_ceil(2) - 1) % self.num_nodes,
            Pattern::NearestNeighbor => (s + 1) % self.num_nodes,
            Pattern::HotSpot { hot, percent } => {
                if rng.chance(percent as f64 / 100.0) {
                    hot as usize
                } else {
                    let r = rng.index(self.num_nodes - 1);
                    if r >= s {
                        r + 1
                    } else {
                        r
                    }
                }
            }
        };
        if d == s {
            None
        } else {
            Some(NodeId(d as u32))
        }
    }

    /// For deterministic patterns: the underlying permutation as a
    /// function (fixed points included). `None` for stochastic patterns.
    pub fn permutation(&self) -> Option<impl Fn(NodeId) -> NodeId + '_> {
        if !self.pattern.is_deterministic() {
            return None;
        }
        let me = self.clone();
        Some(move |x: NodeId| {
            let mut unused = Rng64::seed_from(0);
            me.dest(x, &mut unused).unwrap_or(x)
        })
    }

    /// Fraction of nodes that actually inject (1.0 for stochastic
    /// patterns; less for permutations with fixed points).
    pub fn injecting_fraction(&self) -> f64 {
        if !self.pattern.is_deterministic() {
            return 1.0;
        }
        let mut rng = Rng64::seed_from(0);
        let injecting = (0..self.num_nodes)
            .filter(|&x| self.dest(NodeId(x as u32), &mut rng).is_some())
            .count();
        injecting as f64 / self.num_nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(p: Pattern) -> TrafficGen {
        TrafficGen::new(p, 256)
    }

    #[test]
    fn names_round_trip_through_parse() {
        // The paper's four patterns, plus every extension with a
        // parameter-free name: `parse(name())` must be the identity.
        let mut all = Pattern::PAPER_SET.to_vec();
        all.extend([
            Pattern::Shuffle,
            Pattern::Butterfly,
            Pattern::Tornado,
            Pattern::NearestNeighbor,
        ]);
        for p in all {
            assert_eq!(
                Pattern::parse(p.name()),
                Some(p),
                "{} did not round-trip",
                p.name()
            );
        }
        // Hot-spot round-trips up to its defaults (the name drops the
        // node/percent parameters).
        let hs = Pattern::HotSpot {
            hot: 0,
            percent: 20,
        };
        assert_eq!(Pattern::parse(hs.name()), Some(hs));
    }

    #[test]
    fn specs_round_trip_every_pattern_exactly() {
        let mut all = Pattern::PAPER_SET.to_vec();
        all.extend([
            Pattern::Shuffle,
            Pattern::Butterfly,
            Pattern::Tornado,
            Pattern::NearestNeighbor,
            Pattern::HotSpot {
                hot: 0,
                percent: 20,
            },
            Pattern::HotSpot {
                hot: 3,
                percent: 45,
            },
            Pattern::HotSpot {
                hot: 255,
                percent: 100,
            },
        ]);
        for p in all {
            assert_eq!(Pattern::parse(&p.spec()), Some(p), "{}", p.spec());
        }
        // The parameters never reach the name (seeds and CSV headers).
        assert_eq!(Pattern::parse("hotspot:7:5").unwrap().name(), "hotspot");
        for junk in ["hotspot:3:101", "hotspot:x:20", "hotspot::20", "hotspot:3:"] {
            assert_eq!(Pattern::parse(junk), None, "{junk:?} should not parse");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for junk in [
            "",
            "unifrom",
            "UNIFORM",
            "uniform ",
            " uniform",
            "bit rev",
            "hotspot:3",
            "42",
            "--",
        ] {
            assert_eq!(Pattern::parse(junk), None, "{junk:?} should not parse");
        }
    }

    #[test]
    fn uniform_never_self_and_covers_everyone() {
        let g = gen(Pattern::Uniform);
        let mut rng = Rng64::seed_from(5);
        let src = NodeId(100);
        let mut seen = vec![false; 256];
        for _ in 0..20_000 {
            let d = g.dest(src, &mut rng).expect("uniform always injects");
            assert_ne!(d, src);
            seen[d.index()] = true;
        }
        let covered = seen.iter().filter(|&&b| b).count();
        assert_eq!(covered, 255);
    }

    #[test]
    fn complement_crosses_everything() {
        let g = gen(Pattern::Complement);
        let mut rng = Rng64::seed_from(0);
        assert_eq!(g.dest(NodeId(0), &mut rng), Some(NodeId(255)));
        assert_eq!(
            g.dest(NodeId(0b1010_1010), &mut rng),
            Some(NodeId(0b0101_0101))
        );
        // Complement has no fixed points: everyone injects.
        assert_eq!(g.injecting_fraction(), 1.0);
    }

    #[test]
    fn bitrev_palindromes_do_not_inject() {
        let g = gen(Pattern::BitReversal);
        // 16 palindromes out of 256 stay silent (Section 9).
        let frac = g.injecting_fraction();
        assert!((frac - 240.0 / 256.0).abs() < 1e-12, "{frac}");
    }

    #[test]
    fn transpose_diagonal_does_not_inject() {
        let g = gen(Pattern::Transpose);
        let frac = g.injecting_fraction();
        assert!((frac - 240.0 / 256.0).abs() < 1e-12, "{frac}");
        // The "diagonal" of the logically flattened torus: equal halves.
        let mut rng = Rng64::seed_from(0);
        assert_eq!(g.dest(NodeId(0x11), &mut rng), None);
        assert_eq!(g.dest(NodeId(0x2C), &mut rng), Some(NodeId(0xC2)));
    }

    #[test]
    fn deterministic_patterns_are_stable() {
        for p in [
            Pattern::Complement,
            Pattern::BitReversal,
            Pattern::Transpose,
        ] {
            let g = gen(p);
            let mut r1 = Rng64::seed_from(1);
            let mut r2 = Rng64::seed_from(999);
            for x in 0..256 {
                assert_eq!(
                    g.dest(NodeId(x), &mut r1),
                    g.dest(NodeId(x), &mut r2),
                    "pattern {p:?} should ignore the RNG"
                );
            }
        }
    }

    #[test]
    fn tornado_and_neighbor() {
        let g = gen(Pattern::Tornado);
        let mut rng = Rng64::seed_from(0);
        assert_eq!(g.dest(NodeId(0), &mut rng), Some(NodeId(127)));
        let g = gen(Pattern::NearestNeighbor);
        assert_eq!(g.dest(NodeId(255), &mut rng), Some(NodeId(0)));
    }

    #[test]
    fn hotspot_concentrates() {
        let g = TrafficGen::new(
            Pattern::HotSpot {
                hot: 7,
                percent: 50,
            },
            256,
        );
        let mut rng = Rng64::seed_from(3);
        let hits = (0..10_000)
            .filter(|_| g.dest(NodeId(100), &mut rng) == Some(NodeId(7)))
            .count();
        // ~50% + ~0.2% of the uniform remainder.
        assert!((hits as f64 / 10_000.0 - 0.502).abs() < 0.02, "{hits}");
    }

    #[test]
    fn parse_roundtrip() {
        for p in [
            Pattern::Uniform,
            Pattern::Complement,
            Pattern::BitReversal,
            Pattern::Transpose,
            Pattern::Shuffle,
            Pattern::Butterfly,
            Pattern::Tornado,
            Pattern::NearestNeighbor,
        ] {
            assert_eq!(Pattern::parse(p.name()), Some(p));
        }
        assert_eq!(Pattern::parse("nonsense"), None);
    }

    #[test]
    fn permutation_view_matches_dest() {
        let g = gen(Pattern::BitReversal);
        let perm = g.permutation().unwrap();
        let mut rng = Rng64::seed_from(0);
        for x in 0..256u32 {
            let via_dest = g.dest(NodeId(x), &mut rng).unwrap_or(NodeId(x));
            assert_eq!(perm(NodeId(x)), via_dest);
        }
        assert!(gen(Pattern::Uniform).permutation().is_none());
    }

    #[test]
    fn works_on_non_power_of_two_for_index_patterns() {
        let g = TrafficGen::new(Pattern::Tornado, 100);
        let mut rng = Rng64::seed_from(0);
        assert_eq!(g.dest(NodeId(0), &mut rng), Some(NodeId(49)));
        let g = TrafficGen::new(Pattern::Uniform, 100);
        for _ in 0..1000 {
            let d = g.dest(NodeId(50), &mut rng).unwrap();
            assert!(d.index() < 100);
        }
    }

    #[test]
    #[should_panic]
    fn bit_pattern_requires_power_of_two() {
        let _ = TrafficGen::new(Pattern::Transpose, 100);
    }
}
