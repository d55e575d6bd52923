//! The one canonical byte codec, both ways, for the inputs that decide a
//! layout: the [`Topology`], the GP-stage prefix of [`FlowConfig`], the
//! [`DetailedPlacerConfig`] and the [`LegalizationStrategy`].
//! [`ArtifactKey`](crate::ArtifactKey) is a level tag followed by these bytes,
//! and the `qgdp-serve` snapshot (format v1) persists the same bytes.
//!
//! Encoders destructure every config struct exhaustively (no `..`) and
//! decoders rebuild it with a full struct literal, so a new field is a compile
//! error here, both ways, until it is encoded or excluded on purpose.
//! Integers are little-endian `u64`, tags one byte, and every `f64` is its
//! IEEE-754 bit pattern:
//!
//! ```text
//! session  = topology · flow prefix
//! topology = name (len · UTF-8) · kind tag · qubits · couplings (count · (a, b)…)
//!            · coordinates (count · (x, y)…)
//! prefix   = geometry (6 × f64) · net-model tag · GP config · crosstalk (2 × f64)
//! detail   = margin · max windows · passes · crosstalk (2 × f64) · guided flag
//! ```

use crate::detail::DetailedPlacerConfig;
use crate::pipeline::{FaultInjection, FlowConfig};
use crate::strategy::LegalizationStrategy;
use qgdp_geometry::Point;
use qgdp_metrics::CrosstalkConfig;
use qgdp_netlist::{ComponentGeometry, NetModel};
use qgdp_placer::GlobalPlacerConfig;
use qgdp_topology::{Topology, TopologyKind};
use std::collections::HashSet;
use std::fmt;

/// Cap on any decoded length prefix (see [`Reader`]).
const MAX_COUNT: u64 = 16_000_000;

/// Why a byte sequence did not decode.  Decoding never panics.
#[derive(Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the structure it promised.
    Truncated,
    /// The input decoded but described an impossible structure.
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input is truncated"),
            CodecError::Malformed(what) => write!(f, "malformed input: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends one `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends one `f64` as its IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a point list: its length, then `(x, y)` per point.
pub fn put_points(out: &mut Vec<u8>, points: &[Point]) {
    put_u64(out, points.len() as u64);
    for p in points {
        put_f64(out, p.x);
        put_f64(out, p.y);
    }
}

/// A bounds-checked cursor over encoded bytes.  Every read either yields a
/// value or fails: [`CodecError::Truncated`] past the end, and
/// [`CodecError::Malformed`] for a length prefix above a sanity cap (so
/// corruption cannot force a huge allocation) or an impossible value.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.at.checked_add(n).ok_or(CodecError::Truncated)?;
        let slice = self.bytes.get(self.at..end).ok_or(CodecError::Truncated)?;
        self.at = end;
        Ok(slice)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// One little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// One `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix.
    pub fn count(&mut self, what: &str) -> Result<usize, CodecError> {
        let n = self.u64()?;
        if n > MAX_COUNT {
            return Err(CodecError::Malformed(format!(
                "{what} count {n} exceeds the sanity cap"
            )));
        }
        Ok(n as usize)
    }

    /// A point list written by [`put_points`].
    pub fn points(&mut self, what: &str) -> Result<Vec<Point>, CodecError> {
        let n = self.count(what)?;
        let mut out = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            out.push(Point::new(self.f64()?, self.f64()?));
        }
        Ok(out)
    }

    /// Whether every byte has been read.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

/// Encodes the session identity: `topology`, then the GP-stage prefix of
/// `config` (every field a GP, a legalization or a cached report reads).
pub fn encode_session(topology: &Topology, config: &FlowConfig, out: &mut Vec<u8>) {
    encode_topology(topology, out);
    encode_flow_prefix(config, out);
}

/// The inverse of [`encode_session`]; the config carries the defaults for
/// every field outside the prefix.  Refuses every topology shape
/// `Topology::new` would panic on.
pub fn decode_session(r: &mut Reader<'_>) -> Result<(Topology, FlowConfig), CodecError> {
    Ok((decode_topology(r)?, decode_flow_prefix(r)?))
}

/// Encodes a detailed-placer configuration, every field.
pub fn encode_detail(detail: &DetailedPlacerConfig, out: &mut Vec<u8>) {
    let DetailedPlacerConfig {
        window_margin_cells,
        max_windows,
        passes,
        crosstalk,
        fidelity_guided,
    } = detail;
    put_f64(out, *window_margin_cells);
    put_u64(out, *max_windows as u64);
    put_u64(out, *passes as u64);
    encode_crosstalk(crosstalk, out);
    out.push(u8::from(*fidelity_guided));
}

/// The inverse of [`encode_detail`].
pub fn decode_detail(r: &mut Reader<'_>) -> Result<DetailedPlacerConfig, CodecError> {
    Ok(DetailedPlacerConfig {
        window_margin_cells: r.f64()?,
        max_windows: r.u64()? as usize,
        passes: r.u64()? as usize,
        crosstalk: decode_crosstalk(r)?,
        fidelity_guided: match r.u8()? {
            0 => false,
            1 => true,
            tag => return Err(CodecError::Malformed(format!("bad guided flag {tag}"))),
        },
    })
}

/// Encodes a legalization strategy as its tag byte.
pub fn encode_strategy(strategy: LegalizationStrategy, out: &mut Vec<u8>) {
    out.push(match strategy {
        LegalizationStrategy::Qgdp => 0,
        LegalizationStrategy::QAbacus => 1,
        LegalizationStrategy::QTetris => 2,
        LegalizationStrategy::Abacus => 3,
        LegalizationStrategy::Tetris => 4,
    });
}

/// The inverse of [`encode_strategy`].
pub fn decode_strategy(r: &mut Reader<'_>) -> Result<LegalizationStrategy, CodecError> {
    Ok(match r.u8()? {
        0 => LegalizationStrategy::Qgdp,
        1 => LegalizationStrategy::QAbacus,
        2 => LegalizationStrategy::QTetris,
        3 => LegalizationStrategy::Abacus,
        4 => LegalizationStrategy::Tetris,
        tag => return Err(CodecError::Malformed(format!("unknown strategy tag {tag}"))),
    })
}

/// A kind's tag is its index here.  `Custom` also stands for any future
/// kind; `MultiChip` was tag 4 too before it got its own, so older files
/// still decode it as `Custom`.
const KIND_TAGS: [TopologyKind; 6] = [
    TopologyKind::Grid,
    TopologyKind::HeavyHex,
    TopologyKind::Octagon,
    TopologyKind::Xtree,
    TopologyKind::Custom,
    TopologyKind::MultiChip,
];

fn kind_tag(kind: TopologyKind) -> u8 {
    KIND_TAGS.iter().position(|&k| k == kind).unwrap_or(4) as u8
}

fn encode_topology(topology: &Topology, out: &mut Vec<u8>) {
    put_u64(out, topology.name().len() as u64);
    out.extend_from_slice(topology.name().as_bytes());
    out.push(kind_tag(topology.kind()));
    put_u64(out, topology.num_qubits() as u64);
    put_u64(out, topology.couplings().len() as u64);
    for &(a, b) in topology.couplings() {
        put_u64(out, a as u64);
        put_u64(out, b as u64);
    }
    put_points(out, topology.coords());
}

fn decode_topology(r: &mut Reader<'_>) -> Result<Topology, CodecError> {
    let len = r.count("topology name")?;
    let name = String::from_utf8(r.take(len)?.to_vec())
        .map_err(|_| CodecError::Malformed("topology name is not UTF-8".into()))?;
    let kind = *KIND_TAGS
        .get(usize::from(r.u8()?))
        .ok_or_else(|| CodecError::Malformed("unknown topology kind tag".into()))?;
    let num_qubits = r.count("qubit")?;
    let num_couplings = r.count("coupling")?;
    let mut couplings = Vec::with_capacity(num_couplings.min(65_536));
    let mut seen = HashSet::with_capacity(couplings.capacity());
    for _ in 0..num_couplings {
        let (a, b) = (r.u64()? as usize, r.u64()? as usize);
        if a >= num_qubits || b >= num_qubits || a == b || !seen.insert((a.min(b), a.max(b))) {
            return Err(CodecError::Malformed(format!(
                "coupling ({a}, {b}) is invalid or repeated for {num_qubits} qubits"
            )));
        }
        couplings.push((a, b));
    }
    let coords = r.points("coordinate")?;
    if coords.len() != num_qubits {
        return Err(CodecError::Malformed(format!(
            "{} coordinates for {num_qubits} qubits",
            coords.len()
        )));
    }
    // `Topology::new` synthesises a "{kind}-{n}" display name; restore the
    // recorded one so the round trip is lossless.
    Ok(Topology::new(name.clone(), kind, num_qubits, couplings, coords).with_name(name))
}

fn encode_flow_prefix(config: &FlowConfig, out: &mut Vec<u8>) {
    let FlowConfig {
        geometry,
        net_model,
        gp,
        crosstalk,
        // Encoded per detailed artifact by `encode_detail`.
        detail: _,
        // Fault-injected configurations are never cached or snapshotted.
        fault: _,
    } = config;
    let ComponentGeometry {
        qubit_width,
        qubit_height,
        wire_block_size,
        padding_length,
        resonator_wirelength,
        min_qubit_spacing_cells,
    } = geometry;
    put_f64(out, *qubit_width);
    put_f64(out, *qubit_height);
    put_f64(out, *wire_block_size);
    put_f64(out, *padding_length);
    put_f64(out, *resonator_wirelength);
    put_f64(out, *min_qubit_spacing_cells);
    out.push(match net_model {
        NetModel::Chain => 0,
        NetModel::Pseudo => 1,
        NetModel::Clique => 2,
    });
    let GlobalPlacerConfig {
        utilization,
        iterations,
        attraction,
        anchor,
        repulsion,
        damping,
        jitter,
        qubit_padding_cells,
        star_threshold,
        seed,
    } = gp;
    put_f64(out, *utilization);
    put_u64(out, *iterations as u64);
    put_f64(out, *attraction);
    put_f64(out, *anchor);
    put_f64(out, *repulsion);
    put_f64(out, *damping);
    put_f64(out, *jitter);
    put_f64(out, *qubit_padding_cells);
    put_u64(out, *star_threshold as u64);
    put_u64(out, *seed);
    encode_crosstalk(crosstalk, out);
}

fn decode_flow_prefix(r: &mut Reader<'_>) -> Result<FlowConfig, CodecError> {
    let geometry = ComponentGeometry {
        qubit_width: r.f64()?,
        qubit_height: r.f64()?,
        wire_block_size: r.f64()?,
        padding_length: r.f64()?,
        resonator_wirelength: r.f64()?,
        min_qubit_spacing_cells: r.f64()?,
    };
    let net_model = match r.u8()? {
        0 => NetModel::Chain,
        1 => NetModel::Pseudo,
        2 => NetModel::Clique,
        tag => {
            return Err(CodecError::Malformed(format!(
                "unknown net-model tag {tag}"
            )))
        }
    };
    let gp = GlobalPlacerConfig {
        utilization: r.f64()?,
        iterations: r.u64()? as usize,
        attraction: r.f64()?,
        anchor: r.f64()?,
        repulsion: r.f64()?,
        damping: r.f64()?,
        jitter: r.f64()?,
        qubit_padding_cells: r.f64()?,
        star_threshold: r.u64()? as usize,
        seed: r.u64()?,
    };
    Ok(FlowConfig {
        geometry,
        net_model,
        gp,
        crosstalk: decode_crosstalk(r)?,
        // Outside the prefix (see `encode_flow_prefix`): the defaults.
        detail: DetailedPlacerConfig::new(),
        fault: FaultInjection::default(),
    })
}

fn encode_crosstalk(crosstalk: &CrosstalkConfig, out: &mut Vec<u8>) {
    let CrosstalkConfig {
        proximity_threshold,
        detuning_threshold_ghz,
    } = crosstalk;
    put_f64(out, *proximity_threshold);
    put_f64(out, *detuning_threshold_ghz);
}

fn decode_crosstalk(r: &mut Reader<'_>) -> Result<CrosstalkConfig, CodecError> {
    Ok(CrosstalkConfig {
        proximity_threshold: r.f64()?,
        detuning_threshold_ghz: r.f64()?,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every topology kind, `Custom` and `MultiChip` included.
    pub(crate) const KINDS: [TopologyKind; 6] = [
        TopologyKind::Grid,
        TopologyKind::HeavyHex,
        TopologyKind::Octagon,
        TopologyKind::Xtree,
        TopologyKind::MultiChip,
        TopologyKind::Custom,
    ];

    /// Random inputs of every encoded type: a random graph labelled with a
    /// random kind, a flow config random in every field (outside the prefix
    /// too) and a detail config.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct AnyInputs;

    impl Strategy for AnyInputs {
        type Value = (Topology, FlowConfig, DetailedPlacerConfig);

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (any_topology(rng), any_config(rng), any_detail(rng))
        }
    }

    fn any_f64(rng: &mut TestRng) -> f64 {
        rng.gen_f64(-1e6, 1e6)
    }

    fn any_usize(rng: &mut TestRng) -> usize {
        rng.gen_u64(0, u64::MAX) as usize
    }

    fn any_strategy(rng: &mut TestRng) -> Option<LegalizationStrategy> {
        let all = LegalizationStrategy::all();
        all.get(rng.gen_u64(0, all.len() as u64 + 1) as usize)
            .copied()
    }

    fn any_crosstalk(rng: &mut TestRng) -> CrosstalkConfig {
        CrosstalkConfig {
            proximity_threshold: any_f64(rng),
            detuning_threshold_ghz: any_f64(rng),
        }
    }

    fn any_topology(rng: &mut TestRng) -> Topology {
        let n = rng.gen_u64(2, 24) as usize;
        let mut couplings = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                match rng.gen_u64(0, 6) {
                    0 => couplings.push((a, b)),
                    1 => couplings.push((b, a)),
                    _ => {}
                }
            }
        }
        let coords = (0..n)
            .map(|_| Point::new(any_f64(rng), any_f64(rng)))
            .collect();
        let kind = KINDS[rng.gen_u64(0, KINDS.len() as u64) as usize];
        let topology = Topology::new("", kind, n, couplings, coords);
        match rng.gen_u64(0, 3) {
            0 => topology,
            1 => topology.with_name(""),
            _ => topology.with_name(format!("chïp-{}", rng.gen_u64(0, 1000))),
        }
    }

    fn any_config(rng: &mut TestRng) -> FlowConfig {
        FlowConfig {
            geometry: ComponentGeometry {
                qubit_width: any_f64(rng),
                qubit_height: any_f64(rng),
                wire_block_size: any_f64(rng),
                padding_length: any_f64(rng),
                resonator_wirelength: any_f64(rng),
                min_qubit_spacing_cells: any_f64(rng),
            },
            net_model: [NetModel::Chain, NetModel::Pseudo, NetModel::Clique]
                [rng.gen_u64(0, 3) as usize],
            gp: GlobalPlacerConfig {
                utilization: any_f64(rng),
                iterations: any_usize(rng),
                attraction: any_f64(rng),
                anchor: any_f64(rng),
                repulsion: any_f64(rng),
                damping: any_f64(rng),
                jitter: any_f64(rng),
                qubit_padding_cells: any_f64(rng),
                star_threshold: any_usize(rng),
                seed: rng.gen_u64(0, u64::MAX),
            },
            crosstalk: any_crosstalk(rng),
            detail: any_detail(rng),
            fault: FaultInjection {
                fail_legalization: any_strategy(rng),
                panic_in_legalization: any_strategy(rng),
            },
        }
    }

    fn any_detail(rng: &mut TestRng) -> DetailedPlacerConfig {
        DetailedPlacerConfig {
            window_margin_cells: any_f64(rng),
            max_windows: any_usize(rng),
            passes: any_usize(rng),
            crosstalk: any_crosstalk(rng),
            fidelity_guided: rng.gen_u64(0, 2) == 1,
        }
    }

    /// `config` with every field outside the session prefix at its default:
    /// what a decode of its encoding must give back.
    pub(crate) fn prefix_only(config: &FlowConfig) -> FlowConfig {
        FlowConfig {
            detail: DetailedPlacerConfig::new(),
            fault: FaultInjection::default(),
            ..*config
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn round_trips_are_exact_and_byte_stable(inputs in AnyInputs) {
            let (topology, config, detail) = inputs;
            let mut bytes = Vec::new();
            encode_session(&topology, &config, &mut bytes);
            let mut r = Reader::new(&bytes);
            let (topology_back, config_back) = decode_session(&mut r).unwrap();
            prop_assert!(r.is_done());
            prop_assert_eq!(&topology_back, &topology);
            prop_assert_eq!(config_back, prefix_only(&config));
            let mut again = Vec::new();
            encode_session(&topology_back, &config_back, &mut again);
            prop_assert_eq!(&again, &bytes);

            let mut bytes = Vec::new();
            encode_detail(&detail, &mut bytes);
            let mut r = Reader::new(&bytes);
            let detail_back = decode_detail(&mut r).unwrap();
            prop_assert!(r.is_done());
            prop_assert_eq!(detail_back, detail);
            let mut again = Vec::new();
            encode_detail(&detail_back, &mut again);
            prop_assert_eq!(&again, &bytes);
        }
    }

    #[test]
    fn strategy_tags_round_trip() {
        for s in LegalizationStrategy::all() {
            let mut bytes = Vec::new();
            encode_strategy(s, &mut bytes);
            assert_eq!(decode_strategy(&mut Reader::new(&bytes)), Ok(s));
        }
        assert!(matches!(
            decode_strategy(&mut Reader::new(&[250])),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn decoding_refuses_what_topology_new_would_panic_on() {
        let raw = |couplings: &[(u64, u64)], coords: usize| {
            let mut out = Vec::new();
            put_u64(&mut out, 1);
            out.push(b't');
            out.push(kind_tag(TopologyKind::Custom));
            put_u64(&mut out, 2);
            put_u64(&mut out, couplings.len() as u64);
            for &(a, b) in couplings {
                put_u64(&mut out, a);
                put_u64(&mut out, b);
            }
            put_points(&mut out, &vec![Point::new(0.0, 0.0); coords]);
            out
        };
        assert!(decode_topology(&mut Reader::new(&raw(&[(0, 1)], 2))).is_ok());
        for (couplings, coords) in [
            (&[(1, 1)][..], 2),
            (&[(0, 2)][..], 2),
            (&[(0, 1), (1, 0)][..], 2),
            (&[(0, 1)][..], 3),
        ] {
            let bytes = raw(couplings, coords);
            assert!(
                matches!(
                    decode_topology(&mut Reader::new(&bytes)),
                    Err(CodecError::Malformed(_))
                ),
                "{couplings:?} with {coords} coordinates was accepted"
            );
        }
        assert_eq!(
            decode_topology(&mut Reader::new(&raw(&[(0, 1)], 2)[..20])),
            Err(CodecError::Truncated)
        );
    }
}
