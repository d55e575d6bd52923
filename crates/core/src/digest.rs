//! Stable content identities for flow artifacts — the addressing scheme of the
//! `qgdp-serve` cross-session artifact cache.
//!
//! A stage artifact is a deterministic function of a **stage prefix** of its
//! inputs: a [`GlobalPlacement`](crate::GlobalPlacement) depends on the topology,
//! the netlist-shaping config fields and the global-placer config, but *not* on
//! which legalization strategy or detailed-placer configuration will consume it; a
//! [`CellLegalized`](crate::CellLegalized) adds the strategy; a
//! [`Detailed`](crate::Detailed) adds the detail config.  [`ArtifactKey`] is
//! exactly that prefix: a level tag byte per stage followed by the bytes of
//! the one [`canonical`] codec, the same bytes the
//! `qgdp-serve` snapshot persists:
//!
//! ```text
//! ArtifactKey::session(topology, config)   →  'S' · encode_session   (GP level)
//!     .for_strategy(strategy)              →  + 'L' · encode_strategy (legalized)
//!     .for_detail(&detail_config)          →  + 'D' · encode_detail   (detailed)
//! ```
//!
//! Two keys are equal **iff their canonical byte encodings are equal** — the
//! 64-bit [FNV-1a] digest is only a fast bucketing hint, so a digest collision
//! between differing configurations is harmless *by construction*: the byte
//! comparison still tells them apart.
//!
//! Fault-injected configurations ([`FlowConfig::is_cacheable`] is `false`) must
//! never be cached; the serve layer bypasses its store entirely for them, so they
//! need no key representation.
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/

use crate::canonical;
use crate::detail::DetailedPlacerConfig;
use crate::pipeline::FlowConfig;
use crate::strategy::LegalizationStrategy;
use qgdp_topology::Topology;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A tiny, dependency-free FNV-1a 64-bit streaming hasher.
///
/// Used wherever the repository needs a *stable* digest (cache bucketing,
/// snapshot checksums, placement fingerprints on the serve wire) — unlike
/// [`std::collections::hash_map::DefaultHasher`], the output is identical across
/// processes, platforms and releases.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl StableHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        StableHasher(FNV_OFFSET)
    }

    /// Feeds raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one `u64` (little-endian).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Feeds one `f64` as its IEEE-754 bit pattern.
    pub fn update_f64(&mut self, v: f64) {
        self.update_u64(v.to_bits());
    }

    /// The current digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

/// Stable FNV-1a digest of a byte slice (one-shot convenience).
#[must_use]
pub fn stable_digest(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.update(bytes);
    h.finish()
}

/// Stable fingerprint of a placement: the FNV-1a digest of every coordinate's bit
/// pattern, qubits first then segments, in id order.
///
/// Two placements have equal fingerprints iff they are bit-identical (up to FNV
/// collisions — the serve protocol uses this as a cheap wire-level bit-identity
/// witness, while the test layers compare the placements themselves).
#[must_use]
pub fn placement_fingerprint(placement: &qgdp_netlist::Placement) -> u64 {
    let mut h = StableHasher::new();
    h.update_u64(placement.num_qubits() as u64);
    for q in 0..placement.num_qubits() {
        let p = placement.qubit(qgdp_netlist::QubitId(q));
        h.update_f64(p.x);
        h.update_f64(p.y);
    }
    h.update_u64(placement.num_segments() as u64);
    for s in 0..placement.num_segments() {
        let p = placement.segment(qgdp_netlist::SegmentId(s));
        h.update_f64(p.x);
        h.update_f64(p.y);
    }
    h.finish()
}

/// Level-tag bytes separating the stage-prefix sections of a key encoding, so a
/// session key can never be a prefix-ambiguous encoding of a legalized key.
const TAG_SESSION: u8 = b'S';
const TAG_STRATEGY: u8 = b'L';
const TAG_DETAIL: u8 = b'D';

/// The content-addressed identity of one stage artifact (see the [module
/// docs](self)).
///
/// Equality and ordering are over the full canonical byte encoding; [`Hash`]
/// feeds only the precomputed 64-bit digest (cheap bucketing).
#[derive(Clone)]
pub struct ArtifactKey {
    bytes: Vec<u8>,
    digest: u64,
}

impl ArtifactKey {
    fn from_bytes(bytes: Vec<u8>) -> Self {
        let digest = stable_digest(&bytes);
        ArtifactKey { bytes, digest }
    }

    /// The GP-level (session) identity: the session tag byte followed by
    /// [`canonical::encode_session`].  The detail config, the
    /// `detailed_placement` flag and the fault hooks are *not* part of it:
    /// they cannot change what a GP or legalization produces.
    #[must_use]
    pub fn session(topology: &Topology, config: &FlowConfig) -> Self {
        let mut out = Vec::with_capacity(256);
        out.push(TAG_SESSION);
        canonical::encode_session(topology, config, &mut out);
        ArtifactKey::from_bytes(out)
    }

    /// The legalized-level identity: this key's stage prefix plus `strategy`.
    #[must_use]
    pub fn for_strategy(&self, strategy: LegalizationStrategy) -> Self {
        let mut out = self.bytes.clone();
        out.push(TAG_STRATEGY);
        canonical::encode_strategy(strategy, &mut out);
        ArtifactKey::from_bytes(out)
    }

    /// The detailed-level identity: this key's stage prefix plus the full
    /// detailed-placer configuration ([`canonical::encode_detail`]).
    #[must_use]
    pub fn for_detail(&self, detail: &DetailedPlacerConfig) -> Self {
        let mut out = self.bytes.clone();
        out.push(TAG_DETAIL);
        canonical::encode_detail(detail, &mut out);
        ArtifactKey::from_bytes(out)
    }

    /// The canonical byte encoding (the identity itself).
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The FNV-1a digest of the encoding (a bucketing hint, not the identity).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

impl PartialEq for ArtifactKey {
    fn eq(&self, other: &Self) -> bool {
        // The digest check is a fast negative path; equality is the bytes.
        self.digest == other.digest && self.bytes == other.bytes
    }
}

impl Eq for ArtifactKey {}

impl PartialOrd for ArtifactKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ArtifactKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bytes.cmp(&other.bytes)
    }
}

impl Hash for ArtifactKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

impl fmt::Debug for ArtifactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ArtifactKey({:016x}, {} bytes)",
            self.digest,
            self.bytes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::tests::{prefix_only, AnyInputs, KINDS};
    use proptest::prelude::*;
    use qgdp_geometry::Point;
    use qgdp_netlist::NetModel;
    use qgdp_topology::{StandardTopology, TopologyKind};

    #[test]
    fn fnv_vectors_are_stable() {
        // Classic FNV-1a test vectors.
        assert_eq!(stable_digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(stable_digest(b"foobar"), 0x8594_4171_f739_67e8);
    }

    fn nudge(v: &mut f64) {
        *v = f64::from_bits(v.to_bits() ^ 1);
    }

    /// A named single-field change.
    type Change<T> = (&'static str, fn(&mut T));

    /// A topology from `t`'s name and the given parts.
    fn rebuild(
        t: &Topology,
        kind: TopologyKind,
        couplings: Vec<(usize, usize)>,
        coords: Vec<Point>,
    ) -> Topology {
        Topology::new(t.name(), kind, coords.len(), couplings, coords).with_name(t.name())
    }

    fn topology_changes() -> [Change<Topology>; 5] {
        [
            ("name", |t| {
                *t = t.clone().with_name(format!("{}'", t.name()))
            }),
            ("kind", |t| {
                let at = KINDS.iter().position(|&k| k == t.kind()).unwrap();
                let kind = KINDS[(at + 1) % KINDS.len()];
                *t = rebuild(t, kind, t.couplings().to_vec(), t.coords().to_vec());
            }),
            ("qubit count", |t| {
                let mut coords = t.coords().to_vec();
                coords.push(Point::new(0.0, 0.0));
                *t = rebuild(t, t.kind(), t.couplings().to_vec(), coords);
            }),
            ("couplings", |t| {
                let mut couplings = t.couplings().to_vec();
                if couplings.pop().is_none() {
                    couplings.push((0, 1));
                }
                *t = rebuild(t, t.kind(), couplings, t.coords().to_vec());
            }),
            ("coordinate", |t| {
                let mut coords = t.coords().to_vec();
                nudge(&mut coords[0].y);
                *t = rebuild(t, t.kind(), t.couplings().to_vec(), coords);
            }),
        ]
    }

    fn prefix_changes() -> [Change<FlowConfig>; 19] {
        [
            ("qubit_width", |c| nudge(&mut c.geometry.qubit_width)),
            ("qubit_height", |c| nudge(&mut c.geometry.qubit_height)),
            ("wire_block_size", |c| {
                nudge(&mut c.geometry.wire_block_size)
            }),
            ("padding_length", |c| nudge(&mut c.geometry.padding_length)),
            ("resonator_wirelength", |c| {
                nudge(&mut c.geometry.resonator_wirelength)
            }),
            ("min_qubit_spacing_cells", |c| {
                nudge(&mut c.geometry.min_qubit_spacing_cells)
            }),
            ("net_model", |c| {
                c.net_model = match c.net_model {
                    NetModel::Chain => NetModel::Pseudo,
                    NetModel::Pseudo => NetModel::Clique,
                    NetModel::Clique => NetModel::Chain,
                }
            }),
            ("utilization", |c| nudge(&mut c.gp.utilization)),
            ("iterations", |c| c.gp.iterations ^= 1),
            ("attraction", |c| nudge(&mut c.gp.attraction)),
            ("anchor", |c| nudge(&mut c.gp.anchor)),
            ("repulsion", |c| nudge(&mut c.gp.repulsion)),
            ("damping", |c| nudge(&mut c.gp.damping)),
            ("jitter", |c| nudge(&mut c.gp.jitter)),
            ("qubit_padding_cells", |c| {
                nudge(&mut c.gp.qubit_padding_cells)
            }),
            ("star_threshold", |c| c.gp.star_threshold ^= 1),
            ("seed", |c| c.gp.seed ^= 1),
            ("proximity_threshold", |c| {
                nudge(&mut c.crosstalk.proximity_threshold)
            }),
            ("detuning_threshold_ghz", |c| {
                nudge(&mut c.crosstalk.detuning_threshold_ghz)
            }),
        ]
    }

    fn detail_changes() -> [Change<DetailedPlacerConfig>; 6] {
        [
            ("window_margin_cells", |d| nudge(&mut d.window_margin_cells)),
            ("max_windows", |d| d.max_windows ^= 1),
            ("passes", |d| d.passes ^= 1),
            ("proximity_threshold", |d| {
                nudge(&mut d.crosstalk.proximity_threshold)
            }),
            ("detuning_threshold_ghz", |d| {
                nudge(&mut d.crosstalk.detuning_threshold_ghz)
            }),
            ("fidelity_guided", |d| d.fidelity_guided ^= true),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn session_keys_separate_every_prefix_field(inputs in AnyInputs) {
            let (topology, config, detail) = inputs;
            let key = ArtifactKey::session(&topology, &config);
            prop_assert_eq!(&key, &ArtifactKey::session(&topology.clone(), &config));
            // Fields outside the GP stage prefix must NOT change the identity:
            // a session key is shared by detail-on and detail-off requests.
            prop_assert_eq!(&key, &ArtifactKey::session(&topology, &prefix_only(&config)));
            // Any single encoded field changes the canonical bytes (not merely
            // the digest), so a cache can never conflate them.
            for (field, change) in topology_changes() {
                let mut changed = topology.clone();
                change(&mut changed);
                let other = ArtifactKey::session(&changed, &config);
                prop_assert!(other.bytes() != key.bytes(), "topology {} collided", field);
            }
            for (field, change) in prefix_changes() {
                let mut changed = config;
                change(&mut changed);
                let other = ArtifactKey::session(&topology, &changed);
                prop_assert!(other.bytes() != key.bytes(), "config {} collided", field);
            }
            let strategies: std::collections::BTreeSet<Vec<u8>> = LegalizationStrategy::all()
                .into_iter()
                .map(|s| key.for_strategy(s).bytes().to_vec())
                .collect();
            prop_assert_eq!(strategies.len(), LegalizationStrategy::all().len());
            let detailed = key.for_strategy(LegalizationStrategy::Qgdp).for_detail(&detail);
            for (field, change) in detail_changes() {
                let mut changed = detail;
                change(&mut changed);
                let other = key.for_strategy(LegalizationStrategy::Qgdp).for_detail(&changed);
                prop_assert!(other.bytes() != detailed.bytes(), "detail {} collided", field);
            }
        }
    }

    #[test]
    fn stage_levels_nest_without_ambiguity() {
        let topo = StandardTopology::Grid.build();
        let session = ArtifactKey::session(&topo, &FlowConfig::default());
        let qgdp = session.for_strategy(LegalizationStrategy::Qgdp);
        let tetris = session.for_strategy(LegalizationStrategy::Tetris);
        assert_ne!(qgdp, tetris);
        assert_ne!(session, qgdp);
        let detail = qgdp.for_detail(&crate::DetailedPlacerConfig::new());
        let guided =
            qgdp.for_detail(&crate::DetailedPlacerConfig::new().with_fidelity_guided(true));
        assert_ne!(detail, guided);
        assert_ne!(detail, qgdp);
        // The legalized key literally extends the session key's bytes.
        assert!(qgdp.bytes().starts_with(session.bytes()));
        assert!(detail.bytes().starts_with(qgdp.bytes()));
    }

    #[test]
    fn placement_fingerprint_tracks_bits() {
        let topo = StandardTopology::Grid.build();
        let session = crate::Session::new(&topo, FlowConfig::default().with_seed(3)).unwrap();
        let gp = session.global_place();
        let fp = placement_fingerprint(gp.placement());
        assert_eq!(fp, placement_fingerprint(gp.placement()));
        let mut moved = gp.placement().clone();
        moved.set_qubit(
            qgdp_netlist::QubitId(0),
            qgdp_geometry::Point::new(1.0, 2.0),
        );
        assert_ne!(fp, placement_fingerprint(&moved));
    }
}
