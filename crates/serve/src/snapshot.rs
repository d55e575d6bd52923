//! The binary snapshot file: persists the artifact cache across process
//! restarts without serde or any external dependency.
//!
//! # File layout
//!
//! ```text
//! +----------+---------+-------------+-----------+-------------+
//! | QGDPSNAP | version | payload_len |  payload  | fnv64(body) |
//! |  8 bytes | u32 LE  |   u64 LE    |  n bytes  |   u64 LE    |
//! +----------+---------+-------------+-----------+-------------+
//! ```
//!
//! The payload lists sessions.  Each starts with its session section — the
//! bytes of [`qgdp::canonical::encode_session`], which are the session
//! [`ArtifactKey`](qgdp::ArtifactKey)'s bytes after its level tag — followed
//! by the cached GP, the legalizations (strategy tag first) and the detailed
//! placements (strategy tag, then [`qgdp::canonical::encode_detail`]).  This
//! module owns only the header, the checksum and the stage payloads; the
//! topology and config bytes belong to [`qgdp::canonical`].
//!
//! Loads are **checksum-rejecting**: a truncated or bit-flipped file fails with
//! a typed [`SnapshotError`] (never a panic), and a version the codec does not
//! speak is refused before any payload byte is touched.
//!
//! # Byte stability
//!
//! [`encode`] is canonical: every list (sessions, legalizations, detailed
//! placements) is written sorted by its entries' own encodings, which lead
//! with their identity, and every `f64` is written as its IEEE-754 bit
//! pattern.  Encoding a snapshot, decoding it and encoding the result yields
//! the **same bytes**, regardless of cache insertion or LRU order — the
//! round-trip byte-stability contract of the snapshot test layer.

use qgdp::canonical::{
    decode_detail, decode_session, decode_strategy, encode_detail, encode_session, encode_strategy,
    put_f64, put_points, put_u64, CodecError, Reader,
};
use qgdp::{DetailedPlacerConfig, FlowConfig, LegalizationStrategy, StableHasher};
use qgdp_geometry::Point;
use qgdp_placer::GpStats;
use qgdp_topology::Topology;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The 8-byte magic prefix of every snapshot file.
pub const MAGIC: &[u8; 8] = b"QGDPSNAP";
/// The codec version this build writes and the only one it reads.
pub const VERSION: u32 = 1;

/// A typed snapshot failure.  Every malformed input maps to one of these —
/// decoding never panics.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The header names a version this codec does not speak.
    UnsupportedVersion(u32),
    /// The file ended before the structure it promised.
    Truncated,
    /// The payload checksum does not match the trailer — bit rot or tampering.
    ChecksumMismatch {
        /// Checksum recorded in the file trailer.
        expected: u64,
        /// Checksum of the payload actually read.
        actual: u64,
    },
    /// The payload decoded but described an impossible structure.
    Malformed(String),
    /// An I/O failure while reading or writing the file.
    Io(std::io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a qGDP snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "unsupported snapshot version {v} (this codec speaks {VERSION})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch (trailer {expected:016x}, payload {actual:016x})"
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => SnapshotError::Truncated,
            CodecError::Malformed(what) => SnapshotError::Malformed(what),
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Raw component positions of one placement, decoupled from any netlist handle.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlacementData {
    /// Qubit centres, in id order.
    pub qubits: Vec<Point>,
    /// Wire-block segment centres, in id order.
    pub segments: Vec<Point>,
}

/// One persisted global-placement result.
#[derive(Debug, Clone, PartialEq)]
pub struct GpSnapshot {
    /// Die lower-left corner, width and height.
    pub die: (Point, f64, f64),
    /// The GP positions.
    pub placement: PlacementData,
    /// The placer's quality statistics.
    pub stats: GpStats,
    /// Wall-clock nanoseconds of the original run (restored artifacts report
    /// the original stage cost, not zero).
    pub elapsed_ns: u64,
}

/// One persisted legalization (both stages of one strategy).
#[derive(Debug, Clone, PartialEq)]
pub struct LegalizedSnapshot {
    /// The strategy that produced the layout.
    pub strategy: LegalizationStrategy,
    /// Positions after qubit legalization.
    pub qubit_placement: PlacementData,
    /// Qubit-stage nanoseconds.
    pub qubit_ns: u64,
    /// Positions after wire-block legalization.
    pub cell_placement: PlacementData,
    /// Wire-block-stage nanoseconds.
    pub cell_ns: u64,
}

/// One persisted detailed placement.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedSnapshot {
    /// The strategy of the legalized input layout.
    pub strategy: LegalizationStrategy,
    /// The detailed-placer configuration that produced the refinement.
    pub detail: DetailedPlacerConfig,
    /// The refined positions.
    pub placement: PlacementData,
    /// Number of windows examined.
    pub windows_processed: u64,
    /// Number of windows accepted.
    pub windows_accepted: u64,
    /// Stage nanoseconds.
    pub elapsed_ns: u64,
}

/// Everything persisted for one session identity: the inputs that rebuild the
/// [`qgdp::Session`] plus every cached stage artifact derived from it.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The device topology (self-contained; rebuilt on load).
    pub topology: Topology,
    /// The GP-stage-prefix configuration (geometry, net model, GP, crosstalk).
    /// Detail configs travel per [`DetailedSnapshot`]; fault hooks are never
    /// snapshotted (fault-injected configurations are uncacheable).
    pub config: FlowConfig,
    /// The cached global placement, when one was computed.
    pub gp: Option<GpSnapshot>,
    /// Cached legalizations, at most one per strategy.
    pub legalized: Vec<LegalizedSnapshot>,
    /// Cached detailed placements, at most one per `(strategy, detail)` pair.
    pub detailed: Vec<DetailedSnapshot>,
}

/// A decoded (or to-be-encoded) snapshot: the persistent image of the cache.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// One entry per session identity.
    pub sessions: Vec<SessionSnapshot>,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_placement(out: &mut Vec<u8>, p: &PlacementData) {
    put_points(out, &p.qubits);
    put_points(out, &p.segments);
}

/// Encodes every item on its own, sorts the encodings and appends them behind
/// their count: the canonical, order-free form of a list.
fn push_sorted<T>(out: &mut Vec<u8>, items: &[T], encode: impl Fn(&mut Vec<u8>, &T)) {
    let mut bodies: Vec<Vec<u8>> = items
        .iter()
        .map(|item| {
            let mut body = Vec::new();
            encode(&mut body, item);
            body
        })
        .collect();
    bodies.sort();
    put_u64(out, bodies.len() as u64);
    for body in &bodies {
        out.extend_from_slice(body);
    }
}

fn push_session(out: &mut Vec<u8>, s: &SessionSnapshot) {
    encode_session(&s.topology, &s.config, out);
    match &s.gp {
        None => out.push(0),
        Some(gp) => {
            out.push(1);
            for v in [gp.die.0.x, gp.die.0.y, gp.die.1, gp.die.2] {
                put_f64(out, v);
            }
            push_placement(out, &gp.placement);
            put_f64(out, gp.stats.hpwl);
            put_u64(out, gp.stats.overlaps as u64);
            put_f64(out, gp.stats.max_density);
            put_u64(out, gp.elapsed_ns);
        }
    }
    push_sorted(out, &s.legalized, |out, l| {
        encode_strategy(l.strategy, out);
        push_placement(out, &l.qubit_placement);
        put_u64(out, l.qubit_ns);
        push_placement(out, &l.cell_placement);
        put_u64(out, l.cell_ns);
    });
    push_sorted(out, &s.detailed, |out, d| {
        encode_strategy(d.strategy, out);
        encode_detail(&d.detail, out);
        push_placement(out, &d.placement);
        put_u64(out, d.windows_processed);
        put_u64(out, d.windows_accepted);
        put_u64(out, d.elapsed_ns);
    });
}

/// Encodes `snapshot` into the canonical byte form (header + payload +
/// checksum).  Canonical: the same logical snapshot always encodes to the same
/// bytes, whatever order its vectors arrived in.
#[must_use]
pub fn encode(snapshot: &Snapshot) -> Vec<u8> {
    let mut payload = Vec::new();
    push_sorted(&mut payload, &snapshot.sessions, push_session);

    let mut hasher = StableHasher::new();
    hasher.update(&payload);
    let checksum = hasher.finish();

    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    put_u64(&mut out, checksum);
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn read_placement(r: &mut Reader<'_>, what: &str) -> Result<PlacementData, CodecError> {
    Ok(PlacementData {
        qubits: r.points(what)?,
        segments: r.points(what)?,
    })
}

/// Reads a list written by `push_sorted`.
fn read_list<T>(
    r: &mut Reader<'_>,
    what: &str,
    mut read: impl FnMut(&mut Reader<'_>) -> Result<T, SnapshotError>,
) -> Result<Vec<T>, SnapshotError> {
    let n = r.count(what)?;
    (0..n).map(|_| read(r)).collect()
}

fn read_session(r: &mut Reader<'_>) -> Result<SessionSnapshot, SnapshotError> {
    let (topology, config) = decode_session(r)?;
    let gp = match r.u8()? {
        0 => None,
        1 => Some(GpSnapshot {
            die: (Point::new(r.f64()?, r.f64()?), r.f64()?, r.f64()?),
            placement: read_placement(r, "gp placement")?,
            stats: GpStats {
                hpwl: r.f64()?,
                overlaps: r.count("gp overlap")?,
                max_density: r.f64()?,
            },
            elapsed_ns: r.u64()?,
        }),
        tag => {
            return Err(SnapshotError::Malformed(format!(
                "bad gp-presence flag {tag}"
            )))
        }
    };
    let legalized = read_list(r, "legalized", |r| {
        Ok(LegalizedSnapshot {
            strategy: decode_strategy(r)?,
            qubit_placement: read_placement(r, "qubit placement")?,
            qubit_ns: r.u64()?,
            cell_placement: read_placement(r, "cell placement")?,
            cell_ns: r.u64()?,
        })
    })?;
    let detailed = read_list(r, "detailed", |r| {
        Ok(DetailedSnapshot {
            strategy: decode_strategy(r)?,
            detail: decode_detail(r)?,
            placement: read_placement(r, "detailed placement")?,
            windows_processed: r.u64()?,
            windows_accepted: r.u64()?,
            elapsed_ns: r.u64()?,
        })
    })?;
    Ok(SessionSnapshot {
        topology,
        config,
        gp,
        legalized,
        detailed,
    })
}

/// Decodes a snapshot file image.
///
/// # Errors
///
/// Returns the typed [`SnapshotError`] describing exactly what was wrong:
/// bad magic, unsupported version, truncation, checksum mismatch, or a
/// structurally impossible payload.  Never panics on malformed input.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(r.take(4)?.try_into().expect("4-byte slice"));
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let payload_len = r.u64()? as usize;
    let payload = r.take(payload_len)?;
    let expected = r.u64()?;
    if !r.is_done() {
        return Err(SnapshotError::Malformed(
            "trailing bytes after checksum".into(),
        ));
    }
    let mut hasher = StableHasher::new();
    hasher.update(payload);
    let actual = hasher.finish();
    if actual != expected {
        return Err(SnapshotError::ChecksumMismatch { expected, actual });
    }

    let mut r = Reader::new(payload);
    let sessions = read_list(&mut r, "session", read_session)?;
    if !r.is_done() {
        return Err(SnapshotError::Malformed("trailing payload bytes".into()));
    }
    Ok(Snapshot { sessions })
}

/// Writes `snapshot` to `path` atomically and durably: the bytes go to
/// `<path>.tmp` beside it and are synced to disk before the rename, and the
/// directory after it, so a crash leaves either the old snapshot or the new
/// one, never a partial file.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] on filesystem failures.
pub fn save(path: &Path, snapshot: &Snapshot) -> Result<(), SnapshotError> {
    let tmp = temp_path(path);
    let mut file = File::create(&tmp)?;
    file.write_all(&encode(snapshot))?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    // The rename is durable only once the directory holding it is synced.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(())
}

/// The temp file [`save`] writes first: `path` with `.tmp` appended to its
/// whole file name, so `cache.a` and `cache.b` never share one.
fn temp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Reads and decodes the snapshot at `path`.
///
/// # Errors
///
/// Returns a typed [`SnapshotError`] for I/O failures and every malformed-file
/// shape [`decode`] rejects.
pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
    let bytes = std::fs::read(path)?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgdp_topology::StandardTopology;

    fn sample() -> Snapshot {
        let topology = StandardTopology::Grid.build();
        let config = FlowConfig::default().with_seed(7);
        let placement = PlacementData {
            qubits: vec![Point::new(1.5, 2.5), Point::new(3.25, -4.0)],
            segments: vec![Point::new(0.125, 9.0)],
        };
        Snapshot {
            sessions: vec![SessionSnapshot {
                topology,
                config,
                gp: Some(GpSnapshot {
                    die: (Point::new(0.0, 0.0), 500.0, 400.0),
                    placement: placement.clone(),
                    stats: GpStats {
                        hpwl: 1234.5,
                        overlaps: 3,
                        max_density: 0.75,
                    },
                    elapsed_ns: 1_000_000,
                }),
                legalized: vec![LegalizedSnapshot {
                    strategy: LegalizationStrategy::Qgdp,
                    qubit_placement: placement.clone(),
                    qubit_ns: 10,
                    cell_placement: placement.clone(),
                    cell_ns: 20,
                }],
                detailed: vec![DetailedSnapshot {
                    strategy: LegalizationStrategy::Qgdp,
                    detail: DetailedPlacerConfig::new(),
                    placement,
                    windows_processed: 5,
                    windows_accepted: 2,
                    elapsed_ns: 30,
                }],
            }],
        }
    }

    fn multi_chip_sample() -> Snapshot {
        let mut snapshot = sample();
        let chip = StandardTopology::Grid.build();
        snapshot.sessions[0].topology = qgdp_topology::multi_chip(&chip, 1, 2, 2, 100.0);
        snapshot
    }

    /// Format v1 is frozen: files written by any earlier build must keep
    /// decoding. A layout change fails here; it needs a new `VERSION`.
    #[test]
    fn format_v1_bytes_are_pinned() {
        for (snapshot, digest, len) in [
            (sample(), 0xb6bf_0366_1466_3ff3, 1678),
            (multi_chip_sample(), 0x1bd2_07f4_bcb1_0012, 2764),
        ] {
            let bytes = encode(&snapshot);
            assert_eq!((qgdp::stable_digest(&bytes), bytes.len()), (digest, len));
        }
        assert_eq!(VERSION, 1);
    }

    #[test]
    fn round_trip_is_byte_stable() {
        for snapshot in [sample(), multi_chip_sample()] {
            let bytes = encode(&snapshot);
            let decoded = decode(&bytes).unwrap();
            assert_eq!(decoded, snapshot);
            assert_eq!(
                decoded.sessions[0].topology.kind(),
                snapshot.sessions[0].topology.kind(),
                "the topology kind must survive the round trip"
            );
            assert_eq!(encode(&decoded), bytes, "re-encode must be byte-identical");
        }
    }

    #[test]
    fn session_order_does_not_change_the_bytes() {
        let mut two = sample();
        let mut other = sample().sessions.remove(0);
        other.config = other.config.with_seed(99);
        two.sessions.push(other);
        let forward = encode(&two);
        two.sessions.reverse();
        assert_eq!(encode(&two), forward, "canonical encoding is order-free");
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_length() {
        let bytes = encode(&sample());
        for len in 0..bytes.len() {
            match decode(&bytes[..len]) {
                Err(
                    SnapshotError::Truncated
                    | SnapshotError::BadMagic
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::Malformed(_),
                ) => {}
                other => panic!("truncation at {len} produced {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = encode(&sample());
        // Flipping any payload or trailer bit must be caught by the checksum (or
        // an earlier structural check); header flips trip magic/version/length.
        for byte in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 0x10;
            assert!(
                decode(&corrupt).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn version_mismatch_is_refused() {
        let mut bytes = encode(&sample());
        bytes[8] = 0xFE; // version LE byte 0
        match decode(&bytes) {
            Err(SnapshotError::UnsupportedVersion(v)) => assert_eq!(v, 0x0000_00FE),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_refused() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let bytes = encode(&Snapshot::default());
        assert_eq!(decode(&bytes).unwrap(), Snapshot::default());
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let snapshot = sample();
        let dir =
            std::env::temp_dir().join(format!("qgdp-serve-snapshot-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.qgdpsnap");
        save(&path, &snapshot).unwrap();
        assert_eq!(load(&path).unwrap(), snapshot);
        assert!(!temp_path(&path).exists(), "the temp file is renamed away");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sibling_snapshots_use_distinct_temp_files() {
        let (a, b) = (Path::new("dir/cache.a"), Path::new("dir/cache.b"));
        assert_eq!(temp_path(a), Path::new("dir/cache.a.tmp"));
        assert_ne!(temp_path(a), temp_path(b));
    }

    #[test]
    fn io_errors_are_typed() {
        let missing = Path::new("/nonexistent/qgdp/cache.qgdpsnap");
        assert!(matches!(load(missing), Err(SnapshotError::Io(_))));
    }
}
