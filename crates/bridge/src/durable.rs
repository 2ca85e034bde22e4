//! The optimizer's write-ahead log: every applied [`ParamDelta`] batch
//! is appended — CRC-framed and fsynced — *before* its effects touch
//! the network, so a crash between checkpoints loses nothing that was
//! acknowledged.
//!
//! File layout (shared framing with `reopt_datalog::checkpoint`, its
//! own magic and format version):
//!
//! ```text
//! wal    := "RWAL" version(u32 LE) record*
//! record := len(u32 LE) crc32(u32 LE) payload
//! payload:= seq(u64) count(u32) delta*      delta := tag(u8) id(u32) factor(f64)
//! ```
//!
//! `seq` is the record's zero-based position; a mismatch means records
//! were lost or reordered and is reported as corruption. The WAL is
//! never rewritten in place: checkpoints store a *watermark* (how many
//! records existed when the snapshot was cut) and recovery replays the
//! records past it. A torn final record — the image of a crash mid-
//! append — is discarded (write-ahead means its batch was never
//! applied); damage anywhere earlier is [`DataflowError::StateCorruption`].

use std::io::Write as _;
use std::path::Path;

use reopt_cost::ParamDelta;
use reopt_datalog::checkpoint::{crc32, frame_record, Dec, Enc, SymRemap};
use reopt_datalog::DataflowError;
use reopt_expr::{EdgeId, LeafId};

/// File magic distinguishing WALs from checkpoints.
pub const WAL_MAGIC: [u8; 4] = *b"RWAL";
/// WAL file name inside a durable directory.
pub const WAL_FILE: &str = "wal.bin";
/// Checkpoint file name inside a durable directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// On-disk WAL format version. Independent of the checkpoint codec's:
/// WAL records hold parameter deltas, not operator state, so a layout
/// change in the network's state leaves existing WALs replayable.
const VERSION: u32 = 1;

fn corrupt(msg: impl Into<String>) -> DataflowError {
    DataflowError::StateCorruption(msg.into())
}

const TAG_EDGE_SELECTIVITY: u8 = 0;
const TAG_LEAF_CARDINALITY: u8 = 1;
const TAG_LEAF_SCAN_COST: u8 = 2;

/// Encodes one parameter delta: tag, id, absolute factor.
pub fn encode_delta(e: &mut Enc, d: &ParamDelta) {
    let (tag, id, factor) = match d {
        ParamDelta::EdgeSelectivity(eid, f) => (TAG_EDGE_SELECTIVITY, eid.0, *f),
        ParamDelta::LeafCardinality(l, f) => (TAG_LEAF_CARDINALITY, l.0, *f),
        ParamDelta::LeafScanCost(l, f) => (TAG_LEAF_SCAN_COST, l.0, *f),
    };
    e.u8(tag);
    e.u32(id);
    e.f64(factor);
}

/// Decodes one parameter delta (inverse of [`encode_delta`]).
pub fn decode_delta(d: &mut Dec<'_>) -> Result<ParamDelta, DataflowError> {
    let tag = d.u8()?;
    let id = d.u32()?;
    let factor = d.f64()?;
    match tag {
        TAG_EDGE_SELECTIVITY => Ok(ParamDelta::EdgeSelectivity(EdgeId(id), factor)),
        TAG_LEAF_CARDINALITY => Ok(ParamDelta::LeafCardinality(LeafId(id), factor)),
        TAG_LEAF_SCAN_COST => Ok(ParamDelta::LeafScanCost(LeafId(id), factor)),
        t => Err(corrupt(format!("unknown parameter-delta tag {t}"))),
    }
}

/// Creates (or truncates to) an empty WAL: just the stream header,
/// fsynced so the armed log survives a crash that follows immediately.
pub fn wal_init(path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(&WAL_MAGIC)?;
    f.write_all(&VERSION.to_le_bytes())?;
    f.sync_all()
}

/// Appends one batch as record `seq`, fsyncing before returning — the
/// write-ahead contract: once this returns, recovery will replay the
/// batch even if the process dies before the epoch commits.
pub fn wal_append(path: &Path, seq: u64, deltas: &[ParamDelta]) -> std::io::Result<()> {
    let mut e = Enc::new();
    e.u64(seq);
    e.u32(deltas.len() as u32);
    for d in deltas {
        encode_delta(&mut e, d);
    }
    let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
    f.write_all(&frame_record(e))?;
    f.sync_all()
}

/// Sweeps orphaned `*.tmp` staging files out of a durable directory.
/// The atomic-checkpoint protocol writes `checkpoint.tmp`, fsyncs, then
/// renames — a crash between the write and the rename strands the
/// staging file. An orphan is never live state (the rename is what
/// commits), but left behind it accumulates across crashes and is one
/// `mv` away from masquerading as a checkpoint, so every startup path
/// removes it. Returns how many files were swept; unreadable entries
/// are skipped rather than failing the boot.
pub fn sweep_tmp(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for path in entries.flatten().map(|e| e.path()) {
        if path.extension().is_some_and(|e| e == "tmp")
            && path.is_file()
            && std::fs::remove_file(&path).is_ok()
        {
            swept += 1;
        }
    }
    swept
}

/// The result of scanning a WAL file.
pub struct WalScan {
    /// Every intact batch, in append order (index = record seq).
    pub batches: Vec<Vec<ParamDelta>>,
    /// Bytes covered by the header plus intact records; anything past
    /// this is a torn tail from a crash mid-append.
    pub valid_len: usize,
    /// Whether a torn tail was discarded.
    pub torn: bool,
}

/// Scans a WAL image. A record whose framed length runs past the end
/// of the file is a torn tail — discarded, because write-ahead ordering
/// guarantees its batch was never applied. A CRC mismatch or a sequence
/// gap *within* the intact region is real damage and fails the scan.
pub fn wal_records(bytes: &[u8]) -> Result<WalScan, DataflowError> {
    if bytes.len() < 8 {
        return Err(corrupt("WAL shorter than its header"));
    }
    if bytes[..4] != WAL_MAGIC {
        return Err(corrupt(format!(
            "bad WAL magic {:?} (want {WAL_MAGIC:?})",
            &bytes[..4]
        )));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported WAL version {version} (reader speaks {VERSION})"
        )));
    }
    let empty = SymRemap::from_strings(&[])?;
    let mut batches: Vec<Vec<ParamDelta>> = Vec::new();
    let mut pos = 8usize;
    let mut torn = false;
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            torn = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let want_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let Some(end) = (pos + 8).checked_add(len).filter(|&e| e <= bytes.len()) else {
            torn = true;
            break;
        };
        let payload = &bytes[pos + 8..end];
        if crc32(payload) != want_crc {
            return Err(corrupt(format!(
                "WAL record {} failed its CRC",
                batches.len()
            )));
        }
        let mut d = Dec::new(payload, &empty);
        let seq = d.u64()?;
        if seq != batches.len() as u64 {
            return Err(corrupt(format!(
                "WAL sequence gap: record {} carries seq {seq}",
                batches.len()
            )));
        }
        let count = d.u32()? as usize;
        let mut batch = Vec::new();
        for _ in 0..count {
            batch.push(decode_delta(&mut d)?);
        }
        if !d.is_done() {
            return Err(corrupt(format!(
                "trailing bytes in WAL record {}",
                batches.len()
            )));
        }
        batches.push(batch);
        pos = end;
    }
    // On a torn break `pos` still points at the torn record's start;
    // on a clean scan it equals the file length.
    Ok(WalScan {
        batches,
        valid_len: pos,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batches() -> Vec<Vec<ParamDelta>> {
        vec![
            vec![ParamDelta::EdgeSelectivity(EdgeId(1), 8.0)],
            vec![
                ParamDelta::LeafCardinality(LeafId(2), 0.5),
                ParamDelta::LeafScanCost(LeafId(0), 3.25),
            ],
            vec![],
        ]
    }

    fn written_wal(batches: &[Vec<ParamDelta>]) -> Vec<u8> {
        let dir = std::env::temp_dir().join(format!(
            "reopt-wal-test-{}-{batches:p}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        wal_init(&path).unwrap();
        for (i, b) in batches.iter().enumerate() {
            wal_append(&path, i as u64, b).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        bytes
    }

    #[test]
    fn wal_round_trips_batches_in_order() {
        let batches = sample_batches();
        let scan = wal_records(&written_wal(&batches)).unwrap();
        assert_eq!(scan.batches, batches);
        assert!(!scan.torn);
    }

    #[test]
    fn torn_tail_is_discarded_but_intact_prefix_survives() {
        let batches = sample_batches();
        let bytes = written_wal(&batches);
        let intact_two = {
            // Find where record 2 starts by re-scanning lengths.
            let mut pos = 8;
            for _ in 0..2 {
                let len =
                    u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 8 + len;
            }
            pos
        };
        // Cut mid-record-2: records 0 and 1 survive, the tail is torn.
        for cut in intact_two + 1..bytes.len() {
            let scan = wal_records(&bytes[..cut]).unwrap();
            assert_eq!(scan.batches, batches[..2].to_vec(), "cut at {cut}");
            assert!(scan.torn);
            assert_eq!(scan.valid_len, intact_two);
        }
    }

    #[test]
    fn mid_file_damage_is_corruption_not_silent_loss() {
        let bytes = written_wal(&sample_batches());
        // Flip a payload byte of the first record (skip header + frame).
        let mut evil = bytes.clone();
        evil[8 + 8 + 2] ^= 0x40;
        assert!(matches!(
            wal_records(&evil),
            Err(DataflowError::StateCorruption(_))
        ));
    }

    #[test]
    fn every_delta_kind_round_trips() {
        for d in [
            ParamDelta::EdgeSelectivity(EdgeId(7), 0.125),
            ParamDelta::LeafCardinality(LeafId(3), 1e9),
            ParamDelta::LeafScanCost(LeafId(0), f64::MIN_POSITIVE),
        ] {
            let mut e = Enc::new();
            encode_delta(&mut e, &d);
            let bytes = e.into_bytes();
            let empty = SymRemap::from_strings(&[]).unwrap();
            let mut dec = Dec::new(&bytes, &empty);
            assert_eq!(decode_delta(&mut dec).unwrap(), d);
        }
    }
}
