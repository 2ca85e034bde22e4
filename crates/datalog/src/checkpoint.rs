//! Durable checkpoint codec: a hand-rolled, versioned, checksummed
//! binary format for dataflow state, plus the atomic-commit file
//! protocol.
//!
//! The build container is offline, so there is no serde — every encoder
//! and decoder here is written by hand against a fixed record layout:
//!
//! ```text
//! file   := magic[4] version(u32 LE) record*
//! record := len(u32 LE) crc32(u32 LE, over payload) payload[len]
//! ```
//!
//! Records carry section payloads (symbol table, per-node operator
//! state, sink contents, queue residue at the [`Dataflow`] layer; the
//! bridge reuses the same framing for its snapshot bundle and WAL).
//! Every record is independently CRC-protected, so a single flipped bit
//! anywhere in a file is detected as [`DataflowError::StateCorruption`]
//! rather than silently restoring drifted state; a truncated file fails
//! the length check of its torn record the same way.
//!
//! **Symbols are process-local.** `Val::Str` packs an interner id
//! ([`Sym::id`]) that a fresh process would resolve to the wrong string
//! (or none at all). Checkpoints therefore open with a snapshot of the
//! writer's symbol table, and [`SymRemap`] re-interns each string on
//! decode, translating every serialized symbol id through the table —
//! tuples round-trip *by string*, not by id.
//!
//! [`Dataflow`]: crate::dataflow::Dataflow

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use crate::error::DataflowError;
use crate::intern::Sym;
use crate::relation::{IndexedMultiset, Multiset};
use crate::value::{Tuple, Val};

/// File magic for dataflow checkpoints.
pub const MAGIC: [u8; 4] = *b"RCKP";
/// Current on-disk format version. Bumped on any layout change; readers
/// reject versions they do not understand instead of misparsing them.
/// Version 2 moved join state out of `HashJoin` payloads into the
/// payloads of the `Arrange` nodes the joins probe.
pub const VERSION: u32 = 2;

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `bytes`.
/// Hand-rolled because the container has no crates.io access; the
/// table is built once at first use.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Slicing-by-8: eight derived tables let the loop fold one 64-bit
    // word per iteration instead of one byte — every restore checksums
    // the full image twice (outer framing + embedded network records),
    // so byte-at-a-time CRC would eat a measurable slice of the restore
    // budget.
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for i in 0..256u32 {
            let mut c = i;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            t[0][i as usize] = c;
        }
        for i in 0..256 {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    });
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes(ch[0..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(ch[4..8].try_into().unwrap());
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

fn corrupt(msg: impl Into<String>) -> DataflowError {
    DataflowError::StateCorruption(msg.into())
}

/// Value tags inside serialized tuples. Mirrors the in-memory packing
/// scheme (`value::pack`) but is an independent on-disk contract: the
/// in-memory tags may change freely, these may not (version-gated).
const TAG_INT: u8 = 0;
const TAG_COST: u8 = 1;
const TAG_SYM: u8 = 2;

/// Section payload encoder: little-endian scalars, length-prefixed
/// strings and tuples, appended to a growable buffer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends pre-encoded bytes verbatim — for embedding a nested
    /// record stream (e.g. a whole dataflow checkpoint) as one record.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Length-prefixed UTF-8.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// One value: tag byte + 8-byte payload. Symbols serialize as their
    /// writer-local id — meaningful only next to the file's symbol
    /// table.
    pub fn val(&mut self, v: Val) {
        match v {
            Val::Int(i) => {
                self.u8(TAG_INT);
                self.i64(i);
            }
            Val::Cost(c) => {
                self.u8(TAG_COST);
                self.f64(c.value());
            }
            Val::Str(s) => {
                self.u8(TAG_SYM);
                self.u64(s.id() as u64);
            }
        }
    }

    /// Length-prefixed value sequence.
    pub fn tuple(&mut self, t: &Tuple) {
        self.u32(t.len() as u32);
        for v in t.values() {
            self.val(v);
        }
    }
}

/// Old-id → live-symbol translation built from a checkpoint's symbol
/// table: entry `i` is the *current process's* symbol for the string
/// the writer had interned at id `i`.
pub struct SymRemap {
    map: Vec<Sym>,
}

impl SymRemap {
    /// The identity map over the current table (encode-side testing).
    pub fn identity() -> SymRemap {
        SymRemap {
            map: Sym::table_snapshot()
                .iter()
                .map(|s| Sym::intern(s))
                .collect(),
        }
    }

    /// Re-interns a decoded symbol table. Interner exhaustion while
    /// adopting a foreign table surfaces as
    /// [`DataflowError::StateCorruption`] (the restore degrades; the
    /// process does not abort).
    pub fn from_strings(strings: &[Arc<str>]) -> Result<SymRemap, DataflowError> {
        let mut map = Vec::with_capacity(strings.len());
        for s in strings {
            map.push(Sym::try_intern(s)?);
        }
        Ok(SymRemap { map })
    }

    fn translate(&self, old_id: u64) -> Result<Sym, DataflowError> {
        self.map
            .get(usize::try_from(old_id).map_err(|_| corrupt("symbol id overflows usize"))?)
            .copied()
            .ok_or_else(|| {
                corrupt(format!(
                    "symbol id {old_id} not covered by the checkpoint's table of {}",
                    self.map.len()
                ))
            })
    }
}

/// Section payload decoder. Every read bounds-checks against the
/// remaining buffer and surfaces [`DataflowError::StateCorruption`] on
/// truncation, so a torn payload can never panic or over-allocate.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    remap: &'a SymRemap,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8], remap: &'a SymRemap) -> Dec<'a> {
        Dec { buf, pos: 0, remap }
    }

    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DataflowError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("payload truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, DataflowError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, DataflowError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, DataflowError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, DataflowError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, DataflowError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> Result<&'a str, DataflowError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| corrupt("string is not UTF-8"))
    }

    /// Decodes one value, translating symbols through the remap.
    pub fn val(&mut self) -> Result<Val, DataflowError> {
        match self.u8()? {
            TAG_INT => Ok(Val::Int(self.i64()?)),
            TAG_COST => Ok(Val::cost(self.f64()?)),
            TAG_SYM => Ok(Val::Str(self.remap.translate(self.u64()?)?)),
            t => Err(corrupt(format!("unknown value tag {t}"))),
        }
    }

    pub fn tuple(&mut self) -> Result<Tuple, DataflowError> {
        let mut scratch = Vec::new();
        self.tuple_into(&mut scratch)
    }

    /// [`Dec::tuple`] decoding through a caller-owned scratch buffer,
    /// so bulk decoders (checkpoint restore's hot loop) pay one
    /// allocation per *relation* instead of one per tuple. Values are a
    /// fixed 9 encoded bytes (tag + 64-bit word), so the whole tuple is
    /// bounds-checked once and parsed from exact chunks.
    pub fn tuple_into(&mut self, scratch: &mut Vec<Val>) -> Result<Tuple, DataflowError> {
        let len = self.u32()? as usize;
        if len > (self.buf.len() - self.pos) / 9 {
            return Err(corrupt("tuple length exceeds payload"));
        }
        let need = len * 9;
        let bytes = &self.buf[self.pos..self.pos + need];
        scratch.clear();
        scratch.reserve(len);
        for ch in bytes.chunks_exact(9) {
            let word = u64::from_le_bytes(ch[1..9].try_into().unwrap());
            scratch.push(match ch[0] {
                TAG_INT => Val::Int(word as i64),
                TAG_COST => Val::cost(f64::from_bits(word)),
                TAG_SYM => Val::Str(self.remap.translate(word)?),
                t => return Err(corrupt(format!("unknown value tag {t}"))),
            });
        }
        self.pos += need;
        Ok(Tuple::from_slice(scratch))
    }

    /// Consumes and returns every remaining byte — the inverse of
    /// [`Enc::raw`], for extracting an embedded nested stream.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Decodes a `u64` count that prefixes a repeated section, capped
    /// by the bytes that could possibly back it (`min_item_bytes` per
    /// item) so a corrupted count cannot drive a huge allocation.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, DataflowError> {
        let n = self.u64()?;
        let cap = (self.buf.len() - self.pos) / min_item_bytes.max(1);
        let n = usize::try_from(n).map_err(|_| corrupt("count overflows usize"))?;
        if n > cap {
            return Err(corrupt(format!("count {n} exceeds payload capacity {cap}")));
        }
        Ok(n)
    }
}

/// Frames CRC-protected records into a checkpoint byte stream.
pub struct RecordWriter {
    out: Vec<u8>,
}

impl RecordWriter {
    /// Starts a stream with the given magic (checkpoints and WALs share
    /// the framing but not the magic).
    pub fn new(magic: [u8; 4]) -> RecordWriter {
        let mut out = Vec::new();
        out.extend_from_slice(&magic);
        out.extend_from_slice(&VERSION.to_le_bytes());
        RecordWriter { out }
    }

    /// Appends one record: length, CRC over the payload, payload.
    pub fn record(&mut self, payload: Enc) {
        let payload = payload.into_bytes();
        self.out
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.out.extend_from_slice(&crc32(&payload).to_le_bytes());
        self.out.extend_from_slice(&payload);
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }
}

/// Frames one standalone record (WAL appends, which cannot buffer the
/// whole stream).
pub fn frame_record(payload: Enc) -> Vec<u8> {
    let payload = payload.into_bytes();
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Walks the records of a checkpoint byte stream, validating the header
/// once and each record's CRC as it is yielded.
pub struct RecordReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RecordReader<'a> {
    pub fn new(bytes: &'a [u8], magic: [u8; 4]) -> Result<RecordReader<'a>, DataflowError> {
        if bytes.len() < 8 {
            return Err(corrupt("file shorter than its header"));
        }
        if bytes[..4] != magic {
            return Err(corrupt(format!(
                "bad magic {:?} (want {:?})",
                &bytes[..4],
                magic
            )));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(corrupt(format!(
                "unsupported format version {version} (reader speaks {VERSION})"
            )));
        }
        Ok(RecordReader { buf: bytes, pos: 8 })
    }

    /// The next record's payload, or `None` at a clean end of stream.
    /// A record whose framed length runs past the file is reported as
    /// truncation; a CRC mismatch as a bit flip — both
    /// [`DataflowError::StateCorruption`].
    pub fn next_record(&mut self) -> Result<Option<&'a [u8]>, DataflowError> {
        if self.pos == self.buf.len() {
            return Ok(None);
        }
        if self.buf.len() - self.pos < 8 {
            return Err(corrupt("torn record header at end of file"));
        }
        let len =
            u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        let want_crc = u32::from_le_bytes(self.buf[self.pos + 4..self.pos + 8].try_into().unwrap());
        let start = self.pos + 8;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("record payload truncated"))?;
        let payload = &self.buf[start..end];
        let got_crc = crc32(payload);
        if got_crc != want_crc {
            return Err(corrupt(format!(
                "record CRC mismatch (stored {want_crc:#010x}, computed {got_crc:#010x})"
            )));
        }
        self.pos = end;
        Ok(Some(payload))
    }
}

/// Encodes the current process's symbol table as a checkpoint's opening
/// record: count, then each string length-prefixed in id order.
pub fn encode_symbol_table() -> Enc {
    let table = Sym::table_snapshot();
    let mut e = Enc::new();
    e.u64(table.len() as u64);
    for s in &table {
        e.str(s);
    }
    e
}

/// Decodes a symbol-table record into a [`SymRemap`] by re-interning
/// every string in the *current* process.
pub fn decode_symbol_table(payload: &[u8]) -> Result<SymRemap, DataflowError> {
    // The table record contains no symbols itself, so decoding it needs
    // no remap; an empty one satisfies the borrow.
    let empty = SymRemap { map: Vec::new() };
    let mut d = Dec::new(payload, &empty);
    // Even an empty string costs its 4-byte length prefix, which bounds
    // how many entries the payload could possibly hold.
    let n = d.count(4)?;
    let mut map = Vec::with_capacity(n);
    for _ in 0..n {
        map.push(Sym::try_intern(d.str()?)?);
    }
    if !d.is_done() {
        return Err(corrupt("trailing bytes after symbol table"));
    }
    Ok(SymRemap { map })
}

/// Minimum encoded bytes per `(tuple, i64)` entry: a 4-byte tuple
/// length prefix plus the 8-byte count (the bound [`Dec::count`] uses
/// to reject fabricated entry counts).
const MIN_ENTRY_BYTES: usize = 12;

/// Serializes a [`Multiset`]'s raw entries — counts of any sign — in
/// sorted tuple order, so identical state produces identical bytes
/// regardless of hash-map iteration order or interner ids.
pub fn encode_multiset(out: &mut Enc, m: &Multiset) {
    let mut entries: Vec<(&Tuple, i64)> = m.entries().collect();
    entries.sort();
    out.u64(entries.len() as u64);
    for (t, c) in entries {
        out.tuple(t);
        out.i64(c);
    }
}

/// Restores a [`Multiset`] from [`encode_multiset`] bytes by clearing
/// it and bulk-loading each entry — visible/negative counters and
/// hashes are rebuilt, never trusted from disk, but the per-tuple
/// allocation and read-modify-write of the generic delta path are
/// skipped (restore latency is the durability feature's budget).
pub fn decode_multiset(d: &mut Dec<'_>, m: &mut Multiset) -> Result<(), DataflowError> {
    m.clear();
    let n = d.count(MIN_ENTRY_BYTES)?;
    m.reserve(n);
    let mut scratch = Vec::new();
    for _ in 0..n {
        let t = d.tuple_into(&mut scratch)?;
        let c = d.i64()?;
        if c != 0 && !m.load_entry(t, c) {
            return Err(corrupt("duplicate tuple in multiset image"));
        }
    }
    Ok(())
}

/// Serializes an [`IndexedMultiset`]'s raw entries in sorted tuple
/// order. Key columns are *not* serialized: they are structural (baked
/// into the rebuilt graph), and the restore target already carries
/// them.
pub fn encode_indexed(out: &mut Enc, m: &IndexedMultiset) {
    let mut entries: Vec<(&Tuple, i64)> = m.entries().collect();
    entries.sort();
    out.u64(entries.len() as u64);
    for (t, c) in entries {
        out.tuple(t);
        out.i64(c);
    }
}

/// Restores an [`IndexedMultiset`] from [`encode_indexed`] bytes,
/// re-hashing every key under the current process's interner. Entries
/// are bulk-loaded straight into their buckets (see
/// [`IndexedMultiset::load_entry`]) — the hot path of a join-heavy
/// network restore.
pub fn decode_indexed(d: &mut Dec<'_>, m: &mut IndexedMultiset) -> Result<(), DataflowError> {
    m.clear();
    let n = d.count(MIN_ENTRY_BYTES)?;
    m.reserve(n);
    let mut scratch = Vec::new();
    for _ in 0..n {
        let t = d.tuple_into(&mut scratch)?;
        let c = d.i64()?;
        if c != 0 && !m.load_entry(t, c) {
            return Err(corrupt("duplicate tuple in indexed-multiset image"));
        }
    }
    Ok(())
}

/// Atomically commits `bytes` to `path`: write to `<path>.tmp`, fsync,
/// rename over the final name, then fsync the parent directory (best
/// effort — some filesystems do not support directory fsync). A crash
/// at any point leaves either the complete old file or the complete new
/// one; a torn `.tmp` is never the live checkpoint.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ints, tup};

    #[test]
    fn crc32_matches_known_vectors() {
        // The catalogue value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn scalars_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i64(-42);
        e.f64(f64::INFINITY);
        e.str("hello");
        let bytes = e.into_bytes();
        let remap = SymRemap::identity();
        let mut d = Dec::new(&bytes, &remap);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), f64::INFINITY);
        assert_eq!(d.str().unwrap(), "hello");
        assert!(d.is_done());
    }

    #[test]
    fn tuples_round_trip_including_symbols() {
        let t = tup([Val::Int(-3), Val::str("ckpt-roundtrip"), Val::cost(2.5)]);
        let mut e = Enc::new();
        e.tuple(&t);
        let bytes = e.into_bytes();
        let remap = SymRemap::identity();
        let mut d = Dec::new(&bytes, &remap);
        assert_eq!(d.tuple().unwrap(), t);
    }

    #[test]
    fn symbols_remap_through_a_shifted_table() {
        // Simulate a foreign process whose table held our strings at
        // different ids: build a remap from an explicit string list and
        // decode a symbol that referenced it by position.
        let foreign: Vec<Arc<str>> = vec![Arc::from("ckpt-b"), Arc::from("ckpt-a")];
        let remap = SymRemap::from_strings(&foreign).unwrap();
        let mut e = Enc::new();
        e.u8(TAG_SYM);
        e.u64(0); // the foreign process's id 0 = "ckpt-b"
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, &remap);
        assert_eq!(d.val().unwrap(), Val::str("ckpt-b"));
    }

    #[test]
    fn out_of_range_symbol_is_corruption_not_panic() {
        let remap = SymRemap::from_strings(&[]).unwrap();
        let mut e = Enc::new();
        e.u8(TAG_SYM);
        e.u64(99);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, &remap);
        assert!(matches!(
            d.val(),
            Err(DataflowError::StateCorruption(_))
        ));
    }

    #[test]
    fn truncated_payload_is_corruption_not_panic() {
        let mut e = Enc::new();
        e.tuple(&ints(&[1, 2, 3]));
        let bytes = e.into_bytes();
        let remap = SymRemap::identity();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut], &remap);
            assert!(d.tuple().is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn record_stream_round_trips() {
        let mut w = RecordWriter::new(MAGIC);
        let mut a = Enc::new();
        a.str("first");
        w.record(a);
        let mut b = Enc::new();
        b.u64(42);
        w.record(b);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes, MAGIC).unwrap();
        let p1 = r.next_record().unwrap().unwrap();
        let remap = SymRemap::identity();
        assert_eq!(Dec::new(p1, &remap).str().unwrap(), "first");
        let p2 = r.next_record().unwrap().unwrap();
        assert_eq!(Dec::new(p2, &remap).u64().unwrap(), 42);
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut w = RecordWriter::new(MAGIC);
        let mut e = Enc::new();
        e.str("payload under test");
        e.u64(7);
        w.record(e);
        let bytes = w.into_bytes();
        for byte in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[byte] ^= 0x10;
            let mut failed = false;
            match RecordReader::new(&evil, MAGIC) {
                Err(_) => failed = true,
                Ok(mut r) => loop {
                    match r.next_record() {
                        Err(_) => {
                            failed = true;
                            break;
                        }
                        Ok(None) => break,
                        Ok(Some(_)) => {}
                    }
                },
            }
            assert!(failed, "flip at byte {byte} slipped through");
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let mut w = RecordWriter::new(MAGIC);
        let mut e = Enc::new();
        e.str("truncate me");
        w.record(e);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let r = RecordReader::new(&bytes[..cut], MAGIC)
                .and_then(|mut r| r.next_record().map(|p| p.is_some()));
            assert!(
                r.is_err() || r == Ok(false),
                "truncation at {cut} produced a record"
            );
        }
    }

    #[test]
    fn symbol_table_round_trips() {
        Sym::intern("ckpt-table-a");
        Sym::intern("ckpt-table-b");
        let payload = encode_symbol_table().into_bytes();
        let remap = decode_symbol_table(&payload).unwrap();
        // In-process the remap is the identity on every live symbol.
        let a = Sym::intern("ckpt-table-a");
        assert_eq!(remap.translate(a.id() as u64).unwrap(), a);
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let dir = std::env::temp_dir().join(format!("reopt-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.bin");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
