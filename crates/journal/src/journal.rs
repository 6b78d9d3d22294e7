//! Segmented append-only frame log with snapshots, torn-tail repair, and
//! compaction. See the crate docs and `docs/WIRE.md` for the byte layouts.
//!
//! Every disk operation goes through the [`Vfs`] storage seam, so the same
//! code runs against the real filesystem ([`crate::RealFs`], the default) or
//! a deterministic fault injector ([`crate::FaultFs`]) in tests and the
//! `faults` benchmark workload.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::error::JournalError;
use crate::stats::{JournalStats, JournalStatsSnapshot};
use crate::vfs::{locked, RealFs, Vfs, VfsFile};

/// First eight bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"MBDRJRNL";
/// First eight bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MBDRSNAP";
/// On-disk format version written into segment and snapshot headers. Readers
/// accept any version `<=` their own and refuse (typed error, no destructive
/// repair) anything newer.
pub const JOURNAL_VERSION: u16 = 1;
/// Segment header: magic (8) + version (`u16`) + base frame index (`u64`).
pub const SEGMENT_HEADER_LEN: usize = 18;
/// Record header: payload length (`u32`) + CRC-32 of the payload (`u32`).
pub const RECORD_HEADER_LEN: usize = 8;
/// Snapshot header: magic (8) + version (`u16`) + covered frame count (`u64`)
/// + body length (`u32`) + CRC-32 of the body (`u32`).
pub const SNAPSHOT_HEADER_LEN: usize = 26;
/// Upper bound on a single record payload; longer claimed lengths are treated
/// as corruption during open-time scanning.
pub const MAX_RECORD_BYTES: usize = 16 * 1024 * 1024;
/// File-name suffix for segment files (`seg-<base, 20 digits>.mbdrj`).
pub const SEGMENT_FILE_SUFFIX: &str = ".mbdrj";
/// File-name suffix for snapshot files (`snap-<frames, 20 digits>.mbdrs`).
pub const SNAPSHOT_FILE_SUFFIX: &str = ".mbdrs";

const SEGMENT_FILE_PREFIX: &str = "seg-";
const SNAPSHOT_FILE_PREFIX: &str = "snap-";

const CRC32_POLY: u32 = 0xEDB8_8320;

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC32_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = build_crc_table();

/// IEEE CRC-32 (the zlib/zip polynomial) of `bytes`. Allocation-free; used for
/// every record and snapshot checksum in the journal format.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &byte in bytes {
        let index = ((crc ^ u32::from(byte)) & 0xFF) as usize;
        crc = CRC_TABLE[index] ^ (crc >> 8);
    }
    !crc
}

/// When appended records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every appended frame. Maximum durability, slowest.
    PerFrame,
    /// `fdatasync` once every `n` appended frames (`n` is clamped to `>= 1`).
    /// Bounds loss to the last `n - 1` frames on power failure.
    PerBatch(u32),
    /// `fdatasync` when at least this much time has passed since the last
    /// sync, checked on each append. Bounds loss by time, not frame count.
    /// Time is read through [`Vfs::now_nanos`], so tests can drive this
    /// branch with [`crate::FaultFs`]'s deterministic clock.
    Timer(Duration),
}

/// Configuration for [`Journal::open`].
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding segment and snapshot files; created if missing.
    pub dir: PathBuf,
    /// Rotate to a new segment once the active one would exceed this size.
    pub segment_max_bytes: u64,
    /// Flush-to-disk policy for appended frames.
    pub fsync: FsyncPolicy,
    /// Propose a snapshot once this many frames accumulate past the previous
    /// snapshot's floor; `0` disables snapshot proposals entirely.
    pub snapshot_every_frames: u64,
}

impl JournalConfig {
    /// Defaults: 8 MiB segments, fsync every 64 frames, snapshots disabled.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            segment_max_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::PerBatch(64),
            snapshot_every_frames: 0,
        }
    }
}

/// A validated snapshot read back from disk: the frame count it covers and the
/// opaque body (encoded by the caller, e.g. `mbdr-core`'s snapshot codec).
#[derive(Debug, Clone)]
pub struct SnapshotBlob {
    /// Number of journal frames the snapshot covers (its compaction floor).
    pub frames: u64,
    /// Caller-encoded snapshot body; the journal treats it as opaque bytes.
    pub body: Vec<u8>,
}

struct Writer {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Frame index of the active segment's first record; file names and
    /// frame counts past this base are derived from `segment_bytes`.
    base: u64,
    /// Bytes of the active segment known to hold complete records (header
    /// included). Only advanced after a fully successful append, so it is
    /// always a safe truncation point for [`Journal::repair_and_sync`].
    segment_bytes: u64,
    unsynced: u32,
    last_sync_nanos: u64,
}

/// A segmented write-ahead log of already-encoded wire frames.
///
/// [`Journal::open`] repairs any torn tail left by a crash (truncating the
/// first invalid record and discarding unreachable later segments), selects
/// the newest valid snapshot, and positions the writer at the end of the log.
/// Appends are serialized by an internal mutex; all observability counters are
/// atomic and readable through [`Journal::stats`] without locking.
pub struct Journal {
    config: JournalConfig,
    stats: JournalStats,
    vfs: Arc<dyn Vfs>,
    writer: Mutex<Writer>,
    /// Total frames ever appended (monotonic across restarts and compaction).
    frames: AtomicU64,
    /// Frame count covered by the newest installed snapshot.
    snapshot_floor: AtomicU64,
    snapshot_active: AtomicBool,
    recovered_snapshot: Option<(u64, PathBuf)>,
}

impl Journal {
    /// Opens (or creates) the journal in `config.dir` on the real filesystem,
    /// repairing any torn tail.
    ///
    /// Repair policy: segments are scanned in frame order; the first record
    /// with a bad length or checksum truncates its segment at that point, and
    /// every later segment is deleted (records only become durable in order,
    /// so nothing after a torn write is trustworthy). All discarded bytes are
    /// counted in [`JournalStatsSnapshot::truncated_bytes`]. Files written by
    /// a newer format version produce [`JournalError::UnsupportedVersion`]
    /// and are never modified.
    pub fn open(config: JournalConfig) -> Result<Journal, JournalError> {
        Journal::open_with_vfs(config, Arc::new(RealFs))
    }

    /// [`Journal::open`] against an explicit storage implementation — the
    /// entry point for fault-injection tests and the `faults` workload, which
    /// pass a [`crate::FaultFs`].
    pub fn open_with_vfs(
        config: JournalConfig,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Journal, JournalError> {
        vfs.create_dir_all(&config.dir)?;
        let stats = JournalStats::default();
        remove_tmp_files(vfs.as_ref(), &config.dir)?;

        let segments =
            list_numbered(vfs.as_ref(), &config.dir, SEGMENT_FILE_PREFIX, SEGMENT_FILE_SUFFIX)?;
        let mut retained: Vec<(u64, PathBuf)> = Vec::new();
        let mut frames: u64 = 0;
        let mut truncated: u64 = 0;
        let mut unreachable = false;
        for (_, path) in segments {
            if unreachable {
                truncated += vfs.file_len(&path)?;
                vfs.remove_file(&path)?;
                continue;
            }
            match scan_segment(vfs.as_ref(), &path)? {
                SegmentScan::Unreadable { file_len } => {
                    truncated += file_len;
                    vfs.remove_file(&path)?;
                    unreachable = true;
                }
                SegmentScan::Valid { base, records, valid_end, file_len, torn } => {
                    if !retained.is_empty() && base != frames {
                        // Frame indices must be contiguous across segments.
                        truncated += file_len;
                        vfs.remove_file(&path)?;
                        unreachable = true;
                        continue;
                    }
                    if retained.is_empty() {
                        frames = base;
                    }
                    frames += records;
                    if torn {
                        vfs.truncate(&path, valid_end)?;
                        truncated += file_len - valid_end;
                        unreachable = true;
                    }
                    retained.push((base, path));
                }
            }
        }
        if truncated > 0 {
            stats.truncated_bytes.fetch_add(truncated, Ordering::Relaxed);
        }

        let mut recovered_snapshot: Option<(u64, PathBuf)> = None;
        let snapshots =
            list_numbered(vfs.as_ref(), &config.dir, SNAPSHOT_FILE_PREFIX, SNAPSHOT_FILE_SUFFIX)?;
        for (snap_frames, path) in snapshots.into_iter().rev() {
            if recovered_snapshot.is_none() && validate_snapshot(vfs.as_ref(), &path, snap_frames)?
            {
                recovered_snapshot = Some((snap_frames, path));
            } else {
                // Stale (older than the newest valid one) or corrupt: corrupt
                // snapshots are simply ignored — the retained log still covers
                // everything — and removed so they cannot shadow future ones.
                vfs.remove_file(&path)?;
            }
        }
        let snapshot_floor = recovered_snapshot.as_ref().map_or(0, |(n, _)| *n);
        let frames = frames.max(snapshot_floor);

        let writer = match retained.last() {
            Some((base, path)) => {
                let file = vfs.open_append(path)?;
                let segment_bytes = vfs.file_len(path)?;
                Writer {
                    file,
                    path: path.clone(),
                    base: *base,
                    segment_bytes,
                    unsynced: 0,
                    last_sync_nanos: vfs.now_nanos(),
                }
            }
            None => create_segment(vfs.as_ref(), &config.dir, frames)?,
        };

        Ok(Journal {
            config,
            stats,
            vfs,
            writer: Mutex::new(writer),
            frames: AtomicU64::new(frames),
            snapshot_floor: AtomicU64::new(snapshot_floor),
            snapshot_active: AtomicBool::new(false),
            recovered_snapshot,
        })
    }

    /// Appends one already-encoded wire frame as a journal record.
    ///
    /// Steady-state cost is two buffered writes (stack-built 8-byte header +
    /// the borrowed payload slice) with zero heap allocation; segment rotation
    /// and fsyncs are amortized per [`JournalConfig`]. On an I/O error the
    /// segment is truncated back to the last complete record so a partial
    /// header can never be followed by further appends. If that rollback
    /// itself fails (dead disk), the torn bytes stay behind and
    /// [`Journal::repair_and_sync`] removes them once the disk heals.
    pub fn append_frame(&self, bytes: &[u8]) -> Result<(), JournalError> {
        let len = bytes.len();
        if len == 0 || len > MAX_RECORD_BYTES {
            return Err(JournalError::RecordTooLarge { len });
        }
        let mut header = [0u8; RECORD_HEADER_LEN];
        let (len_part, crc_part) = header.split_at_mut(4);
        len_part.copy_from_slice(&(len as u32).to_be_bytes());
        crc_part.copy_from_slice(&crc32(bytes).to_be_bytes());

        let mut writer = locked(&self.writer);
        let record_len = (RECORD_HEADER_LEN + len) as u64;
        if writer.segment_bytes + record_len > self.config.segment_max_bytes
            && writer.segment_bytes > SEGMENT_HEADER_LEN as u64
        {
            self.rotate(&mut writer)?;
        }
        if let Err(err) = write_record(&mut *writer.file, &header, bytes) {
            let keep = writer.segment_bytes;
            let _ = writer.file.set_len(keep);
            return Err(JournalError::Io(err));
        }
        writer.segment_bytes += record_len;
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        self.maybe_sync(&mut writer)
    }

    /// Infallible wrapper around [`Journal::append_frame`] for the ingest hot
    /// path: an append failure is counted in
    /// [`JournalStatsSnapshot::append_errors`] and otherwise dropped, trading
    /// strict durability for availability of the live service (the design
    /// trade-off is documented in `docs/ARCHITECTURE.md`). Returns whether
    /// the append succeeded so callers can track durability state.
    pub fn record_frame(&self, bytes: &[u8]) -> bool {
        let ok = self.append_frame(bytes).is_ok();
        if !ok {
            self.stats.append_errors.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Counts a caller-side durability failure (e.g. a snapshot body that
    /// failed to encode) in [`JournalStatsSnapshot::append_errors`].
    pub fn note_write_error(&self) {
        self.stats.append_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Forces an `fdatasync` of the active segment if any appended frames are
    /// not yet known-durable. Called by graceful shutdown paths.
    pub fn flush(&self) -> Result<(), JournalError> {
        let mut writer = locked(&self.writer);
        if writer.unsynced > 0 {
            writer.file.sync_data()?;
            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            writer.unsynced = 0;
            writer.last_sync_nanos = self.vfs.now_nanos();
        }
        Ok(())
    }

    /// Restores the active segment to a clean, appendable, known-synced state
    /// after append failures: the disk-side half of a degraded-mode re-probe.
    ///
    /// Three messes a dying disk can leave are undone here once it heals:
    /// torn bytes a failed append's own rollback could not remove (the file
    /// is truncated back to the last complete record — `segment_bytes` only
    /// advances on fully successful appends, so it is always the safe
    /// boundary), orphan later segments left by a failed rotation (deleted),
    /// and an unknown sync state (an `fdatasync` is forced). All removed
    /// bytes are counted in [`JournalStatsSnapshot::truncated_bytes`]; none
    /// of them were ever acknowledged. Returns `Ok` only if the disk accepted
    /// every repair write, so a success means appends can flow again.
    pub fn repair_and_sync(&self) -> Result<(), JournalError> {
        let mut writer = locked(&self.writer);
        let segments = list_numbered(
            self.vfs.as_ref(),
            &self.config.dir,
            SEGMENT_FILE_PREFIX,
            SEGMENT_FILE_SUFFIX,
        )?;
        for (base, path) in segments {
            if base > writer.base {
                let len = self.vfs.file_len(&path).unwrap_or(0);
                self.vfs.remove_file(&path)?;
                self.stats.truncated_bytes.fetch_add(len, Ordering::Relaxed);
            }
        }
        let on_disk = self.vfs.file_len(&writer.path)?;
        if on_disk > writer.segment_bytes {
            self.vfs.truncate(&writer.path, writer.segment_bytes)?;
            self.stats.truncated_bytes.fetch_add(on_disk - writer.segment_bytes, Ordering::Relaxed);
        }
        writer.file.sync_data()?;
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        writer.unsynced = 0;
        writer.last_sync_nanos = self.vfs.now_nanos();
        Ok(())
    }

    /// Streams every retained record, in frame order, into `sink(index,
    /// payload)` and returns the number delivered. Intended to be called once
    /// at boot, after [`Journal::open`] and the snapshot restore, before live
    /// appends begin; the writer lock is held for the whole replay. Records
    /// were validated at open, so a failure here is a typed
    /// [`JournalError::Corrupt`] indicating external modification.
    pub fn replay(&self, mut sink: impl FnMut(u64, &[u8])) -> Result<u64, JournalError> {
        let _writer = locked(&self.writer);
        let segments = list_numbered(
            self.vfs.as_ref(),
            &self.config.dir,
            SEGMENT_FILE_PREFIX,
            SEGMENT_FILE_SUFFIX,
        )?;
        let mut delivered = 0u64;
        for (_, path) in segments {
            let bytes = self.vfs.read(&path)?;
            let Some(base) = bytes.get(10..).and_then(be_u64) else {
                return Err(corrupt(&path, 0, "segment header failed revalidation"));
            };
            let mut at = SEGMENT_HEADER_LEN;
            let mut index = base;
            while at < bytes.len() {
                let Some((len, crc)) = record_header(&bytes, at) else {
                    return Err(corrupt(&path, at as u64, "record header failed revalidation"));
                };
                let start = at + RECORD_HEADER_LEN;
                let Some(payload) = bytes.get(start..start + len) else {
                    return Err(corrupt(&path, at as u64, "record body failed revalidation"));
                };
                if crc32(payload) != crc {
                    return Err(corrupt(&path, at as u64, "record checksum failed revalidation"));
                }
                sink(index, payload);
                delivered += 1;
                index += 1;
                at = start + len;
            }
        }
        self.stats.recovered_frames.fetch_add(delivered, Ordering::Relaxed);
        Ok(delivered)
    }

    /// Reads back the newest valid snapshot found at open, if any. The body is
    /// revalidated against its checksum before being returned.
    pub fn load_snapshot(&self) -> Result<Option<SnapshotBlob>, JournalError> {
        let Some((frames, path)) = &self.recovered_snapshot else {
            return Ok(None);
        };
        let bytes = self.vfs.read(path)?;
        match parse_snapshot(&bytes) {
            Some((snap_frames, body)) if snap_frames == *frames => {
                Ok(Some(SnapshotBlob { frames: *frames, body: body.to_vec() }))
            }
            _ => Err(corrupt(path, 0, "snapshot failed revalidation")),
        }
    }

    /// Cheap, lock-free check used once per ingested frame: is a snapshot
    /// worth proposing? True only when snapshots are enabled, none is already
    /// in progress, and at least `snapshot_every_frames` frames have
    /// accumulated past the current floor.
    pub fn snapshot_pending(&self) -> bool {
        let every = self.config.snapshot_every_frames;
        if every == 0 || self.snapshot_active.load(Ordering::Relaxed) {
            return false;
        }
        let frames = self.frames.load(Ordering::Relaxed);
        frames.saturating_sub(self.snapshot_floor.load(Ordering::Relaxed)) >= every
    }

    /// Claims the snapshot-in-progress slot and returns the frame count the
    /// snapshot must cover, or `None` if another snapshot is running or the
    /// threshold is not actually met. Every successful `begin_snapshot` must
    /// be paired with [`Journal::install_snapshot`] or
    /// [`Journal::abort_snapshot`].
    pub fn begin_snapshot(&self) -> Option<u64> {
        if self.config.snapshot_every_frames == 0 {
            return None;
        }
        if self
            .snapshot_active
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        let frames = self.frames.load(Ordering::Relaxed);
        let floor = self.snapshot_floor.load(Ordering::Relaxed);
        if frames.saturating_sub(floor) < self.config.snapshot_every_frames {
            self.snapshot_active.store(false, Ordering::Release);
            return None;
        }
        Some(frames)
    }

    /// Claims the snapshot-in-progress slot *unconditionally* — ignoring the
    /// `snapshot_every_frames` threshold, and available even when periodic
    /// snapshots are disabled. Used by degraded-mode recovery to re-establish
    /// a durability floor from live tracker state. Returns `None` only while
    /// another snapshot is in progress; the same pairing rules as
    /// [`Journal::begin_snapshot`] apply.
    pub fn begin_forced_snapshot(&self) -> Option<u64> {
        if self
            .snapshot_active
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        Some(self.frames.load(Ordering::Relaxed))
    }

    /// Releases the snapshot-in-progress slot after a failed snapshot attempt.
    pub fn abort_snapshot(&self) {
        self.snapshot_active.store(false, Ordering::Release);
    }

    /// Durably installs a snapshot body covering `frames` journal frames:
    /// write to a temp file, fsync, rename into place, then compact — older
    /// snapshots and every segment lying entirely below `frames` are deleted.
    /// Releases the slot claimed by [`Journal::begin_snapshot`].
    pub fn install_snapshot(&self, frames: u64, body: &[u8]) -> Result<(), JournalError> {
        let result = self.install_snapshot_inner(frames, body);
        self.snapshot_active.store(false, Ordering::Release);
        result
    }

    /// Total frames ever appended to this journal (monotonic across restarts;
    /// compaction does not decrease it).
    pub fn frames_appended(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Frame count covered by the newest installed snapshot (0 if none).
    pub fn snapshot_floor(&self) -> u64 {
        self.snapshot_floor.load(Ordering::Relaxed)
    }

    /// Frame count of the snapshot selected at open, if one was found.
    pub fn recovered_snapshot_frames(&self) -> Option<u64> {
        self.recovered_snapshot.as_ref().map(|(frames, _)| *frames)
    }

    /// Point-in-time copy of the journal's counters.
    pub fn stats(&self) -> JournalStatsSnapshot {
        self.stats.snapshot()
    }

    /// Directory holding the journal's segment and snapshot files.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// The configuration this journal was opened with.
    pub fn config(&self) -> &JournalConfig {
        &self.config
    }

    fn maybe_sync(&self, writer: &mut Writer) -> Result<(), JournalError> {
        writer.unsynced = writer.unsynced.saturating_add(1);
        let due = match self.config.fsync {
            FsyncPolicy::PerFrame => true,
            FsyncPolicy::PerBatch(n) => writer.unsynced >= n.max(1),
            FsyncPolicy::Timer(interval) => {
                let elapsed = self.vfs.now_nanos().saturating_sub(writer.last_sync_nanos);
                u128::from(elapsed) >= interval.as_nanos()
            }
        };
        if due {
            writer.file.sync_data()?;
            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            writer.unsynced = 0;
            writer.last_sync_nanos = self.vfs.now_nanos();
        }
        Ok(())
    }

    fn rotate(&self, writer: &mut Writer) -> Result<(), JournalError> {
        writer.file.sync_data()?;
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        let base = self.frames.load(Ordering::Relaxed);
        *writer = create_segment(self.vfs.as_ref(), &self.config.dir, base)?;
        Ok(())
    }

    fn install_snapshot_inner(&self, frames: u64, body: &[u8]) -> Result<(), JournalError> {
        if body.len() > u32::MAX as usize {
            return Err(JournalError::RecordTooLarge { len: body.len() });
        }
        let final_path = self
            .config
            .dir
            .join(format!("{SNAPSHOT_FILE_PREFIX}{frames:020}{SNAPSHOT_FILE_SUFFIX}"));
        let tmp_path = final_path.with_extension("tmp");
        let mut header = Vec::with_capacity(SNAPSHOT_HEADER_LEN);
        header.extend_from_slice(&SNAPSHOT_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_be_bytes());
        header.extend_from_slice(&frames.to_be_bytes());
        header.extend_from_slice(&(body.len() as u32).to_be_bytes());
        header.extend_from_slice(&crc32(body).to_be_bytes());
        {
            let mut file = self.vfs.create(&tmp_path)?;
            file.write_all(&header)?;
            file.write_all(body)?;
            file.sync_all()?;
            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        self.vfs.rename(&tmp_path, &final_path)?;
        self.stats.snapshots.fetch_add(1, Ordering::Relaxed);
        self.snapshot_floor.store(frames, Ordering::Relaxed);
        self.compact(frames, &final_path)
    }

    fn compact(&self, floor: u64, keep_snapshot: &Path) -> Result<(), JournalError> {
        for (_, path) in list_numbered(
            self.vfs.as_ref(),
            &self.config.dir,
            SNAPSHOT_FILE_PREFIX,
            SNAPSHOT_FILE_SUFFIX,
        )? {
            if path != *keep_snapshot {
                let _ = self.vfs.remove_file(&path);
            }
        }
        // A segment is dead iff the NEXT segment starts at or below the floor
        // (all of its records are then covered by the snapshot). The active
        // segment is always last and therefore never removed; the writer lock
        // is held so rotation cannot race the deletions.
        let writer = locked(&self.writer);
        let segments = list_numbered(
            self.vfs.as_ref(),
            &self.config.dir,
            SEGMENT_FILE_PREFIX,
            SEGMENT_FILE_SUFFIX,
        )?;
        for pair in segments.windows(2) {
            let (Some((_, path)), Some((next_base, _))) = (pair.first(), pair.get(1)) else {
                continue;
            };
            if *next_base <= floor && *path != writer.path {
                let _ = self.vfs.remove_file(path);
            }
        }
        drop(writer);
        Ok(())
    }
}

fn write_record(file: &mut dyn VfsFile, header: &[u8], payload: &[u8]) -> io::Result<()> {
    file.write_all(header)?;
    file.write_all(payload)
}

enum SegmentScan {
    /// Header missing, short, or wrong magic: the file (and everything after
    /// it) is treated as an unreachable torn tail.
    Unreadable {
        file_len: u64,
    },
    Valid {
        base: u64,
        records: u64,
        valid_end: u64,
        file_len: u64,
        torn: bool,
    },
}

fn scan_segment(vfs: &dyn Vfs, path: &Path) -> Result<SegmentScan, JournalError> {
    let bytes = vfs.read(path)?;
    let file_len = bytes.len() as u64;
    if bytes.len() < SEGMENT_HEADER_LEN || bytes.get(..8) != Some(&SEGMENT_MAGIC[..]) {
        return Ok(SegmentScan::Unreadable { file_len });
    }
    let Some(version) = bytes.get(8..).and_then(be_u16) else {
        return Ok(SegmentScan::Unreadable { file_len });
    };
    if version > JOURNAL_VERSION {
        return Err(JournalError::UnsupportedVersion {
            path: path.to_path_buf(),
            version,
            supported: JOURNAL_VERSION,
        });
    }
    let Some(base) = bytes.get(10..).and_then(be_u64) else {
        return Ok(SegmentScan::Unreadable { file_len });
    };
    let mut at = SEGMENT_HEADER_LEN;
    let mut records = 0u64;
    let mut torn = false;
    while at < bytes.len() {
        let Some((len, crc)) = record_header(&bytes, at) else {
            torn = true;
            break;
        };
        let start = at + RECORD_HEADER_LEN;
        let Some(payload) = bytes.get(start..start + len) else {
            torn = true;
            break;
        };
        if crc32(payload) != crc {
            torn = true;
            break;
        }
        records += 1;
        at = start + len;
    }
    Ok(SegmentScan::Valid { base, records, valid_end: at as u64, file_len, torn })
}

fn record_header(bytes: &[u8], at: usize) -> Option<(usize, u32)> {
    let header = bytes.get(at..at + RECORD_HEADER_LEN)?;
    let len = be_u32(header)? as usize;
    let crc = header.get(4..).and_then(be_u32)?;
    if len == 0 || len > MAX_RECORD_BYTES {
        return None;
    }
    Some((len, crc))
}

fn validate_snapshot(vfs: &dyn Vfs, path: &Path, expect_frames: u64) -> Result<bool, JournalError> {
    let bytes = vfs.read(path)?;
    if bytes.get(..8) != Some(&SNAPSHOT_MAGIC[..]) {
        return Ok(false);
    }
    let Some(version) = bytes.get(8..).and_then(be_u16) else {
        return Ok(false);
    };
    if version > JOURNAL_VERSION {
        return Err(JournalError::UnsupportedVersion {
            path: path.to_path_buf(),
            version,
            supported: JOURNAL_VERSION,
        });
    }
    Ok(matches!(parse_snapshot(&bytes), Some((frames, _)) if frames == expect_frames))
}

/// Parses and checksum-validates a snapshot file image, returning the covered
/// frame count and the body slice.
fn parse_snapshot(bytes: &[u8]) -> Option<(u64, &[u8])> {
    if bytes.get(..8) != Some(&SNAPSHOT_MAGIC[..]) {
        return None;
    }
    let version = bytes.get(8..).and_then(be_u16)?;
    if version > JOURNAL_VERSION {
        return None;
    }
    let frames = bytes.get(10..).and_then(be_u64)?;
    let len = bytes.get(18..).and_then(be_u32)? as usize;
    let crc = bytes.get(22..).and_then(be_u32)?;
    let body = bytes.get(SNAPSHOT_HEADER_LEN..SNAPSHOT_HEADER_LEN + len)?;
    if SNAPSHOT_HEADER_LEN + len != bytes.len() || crc32(body) != crc {
        return None;
    }
    Some((frames, body))
}

fn create_segment(vfs: &dyn Vfs, dir: &Path, base: u64) -> Result<Writer, JournalError> {
    let path = dir.join(format!("{SEGMENT_FILE_PREFIX}{base:020}{SEGMENT_FILE_SUFFIX}"));
    let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
    header.extend_from_slice(&SEGMENT_MAGIC);
    header.extend_from_slice(&JOURNAL_VERSION.to_be_bytes());
    header.extend_from_slice(&base.to_be_bytes());
    let mut file = vfs.create_new_append(&path)?;
    if let Err(err) = file.write_all(&header) {
        // Best effort: do not leave a partial-header segment behind. If even
        // the remove fails (dead disk), open-time scanning or
        // `repair_and_sync` will discard it later.
        drop(file);
        let _ = vfs.remove_file(&path);
        return Err(JournalError::Io(err));
    }
    Ok(Writer {
        file,
        path,
        base,
        segment_bytes: SEGMENT_HEADER_LEN as u64,
        unsynced: 0,
        last_sync_nanos: vfs.now_nanos(),
    })
}

fn list_numbered(
    vfs: &dyn Vfs,
    dir: &Path,
    prefix: &str,
    suffix: &str,
) -> Result<Vec<(u64, PathBuf)>, JournalError> {
    let mut out = Vec::new();
    for name in vfs.read_dir_names(dir)? {
        let Some(stem) = name.strip_prefix(prefix).and_then(|s| s.strip_suffix(suffix)) else {
            continue;
        };
        let Ok(value) = stem.parse::<u64>() else { continue };
        out.push((value, dir.join(&name)));
    }
    out.sort_unstable_by_key(|(value, _)| *value);
    Ok(out)
}

fn remove_tmp_files(vfs: &dyn Vfs, dir: &Path) -> Result<(), JournalError> {
    for name in vfs.read_dir_names(dir)? {
        if name.ends_with(".tmp") {
            let _ = vfs.remove_file(&dir.join(&name));
        }
    }
    Ok(())
}

fn corrupt(path: &Path, offset: u64, reason: &'static str) -> JournalError {
    JournalError::Corrupt { path: path.to_path_buf(), offset, reason }
}

fn be_u16(bytes: &[u8]) -> Option<u16> {
    let arr: [u8; 2] = bytes.get(..2)?.try_into().ok()?;
    Some(u16::from_be_bytes(arr))
}

fn be_u32(bytes: &[u8]) -> Option<u32> {
    let arr: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
    Some(u32::from_be_bytes(arr))
}

fn be_u64(bytes: &[u8]) -> Option<u64> {
    let arr: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
    Some(u64::from_be_bytes(arr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultFs, FaultKind};
    use std::fs;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("mbdr-journal-unit-{}-{tag}-{seq}", std::process::id()))
    }

    fn cleanup(dir: &Path) {
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_reopen_replay_roundtrip() {
        let dir = temp_dir("roundtrip");
        let config = JournalConfig::new(&dir);
        let journal = Journal::open(config.clone()).expect("open");
        for i in 0u8..10 {
            journal.append_frame(&[i, i, i]).expect("append");
        }
        journal.flush().expect("flush");
        assert_eq!(journal.frames_appended(), 10);
        drop(journal);

        let journal = Journal::open(config).expect("reopen");
        assert_eq!(journal.frames_appended(), 10);
        let mut seen = Vec::new();
        let n =
            journal.replay(|index, payload| seen.push((index, payload.to_vec()))).expect("replay");
        assert_eq!(n, 10);
        assert_eq!(seen.len(), 10);
        assert_eq!(seen[0], (0, vec![0, 0, 0]));
        assert_eq!(seen[9], (9, vec![9, 9, 9]));
        assert_eq!(journal.stats().recovered_frames, 10);
        cleanup(&dir);
    }

    #[test]
    fn rotation_keeps_frames_contiguous() {
        let dir = temp_dir("rotate");
        let mut config = JournalConfig::new(&dir);
        config.segment_max_bytes = 64; // force frequent rotation
        let journal = Journal::open(config.clone()).expect("open");
        for i in 0u8..20 {
            journal.append_frame(&[i; 16]).expect("append");
        }
        drop(journal);
        let journal = Journal::open(config).expect("reopen");
        let mut indices = Vec::new();
        journal.replay(|index, _| indices.push(index)).expect("replay");
        assert_eq!(indices, (0..20).collect::<Vec<_>>());
        cleanup(&dir);
    }

    #[test]
    fn snapshot_install_compacts_old_segments() {
        let dir = temp_dir("compact");
        let mut config = JournalConfig::new(&dir);
        config.segment_max_bytes = 64;
        config.snapshot_every_frames = 8;
        let journal = Journal::open(config.clone()).expect("open");
        for i in 0u8..10 {
            journal.append_frame(&[i; 16]).expect("append");
        }
        let frames = journal.begin_snapshot().expect("snapshot due");
        journal.install_snapshot(frames, b"snapshot-body").expect("install");
        assert_eq!(journal.stats().snapshots, 1);
        assert_eq!(journal.snapshot_floor(), frames);
        drop(journal);

        let journal = Journal::open(config).expect("reopen");
        let blob = journal.load_snapshot().expect("load").expect("present");
        assert_eq!(blob.frames, frames);
        assert_eq!(blob.body, b"snapshot-body");
        let mut first = None;
        journal
            .replay(|index, _| {
                if first.is_none() {
                    first = Some(index);
                }
            })
            .expect("replay");
        // Everything before the retained segment's base was compacted away.
        let first = first.expect("tail survives");
        assert!(first <= frames, "tail starts at {first}, floor {frames}");
        assert!(journal.frames_appended() >= frames);
        cleanup(&dir);
    }

    #[test]
    fn oversized_and_empty_records_are_rejected() {
        let dir = temp_dir("reject");
        let journal = Journal::open(JournalConfig::new(&dir)).expect("open");
        assert!(matches!(journal.append_frame(&[]), Err(JournalError::RecordTooLarge { len: 0 })));
        assert_eq!(journal.stats().appends, 0);
        cleanup(&dir);
    }

    #[test]
    fn forced_snapshot_ignores_threshold_and_disabled_config() {
        let dir = temp_dir("forced-snap");
        // Snapshots disabled entirely: begin_snapshot refuses...
        let journal = Journal::open(JournalConfig::new(&dir)).expect("open");
        for i in 0u8..3 {
            journal.append_frame(&[i; 4]).expect("append");
        }
        assert_eq!(journal.begin_snapshot(), None);
        // ...but a forced snapshot still claims the slot and installs.
        let frames = journal.begin_forced_snapshot().expect("forced");
        assert_eq!(frames, 3);
        assert_eq!(journal.begin_forced_snapshot(), None, "slot is exclusive");
        journal.install_snapshot(frames, b"forced-floor").expect("install");
        assert_eq!(journal.snapshot_floor(), 3);
        drop(journal);
        let journal = Journal::open(JournalConfig::new(&dir)).expect("reopen");
        assert_eq!(journal.load_snapshot().expect("load").expect("present").frames, 3);
        cleanup(&dir);
    }

    #[test]
    fn timer_policy_syncs_only_at_or_past_the_interval() {
        let dir = temp_dir("timer");
        let mut config = JournalConfig::new(&dir);
        let interval = Duration::from_millis(100);
        config.fsync = FsyncPolicy::Timer(interval);
        let faults = FaultFs::over_real();
        let journal = Journal::open_with_vfs(config, Arc::new(faults.clone())).expect("open");
        // last_sync was initialized at clock 0; elapsed is 0 < interval.
        journal.append_frame(b"t0").expect("append");
        assert_eq!(journal.stats().fsyncs, 0, "elapsed 0 is below the interval");
        // One nanosecond short of the boundary: still no sync.
        faults.advance_clock(interval - Duration::from_nanos(1));
        journal.append_frame(b"t1").expect("append");
        assert_eq!(journal.stats().fsyncs, 0, "interval - 1ns is below the boundary");
        // Exactly at the boundary: the policy is `>=`, so this syncs.
        faults.advance_clock(Duration::from_nanos(1));
        journal.append_frame(b"t2").expect("append");
        assert_eq!(journal.stats().fsyncs, 1, "exactly the interval fires the sync");
        // The sync reset the reference point: the next append is not due.
        journal.append_frame(b"t3").expect("append");
        assert_eq!(journal.stats().fsyncs, 1);
        // Far past the interval: due again.
        faults.advance_clock(interval * 3);
        journal.append_frame(b"t4").expect("append");
        assert_eq!(journal.stats().fsyncs, 2);
        cleanup(&dir);
    }

    #[test]
    fn timer_reference_point_also_resets_on_explicit_flush() {
        let dir = temp_dir("timer-flush");
        let mut config = JournalConfig::new(&dir);
        let interval = Duration::from_millis(50);
        config.fsync = FsyncPolicy::Timer(interval);
        let faults = FaultFs::over_real();
        let journal = Journal::open_with_vfs(config, Arc::new(faults.clone())).expect("open");
        journal.append_frame(b"a").expect("append");
        faults.advance_clock(interval - Duration::from_nanos(1));
        journal.flush().expect("flush");
        assert_eq!(journal.stats().fsyncs, 1, "flush always syncs pending frames");
        // flush() moved last_sync to now; the boundary is a full interval away.
        faults.advance_clock(interval - Duration::from_nanos(1));
        journal.append_frame(b"b").expect("append");
        assert_eq!(journal.stats().fsyncs, 1, "not due after the flush reset");
        faults.advance_clock(Duration::from_nanos(1));
        journal.append_frame(b"c").expect("append");
        assert_eq!(journal.stats().fsyncs, 2);
        cleanup(&dir);
    }

    #[test]
    fn repair_and_sync_removes_torn_bytes_and_orphan_segments() {
        let dir = temp_dir("repair");
        let faults = FaultFs::over_real();
        let journal = Journal::open_with_vfs(JournalConfig::new(&dir), Arc::new(faults.clone()))
            .expect("open");
        journal.append_frame(b"good-frame").expect("append");
        // Tear the next append's record header (4 of 8 bytes land) and let
        // the rollback fail too — the crash-consistent torn shape. Ops so
        // far: create=0, segment header=1, append writes=2,3 → next is 4.
        faults.schedule_fault(4, FaultKind::TornWrite { keep: 4 });
        assert!(journal.append_frame(b"lost-frame").is_err());
        // While the disk is dead, repair itself fails cleanly.
        faults.set_dead(true);
        assert!(journal.repair_and_sync().is_err(), "repair needs a live disk");
        faults.set_dead(false);
        journal.repair_and_sync().expect("repair after heal");
        assert!(journal.stats().truncated_bytes > 0, "torn bytes were counted");
        // The journal accepts appends again and a reopen agrees on content.
        journal.append_frame(b"post-repair").expect("append");
        journal.flush().expect("flush");
        assert_eq!(journal.frames_appended(), 2);
        drop(journal);
        let journal = Journal::open(JournalConfig::new(&dir)).expect("reopen");
        let mut seen = Vec::new();
        journal.replay(|_, payload| seen.push(payload.to_vec())).expect("replay");
        assert_eq!(seen, vec![b"good-frame".to_vec(), b"post-repair".to_vec()]);
        assert_eq!(journal.stats().truncated_bytes, 0, "nothing left to repair");
        cleanup(&dir);
    }
}
