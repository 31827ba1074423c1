//! Rollback recovery for the networked engine (DESIGN.md §10).
//!
//! Charm++'s production value at Blue Waters scale came as much from
//! checkpoint/restart as from raw messaging: at realistic contact-network
//! scale the mean time between node failures is shorter than a campaign of
//! runs, so a long-lived job must survive process loss. This module holds
//! the engine-agnostic half of that story:
//!
//! * [`RecoverySnapshot`] — the CRC-sealed per-rank epoch shard codec,
//!   and the workspace's one snapshot format: a pause/resume checkpoint
//!   is the one-rank case (`episim-core::checkpoint`). A shard carries
//!   one process's chare-state blobs plus an opaque driver `meta` blob
//!   (counters, intervention state, the curve so far — the driver
//!   decides). The snapshot also records how many messages were still in
//!   flight (sent, not yet consumed) when it was taken; the coordinated
//!   barrier guarantees that number is zero, and `decode` re-checks it so
//!   a snapshot taken outside a quiescent point can never be replayed.
//! * [`commit_file`] — the one torn-write-safe file write (temp file +
//!   fsync + atomic rename), used by every shard and every checkpoint.
//! * [`EpochStore`] — a directory of epoch shards written through
//!   [`commit_file`], with a *commit rule*: an epoch is committed iff the
//!   shards of **all** ranks exist and CRC-validate. Recovery resumes from
//!   the highest committed epoch; the last `keep` committed epochs are
//!   retained, older ones pruned.
//! * [`Backoff`] — deterministic jittered exponential backoff, shared by
//!   the launcher's connect/accept retries and the recovery driver's
//!   respawn loop.
//!
//! The driver half (who takes snapshots, when, and how state is rebuilt)
//! lives in `episim-core::resilient`; the failure detector lives in
//! [`crate::net::comm`]. This file is in simlint R3 scope: a corrupt or
//! missing shard must surface as a typed [`RecoveryError`], never a panic.

use crate::codec::{self, CodecError};
use crate::faults::FaultRng;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

const MAGIC: &[u8; 4] = b"EPRC";
const VERSION: u32 = 1;

/// Why a snapshot or epoch could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The shard (or a record inside it) does not decode: wrong magic or
    /// version, truncated, CRC mismatch, trailing bytes.
    Codec(CodecError),
    /// The snapshot was taken while messages were still in flight — it is
    /// not a consistent cut and must not be replayed.
    NotQuiescent(u64),
    /// An epoch is missing one rank's shard (commit rule violated).
    MissingShard {
        /// Epoch index.
        epoch: u64,
        /// The rank whose shard is absent or invalid.
        rank: u32,
    },
    /// The shards do not form one consistent state of this run: a header
    /// disagrees with the epoch being loaded, the meta records diverge,
    /// the persons are not exactly the ids `0..n`, or the state does not
    /// fit the population or the run it is resumed into.
    ShardMismatch(String),
    /// Filesystem failure (message carries the `io::Error` text).
    Io(String),
    /// Recovery retries exhausted; the job is declared failed.
    Exhausted {
        /// Attempts made (initial run + respawns).
        attempts: u32,
        /// The final failure, as reported by the transport.
        last: String,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Codec(e) => write!(f, "recovery shard does not decode: {e}"),
            RecoveryError::NotQuiescent(n) => {
                write!(f, "snapshot taken with {n} messages still in flight")
            }
            RecoveryError::MissingShard { epoch, rank } => {
                write!(f, "epoch {epoch} is missing rank {rank}'s shard")
            }
            RecoveryError::ShardMismatch(why) => write!(f, "shard mismatch: {why}"),
            RecoveryError::Io(e) => write!(f, "recovery store I/O: {e}"),
            RecoveryError::Exhausted { attempts, last } => {
                write!(
                    f,
                    "recovery exhausted after {attempts} attempts; last failure: {last}"
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<CodecError> for RecoveryError {
    fn from(e: CodecError) -> Self {
        RecoveryError::Codec(e)
    }
}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e.to_string())
    }
}

/// One rank's contribution to a coordinated checkpoint epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverySnapshot {
    /// Epoch index (0-based count of committed checkpoints).
    pub epoch: u64,
    /// The first runtime phase to run after resuming from this epoch.
    pub next_phase: u64,
    /// The rank that took this shard.
    pub rank: u32,
    /// Total ranks participating in the epoch (the commit rule's quorum).
    pub n_ranks: u32,
    /// Messages sent but not yet consumed when the snapshot was taken.
    /// Must be zero — the barrier runs at phase quiescence.
    pub in_flight: u64,
    /// Opaque driver blob: global counters, intervention state, the curve
    /// so far. Identical across ranks by SPMD lockstep.
    pub meta: Vec<u8>,
    /// Per-chare state blobs `(chare id, bytes)` for chares owned by
    /// `rank`, in ascending id order.
    pub chares: Vec<(u32, Vec<u8>)>,
}

impl RecoverySnapshot {
    /// Serialize with the CRC-32 trailer.
    pub fn encode(&self) -> Bytes {
        let body: usize =
            self.meta.len() + self.chares.iter().map(|(_, b)| b.len() + 8).sum::<usize>();
        let mut buf = BytesMut::with_capacity(64 + body);
        codec::put_header(&mut buf, MAGIC, VERSION);
        buf.put_u64_le(self.epoch);
        buf.put_u64_le(self.next_phase);
        buf.put_u32_le(self.rank);
        buf.put_u32_le(self.n_ranks);
        buf.put_u64_le(self.in_flight);
        codec::put_blob(&mut buf, &self.meta);
        buf.put_u32_le(self.chares.len() as u32);
        for (id, bytes) in &self.chares {
            buf.put_u32_le(*id);
            codec::put_blob(&mut buf, bytes);
        }
        codec::seal(buf)
    }

    /// Deserialize, verifying structure, the CRC trailer, and quiescence.
    pub fn decode(data: &[u8]) -> Result<RecoverySnapshot, RecoveryError> {
        let snap = codec::decode_sealed(data, |buf| {
            codec::get_header(buf, MAGIC, VERSION)?;
            let epoch = buf.try_get_u64_le()?;
            let next_phase = buf.try_get_u64_le()?;
            let rank = buf.try_get_u32_le()?;
            let n_ranks = buf.try_get_u32_le()?;
            let in_flight = buf.try_get_u64_le()?;
            let meta = codec::get_blob(buf)?.to_vec();
            let n_chares = codec::get_count(buf, 8)?;
            let mut chares = Vec::with_capacity(n_chares);
            for _ in 0..n_chares {
                let id = buf.try_get_u32_le()?;
                chares.push((id, codec::get_blob(buf)?.to_vec()));
            }
            Ok::<_, CodecError>(RecoverySnapshot {
                epoch,
                next_phase,
                rank,
                n_ranks,
                in_flight,
                meta,
                chares,
            })
        })?;
        if snap.in_flight != 0 {
            return Err(RecoveryError::NotQuiescent(snap.in_flight));
        }
        Ok(snap)
    }
}

/// On-disk store of coordinated checkpoint epochs.
///
/// Layout: `<dir>/epoch-<E>.rank-<R>.rsnap`, one shard per rank per epoch.
/// Shard writes go through [`commit_file`]; the commit rule is
/// structural — an epoch exists iff every rank's shard decodes.
#[derive(Debug, Clone)]
pub struct EpochStore {
    dir: PathBuf,
    keep: u32,
}

impl EpochStore {
    /// Open (creating the directory if needed). `keep` bounds how many
    /// committed epochs [`EpochStore::retain`] preserves; 0 means 1.
    pub fn open(dir: &Path, keep: u32) -> Result<EpochStore, RecoveryError> {
        fs::create_dir_all(dir)?;
        Ok(EpochStore {
            dir: dir.to_path_buf(),
            keep: keep.max(1),
        })
    }

    fn shard_path(&self, epoch: u64, rank: u32) -> PathBuf {
        self.dir
            .join(format!("epoch-{epoch:08}.rank-{rank:04}.rsnap"))
    }

    /// Durably write one rank's shard ([`commit_file`]).
    pub fn commit_shard(&self, snap: &RecoverySnapshot) -> Result<(), RecoveryError> {
        if snap.in_flight != 0 {
            return Err(RecoveryError::NotQuiescent(snap.in_flight));
        }
        Ok(commit_file(
            &self.shard_path(snap.epoch, snap.rank),
            &snap.encode(),
        )?)
    }

    /// Load one rank's shard of an epoch.
    pub fn load_shard(&self, epoch: u64, rank: u32) -> Result<RecoverySnapshot, RecoveryError> {
        let path = self.shard_path(epoch, rank);
        let data = fs::read(&path).map_err(|_| RecoveryError::MissingShard { epoch, rank })?;
        let snap = RecoverySnapshot::decode(&data)?;
        if snap.epoch != epoch || snap.rank != rank {
            return Err(RecoveryError::ShardMismatch(format!(
                "file {} claims epoch {} rank {}",
                path.display(),
                snap.epoch,
                snap.rank
            )));
        }
        Ok(snap)
    }

    /// Load a full committed epoch: every rank's shard, ascending rank.
    pub fn load_epoch(
        &self,
        epoch: u64,
        n_ranks: u32,
    ) -> Result<Vec<RecoverySnapshot>, RecoveryError> {
        let mut shards = Vec::with_capacity(n_ranks as usize);
        for rank in 0..n_ranks {
            let snap = self.load_shard(epoch, rank)?;
            if snap.n_ranks != n_ranks {
                return Err(RecoveryError::ShardMismatch(format!(
                    "epoch {epoch} rank {rank} was taken with {} ranks, expected {n_ranks}",
                    snap.n_ranks
                )));
            }
            shards.push(snap);
        }
        Ok(shards)
    }

    /// Epochs for which at least one shard file exists, ascending.
    fn epochs_on_disk(&self) -> Vec<u64> {
        let mut epochs = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(_) => return epochs,
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(e) = parse_epoch(&name) {
                if !epochs.contains(&e) {
                    epochs.push(e);
                }
            }
        }
        epochs.sort_unstable();
        epochs
    }

    /// The commit rule: the highest epoch whose shards for ranks
    /// `0..n_ranks` all exist and CRC-validate. Torn or corrupt shards
    /// simply disqualify their epoch — recovery falls back to the previous
    /// one.
    pub fn latest_committed(&self, n_ranks: u32) -> Option<u64> {
        self.epochs_on_disk()
            .into_iter()
            .rev()
            .find(|&e| self.load_epoch(e, n_ranks).is_ok())
    }

    /// Prune epochs older than the newest `keep` committed ones
    /// (best-effort; I/O errors are ignored — pruning is hygiene, not
    /// correctness).
    pub fn retain(&self, n_ranks: u32) {
        let committed: Vec<u64> = self
            .epochs_on_disk()
            .into_iter()
            .filter(|&e| self.load_epoch(e, n_ranks).is_ok())
            .collect();
        if committed.len() <= self.keep as usize {
            return;
        }
        let cutoff = committed[committed.len() - self.keep as usize];
        for e in self.epochs_on_disk() {
            if e < cutoff {
                for rank in 0..n_ranks {
                    let _ = fs::remove_file(self.shard_path(e, rank));
                }
            }
        }
    }
}

/// Write `bytes` to `path` so that a crash leaves either the old file or
/// the new one, never a hybrid: a temp file `.<name>.tmp` in the same
/// directory (a name [`EpochStore`] never reads as a shard), write,
/// fsync, atomic rename over `path`, then a best-effort directory fsync
/// so the rename itself survives power loss.
pub fn commit_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!(".{name}.tmp"));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(d) = path.parent().and_then(|d| fs::File::open(d).ok()) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Parse `epoch-<E>.rank-<R>.rsnap`, returning the epoch.
fn parse_epoch(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("epoch-")?;
    if !rest.ends_with(".rsnap") {
        return None;
    }
    let (digits, _) = rest.split_once('.')?;
    digits.parse().ok()
}

/// Deterministic jittered exponential backoff: attempt `k` sleeps
/// `base · 2^k`, scaled by a uniform jitter in `[0.5, 1.5)` drawn from a
/// seeded [`FaultRng`], capped at `cap`. Jitter decorrelates retry storms
/// (every worker reconnecting in lockstep after a root hiccup) without
/// introducing wall-clock-derived nondeterminism — the schedule is a pure
/// function of `(seed, attempt)`.
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    rng: FaultRng,
}

impl Backoff {
    /// `base_ms` for attempt 0, doubling per attempt, never above `cap_ms`.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Backoff {
        Backoff {
            base: Duration::from_millis(base_ms.max(1)),
            cap: Duration::from_millis(cap_ms.max(1)),
            rng: FaultRng::new(seed ^ 0xb0ff_b0ff_b0ff_b0ff),
        }
    }

    /// The delay before retry number `attempt` (0-based).
    pub fn delay(&mut self, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(16));
        let jitter_pm = 500 + self.rng.below(1000); // 0.5x..1.5x in per-mille
        let jittered = exp.saturating_mul(jitter_pm as u32) / 1000;
        jittered.min(self.cap)
    }

    /// Sleep for [`Backoff::delay`] and return the duration slept.
    pub fn sleep(&mut self, attempt: u32) -> Duration {
        let d = self.delay(attempt);
        std::thread::sleep(d);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(epoch: u64, rank: u32, n_ranks: u32) -> RecoverySnapshot {
        RecoverySnapshot {
            epoch,
            next_phase: epoch * 6 + 1,
            rank,
            n_ranks,
            in_flight: 0,
            meta: vec![9, 8, 7, rank as u8],
            chares: vec![(rank * 2, vec![1, 2, 3]), (rank * 2 + 1, vec![])],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("episim-rsnap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn snapshot_roundtrip() {
        let s = snap(3, 1, 4);
        let decoded = RecoverySnapshot::decode(&s.encode()).expect("round trip");
        assert_eq!(decoded, s);
    }

    #[test]
    fn snapshot_corruption_errors_are_typed() {
        let data = snap(0, 0, 1).encode();
        // A body bit-flip is caught by the CRC.
        let mut bad = data.to_vec();
        let mid = data.len() / 2;
        bad[mid] ^= 0x40;
        assert!(matches!(
            RecoverySnapshot::decode(&bad),
            Err(RecoveryError::Codec(CodecError::BadCrc { .. }))
        ));
        // Wrong magic and wrong version are typed.
        let mut m = data.to_vec();
        m[0] = b'X';
        assert_eq!(
            RecoverySnapshot::decode(&m).err(),
            Some(RecoveryError::Codec(CodecError::BadMagic))
        );
        let mut v = data.to_vec();
        v[4] = 99;
        assert!(matches!(
            RecoverySnapshot::decode(&v),
            Err(RecoveryError::Codec(CodecError::BadVersion(99)))
        ));
    }

    #[test]
    fn non_quiescent_snapshot_rejected() {
        let mut s = snap(0, 0, 1);
        s.in_flight = 3;
        let data = s.encode();
        assert_eq!(
            RecoverySnapshot::decode(&data).err(),
            Some(RecoveryError::NotQuiescent(3))
        );
        let store = EpochStore::open(&tmpdir("quiesce"), 2).unwrap();
        assert!(store.commit_shard(&s).is_err());
    }

    #[test]
    fn commit_rule_requires_every_rank() {
        let store = EpochStore::open(&tmpdir("commit"), 2).unwrap();
        store.commit_shard(&snap(0, 0, 2)).unwrap();
        store.commit_shard(&snap(0, 1, 2)).unwrap();
        store.commit_shard(&snap(1, 0, 2)).unwrap();
        // Epoch 1 is missing rank 1: not committed.
        assert_eq!(store.latest_committed(2), Some(0));
        store.commit_shard(&snap(1, 1, 2)).unwrap();
        assert_eq!(store.latest_committed(2), Some(1));
        let shards = store.load_epoch(1, 2).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[1].rank, 1);
    }

    #[test]
    fn torn_shard_disqualifies_its_epoch() {
        let dir = tmpdir("torn");
        let store = EpochStore::open(&dir, 2).unwrap();
        store.commit_shard(&snap(0, 0, 1)).unwrap();
        store.commit_shard(&snap(1, 0, 1)).unwrap();
        // Chop the epoch-1 shard mid-file, as a crash during write would.
        let path = dir.join("epoch-00000001.rank-0000.rsnap");
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 7]).unwrap();
        assert_eq!(store.latest_committed(1), Some(0));
        assert!(matches!(
            store.load_epoch(1, 1),
            Err(RecoveryError::Codec(CodecError::Truncated))
        ));
    }

    #[test]
    fn retain_prunes_old_epochs() {
        let store = EpochStore::open(&tmpdir("retain"), 2).unwrap();
        for e in 0..5 {
            store.commit_shard(&snap(e, 0, 1)).unwrap();
        }
        store.retain(1);
        assert_eq!(store.latest_committed(1), Some(4));
        assert!(store.load_epoch(2, 1).is_err(), "epoch 2 pruned");
        assert!(store.load_epoch(3, 1).is_ok(), "keep=2 preserves epoch 3");
    }

    #[test]
    fn backoff_grows_jitters_and_caps() {
        let mut b = Backoff::new(10, 400, 7);
        let d0 = b.delay(0);
        let d3 = b.delay(3);
        assert!(d0 >= Duration::from_millis(5) && d0 < Duration::from_millis(15));
        assert!(d3 >= Duration::from_millis(40) && d3 < Duration::from_millis(121));
        assert_eq!(b.delay(16), Duration::from_millis(400), "capped");
        // Deterministic: same seed, same schedule.
        let seq = |seed| {
            let mut b = Backoff::new(10, 400, seed);
            (0..6).map(|k| b.delay(k)).collect::<Vec<_>>()
        };
        assert_eq!(seq(42), seq(42));
        assert_ne!(seq(42), seq(43), "jitter depends on the seed");
    }

    #[test]
    fn epoch_filename_parse() {
        assert_eq!(parse_epoch("epoch-00000012.rank-0003.rsnap"), Some(12));
        assert_eq!(parse_epoch(".epoch-00000012.rank-0003.rsnap.tmp"), None);
        assert_eq!(parse_epoch("garbage"), None);
    }
}
