//! Same-host shared-memory transport: lock-free SPSC byte rings.
//!
//! The TCP mesh pays two syscalls and a full kernel round-trip per flush;
//! `BENCH_netpath.json` measured that at ~27.5 µs/msg inter-process versus
//! ~94 ns intra-process. This module closes most of that gap for workers
//! that share a host: one `memfd` region holds an n×n matrix of
//! single-producer/single-consumer byte rings, the fd is inherited across
//! the SPMD re-exec (`launch.rs` passes its number in an env var), and
//! BATCH frames and the phase protocol (completion detection, the phase
//! close, shutdown) move compute-thread → ring → compute-thread with no
//! comm thread and no kernel in the steady state. Handshakes and liveness
//! heartbeats stay on TCP — peer death is still detected as a socket EOF,
//! so the worker exit-code contract (16/17) is untouched.
//!
//! Layout (normative; DESIGN.md §8 carries the diagram):
//!
//! ```text
//! offset 0      header page: magic u64 | version u32 | n_procs u32
//!               | ring_bytes u64 | invocation u64
//! offset 4096   doorbells: one 64-byte cell per rank
//!               (seq: AtomicU32 @0, waiters: AtomicU32 @4)
//! offset 8192   ring slots, row-major by (src, dst), each:
//!               head: AtomicU64 @0    -- consumer cursor, consumer-owned
//!               tail: AtomicU64 @64   -- producer cursor, producer-owned
//!               data: ring_bytes      -- power-of-two byte ring @128
//! ```
//!
//! Ownership and ordering rules:
//!
//! * Slot `(src, dst)` is written only by rank `src` and read only by rank
//!   `dst` — SPSC by construction, no CAS anywhere.
//! * Cursors are monotonic u64 byte counts; the ring index is
//!   `cursor & (ring_bytes - 1)`. They never wrap in any realistic run
//!   (2^64 bytes).
//! * Producer: load `head` (Acquire), copy bytes in, store `tail`
//!   (Release). Consumer: load `tail` (Acquire), copy bytes out, store
//!   `head` (Release). The Release/Acquire pair on `tail` publishes the
//!   data; the one on `head` publishes the free space.
//! * A frame is pushed atomically or not at all ([`RingProducer::try_push`]),
//!   so a reader can never observe a torn frame boundary — partially
//!   *read* frames are reassembled by [`crate::net::transport::FrameBuf`],
//!   exactly as on TCP.
//!
//! Doorbells let an idle consumer park without busy-waiting while staying
//! off the message path: a producer bumps the destination rank's `seq` and
//! issues `FUTEX_WAKE` only if `waiters` is set; the consumer re-checks
//! `seq` *after* advertising itself in `waiters`, so a wake between its
//! last poll and the `futex_wait` is never lost (the kernel rejects the
//! wait with `EAGAIN` when `seq` already moved).

use std::io::{self, Read};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// First u64 of the header: `"EPNTSHM1"` little-endian.
pub const SHM_MAGIC: u64 = u64::from_le_bytes(*b"EPNTSHM1");
/// Region layout version; a mismatch is a setup error, never negotiated.
pub const SHM_VERSION: u32 = 1;

const HEADER_BYTES: u64 = 4096;
const DOORBELL_OFF: u64 = 4096;
const DOORBELL_STRIDE: u64 = 64;
const SLOTS_OFF: u64 = 8192;
const SLOT_HDR: u64 = 128;
/// One doorbell page bounds the mesh size; far above any same-host run.
const MAX_PROCS: u32 = 64;
/// Smallest ring we allow — tests shrink to this to exercise wrap-around.
pub const MIN_RING_BYTES: u32 = 4096;
/// Largest ring we allow.
pub const MAX_RING_BYTES: u32 = 1 << 30;

mod ffi {
    use std::os::raw::{c_int, c_long, c_uint, c_ulong, c_void};

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    extern "C" {
        pub fn memfd_create(name: *const u8, flags: c_uint) -> c_int;
        pub fn ftruncate(fd: c_int, length: i64) -> c_int;
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn syscall(num: c_long, ...) -> c_long;
        pub fn poll(fds: *mut super::PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
    }

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_SHARED: c_int = 1;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
    pub const F_DUPFD: c_int = 0;
    pub const F_SETFD: c_int = 2;
    pub const FD_CLOEXEC: c_int = 1;

    #[cfg(target_arch = "x86_64")]
    pub const SYS_FUTEX: c_long = 202;
    #[cfg(target_arch = "aarch64")]
    pub const SYS_FUTEX: c_long = 98;

    // The futex ops carry NO private flag: the waiter and the waker live
    // in different processes sharing the mapping.
    pub const FUTEX_WAIT: c_int = 0;
    pub const FUTEX_WAKE: c_int = 1;
}

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn futex_wait(addr: *const AtomicU32, expected: u32, timeout: Duration) {
    let ts = ffi::Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // EAGAIN (seq moved), EINTR, and ETIMEDOUT are all benign: the caller
    // re-polls its rings regardless of why the wait ended.
    // SAFETY: raw futex syscall on a live AtomicU32 inside the shared mapping; the kernel treats the address opaquely and the Timespec outlives the call.
    unsafe {
        ffi::syscall(
            ffi::SYS_FUTEX,
            addr as *const u32,
            ffi::FUTEX_WAIT,
            expected,
            &ts as *const ffi::Timespec,
            0usize,
            0u32,
        );
    }
}

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn futex_wake(addr: *const AtomicU32) {
    // SAFETY: raw futex syscall on a live AtomicU32 inside the shared mapping; wake takes no userspace buffers.
    unsafe {
        ffi::syscall(
            ffi::SYS_FUTEX,
            addr as *const u32,
            ffi::FUTEX_WAKE,
            i32::MAX,
            0usize,
            0usize,
            0u32,
        );
    }
}

// Portability stub: without a known futex syscall number the doorbell
// degrades to a bounded sleep — correct, just not as prompt.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn futex_wait(_addr: *const AtomicU32, _expected: u32, timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_micros(200)));
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn futex_wake(_addr: *const AtomicU32) {}

/// One `poll(2)` entry: wait for `fd` to become readable (a hang-up or
/// error on it also ends the wait). Layout is `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watch `fd` for readability.
    pub fn readable(fd: i32) -> PollFd {
        const POLLIN: i16 = 1;
        PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }
}

/// Block until one of `fds` is readable or `timeout` passes (rounded up to
/// whole milliseconds). This is the comm thread's idle wait: it says
/// nothing about *which* fd fired — the caller polls all of its
/// non-blocking sockets afterwards regardless — and an interrupted or
/// failed wait just returns early.
pub fn wait_readable(fds: &mut [PollFd], timeout: Duration) {
    let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]` pollfd entries and its exact length is passed alongside; the kernel writes only the `revents` fields inside it.
    unsafe {
        ffi::poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, ms);
    }
}

fn os_err(context: &str) -> io::Error {
    let e = io::Error::last_os_error();
    io::Error::new(e.kind(), format!("{context}: {e}"))
}

/// The mapped `memfd` region shared by every process of one net run.
///
/// The root creates it before spawning workers (the fd, created without
/// `FD_CLOEXEC`, survives the re-exec); workers attach with
/// [`ShmRegion::from_fd`] and validate the header — including the
/// invocation stamp, so a stale fd number from an earlier run in the same
/// test binary is rejected instead of silently cross-wiring two meshes.
#[derive(Debug)]
pub struct ShmRegion {
    base: *mut u8,
    len: usize,
    fd: i32,
    n_procs: u32,
    ring_bytes: u32,
    invocation: u64,
}

// SAFETY: the raw pointer targets a MAP_SHARED region whose concurrent access is
// mediated entirely by the atomics embedded in it (SPSC cursor protocol
// above), so the handle itself may move and be shared across threads.
unsafe impl Send for ShmRegion {}
unsafe impl Sync for ShmRegion {}

impl ShmRegion {
    fn region_len(n_procs: u32, ring_bytes: u32) -> usize {
        let slots = u64::from(n_procs) * u64::from(n_procs);
        (SLOTS_OFF + slots * (SLOT_HDR + u64::from(ring_bytes))) as usize
    }

    fn validate_shape(n_procs: u32, ring_bytes: u32) -> io::Result<()> {
        if n_procs == 0 || n_procs > MAX_PROCS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shm mesh supports 1..={MAX_PROCS} processes, got {n_procs}"),
            ));
        }
        if !ring_bytes.is_power_of_two() || !(MIN_RING_BYTES..=MAX_RING_BYTES).contains(&ring_bytes)
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("ring_bytes must be a power of two in [{MIN_RING_BYTES}, {MAX_RING_BYTES}], got {ring_bytes}"),
            ));
        }
        Ok(())
    }

    /// Create and initialise a region for `n_procs` ranks (root side).
    /// `ring_bytes` is rounded up to a power of two and clamped.
    pub fn create(n_procs: u32, ring_bytes: u32, invocation: u64) -> io::Result<Arc<ShmRegion>> {
        let ring_bytes = ring_bytes
            .clamp(MIN_RING_BYTES, MAX_RING_BYTES)
            .next_power_of_two();
        Self::validate_shape(n_procs, ring_bytes)?;
        let len = Self::region_len(n_procs, ring_bytes);
        // memfd flags deliberately 0 (not MFD_CLOEXEC): workers inherit
        // this exact fd number across the SPMD re-exec.
        // SAFETY: memfd_create with a static NUL-terminated name; the returned fd is checked before use.
        let fd = unsafe { ffi::memfd_create(c"episim-ring".as_ptr().cast(), 0) };
        if fd < 0 {
            return Err(os_err("memfd_create"));
        }
        // SAFETY: fd is the freshly created memfd owned by this function.
        if unsafe { ffi::ftruncate(fd, len as i64) } != 0 {
            let e = os_err("ftruncate(shm region)");
            // SAFETY: error path owns fd and closes it exactly once.
            unsafe { ffi::close(fd) };
            return Err(e);
        }
        let base = Self::map(fd, len)?;
        let region = ShmRegion {
            base,
            len,
            fd,
            n_procs,
            ring_bytes,
            invocation,
        };
        // Freshly ftruncated memfd pages are zero, so cursors, doorbells
        // and ring data all start in their initial state; only the header
        // needs explicit writes.
        region.header_u64(0).store(SHM_MAGIC, Ordering::Relaxed);
        region.header_u32(8).store(SHM_VERSION, Ordering::Relaxed);
        region.header_u32(12).store(n_procs, Ordering::Relaxed);
        region
            .header_u64(16)
            .store(u64::from(ring_bytes), Ordering::Relaxed);
        // Publish the invocation last with Release: a child that can read
        // it is guaranteed to see the whole header.
        region.header_u64(24).store(invocation, Ordering::Release);
        Ok(Arc::new(region))
    }

    /// Heap-backed region: identical layout and cursor protocol, no
    /// memfd/mmap/ftruncate syscalls. This is the backing the unit tests
    /// (and the Miri job in CI) use; it cannot be shared across
    /// processes, so [`fd`](Self::fd) reports the `-1` sentinel and
    /// [`from_fd`](Self::from_fd)/[`set_cloexec`](Self::set_cloexec)/
    /// [`dup_fd`](Self::dup_fd) must not be called on it.
    pub fn create_heap(
        n_procs: u32,
        ring_bytes: u32,
        invocation: u64,
    ) -> io::Result<Arc<ShmRegion>> {
        let ring_bytes = ring_bytes
            .clamp(MIN_RING_BYTES, MAX_RING_BYTES)
            .next_power_of_two();
        Self::validate_shape(n_procs, ring_bytes)?;
        // Round up to whole u64 words: the box gives the 8-byte alignment
        // the embedded AtomicU64 header fields need.
        let words = Self::region_len(n_procs, ring_bytes).div_ceil(8);
        let buf: Box<[u64]> = vec![0u64; words].into_boxed_slice();
        // SAFETY: the box is leaked here and reconstructed exactly once, in
        // the `fd < 0` branch of Drop, from the same base/len pair.
        let base = Box::into_raw(buf) as *mut u64 as *mut u8;
        let region = ShmRegion {
            base,
            len: words * 8,
            fd: -1,
            n_procs,
            ring_bytes,
            invocation,
        };
        region.header_u64(0).store(SHM_MAGIC, Ordering::Relaxed);
        region.header_u32(8).store(SHM_VERSION, Ordering::Relaxed);
        region.header_u32(12).store(n_procs, Ordering::Relaxed);
        region
            .header_u64(16)
            .store(u64::from(ring_bytes), Ordering::Relaxed);
        region.header_u64(24).store(invocation, Ordering::Release);
        Ok(Arc::new(region))
    }

    /// Attach to an inherited fd (worker side) and validate the header
    /// against this run's invocation.
    pub fn from_fd(fd: i32, expect_invocation: u64) -> io::Result<Arc<ShmRegion>> {
        // Two-phase map: one page to learn the shape, then the full run.
        let peek = Self::map(fd, HEADER_BYTES as usize)?;
        // SAFETY: `peek` is a fresh MAP_SHARED mapping at least HEADER_BYTES long; every offset dereferenced here is an aligned header field inside it, and the munmap releases exactly that mapping.
        let magic = unsafe { (*(peek as *const AtomicU64)).load(Ordering::Acquire) };
        let version = unsafe { (*(peek.add(8) as *const AtomicU32)).load(Ordering::Relaxed) };
        let n_procs = unsafe { (*(peek.add(12) as *const AtomicU32)).load(Ordering::Relaxed) };
        let ring_bytes = unsafe { (*(peek.add(16) as *const AtomicU64)).load(Ordering::Relaxed) };
        let invocation = unsafe { (*(peek.add(24) as *const AtomicU64)).load(Ordering::Relaxed) };
        unsafe { ffi::munmap(peek.cast(), HEADER_BYTES as usize) };
        if magic != SHM_MAGIC || version != SHM_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shm header mismatch (magic {magic:#x}, version {version})"),
            ));
        }
        if invocation != expect_invocation {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("stale shm region: invocation {invocation}, expected {expect_invocation}"),
            ));
        }
        let ring_bytes = u32::try_from(ring_bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "shm ring_bytes overflow"))?;
        Self::validate_shape(n_procs, ring_bytes)?;
        let len = Self::region_len(n_procs, ring_bytes);
        let base = Self::map(fd, len)?;
        Ok(Arc::new(ShmRegion {
            base,
            len,
            fd,
            n_procs,
            ring_bytes,
            invocation,
        }))
    }

    fn map(fd: i32, len: usize) -> io::Result<*mut u8> {
        // SAFETY: anonymous-address mmap of a caller-validated length over `fd`; the result is checked against MAP_FAILED before anyone dereferences it.
        let base = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                len,
                ffi::PROT_READ | ffi::PROT_WRITE,
                ffi::MAP_SHARED,
                fd,
                0,
            )
        };
        if base == ffi::MAP_FAILED {
            return Err(os_err("mmap(shm region)"));
        }
        Ok(base.cast())
    }

    /// The region's fd — `launch.rs` exports its number to workers.
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Mark the fd close-on-exec. The root calls this after every worker
    /// has been spawned so unrelated future execs can't leak the region.
    pub fn set_cloexec(&self) -> io::Result<()> {
        // SAFETY: fcntl on the region's own open fd; no memory is passed.
        if unsafe { ffi::fcntl(self.fd, ffi::F_SETFD, ffi::FD_CLOEXEC) } != 0 {
            return Err(os_err("fcntl(FD_CLOEXEC)"));
        }
        Ok(())
    }

    /// Duplicate the region's fd (lowest free number). Used by tests to
    /// attach a second mapping without double-closing on drop.
    pub fn dup_fd(&self) -> io::Result<i32> {
        // SAFETY: fcntl dup of the region's own open fd; no memory is passed.
        let fd = unsafe { ffi::fcntl(self.fd, ffi::F_DUPFD, 0) };
        if fd < 0 {
            return Err(os_err("fcntl(F_DUPFD)"));
        }
        Ok(fd)
    }

    /// Ranks in the mesh (root included).
    pub fn n_procs(&self) -> u32 {
        self.n_procs
    }

    /// Data capacity of each ring in bytes (power of two).
    pub fn ring_bytes(&self) -> u32 {
        self.ring_bytes
    }

    /// The invocation the region was stamped with.
    pub fn invocation(&self) -> u64 {
        self.invocation
    }

    fn header_u64(&self, off: usize) -> &AtomicU64 {
        // SAFETY: header offsets are compile-time constants, 8-aligned, inside the
        // first page of a mapping whose length is validated at creation.
        unsafe { &*(self.base.add(off) as *const AtomicU64) }
    }

    fn header_u32(&self, off: usize) -> &AtomicU32 {
        // SAFETY: same argument as `header_u64`: a constant, 4-aligned offset inside the validated header page.
        unsafe { &*(self.base.add(off) as *const AtomicU32) }
    }

    fn check_rank(&self, rank: u32, what: &str) -> io::Result<()> {
        if rank >= self.n_procs {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{what} rank {rank} out of range (n_procs {})", self.n_procs),
            ));
        }
        Ok(())
    }

    fn slot_off(&self, src: u32, dst: u32) -> u64 {
        let idx = u64::from(src) * u64::from(self.n_procs) + u64::from(dst);
        SLOTS_OFF + idx * (SLOT_HDR + u64::from(self.ring_bytes))
    }
}

impl Drop for ShmRegion {
    fn drop(&mut self) {
        if self.fd < 0 {
            // SAFETY: the -1 sentinel marks a heap region; base/len are
            // exactly the Box<[u64]> leaked in `create_heap`, freed once.
            unsafe {
                drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                    self.base.cast::<u64>(),
                    self.len / 8,
                )));
            }
            return;
        }
        // SAFETY: base/len describe exactly the mapping made in `map` and fd is owned by this region; both are released exactly once, here.
        unsafe {
            ffi::munmap(self.base.cast(), self.len);
            ffi::close(self.fd);
        }
    }
}

/// The producer half of slot `(src, dst)`. At most one per slot per mesh —
/// the engine derives `src` from its own rank, which enforces it.
#[derive(Debug)]
pub struct RingProducer {
    _region: Arc<ShmRegion>,
    head: *const AtomicU64,
    tail: *const AtomicU64,
    data: *mut u8,
    cap: usize,
}

// SAFETY: the cursor pointers target atomics inside the shared mapping kept alive by `_region`; attach-time rank checks enforce the single-producer discipline, so the handle may move to another thread.
unsafe impl Send for RingProducer {}

impl RingProducer {
    /// Attach to slot `(src, dst)`.
    pub fn attach(region: Arc<ShmRegion>, src: u32, dst: u32) -> io::Result<RingProducer> {
        region.check_rank(src, "producer src")?;
        region.check_rank(dst, "producer dst")?;
        let off = region.slot_off(src, dst) as usize;
        // SAFETY: slot_off is bounded by region_len for validated ranks, so all three offsets stay inside the mapping; the Arc keeps it alive.
        let (head, tail, data) = unsafe {
            (
                region.base.add(off) as *const AtomicU64,
                region.base.add(off + 64) as *const AtomicU64,
                region.base.add(off + SLOT_HDR as usize),
            )
        };
        Ok(RingProducer {
            cap: region.ring_bytes as usize,
            _region: region,
            head,
            tail,
            data,
        })
    }

    /// Largest frame this ring accepts (header + body). The engine routes
    /// the rare frame that is bigger over TCP; the resulting reorder
    /// against in-ring traffic is
    /// indistinguishable from normal network reordering, which the phase
    /// protocol already tolerates.
    pub fn max_frame(&self) -> usize {
        self.cap / 2
    }

    /// Free bytes right now (racy by nature; only grows concurrently).
    pub fn free(&self) -> usize {
        // SAFETY: head/tail point at live atomics inside the mapping owned by `_region`.
        let head = unsafe { &*self.head }.load(Ordering::Acquire);
        let tail = unsafe { &*self.tail }.load(Ordering::Relaxed);
        self.cap - (tail.wrapping_sub(head)) as usize
    }

    /// Push one whole frame, or nothing: returns `false` when the ring
    /// lacks space (backpressure — the caller drains its own inbound rings
    /// and retries, which is what breaks mutual-full deadlocks).
    #[simlint_macros::hot_path]
    pub fn try_push(&self, kind: u8, payload: &[u8]) -> bool {
        let need = 5 + payload.len();
        if need > self.max_frame() {
            return false;
        }
        // SAFETY: head/tail point at live atomics inside the mapping owned by `_region`.
        let head = unsafe { &*self.head }.load(Ordering::Acquire);
        let tail = unsafe { &*self.tail }.load(Ordering::Relaxed);
        let free = self.cap - tail.wrapping_sub(head) as usize;
        if need > free {
            return false;
        }
        let len = ((payload.len() + 1) as u32).to_le_bytes();
        self.copy_in(tail, &len);
        self.copy_in(tail + 4, std::slice::from_ref(&kind));
        self.copy_in(tail + 5, payload);
        // SAFETY: tail is a live atomic inside the mapping; the Release store
        // publishes the copied bytes together with the new cursor.
        unsafe { &*self.tail }.store(tail + need as u64, Ordering::Release);
        true
    }

    /// Wrap-aware copy into the ring at logical byte offset `at`.
    #[inline]
    fn copy_in(&self, at: u64, src: &[u8]) {
        let mask = self.cap - 1;
        let off = at as usize & mask;
        let first = src.len().min(self.cap - off);
        // SAFETY: `off` is masked and `first` clamped to the ring capacity, so both copies stay inside the data area; producer exclusivity makes the writes race-free.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.data.add(off), first);
            if first < src.len() {
                std::ptr::copy_nonoverlapping(
                    src.as_ptr().add(first),
                    self.data,
                    src.len() - first,
                );
            }
        }
    }
}

/// The consumer half of slot `(src, dst)`; its [`Read`] impl reports an
/// empty ring as `WouldBlock`, exactly like a non-blocking socket, so
/// [`crate::net::transport::FrameBuf::poll`] works on it unchanged.
#[derive(Debug)]
pub struct RingConsumer {
    _region: Arc<ShmRegion>,
    head: *const AtomicU64,
    tail: *const AtomicU64,
    data: *const u8,
    cap: usize,
}

// SAFETY: the cursor pointers target atomics inside the shared mapping kept alive by `_region`; attach-time rank checks enforce the single-consumer discipline, so the handle may move to another thread.
unsafe impl Send for RingConsumer {}

impl RingConsumer {
    /// Attach to slot `(src, dst)`.
    pub fn attach(region: Arc<ShmRegion>, src: u32, dst: u32) -> io::Result<RingConsumer> {
        region.check_rank(src, "consumer src")?;
        region.check_rank(dst, "consumer dst")?;
        let off = region.slot_off(src, dst) as usize;
        // SAFETY: slot_off is bounded by region_len for validated ranks, so all three offsets stay inside the mapping; the Arc keeps it alive.
        let (head, tail, data) = unsafe {
            (
                region.base.add(off) as *const AtomicU64,
                region.base.add(off + 64) as *const AtomicU64,
                region.base.add(off + SLOT_HDR as usize) as *const u8,
            )
        };
        Ok(RingConsumer {
            cap: region.ring_bytes as usize,
            _region: region,
            head,
            tail,
            data,
        })
    }

    /// Bytes waiting in the ring (the idle check polls this cheaply).
    pub fn pending(&self) -> u64 {
        // SAFETY: head/tail point at live atomics inside the mapping owned by `_region`.
        let tail = unsafe { &*self.tail }.load(Ordering::Acquire);
        let head = unsafe { &*self.head }.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// Wrap-aware copy out of the ring at logical byte offset `at`.
    #[inline]
    fn copy_out(&self, at: u64, dst: &mut [u8]) {
        let mask = self.cap - 1;
        let off = at as usize & mask;
        let first = dst.len().min(self.cap - off);
        // SAFETY: `off` is masked and `first` clamped to the ring capacity, so both copies stay inside the data area; the consumer only reads bytes the producer published with Release.
        unsafe {
            std::ptr::copy_nonoverlapping(self.data.add(off), dst.as_mut_ptr(), first);
            if first < dst.len() {
                std::ptr::copy_nonoverlapping(
                    self.data,
                    dst.as_mut_ptr().add(first),
                    dst.len() - first,
                );
            }
        }
    }
}

impl Read for RingConsumer {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // SAFETY: head/tail are live atomics inside the mapping, and the
        // Acquire on tail pairs with the producer's Release: every byte up
        // to tail is visible before we copy.
        let tail = unsafe { &*self.tail }.load(Ordering::Acquire);
        let head = unsafe { &*self.head }.load(Ordering::Relaxed);
        let avail = tail.wrapping_sub(head) as usize;
        if avail == 0 {
            return Err(io::Error::from(io::ErrorKind::WouldBlock));
        }
        let n = avail.min(buf.len());
        if n == 0 {
            return Ok(0);
        }
        self.copy_out(head, &mut buf[..n]);
        // SAFETY: head is a live atomic inside the mapping; the Release
        // store publishes the freed space to the producer.
        unsafe { &*self.head }.store(head + n as u64, Ordering::Release);
        Ok(n)
    }
}

/// A rank's wakeup cell: producers ring it after pushing into any of that
/// rank's inbound rings; the rank's compute thread parks on it when idle.
#[derive(Debug, Clone)]
pub struct Doorbell {
    _region: Arc<ShmRegion>,
    seq: *const AtomicU32,
    waiters: *const AtomicU32,
}

// SAFETY: seq/waiters point at atomics inside the shared mapping kept alive by `_region`; every access below is atomic, so the handle may be shared and cloned across threads.
unsafe impl Send for Doorbell {}
unsafe impl Sync for Doorbell {}

impl Doorbell {
    /// Attach to `rank`'s doorbell.
    pub fn attach(region: Arc<ShmRegion>, rank: u32) -> io::Result<Doorbell> {
        region.check_rank(rank, "doorbell")?;
        let off = (DOORBELL_OFF + u64::from(rank) * DOORBELL_STRIDE) as usize;
        // SAFETY: the doorbell offset is inside the header area for validated ranks; the Arc keeps the mapping alive.
        let (seq, waiters) = unsafe {
            (
                region.base.add(off) as *const AtomicU32,
                region.base.add(off + 4) as *const AtomicU32,
            )
        };
        Ok(Doorbell {
            _region: region,
            seq,
            waiters,
        })
    }

    /// Snapshot the sequence number. Read this *before* the final ring
    /// poll that decides to park, then pass it to [`Doorbell::park`].
    pub fn read_seq(&self) -> u32 {
        // SAFETY: seq points at a live atomic inside the mapping.
        unsafe { &*self.seq }.load(Ordering::SeqCst)
    }

    /// Signal the owning rank that new bytes await it. Cheap when nobody
    /// is parked: one RMW, no syscall.
    pub fn ring(&self) {
        // SAFETY: seq/waiters point at live atomics inside the mapping.
        unsafe { &*self.seq }.fetch_add(1, Ordering::SeqCst);
        if unsafe { &*self.waiters }.load(Ordering::SeqCst) != 0 {
            futex_wake(self.seq);
        }
    }

    /// Park until rung, `timeout`, or a spurious wake — whichever first.
    /// Returns `true` if the futex wait was actually entered (the
    /// `shm_parks` counter counts those). `seen` must come from
    /// [`Doorbell::read_seq`] *before* the caller's last empty poll.
    pub fn park(&self, seen: u32, timeout: Duration) -> bool {
        // SAFETY: waiters points at a live atomic inside the mapping.
        let waiters = unsafe { &*self.waiters };
        waiters.store(1, Ordering::SeqCst);
        // Re-check after advertising: a ring that landed between the
        // caller's poll and here would otherwise sleep the full timeout.
        // SAFETY: seq points at a live atomic inside the mapping.
        if unsafe { &*self.seq }.load(Ordering::SeqCst) != seen {
            waiters.store(0, Ordering::SeqCst);
            return false;
        }
        futex_wait(self.seq, seen, timeout);
        waiters.store(0, Ordering::SeqCst);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::transport::FrameBuf;
    use std::time::Instant;

    /// Ring-protocol tests run on the heap backing so they exercise the
    /// exact same cursor/frame code under Miri, where memfd/mmap/futex
    /// syscalls do not exist.
    fn pair(ring_bytes: u32) -> (Arc<ShmRegion>, RingProducer, RingConsumer) {
        let region = ShmRegion::create_heap(2, ring_bytes, 42).unwrap();
        let p = RingProducer::attach(region.clone(), 0, 1).unwrap();
        let c = RingConsumer::attach(region.clone(), 0, 1).unwrap();
        (region, p, c)
    }

    #[test]
    fn heap_region_uses_the_fd_sentinel() {
        let region = ShmRegion::create_heap(3, 8192, 7).unwrap();
        assert_eq!(region.fd(), -1);
        assert_eq!(region.n_procs(), 3);
        assert_eq!(region.ring_bytes(), 8192);
        assert_eq!(region.invocation(), 7);
        assert!(ShmRegion::create_heap(0, 8192, 7).is_err());
    }

    #[test]
    fn heap_ring_round_trips_frames() {
        let (_r, p, mut c) = pair(4096);
        assert!(p.try_push(6, b"heap-backed"));
        let polled = FrameBuf::default().poll(&mut c).unwrap();
        assert_eq!(polled.frames, vec![(6, b"heap-backed".to_vec())]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "memfd_create/mmap syscalls are unsupported under Miri")]
    fn header_roundtrips_through_from_fd() {
        let region = ShmRegion::create(3, 8192, 7).unwrap();
        let fd = region.dup_fd().unwrap();
        let twin = ShmRegion::from_fd(fd, 7).unwrap();
        assert_eq!(twin.n_procs(), 3);
        assert_eq!(twin.ring_bytes(), 8192);
        assert_eq!(twin.invocation(), 7);
        // Bytes pushed through one mapping surface in the other.
        let p = RingProducer::attach(region, 1, 2).unwrap();
        let mut c = RingConsumer::attach(twin, 1, 2).unwrap();
        assert!(p.try_push(9, b"cross-mapping"));
        let polled = FrameBuf::default().poll(&mut c).unwrap();
        assert_eq!(polled.frames, vec![(9, b"cross-mapping".to_vec())]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "memfd_create/mmap syscalls are unsupported under Miri")]
    fn stale_invocation_is_rejected() {
        let region = ShmRegion::create(2, 4096, 7).unwrap();
        let fd = region.dup_fd().unwrap();
        let err = ShmRegion::from_fd(fd, 8).unwrap_err();
        assert!(
            err.to_string().contains("stale"),
            "expected a stale-region error, got: {err}"
        );
    }

    #[test]
    fn out_of_range_ranks_are_errors_not_panics() {
        let region = ShmRegion::create_heap(2, 4096, 1).unwrap();
        assert!(RingProducer::attach(region.clone(), 2, 0).is_err());
        assert!(RingConsumer::attach(region.clone(), 0, 5).is_err());
        assert!(Doorbell::attach(region, 9).is_err());
    }

    /// A frame written across the ring's wrap-around point must reassemble
    /// byte-perfectly; intermediate polls may see a torn prefix but never a
    /// torn frame.
    #[test]
    fn frames_survive_wrap_around() {
        let (_r, p, mut c) = pair(4096);
        let mut fb = FrameBuf::default();
        // Walk the cursors close to the boundary, draining as we go, then
        // push a frame that is guaranteed to straddle it.
        let filler = vec![0x5A; 900];
        for _ in 0..4 {
            assert!(p.try_push(1, &filler));
            let polled = fb.poll(&mut c).unwrap();
            assert_eq!(polled.frames.len(), 1);
        }
        // Cursors sit at 4 * 905 = 3620; this 700-byte body wraps.
        let straddle: Vec<u8> = (0..700u32).map(|i| (i * 7) as u8).collect();
        assert!(p.try_push(2, &straddle));
        let polled = fb.poll(&mut c).unwrap();
        assert_eq!(polled.frames, vec![(2, straddle)]);
        assert!(!polled.eof, "rings never report EOF");
    }

    /// The reassembly buffer must hold a torn prefix (producer died — or
    /// paused — mid-frame) without emitting anything, and complete it when
    /// the rest arrives. Peer *death* mid-frame surfaces via the TCP
    /// control plane, not here; the ring just never yields the torn half.
    #[test]
    fn torn_prefix_yields_nothing_until_completed() {
        let (_r, p, mut c) = pair(4096);
        // Hand-build a frame and push it in two raw halves by abusing two
        // pushes of a *sub*-frame: instead push whole frame, read only
        // part of it through a 1-byte reader to prove FrameBuf buffers.
        assert!(p.try_push(3, b"split-me"));
        struct OneByte<'a>(&'a mut RingConsumer);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if buf.is_empty() {
                    return Ok(0);
                }
                match self.0.read(&mut buf[..1]) {
                    Ok(n) => Ok(n),
                    Err(e) => Err(e),
                }
            }
        }
        let mut fb = FrameBuf::default();
        let mut whole = Vec::new();
        // First poll pulls the stream one byte at a time until WouldBlock,
        // so every intermediate state passed through the torn-prefix path.
        whole.extend(fb.poll(&mut OneByte(&mut c)).unwrap().frames);
        assert_eq!(whole, vec![(3, b"split-me".to_vec())]);
    }

    #[test]
    fn full_ring_applies_backpressure_and_recovers() {
        let (_r, p, mut c) = pair(4096);
        let body = vec![0xEE; 1019]; // 1024-byte frames: 4 fill the ring
        let mut pushed = 0;
        while p.try_push(4, &body) {
            pushed += 1;
            assert!(pushed <= 4, "ring accepted more than its capacity");
        }
        assert_eq!(pushed, 4);
        assert_eq!(p.free(), 0);
        // Drain one frame; exactly one slot frees up.
        let mut fb = FrameBuf::default();
        let mut scratch = [0u8; 1024];
        let n = c.read(&mut scratch).unwrap();
        assert_eq!(n, 1024, "one read drains exactly one frame");
        assert!(p.try_push(4, &body), "space must reopen after a drain");
        assert!(!p.try_push(4, &body), "and only one frame's worth");
        // Drain everything left and verify frame integrity end to end.
        let mut frames = Vec::new();
        // Re-inject the bytes already read into the FrameBuf stream order.
        struct Chain<'a>(&'a [u8], &'a mut RingConsumer);
        impl Read for Chain<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if !self.0.is_empty() {
                    let n = self.0.len().min(buf.len());
                    buf[..n].copy_from_slice(&self.0[..n]);
                    self.0 = &self.0[n..];
                    return Ok(n);
                }
                self.1.read(buf)
            }
        }
        frames.extend(fb.poll(&mut Chain(&scratch[..n], &mut c)).unwrap().frames);
        assert_eq!(frames.len(), 5);
        assert!(frames.iter().all(|(k, b)| *k == 4 && *b == body));
    }

    #[test]
    fn oversize_frames_are_refused_up_front() {
        let (_r, p, _c) = pair(4096);
        let huge = vec![0u8; 3000]; // > cap/2
        assert!(!p.try_push(5, &huge));
        assert_eq!(p.free(), 4096, "refusal must not consume space");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "futex_wait/futex_wake syscalls are unsupported under Miri"
    )]
    fn doorbell_wakes_a_parked_consumer() {
        let region = ShmRegion::create(2, 4096, 1).unwrap();
        let bell = Doorbell::attach(region.clone(), 1).unwrap();
        let waker = bell.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.ring();
        });
        let seen = bell.read_seq();
        let start = Instant::now(); // simlint: allow(R2) -- test-only latency bound, never feeds the DES
        let parked = bell.park(seen, Duration::from_secs(5));
        assert!(parked);
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "wake must beat the timeout"
        );
        t.join().unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore = "poll(2) is unsupported under Miri")]
    fn wait_readable_returns_on_data_and_on_timeout() {
        use std::io::Write;
        use std::os::fd::AsRawFd;
        use std::os::unix::net::UnixStream;
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::readable(b.as_raw_fd())];
        let start = Instant::now(); // simlint: allow(R2) -- test-only latency bound, never feeds the DES
        wait_readable(&mut fds, Duration::from_millis(30));
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "nothing to read: must wait"
        );
        a.write_all(&[1]).unwrap();
        wait_readable(&mut fds, Duration::from_secs(5));
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "readable: must not wait"
        );
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "futex_wait/futex_wake syscalls are unsupported under Miri"
    )]
    fn park_skips_when_the_bell_already_rang() {
        let region = ShmRegion::create(2, 4096, 1).unwrap();
        let bell = Doorbell::attach(region, 0).unwrap();
        let seen = bell.read_seq();
        bell.ring();
        let start = Instant::now(); // simlint: allow(R2) -- test-only latency bound, never feeds the DES
        assert!(!bell.park(seen, Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    /// Cross-thread stress: 10k frames with varied sizes through a small
    /// ring, producer applying backpressure, consumer reassembling with
    /// FrameBuf — content and order must both survive.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "futex-based doorbells and 10k-frame stress are too slow/unsupported under Miri"
    )]
    fn spsc_stress_preserves_order_and_content() {
        let region = ShmRegion::create(2, MIN_RING_BYTES, 1).unwrap();
        let p = RingProducer::attach(region.clone(), 1, 0).unwrap();
        let mut c = RingConsumer::attach(region.clone(), 1, 0).unwrap();
        let bell = Doorbell::attach(region.clone(), 0).unwrap();
        let bell_rx = bell.clone();
        const N: u32 = 10_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let size = (i % 701) as usize;
                let body: Vec<u8> = (0..size).map(|j| (i as usize + j) as u8).collect();
                let mut spins = 0u64;
                while !p.try_push((i % 7) as u8 + 1, &body) {
                    std::thread::yield_now();
                    spins += 1;
                    assert!(spins < 50_000_000, "producer wedged at frame {i}");
                }
                bell.ring();
            }
        });
        let mut fb = FrameBuf::default();
        let mut got = 0u32;
        while got < N {
            let polled = fb.poll(&mut c).unwrap();
            for (kind, body) in polled.frames {
                assert_eq!(kind, (got % 7) as u8 + 1, "frame {got} kind");
                assert_eq!(body.len(), (got % 701) as usize, "frame {got} len");
                for (j, b) in body.iter().enumerate() {
                    assert_eq!(*b, (got as usize + j) as u8, "frame {got} byte {j}");
                }
                got += 1;
            }
            if got < N {
                let seen = bell_rx.read_seq();
                if c.pending() == 0 {
                    bell_rx.park(seen, Duration::from_millis(1));
                }
            }
        }
        producer.join().unwrap();
        assert_eq!(c.pending(), 0);
    }
}
