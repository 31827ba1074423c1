//! Length-prefixed framing over loopback TCP and shared-memory rings.
//!
//! Every frame is `[len: u32 LE][kind: u8][payload: len-1 bytes]`. The
//! blocking helpers serve mesh setup (HELLO/PEERS handshakes, where the
//! socket still has a read timeout); [`FrameBuf`] serves the steady state,
//! where the comm thread polls non-blocking byte sources — TCP sockets or
//! [`crate::net::shm`] ring consumers, both of which speak `WouldBlock` —
//! and reassembles frames from whatever arrives. [`write_frames`] is the
//! vectored fast path: it flushes a backlog of frames in as few
//! `writev`-style syscalls as the kernel allows.

use std::io::{self, IoSlice, Read, Write};

/// Ceiling on a single frame, far above anything the engine emits; a
/// length prefix beyond it means a corrupt or hostile stream.
pub const MAX_FRAME: usize = 64 << 20;

/// Write one frame; returns total bytes written (header + body).
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<u64> {
    let body_len = payload
        .len()
        .checked_add(1)
        .filter(|&n| n <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&(body_len as u32).to_le_bytes())?;
    w.write_all(&[kind])?;
    w.write_all(payload)?;
    Ok(4 + body_len as u64)
}

/// Write many frames in one vectored burst (`writev`-style): each frame
/// contributes two [`IoSlice`]s — its 5-byte header and its payload — and
/// the whole backlog goes to the kernel in as few syscalls as it will
/// take. Returns total bytes written. Partial writes are resumed from the
/// exact byte where the kernel stopped, so the stream never tears a frame.
pub fn write_frames(w: &mut impl Write, frames: &[(u8, &[u8])]) -> io::Result<u64> {
    let mut headers = Vec::with_capacity(frames.len());
    let mut total = 0u64;
    for (kind, payload) in frames {
        let body_len = payload
            .len()
            .checked_add(1)
            .filter(|&n| n <= MAX_FRAME)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
        let [l0, l1, l2, l3] = (body_len as u32).to_le_bytes();
        headers.push([l0, l1, l2, l3, *kind]);
        total += 4 + body_len as u64;
    }
    // `skip` tracks how many bytes of the logical stream are already on
    // the wire; each retry rebuilds the slice list from that offset.
    let mut skip = 0u64;
    while skip < total {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(frames.len() * 2);
        let mut pos = 0u64;
        for (header, (_, payload)) in headers.iter().zip(frames) {
            for part in [&header[..], *payload] {
                let end = pos + part.len() as u64;
                if end > skip {
                    let cut = (skip.saturating_sub(pos)) as usize;
                    slices.push(IoSlice::new(&part[cut..]));
                }
                pos = end;
            }
        }
        match w.write_vectored(&slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "peer stopped accepting bytes mid-flush",
                ))
            }
            Ok(n) => skip += n as u64,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // The sockets are non-blocking; a full kernel buffer mid-flush
            // must not abort the stream (the resume offset would be lost).
            // Yield briefly and retry from the same byte.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

/// Blocking read of one frame (setup path; honours the socket's read
/// timeout). Returns `(kind, payload, total bytes read)`.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>, u64)> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let body_len = u32::from_le_bytes(len_buf) as usize;
    if body_len == 0 || body_len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {body_len}"),
        ));
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    let mut payload = vec![0u8; body_len - 1];
    r.read_exact(&mut payload)?;
    let [kind] = kind;
    Ok((kind, payload, 4 + body_len as u64))
}

/// What one [`FrameBuf::poll`] produced.
#[derive(Debug, Default)]
pub struct Polled {
    /// Complete frames, in arrival order, as `(kind, payload)`.
    pub frames: Vec<(u8, Vec<u8>)>,
    /// Raw bytes read off the socket (for the wire counters).
    pub bytes: u64,
    /// The peer closed the connection. Frames read in the same poll are
    /// still delivered — a peer may legitimately write its final frames
    /// and close immediately, and those frames must not be lost.
    pub eof: bool,
}

/// Per-socket reassembly buffer for non-blocking reads.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// Read whatever is available without blocking and return any frames
    /// completed by it. `Err` means a corrupt stream (fatal); EOF is
    /// reported via [`Polled::eof`] *after* the frames that preceded it.
    /// Works over any non-blocking byte source that reports emptiness as
    /// `WouldBlock` — TCP sockets and shm ring consumers alike.
    pub fn poll(&mut self, sock: &mut impl Read) -> io::Result<Polled> {
        let mut out = Polled::default();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match sock.read(&mut chunk) {
                Ok(0) => {
                    out.eof = true;
                    break;
                }
                Ok(n) => {
                    out.bytes += n as u64;
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.drain_complete(&mut out)?;
        Ok(out)
    }

    fn drain_complete(&mut self, out: &mut Polled) -> io::Result<()> {
        let mut offset = 0usize;
        while let Some((len, rest)) = self.buf[offset..].split_first_chunk::<4>() {
            let body_len = u32::from_le_bytes(*len) as usize;
            if body_len == 0 || body_len > MAX_FRAME {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad frame length {body_len}"),
                ));
            }
            let Some((&kind, payload)) = rest.get(..body_len).and_then(<[u8]>::split_first) else {
                break;
            };
            out.frames.push((kind, payload.to_vec()));
            offset += 4 + body_len;
        }
        if offset > 0 {
            self.buf.drain(..offset);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn vectored_write_matches_sequential_framing() {
        let frames: Vec<(u8, Vec<u8>)> = vec![
            (1, vec![0xAB; 3]),
            (2, Vec::new()),
            (3, (0..=255u8).collect()),
        ];
        let mut want = Vec::new();
        for (k, p) in &frames {
            write_frame(&mut want, *k, p).unwrap();
        }
        let refs: Vec<(u8, &[u8])> = frames.iter().map(|(k, p)| (*k, p.as_slice())).collect();
        let mut got = Vec::new();
        let n = write_frames(&mut got, &refs).unwrap();
        assert_eq!(got, want, "vectored and sequential bytes must agree");
        assert_eq!(n, want.len() as u64);
    }

    /// A writer that accepts at most 3 bytes per call forces `write_frames`
    /// through its partial-write resume path on every iteration.
    struct Dribble(Vec<u8>);
    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_survives_partial_writes() {
        let frames: Vec<(u8, Vec<u8>)> = vec![(7, vec![0x11; 70]), (8, vec![0x22; 5])];
        let refs: Vec<(u8, &[u8])> = frames.iter().map(|(k, p)| (*k, p.as_slice())).collect();
        let mut sink = Dribble(Vec::new());
        write_frames(&mut sink, &refs).unwrap();
        let mut want = Vec::new();
        for (k, p) in &frames {
            write_frame(&mut want, *k, p).unwrap();
        }
        assert_eq!(sink.0, want);
    }

    #[test]
    fn blocking_roundtrip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            write_frame(&mut s, 7, b"hello").unwrap();
            write_frame(&mut s, 9, &[]).unwrap();
        });
        let (mut sock, _) = listener.accept().unwrap();
        let (kind, payload, n) = read_frame(&mut sock).unwrap();
        assert_eq!((kind, payload.as_slice(), n), (7, b"hello".as_slice(), 10));
        let (kind, payload, n) = read_frame(&mut sock).unwrap();
        assert_eq!((kind, payload.len(), n), (9, 0, 5));
        writer.join().unwrap();
    }

    #[test]
    fn nonblocking_reassembly_across_partial_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        // Two frames written in awkward chunks, including a split header.
        let mut stream_bytes = Vec::new();
        write_frame(&mut stream_bytes, 1, &[0xAA; 300]).unwrap();
        write_frame(&mut stream_bytes, 2, b"tail").unwrap();
        let mut fb = FrameBuf::default();
        let mut got = Vec::new();
        for chunk in stream_bytes.chunks(7) {
            client.write_all(chunk).unwrap();
            client.flush().unwrap();
            // Give loopback a moment to deliver, then poll.
            std::thread::sleep(std::time::Duration::from_millis(1));
            got.extend(fb.poll(&mut server).unwrap().frames);
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 1);
        assert_eq!(got[0].1, vec![0xAA; 300]);
        assert_eq!(got[1], (2, b"tail".to_vec()));
    }

    #[test]
    fn eof_is_flagged_but_final_frames_survive() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        // Peer writes its last frame and closes immediately — the frame
        // must be delivered alongside the EOF flag, not swallowed by it.
        write_frame(&mut client, 11, b"bye").unwrap();
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let mut fb = FrameBuf::default();
        let polled = fb.poll(&mut server).unwrap();
        assert!(polled.eof, "close must be visible");
        assert_eq!(polled.frames, vec![(11, b"bye".to_vec())]);
        // A second poll on the dead socket is pure EOF.
        let polled = fb.poll(&mut server).unwrap();
        assert!(polled.eof);
        assert!(polled.frames.is_empty());
    }

    #[test]
    fn corrupt_length_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        client.write_all(&[0, 0, 0, 0, 0, 0, 0, 0]).unwrap(); // zero length
        std::thread::sleep(std::time::Duration::from_millis(5));
        let mut fb = FrameBuf::default();
        assert!(fb.poll(&mut server).is_err());
    }
}
