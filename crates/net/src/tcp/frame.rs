//! Length-prefixed framing of `pvfs-proto` frames for TCP.
//!
//! The channel transport moves one encoded frame per message, so frame
//! boundaries are free; a TCP byte stream has none. Each frame is
//! prefixed with its length as a little-endian u32:
//!
//! ```text
//! len (4B LE) | frame (len bytes: pvfs-proto header + trailing + bulk)
//! ```
//!
//! Two hard rules keep a malformed peer from hurting the process:
//!
//! * the announced length is checked against
//!   [`MAX_WIRE_FRAME`](pvfs_proto::MAX_WIRE_FRAME) **before** any
//!   allocation — a hostile prefix yields a typed
//!   [`PvfsError::FrameTooLarge`], never an OOM;
//! * reassembly uses `read_exact`-style loops, so a frame split across
//!   arbitrarily many 1-byte segments, or several frames concatenated
//!   into one TCP segment, decode identically.
//!
//! Both ends keep the per-frame syscall count at its floor. Sending is
//! one vectored write of prefix and body ([`write_frame`]): on a
//! `TCP_NODELAY` socket a prefix written on its own leaves as its own
//! segment and wakes the peer before the body exists. Receiving goes
//! through a buffered reader kept per connection, so one `read` usually
//! brings in the prefix and the whole body; [`read_frame`] is the one
//! decoder for buffered and raw streams alike.

use bytes::Bytes;
use pvfs_proto::MAX_WIRE_FRAME;
use pvfs_types::PvfsError;
use std::io::{self, IoSlice, Read, Write};

/// Bytes of framing overhead per frame (the length prefix).
pub const LEN_PREFIX: usize = 4;

/// Why reading a frame off a stream failed.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly on a frame boundary (peer hung up).
    Closed,
    /// The peer announced a frame over the cap; nothing was allocated.
    TooLarge(PvfsError),
    /// The stream failed mid-frame (reset, mid-frame EOF, ...).
    Io(io::Error),
}

impl FrameError {
    /// Collapse into the workspace error type for client-facing paths.
    pub fn into_pvfs(self, peer: &str) -> PvfsError {
        match self {
            FrameError::Closed => PvfsError::Transport(format!("{peer} closed the connection")),
            FrameError::TooLarge(e) => e,
            FrameError::Io(e) => PvfsError::Transport(format!("{peer}: {e}")),
        }
    }
}

/// Write one length-prefixed frame with one vectored write (more only
/// if the writer accepts part of it); the body is never copied. Rejects
/// frames over the cap so a local bug cannot emit a frame no peer would
/// accept.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    if frame.len() > MAX_WIRE_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "refusing to send a {}-byte frame (cap {MAX_WIRE_FRAME})",
                frame.len()
            ),
        ));
    }
    let prefix = (frame.len() as u32).to_le_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(frame)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one length-prefixed frame, surviving arbitrary short reads.
/// Blocking: the caller controls deadlines via socket read timeouts
/// (client pool) or by shutting the socket down (server teardown).
pub fn read_frame(r: &mut impl Read) -> Result<Bytes, FrameError> {
    let mut prefix = [0u8; LEN_PREFIX];
    read_exact_or_closed(r, &mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_WIRE_FRAME {
        return Err(FrameError::TooLarge(PvfsError::FrameTooLarge {
            len: len as u64,
            max: MAX_WIRE_FRAME as u64,
        }));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(FrameError::Io)?;
    Ok(Bytes::from(body))
}

/// `read_exact`, but a clean EOF before the first byte is
/// [`FrameError::Closed`] (the peer hung up between frames) while an
/// EOF mid-buffer is an I/O error (the peer died mid-frame).
fn read_exact_or_closed(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer died mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Total wire bytes one frame occupies (prefix + body).
pub fn wire_len(frame: &[u8]) -> u64 {
    (LEN_PREFIX + frame.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out its bytes at most `chunk` at a time —
    /// the short-read behavior of a congested socket.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn roundtrip_one_frame() {
        let wire = framed(b"hello frames");
        let got = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(got.as_ref(), b"hello frames");
    }

    #[test]
    fn frame_split_across_one_byte_reads_reassembles() {
        // The regression the paper's framing needs: a frame arriving
        // one byte per read() must decode identically.
        let payload: Vec<u8> = (0..=255u8).collect();
        let mut r = Trickle {
            data: framed(&payload),
            pos: 0,
            chunk: 1,
        };
        let got = read_frame(&mut r).unwrap();
        assert_eq!(got.as_ref(), &payload[..]);
    }

    #[test]
    fn two_frames_in_one_segment_decode_separately() {
        // The inverse coalescing case: two frames delivered in one
        // contiguous byte run must not bleed into each other.
        let mut wire = framed(b"first");
        wire.extend_from_slice(&framed(b"second, longer"));
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_ref(), b"first");
        assert_eq!(read_frame(&mut r).unwrap().as_ref(), b"second, longer");
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn split_and_coalesced_at_every_chunk_size() {
        let a: Vec<u8> = (0..200u8).collect();
        let b: Vec<u8> = (0..90u8).rev().collect();
        let mut wire = framed(&a);
        wire.extend_from_slice(&framed(&b));
        for chunk in [1, 2, 3, 5, 7, 64, 4096] {
            let mut r = Trickle {
                data: wire.clone(),
                pos: 0,
                chunk,
            };
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), &a[..]);
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), &b[..]);
            assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
        }
    }

    #[test]
    fn oversized_prefix_is_typed_error_not_alloc() {
        // A hostile 4 GiB-ish announcement: rejected from the prefix
        // alone, before the body would be allocated or read.
        let mut wire = (u32::MAX - 7).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0xab; 16]);
        match read_frame(&mut wire.as_slice()) {
            Err(FrameError::TooLarge(PvfsError::FrameTooLarge { len, max })) => {
                assert_eq!(len, (u32::MAX - 7) as u64);
                assert_eq!(max, MAX_WIRE_FRAME as u64);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frame_is_refused_at_write() {
        let huge = vec![0u8; MAX_WIRE_FRAME + 1];
        let mut out = Vec::new();
        assert!(write_frame(&mut out, &huge).is_err());
        assert!(out.is_empty(), "nothing may hit the wire");
    }

    /// A writer accepting at most `chunk` bytes per call (`usize::MAX`:
    /// everything), recording what it got and how many calls it took.
    struct Counting {
        out: Vec<u8>,
        calls: usize,
        chunk: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut budget = self.chunk;
            for b in bufs {
                let n = budget.min(b.len());
                self.out.extend_from_slice(&b[..n]);
                budget -= n;
            }
            Ok(self.chunk - budget)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn counting(chunk: usize) -> Counting {
        Counting {
            out: Vec::new(),
            calls: 0,
            chunk,
        }
    }

    #[test]
    fn frame_is_one_write_call() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        let mut w = counting(usize::MAX);
        write_frame(&mut w, &payload).unwrap();
        assert_eq!(w.calls, 1, "prefix and body must leave in one write");
        assert_eq!(w.out, framed(&payload));
    }

    #[test]
    fn partial_writes_reassemble_byte_for_byte() {
        // 1 and 3 split the 4-byte prefix itself; 7 straddles it.
        let payload: Vec<u8> = (0..100u8).collect();
        for chunk in [1, 3, 7] {
            let mut w = counting(chunk);
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.out, framed(&payload), "chunk {chunk}");
            assert_eq!(w.calls, (LEN_PREFIX + payload.len()).div_ceil(chunk));
            assert_eq!(
                read_frame(&mut w.out.as_slice()).unwrap().as_ref(),
                &payload[..]
            );
        }
    }

    #[test]
    fn buffered_reader_splits_two_frames_from_one_read() {
        // One read() fills the buffer with both frames; each read_frame
        // must take exactly its own bytes and leave the rest buffered.
        let mut wire = framed(b"first");
        wire.extend_from_slice(&framed(b"second, longer"));
        let mut r = io::BufReader::new(Trickle {
            data: wire.clone(),
            pos: 0,
            chunk: wire.len(),
        });
        assert_eq!(read_frame(&mut r).unwrap().as_ref(), b"first");
        assert_eq!(r.get_ref().pos, wire.len(), "one read brought in both");
        assert_eq!(read_frame(&mut r).unwrap().as_ref(), b"second, longer");
        assert!(r.buffer().is_empty());
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn mid_frame_eof_is_io_error_not_closed() {
        let wire = framed(b"truncated in flight");
        let cut = &wire[..wire.len() - 3];
        assert!(matches!(read_frame(&mut &cut[..]), Err(FrameError::Io(_))));
    }
}
