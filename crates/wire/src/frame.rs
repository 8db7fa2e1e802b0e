//! Length-prefixed framing.
//!
//! Every message on a netdir connection is one *frame*: a 4-byte
//! big-endian payload length followed by the payload. Frames make TCP's
//! byte stream a message stream; the payload encoding is [`crate::codec`]'s
//! business.
//!
//! Both directions enforce a maximum frame size so a malformed or
//! hostile peer cannot make the other side allocate unboundedly: readers
//! reject the frame before allocating, writers refuse to emit one the
//! peer would reject.

use std::io::{self, IoSlice, Read, Write};

/// Default maximum payload size (16 MiB), comfortably above any response
/// the experiment harness produces.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Bytes a payload occupies on the wire, header included.
pub fn frame_len(payload_len: usize) -> u64 {
    4 + payload_len as u64
}

/// Write one frame. Fails with `InvalidInput` if the payload exceeds
/// `max_frame` (nothing is written in that case).
///
/// Header and payload go down in one vectored write, so with `TCP_NODELAY`
/// a frame is one segment and wakes its reader once, not once for a lone
/// 4-byte header and again for the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max_frame: usize) -> io::Result<()> {
    if payload.len() > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "refusing to send {}-byte frame (max {max_frame})",
                payload.len()
            ),
        ));
    }
    let header = (payload.len() as u32).to_be_bytes();
    let mut bufs = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut bufs = &mut bufs[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Read one frame's payload.
///
/// * `Ok(None)` — the peer closed the connection cleanly *between*
///   frames (normal end of a session).
/// * `Err(UnexpectedEof)` — the stream ended mid-frame (truncation).
/// * `Err(InvalidData)` — the header announces more than `max_frame`
///   bytes; nothing is allocated for such a frame.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    // Start the header by hand so clean EOF at a frame boundary is
    // distinguishable from truncation inside one.
    let mut got = 0;
    while got == 0 {
        match r.read(&mut header) {
            Ok(0) => return Ok(None),
            Ok(n) => got = n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut header[got..])?;
    let len = u32::from_be_bytes(header) as usize;
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("incoming frame of {len} bytes exceeds max {max_frame}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Takes at most `.2` bytes per call, across the slices of a
    /// vectored write as a socket does; `.1` counts the calls.
    struct Trickle(Vec<u8>, usize, usize);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let flat: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
            let n = flat.len().min(self.2);
            self.0.extend_from_slice(&flat[..n]);
            self.1 += 1;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Hands out one byte per read call.
    struct OneByte(Cursor<Vec<u8>>);

    impl Read for OneByte {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn frames_round_trip() {
        // Short writes and one-byte reads: frames still come out whole.
        let mut w = Trickle(Vec::new(), 0, 3);
        write_frame(&mut w, b"hello", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut w, b"", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut w, &[0xff; 300], DEFAULT_MAX_FRAME).unwrap();
        let mut r = OneByte(Cursor::new(w.0));
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(),
            vec![0xff; 300]
        );
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn a_frame_goes_down_in_one_write() {
        let mut w = Trickle(Vec::new(), 0, usize::MAX);
        write_frame(&mut w, b"hello", DEFAULT_MAX_FRAME).unwrap();
        assert_eq!((w.0.as_slice(), w.1), (&b"\0\0\0\x05hello"[..], 1));
    }

    #[test]
    fn truncated_header_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", DEFAULT_MAX_FRAME).unwrap();
        buf.truncate(2); // half a header
        let err = read_frame(&mut Cursor::new(buf), DEFAULT_MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello world", DEFAULT_MAX_FRAME).unwrap();
        buf.truncate(7); // header + 3 of 11 payload bytes
        let err = read_frame(&mut Cursor::new(buf), DEFAULT_MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocating() {
        // Reader side: a header claiming 1 GiB against a 1 KiB cap.
        let mut buf = (1u32 << 30).to_be_bytes().to_vec();
        buf.extend_from_slice(&[0; 16]);
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Writer side refuses symmetric overage.
        let mut out = Vec::new();
        let err = write_frame(&mut out, &[0u8; 2048], 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing may be written for a rejected frame");
    }

    #[test]
    fn max_frame_boundary_is_exact() {
        let max = 1024usize;
        // Exactly at the cap: accepted by both directions.
        let payload = vec![7u8; max];
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload, max).unwrap();
        assert_eq!(
            read_frame(&mut Cursor::new(&buf), max).unwrap().unwrap(),
            payload
        );
        // One under: accepted.
        let payload = vec![7u8; max - 1];
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload, max).unwrap();
        assert_eq!(
            read_frame(&mut Cursor::new(&buf), max).unwrap().unwrap(),
            payload
        );
        // One over, writer side: refused before any byte is written.
        let mut out = Vec::new();
        let err = write_frame(&mut out, &vec![7u8; max + 1], max).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
        // One over, reader side: a hand-rolled header announcing
        // max+1 bytes is rejected before allocating the payload.
        let mut buf = ((max as u32) + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(&vec![7u8; max + 1]);
        let err = read_frame(&mut Cursor::new(buf), max).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn header_is_big_endian() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[7; 5], DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(&buf[..4], &[0, 0, 0, 5]);
        assert_eq!(frame_len(5), buf.len() as u64);
    }
}
