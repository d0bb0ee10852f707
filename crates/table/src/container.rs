//! The one checksummed container behind every on-disk format of the
//! storage tier: `emtbl` tables, `emckpt` phase checkpoints, `emsvc`
//! service checkpoints and `emstream` session checkpoints.
//!
//! ## Layout (little-endian)
//!
//! ```text
//! magic    8B   six bytes of format name (space-padded) + "v<N>", e.g. "emtbl v2"
//! segment  tag:u64 | len:u64 | payload[len] | zero pad to 8 | fnv1a(payload):u64
//! ...           (as many segments as the format defines, in its order)
//! end      a segment with the reserved tag 0xee and an empty payload
//! ```
//!
//! Nothing may follow the end segment, so a torn write (a strict prefix)
//! and an appended tail are both errors. Every segment — and so every
//! payload — starts at a multiple of 8 from the buffer base: a format that
//! pads its own sections to 8 can cast them to `[u64]`/`[i64]`/`[f64]` in
//! place when the buffer base is 8-aligned (a page-aligned `mmap`, a
//! `Vec<u64>` backing). Every byte is covered by a check: the magic by
//! comparison, the tag by the caller's expected tag, the length by bounds
//! and by where the checksum lands, the payload by its FNV-1a, the padding
//! by being zero.
//!
//! [`Writer`] streams segments to any [`Write`]. [`Reader`] walks a
//! borrowed buffer (possibly a mapped file) and hands out payload views
//! without copying; a payload is itself a [`Reader`], a bounds-checked
//! cursor over `u64` words (integers, or `f64` bit patterns), varints and
//! length-prefixed bytes. Every error is a [`TableError::Format`] naming
//! the byte offset. The container emits no spans: the formats on top own
//! their telemetry.

use std::fmt;
use std::io::{self, Write};

use magellan_obs::fnv1a;

use crate::error::TableError;
use crate::Result;

/// Tag of the end segment; formats may not use it for their own segments.
const END: u64 = 0xee;

fn err(at: usize, msg: impl fmt::Display) -> TableError {
    TableError::Format(format!("at byte {at}: {msg}"))
}

/// Streams a container: magic first, then one framed segment per
/// [`Writer::segment`] call, then the end segment on [`Writer::finish`].
#[derive(Debug)]
pub struct Writer<W: Write> {
    w: W,
}

impl<W: Write> Writer<W> {
    /// Start a container with the format's 8-byte `magic`.
    pub fn new(mut w: W, magic: &[u8; 8]) -> io::Result<Self> {
        w.write_all(magic)?;
        Ok(Writer { w })
    }

    /// Append one segment. Panics if `tag` is the reserved end tag.
    pub fn segment(&mut self, tag: u64, payload: &[u8]) -> io::Result<()> {
        assert_ne!(
            tag, END,
            "segment tag {END:#x} is reserved for the end segment"
        );
        self.frame(tag, payload)
    }

    /// Write the end segment and hand back the inner writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.frame(END, &[])?;
        Ok(self.w)
    }

    fn frame(&mut self, tag: u64, payload: &[u8]) -> io::Result<()> {
        let pad = payload.len().next_multiple_of(8) - payload.len();
        self.w.write_all(&tag.to_le_bytes())?;
        self.w.write_all(&(payload.len() as u64).to_le_bytes())?;
        self.w.write_all(payload)?;
        self.w.write_all(&[0u8; 8][..pad])?;
        self.w.write_all(&fnv1a(payload).to_le_bytes())
    }
}

/// Append a LEB128 varint (what [`Reader::varint`] reads).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Append varint-length-prefixed bytes (what [`Reader::bytes`] reads).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// A bounds-checked cursor over a borrowed container buffer.
///
/// [`Reader::open`] yields the file-level reader; [`Reader::segment`]
/// verifies the next segment and yields a reader over just its payload.
/// [`Reader::finish`] demands that the reader is used up — at file level
/// that means the end segment and nothing after it.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    end: usize,
    file: bool,
}

impl<'a> Reader<'a> {
    /// Check the magic and position after it. A buffer that starts with
    /// the same format name but another version is an "unsupported
    /// version"; anything else is a "bad magic".
    pub fn open(buf: &'a [u8], magic: &[u8; 8]) -> Result<Reader<'a>> {
        if !buf.starts_with(magic) {
            let name = magic[..6].trim_ascii_end();
            let found = String::from_utf8_lossy(&buf[..buf.len().min(8)]);
            let want = String::from_utf8_lossy(magic);
            return Err(if buf.starts_with(name) {
                err(
                    0,
                    format!("unsupported version `{found}` (this build reads `{want}`)"),
                )
            } else {
                err(0, format!("bad magic `{found}` (not a `{want}` file)"))
            });
        }
        Ok(Reader {
            buf,
            pos: magic.len(),
            end: buf.len(),
            file: true,
        })
    }

    /// Verify the next segment — its tag must be `tag` — and return a
    /// reader over its payload, which starts 8-aligned in the buffer.
    pub fn segment(&mut self, tag: u64) -> Result<Reader<'a>> {
        let at = self.pos;
        let bad = |what: String| err(at, format!("segment {tag:#x}: {what}"));
        if !at.is_multiple_of(8) {
            return Err(bad("not 8-aligned".into()));
        }
        let found = self.u64()?;
        if found != tag {
            return Err(bad(format!("found tag {found:#x}")));
        }
        let len = self.u64()?;
        let (start, room) = (self.pos, self.end - self.pos);
        let padded = usize::try_from(len)
            .ok()
            .and_then(|n| n.checked_next_multiple_of(8));
        let Some(padded) = padded.filter(|&p| p <= room && room - p >= 8) else {
            return Err(bad(format!("{len} bytes run past the end")));
        };
        let stop = start + len as usize;
        if self.buf[stop..start + padded].iter().any(|&b| b != 0) {
            return Err(bad("nonzero padding".into()));
        }
        self.pos = start + padded;
        let (stored, computed) = (self.u64()?, fnv1a(&self.buf[start..stop]));
        if stored != computed {
            let sums = format!("stored {stored:016x}, computed {computed:016x}");
            return Err(bad(format!(
                "checksum mismatch: {sums} (torn write or tampered file)"
            )));
        }
        Ok(Reader {
            buf: self.buf,
            pos: start,
            end: stop,
            file: false,
        })
    }

    /// Demand the reader is used up: a payload must have no unread bytes;
    /// a file must hold the end segment and nothing after it.
    pub fn finish(mut self) -> Result<()> {
        if self.file {
            let end = self.segment(END)?;
            if end.pos != end.end {
                return Err(err(end.pos, "end segment has a payload"));
            }
        }
        if self.pos != self.end {
            let left = self.end - self.pos;
            return Err(err(self.pos, format!("{left} trailing bytes")));
        }
        Ok(())
    }

    /// Borrow the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let left = self.end - self.pos;
        if n > left {
            return Err(err(
                self.pos,
                format!("truncated: {n} bytes wanted, {left} left"),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a LEB128 varint of at most 10 bytes.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in 0..10 {
            let b = self.take(1)?[0];
            v |= u64::from(b & 0x7f) << (shift * 7);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(err(self.pos, "overlong varint"))
    }

    /// Borrow varint-length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let at = self.pos;
        let n = self.varint()?;
        let n = usize::try_from(n).map_err(|_| err(at, format!("length {n} overflows")))?;
        self.take(n)
    }

    /// A format error at the current position, for a format's own checks
    /// on a payload that framed correctly.
    pub fn error(&self, msg: impl fmt::Display) -> TableError {
        err(self.pos, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"emtst v2";

    /// A three-segment file whose payloads need padding, hold every
    /// cursor type, and include an empty one.
    fn sample() -> Vec<u8> {
        let mut a = 7u64.to_le_bytes().to_vec();
        put_varint(&mut a, 300);
        put_bytes(&mut a, "héllo".as_bytes());
        let b = 1.5f64.to_le_bytes();
        let mut w = Writer::new(Vec::new(), MAGIC).unwrap();
        w.segment(1, &a).unwrap();
        w.segment(2, &b).unwrap();
        w.segment(3, &[]).unwrap();
        w.finish().unwrap()
    }

    fn read(buf: &[u8]) -> Result<(u64, u64, String, f64)> {
        let mut r = Reader::open(buf, MAGIC)?;
        let mut a = r.segment(1)?;
        let mut b = r.segment(2)?;
        r.segment(3)?.finish()?;
        r.finish()?;
        let (n, v) = (a.u64()?, a.varint()?);
        let text = String::from_utf8_lossy(a.bytes()?).into_owned();
        let out = (n, v, text, f64::from_bits(b.u64()?));
        a.finish()?;
        b.finish()?;
        Ok(out)
    }

    /// `read(buf)` is an error whose message holds every needle.
    fn fails(buf: &[u8], needles: &[&str]) {
        let e = read(buf).expect_err("corrupt container parsed").to_string();
        assert!(
            needles.iter().all(|n| e.contains(n)),
            "{e} lacks {needles:?}"
        );
    }

    #[test]
    fn round_trips_with_aligned_payloads() {
        let buf = sample();
        assert_eq!(read(&buf).unwrap(), (7, 300, "héllo".into(), 1.5));
        let mut r = Reader::open(&buf, MAGIC).unwrap();
        for tag in 1..=3 {
            assert_eq!(
                r.segment(tag).unwrap().pos % 8,
                0,
                "payload {tag} unaligned"
            );
        }
        r.finish().unwrap();
    }

    /// The corruption matrix every format inherits: each case is an
    /// `Err`, never a panic and never a parse.
    #[test]
    fn corruption_matrix_is_always_an_error() {
        let buf = sample();
        for i in 0..buf.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut bad = buf.clone();
                bad[i] ^= flip;
                assert!(read(&bad).is_err(), "flip {flip:#x} at byte {i} parsed");
            }
        }
        for cut in 0..buf.len() {
            assert!(read(&buf[..cut]).is_err(), "prefix of {cut} bytes parsed");
        }
        for tail in [&[0u8][..], &[0u8; 8][..], &buf[8..]] {
            fails(&[&buf[..], tail].concat(), &["trailing bytes"]);
        }
        // No end segment: the last 24 bytes are the end frame.
        fails(&buf[..buf.len() - 24], &["truncated"]);
        // Lengths that overflow or run past the end of the buffer.
        for len in [u64::MAX, u64::MAX - 7, buf.len() as u64, 1 << 40] {
            let mut bad = buf.clone();
            bad[16..24].copy_from_slice(&len.to_le_bytes());
            fails(&bad, &["at byte 8", "run past the end"]);
        }
        // A payload written without its padding.
        let unpadded = [&MAGIC[..], &1u64.to_le_bytes(), &3u64.to_le_bytes(), b"abc"].concat();
        let unpadded = [unpadded, fnv1a(b"abc").to_le_bytes().to_vec()].concat();
        assert!(Reader::open(&unpadded, MAGIC).unwrap().segment(1).is_err());
        // A reader at an unaligned position refuses to frame a segment.
        let mut r = Reader::open(&buf, MAGIC).unwrap();
        r.take(3).unwrap();
        let e = r.segment(1).unwrap_err().to_string();
        assert!(e.contains("at byte 11: segment 0x1: not 8-aligned"), "{e}");
    }

    #[test]
    fn errors_name_offsets_and_versions() {
        let buf = sample();
        fails(
            &[b"emtst v1", &buf[8..]].concat(),
            &["at byte 0", "unsupported version"],
        );
        fails(b"PK\x03\x04 zip file", &["bad magic"]);
        let mut bad = buf.clone();
        bad[24] ^= 1; // first payload byte
        fails(&bad, &["at byte 8", "checksum mismatch"]);
        let mut bad = buf.clone();
        bad[8] = 2;
        fails(&bad, &["segment 0x1: found tag 0x2"]);
        let mut r = Reader::open(&buf, MAGIC).unwrap();
        let mut a = r.segment(1).unwrap();
        a.take(a.end - a.pos).unwrap();
        assert!(a.u64().unwrap_err().to_string().contains("truncated"));
        let mut r = Reader::open(&[0xff; 19], &[0xff; 8]).unwrap();
        assert!(r
            .varint()
            .unwrap_err()
            .to_string()
            .contains("overlong varint"));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn end_tag_is_reserved() {
        let mut w = Writer::new(Vec::new(), MAGIC).unwrap();
        let _ = w.segment(END, &[]);
    }
}
