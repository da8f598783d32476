//! Low-level wire-format cursor types.
//!
//! DNS messages are read and written through [`WireReader`] and
//! [`WireWriter`]. Both keep explicit positions so that name compression
//! (RFC 1035 §4.1.4) can refer back to earlier offsets.

use crate::error::{ProtoError, ProtoResult};

/// Maximum size of a DNS message we are willing to emit or parse.
///
/// Classic UDP DNS is 512 bytes; EDNS0 extends this. We allow the full
/// 64 KiB space since the length fields are 16 bits.
pub const MAX_MESSAGE_SIZE: usize = u16::MAX as usize;

/// A bounds-checked reader over a DNS message buffer.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current read offset from the start of the message.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Repositions the cursor. Used when following compression pointers.
    pub fn seek(&mut self, pos: usize) -> ProtoResult<()> {
        if pos > self.buf.len() {
            return Err(ProtoError::UnexpectedEnd {
                wanted: pos,
                available: self.buf.len(),
            });
        }
        self.pos = pos;
        Ok(())
    }

    /// Number of bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader has consumed the entire buffer.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The whole underlying buffer (needed to follow compression pointers).
    pub fn buffer(&self) -> &'a [u8] {
        self.buf
    }

    /// Reads a single octet.
    pub fn read_u8(&mut self) -> ProtoResult<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(ProtoError::UnexpectedEnd { wanted: self.pos + 1, available: self.buf.len() })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian `u16`.
    pub fn read_u16(&mut self) -> ProtoResult<u16> {
        let bytes = self.read_bytes(2)?;
        Ok(u16::from_be_bytes([bytes[0], bytes[1]]))
    }

    /// Reads a big-endian `u32`.
    pub fn read_u32(&mut self) -> ProtoResult<u32> {
        let bytes = self.read_bytes(4)?;
        Ok(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads exactly `n` bytes, advancing the cursor.
    pub fn read_bytes(&mut self, n: usize) -> ProtoResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::UnexpectedEnd {
            wanted: usize::MAX,
            available: self.buf.len(),
        })?;
        if end > self.buf.len() {
            return Err(ProtoError::UnexpectedEnd { wanted: end, available: self.buf.len() });
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
}

/// An appending writer that builds a DNS message, refusing to grow it
/// past a byte ceiling ([`MAX_MESSAGE_SIZE`] unless lowered).
#[derive(Debug)]
pub struct WireWriter {
    buf: Vec<u8>,
    ceiling: usize,
}

impl Default for WireWriter {
    fn default() -> Self {
        Self::from_vec(Vec::with_capacity(512))
    }
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer that reuses `buf`'s allocation. The vector is
    /// cleared; its capacity is kept, so a buffer recycled across
    /// messages settles at the working-set size and the hot encode path
    /// stops allocating. Recover the buffer with [`WireWriter::into_bytes`].
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { buf, ceiling: MAX_MESSAGE_SIZE }
    }

    /// Lowers (or restores) the size past which writes fail with
    /// [`ProtoError::MessageTooLong`] — a UDP payload limit, so an
    /// oversized answer stops at the first octet that does not fit.
    pub(crate) fn set_ceiling(&mut self, ceiling: usize) {
        self.ceiling = ceiling.min(MAX_MESSAGE_SIZE);
    }

    /// Cuts the message back to its first `len` octets.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Current length of the message being built.
    pub fn position(&self) -> usize {
        self.buf.len()
    }

    /// Appends a single octet.
    pub fn write_u8(&mut self, v: u8) -> ProtoResult<()> {
        self.ensure_room(1)?;
        self.buf.push(v);
        Ok(())
    }

    /// Appends a big-endian `u16`.
    pub fn write_u16(&mut self, v: u16) -> ProtoResult<()> {
        self.ensure_room(2)?;
        self.buf.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }

    /// Appends a big-endian `u32`.
    pub fn write_u32(&mut self, v: u32) -> ProtoResult<()> {
        self.ensure_room(4)?;
        self.buf.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }

    /// Appends raw bytes.
    pub fn write_bytes(&mut self, v: &[u8]) -> ProtoResult<()> {
        self.ensure_room(v.len())?;
        self.buf.extend_from_slice(v);
        Ok(())
    }

    /// Overwrites the two bytes at `pos` with a big-endian `u16`.
    ///
    /// Used to patch RDLENGTH after the RDATA has been emitted.
    pub fn patch_u16(&mut self, pos: usize, v: u16) -> ProtoResult<()> {
        if pos + 2 > self.buf.len() {
            return Err(ProtoError::UnexpectedEnd { wanted: pos + 2, available: self.buf.len() });
        }
        self.buf[pos..pos + 2].copy_from_slice(&v.to_be_bytes());
        Ok(())
    }

    /// Consumes the writer, yielding the finished message bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// A view of the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    fn ensure_room(&self, extra: usize) -> ProtoResult<()> {
        if self.buf.len() + extra > self.ceiling {
            return Err(ProtoError::MessageTooLong(self.buf.len() + extra));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = WireWriter::new();
        w.write_u8(0xab).unwrap();
        w.write_u16(0xbeef).unwrap();
        w.write_u32(0xdeadbeef).unwrap();
        w.write_bytes(&[1, 2, 3]).unwrap();
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 0xab);
        assert_eq!(r.read_u16().unwrap(), 0xbeef);
        assert_eq!(r.read_u32().unwrap(), 0xdeadbeef);
        assert_eq!(r.read_bytes(3).unwrap(), &[1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn reader_rejects_overrun() {
        let mut r = WireReader::new(&[0x01]);
        assert!(r.read_u16().is_err());
        assert_eq!(r.read_u8().unwrap(), 1);
        assert!(r.read_u8().is_err());
    }

    #[test]
    fn seek_bounds() {
        let mut r = WireReader::new(&[0, 1, 2]);
        assert!(r.seek(3).is_ok());
        assert!(r.seek(4).is_err());
    }

    #[test]
    fn patch_u16_updates_in_place() {
        let mut w = WireWriter::new();
        w.write_u16(0).unwrap();
        w.write_u8(9).unwrap();
        w.patch_u16(0, 0x1234).unwrap();
        assert_eq!(w.as_slice(), &[0x12, 0x34, 9]);
    }

    #[test]
    fn patch_u16_out_of_range() {
        let mut w = WireWriter::new();
        w.write_u8(0).unwrap();
        assert!(w.patch_u16(0, 1).is_err());
    }
}
