//! Minimal byte-cursor traits for the wire formats.
//!
//! A drop-in, in-tree replacement for the subset of the `bytes` crate the
//! header codec uses: big-endian getters/putters over an advancing `&[u8]`
//! cursor and an appending `Vec<u8>`.

/// A readable byte cursor. Getters advance past what they read and panic
/// on underflow — callers bound reads with [`Buf::remaining`] first.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Copies `dst.len()` bytes out, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    fn get_f32(&mut self) -> f32 {
        f32::from_bits(self.get_u32())
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.len() >= dst.len(), "buffer underflow");
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

/// An appendable byte sink; putters use network (big-endian) byte order.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_big_endian() {
        let mut v = Vec::new();
        v.put_u16(0x1234);
        v.put_u32(0xdead_beef);
        v.put_f32(1.5);
        assert_eq!(v.len(), 10);
        assert_eq!(&v[0..2], &[0x12, 0x34]); // network byte order

        let mut cur: &[u8] = &v;
        assert_eq!(cur.remaining(), 10);
        assert_eq!(cur.get_u16(), 0x1234);
        assert_eq!(cur.get_u32(), 0xdead_beef);
        assert_eq!(cur.get_f32(), 1.5);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut cur: &[u8] = &[1u8];
        let _ = cur.get_u16();
    }
}
