//! In-memory loopback backend.
//!
//! A [`SimBackend`] pair shares two one-way wires: what one side sends the
//! other receives, in order, with optional deterministic loss injection.
//! Tests and the simulator use it to drive the exact node code the UDP
//! backend runs, without sockets.
//!
//! Frames move, they are not copied: `send` parks the caller's buffer on
//! the wire and hands back a spare, `recv` swaps the queued buffer into the
//! caller's and keeps the caller's old one as the next spare. Buffers
//! therefore circulate between the two endpoints of a wire, and once as
//! many exist as frames are in flight, nothing allocates.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use super::{IoError, PacketIo};

/// One direction of a pair: the frames in flight and the spare buffers
/// receivers have handed back for the sender to reuse.
#[derive(Debug, Default)]
struct Wire {
    frames: VecDeque<Vec<u8>>,
    spare: Vec<Vec<u8>>,
}

type SharedWire = Rc<RefCell<Wire>>;

/// One side of an in-memory loopback pair.
pub struct SimBackend {
    tx: SharedWire,
    rx: SharedWire,
    sent: u64,
    drop_every: Option<u64>,
}

impl SimBackend {
    /// A connected pair: frames sent on either side arrive at the other.
    pub fn pair() -> (SimBackend, SimBackend) {
        let ab = SharedWire::default();
        let ba = SharedWire::default();
        (
            SimBackend { tx: Rc::clone(&ab), rx: Rc::clone(&ba), sent: 0, drop_every: None },
            SimBackend { tx: ba, rx: ab, sent: 0, drop_every: None },
        )
    }

    /// Deterministic loss injection: silently drops every `k`-th sent
    /// frame (the k-th, 2k-th, …). `k = 0` disables.
    pub fn drop_every(mut self, k: u64) -> Self {
        self.drop_every = (k > 0).then_some(k);
        self
    }

    /// Frames waiting to be received on this side.
    pub fn pending(&self) -> usize {
        self.rx.borrow().frames.len()
    }
}

impl PacketIo for SimBackend {
    fn send(&mut self, frame: &mut Vec<u8>) -> Result<(), IoError> {
        self.sent += 1;
        if let Some(k) = self.drop_every {
            if self.sent.is_multiple_of(k) {
                return Ok(()); // the wire ate it
            }
        }
        let mut wire = self.tx.borrow_mut();
        let mut spare = wire.spare.pop().unwrap_or_default();
        spare.clear();
        wire.frames.push_back(std::mem::replace(frame, spare));
        Ok(())
    }

    fn recv(&mut self, frame: &mut Vec<u8>) -> Result<bool, IoError> {
        let mut wire = self.rx.borrow_mut();
        let Some(next) = wire.frames.pop_front() else {
            return Ok(false);
        };
        wire.spare.push(std::mem::replace(frame, next));
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends `bytes` through a scratch buffer, as an endpoint would.
    fn send(io: &mut SimBackend, bytes: &[u8]) {
        let mut frame = bytes.to_vec();
        io.send(&mut frame).unwrap();
    }

    #[test]
    fn frames_cross_the_pair_in_order() {
        let (mut a, mut b) = SimBackend::pair();
        send(&mut a, b"one");
        send(&mut a, b"two");
        send(&mut b, b"back");
        let mut buf = Vec::new();
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, b"one");
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, b"two");
        assert!(!b.recv(&mut buf).unwrap());
        assert_eq!(buf, b"two", "an empty poll leaves the buffer untouched");
        assert!(a.recv(&mut buf).unwrap());
        assert_eq!(buf, b"back");
    }

    #[test]
    fn drop_every_k_loses_exactly_the_kth_frames() {
        let (mut a, mut b) = SimBackend::pair();
        a = a.drop_every(3);
        for i in 0..9u8 {
            let mut frame = vec![i];
            a.send(&mut frame).unwrap();
            if (i + 1) % 3 == 0 {
                assert_eq!(frame, [i], "a dropped frame stays with the caller");
            } else {
                assert!(frame.is_empty(), "a sent frame's buffer is swapped for an empty one");
            }
        }
        assert_eq!(b.pending(), 6);
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while b.recv(&mut buf).unwrap() {
            got.push(buf.clone());
        }
        assert_eq!(got, vec![vec![0], vec![1], vec![3], vec![4], vec![6], vec![7]]);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn buffers_circulate_without_aliasing_queued_frames() {
        let (mut a, mut b) = SimBackend::pair();
        let mut frame = b"first".to_vec();
        a.send(&mut frame).unwrap();
        // The receiver's old buffer becomes the sender's next spare.
        let mut rx = Vec::with_capacity(64);
        rx.extend_from_slice(b"stale receiver bytes");
        let rx_ptr = rx.as_ptr();
        assert!(b.recv(&mut rx).unwrap());
        assert_eq!(rx, b"first");

        frame.extend_from_slice(b"second");
        a.send(&mut frame).unwrap();
        assert_eq!(frame.as_ptr(), rx_ptr, "send hands back the buffer recv retired");
        assert!(frame.is_empty(), "the recycled buffer carries no old bytes");
        assert_eq!(a.pending(), 0);
        assert_eq!(b.pending(), 1);
        // Writing into the handed-back buffer cannot reach the queued frame.
        frame.extend_from_slice(b"scribble");
        assert!(b.recv(&mut rx).unwrap());
        assert_eq!(rx, b"second");
    }

    #[test]
    fn a_short_frame_after_a_long_one_leaves_no_stale_tail() {
        let (mut a, mut b) = SimBackend::pair();
        send(&mut a, &[7u8; 1500]);
        send(&mut a, b"tiny");
        let mut buf = Vec::new();
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf.len(), 1500);
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, b"tiny");
        // Again with the sender writing the short frame into the long
        // frame's buffer, recycled through the spare list (as `Encap` does).
        let mut frame = vec![9u8; 1500];
        a.send(&mut frame).unwrap();
        assert!(frame.capacity() >= 1500, "the spare is the long frame's buffer");
        frame.extend_from_slice(b"ab");
        a.send(&mut frame).unwrap();
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, [9u8; 1500]);
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, b"ab");
    }
}
