//! UDP packet I/O.
//!
//! Encapsulates EMPoWER frames (the 20-byte layer-2.5 header plus
//! payload) in UDP datagrams — one frame per datagram, so the header's
//! fixed offset survives and datagram boundaries delimit frames for free.
//! The socket runs with a short read timeout so [`PacketIo::recv`] honors
//! the trait's poll semantics (`Ok(false)` when nothing is waiting).

use std::io::ErrorKind;
use std::net::UdpSocket;
use std::time::Duration;

use super::{IoError, PacketIo};

/// At least the largest UDP payload, so any datagram fits the receive
/// scratch whole.
const MAX_DATAGRAM: usize = 64 * 1024;

/// A [`PacketIo`] over a bound (and logically connected) UDP socket.
pub struct UdpBackend {
    sock: UdpSocket,
    peer: String,
    /// Where datagrams land before being copied, at their length, into the
    /// caller's frame; zeroed once, at bind.
    scratch: Box<[u8]>,
}

impl UdpBackend {
    /// Poll granularity: how long `recv` waits before reporting "nothing".
    const POLL_TIMEOUT: Duration = Duration::from_millis(5);

    /// Binds `local` (e.g. `127.0.0.1:9001`, or port 0 for ephemeral) and
    /// targets `peer` for sends.
    pub fn bind(local: &str, peer: &str) -> Result<UdpBackend, IoError> {
        let sock = UdpSocket::bind(local)?;
        sock.set_read_timeout(Some(Self::POLL_TIMEOUT))?;
        Ok(UdpBackend {
            sock,
            peer: peer.to_string(),
            scratch: vec![0u8; MAX_DATAGRAM].into_boxed_slice(),
        })
    }

    /// The locally bound address, as a printable string.
    pub fn local_addr(&self) -> Result<String, IoError> {
        Ok(self.sock.local_addr()?.to_string())
    }
}

impl PacketIo for UdpBackend {
    /// The datagram is copied into the socket; the caller keeps its buffer.
    fn send(&mut self, frame: &mut Vec<u8>) -> Result<(), IoError> {
        let n = self.sock.send_to(frame, &self.peer)?;
        if n != frame.len() {
            return Err(IoError(format!("short send: {n} of {} bytes", frame.len())));
        }
        Ok(())
    }

    fn recv(&mut self, frame: &mut Vec<u8>) -> Result<bool, IoError> {
        match self.sock.recv_from(&mut self.scratch) {
            Ok((n, _from)) => {
                frame.clear();
                frame.extend_from_slice(&self.scratch[..n]);
                Ok(true)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected pair on ephemeral loopback ports, or `None` where the
    /// sandbox forbids sockets.
    fn pair() -> Option<(UdpBackend, UdpBackend)> {
        let a = UdpBackend::bind("127.0.0.1:0", "127.0.0.1:1").ok()?;
        let b = UdpBackend::bind("127.0.0.1:0", &a.local_addr().ok()?).ok()?;
        let a = UdpBackend { peer: b.local_addr().ok()?, ..a };
        Some((a, b))
    }

    /// Polls `io` until a datagram lands (it may need a poll cycle).
    fn recv_within_polls(io: &mut UdpBackend, frame: &mut Vec<u8>) -> bool {
        (0..20).any(|_| io.recv(frame).unwrap())
    }

    #[test]
    fn datagrams_round_trip_over_loopback() {
        let Some((mut a, mut b)) = pair() else {
            return;
        };
        let mut frame = b"hello over udp".to_vec();
        a.send(&mut frame).unwrap();
        assert_eq!(frame, b"hello over udp", "the sender keeps its buffer");
        let mut got = Vec::new();
        assert!(recv_within_polls(&mut b, &mut got), "datagram never arrived");
        assert_eq!(got, b"hello over udp");
    }

    #[test]
    fn a_short_datagram_after_a_long_one_leaves_no_stale_tail() {
        let Some((mut a, mut b)) = pair() else {
            return;
        };
        let mut got = Vec::new();
        a.send(&mut vec![5u8; 1200]).unwrap();
        assert!(recv_within_polls(&mut b, &mut got), "long datagram never arrived");
        assert_eq!(got, [5u8; 1200]);
        a.send(&mut b"short".to_vec()).unwrap();
        assert!(recv_within_polls(&mut b, &mut got), "short datagram never arrived");
        assert_eq!(got, b"short");
    }

    #[test]
    fn empty_socket_reports_none() {
        let Ok(mut a) = UdpBackend::bind("127.0.0.1:0", "127.0.0.1:1") else {
            return;
        };
        let mut frame = b"untouched".to_vec();
        assert!(!a.recv(&mut frame).unwrap());
        assert_eq!(frame, b"untouched");
    }
}
