//! Pluggable datagram transports.
//!
//! The runtime's client and server are generic over [`Transport`]: an
//! unreliable, unordered, message-boundary-preserving datagram endpoint —
//! exactly UDP's contract. Three implementations:
//!
//! - [`UdpTransport`]: a std `UdpSocket`, the real loopback wire;
//! - [`MemLink`]: an in-memory endpoint pair with no timing and no
//!   threads, so invocation-semantics tests are fully deterministic;
//! - [`crate::faulty::FaultyTransport`]: a seeded fault-injecting wrapper
//!   around either.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Largest datagram the runtime will send: comfortably under the 64 KiB
/// UDP limit, leaving room for framing and envelope overhead.
pub const MAX_DATAGRAM: usize = 60 * 1024;

/// An unreliable datagram endpoint.
///
/// `recv` returns `Ok(None)` when no datagram arrived within `timeout` —
/// the client treats that as a retransmission-timer tick. A zero timeout
/// means "drain what is already pending, never block", which is how the
/// poll-driven server and the deterministic tests use it.
pub trait Transport {
    /// Sends one datagram.
    fn send(&mut self, datagram: &[u8]) -> io::Result<()>;

    /// Receives one datagram into `buf`, waiting at most `timeout`.
    fn recv(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>>;
}

/// A connected UDP socket as a [`Transport`].
///
/// The socket is *connected* to its peer, so `send`/`recv` are
/// point-to-point and datagrams from other sources are filtered by the
/// kernel. This is the client side; a server answers many peers, so it
/// uses [`UdpServerSocket`], which tracks each datagram's peer address.
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
    current_timeout: Option<Duration>,
}

impl UdpTransport {
    /// Binds an ephemeral local socket and connects it to `peer`.
    pub fn connect<A: ToSocketAddrs>(peer: A) -> io::Result<UdpTransport> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.connect(peer)?;
        Ok(UdpTransport {
            socket,
            current_timeout: None,
        })
    }

    /// The local address the socket is bound to.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    fn set_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        // Zero read-timeouts are invalid on std sockets; use a short
        // floor so "drain pending" still returns promptly.
        let effective = if timeout.is_zero() {
            Duration::from_millis(1)
        } else {
            timeout
        };
        if self.current_timeout != Some(effective) {
            self.socket.set_read_timeout(Some(effective))?;
            self.current_timeout = Some(effective);
        }
        Ok(())
    }
}

impl Transport for UdpTransport {
    fn send(&mut self, datagram: &[u8]) -> io::Result<()> {
        self.socket.send(datagram).map(|_| ())
    }

    fn recv(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        self.set_timeout(timeout)?;
        match self.socket.recv(buf) {
            Ok(n) => Ok(Some(n)),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// The server side of a datagram transport: receives carry the sender's
/// identity so replies can be addressed back to it.
///
/// Every point-to-point [`Transport`] is trivially a `ServerTransport`
/// with `Peer = ()` (there is only one possible sender), which is how the
/// deterministic in-memory tests drive the server. The real UDP server
/// socket implements it with `Peer = SocketAddr` and serves any number of
/// clients.
pub trait ServerTransport {
    /// The sender identity attached to received datagrams.
    type Peer: Copy + Eq + std::fmt::Debug;

    /// Receives one datagram and its origin, waiting at most `timeout`.
    fn recv_from(
        &mut self,
        buf: &mut [u8],
        timeout: Duration,
    ) -> io::Result<Option<(usize, Self::Peer)>>;

    /// Sends a datagram to `peer`.
    fn send_to(&mut self, datagram: &[u8], peer: Self::Peer) -> io::Result<()>;
}

impl<T: Transport> ServerTransport for T {
    type Peer = ();

    fn recv_from(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<(usize, ())>> {
        Ok(self.recv(buf, timeout)?.map(|n| (n, ())))
    }

    fn send_to(&mut self, datagram: &[u8], _peer: ()) -> io::Result<()> {
        self.send(datagram)
    }
}

/// An unconnected UDP socket as a [`ServerTransport`]: remembers where
/// each datagram came from and replies to that address.
#[derive(Debug)]
pub struct UdpServerSocket {
    socket: UdpSocket,
    current_timeout: Option<Duration>,
}

impl UdpServerSocket {
    /// Binds the server socket.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<UdpServerSocket> {
        Ok(UdpServerSocket {
            socket: UdpSocket::bind(addr)?,
            current_timeout: None,
        })
    }

    /// The bound address (port is ephemeral when bound to `:0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }
}

impl ServerTransport for UdpServerSocket {
    type Peer = SocketAddr;

    fn recv_from(
        &mut self,
        buf: &mut [u8],
        timeout: Duration,
    ) -> io::Result<Option<(usize, SocketAddr)>> {
        let effective = if timeout.is_zero() {
            Duration::from_millis(1)
        } else {
            timeout
        };
        if self.current_timeout != Some(effective) {
            self.socket.set_read_timeout(Some(effective))?;
            self.current_timeout = Some(effective);
        }
        match self.socket.recv_from(buf) {
            Ok((n, from)) => Ok(Some((n, from))),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn send_to(&mut self, datagram: &[u8], peer: SocketAddr) -> io::Result<()> {
        self.socket.send_to(datagram, peer).map(|_| ())
    }
}

/// One direction of an in-memory link: a shared FIFO of datagrams.
type Queue = Arc<Mutex<VecDeque<Vec<u8>>>>;

/// An in-memory datagram endpoint, created in pairs by [`MemLink::pair`].
///
/// There is no timing: `recv` with any timeout returns immediately —
/// either the next pending datagram or `None`. Deterministic tests treat
/// each `None` as one retransmission-timer expiry, so a whole
/// client/server exchange (drops, duplicates, retries and all) runs in a
/// single thread with a fully reproducible schedule.
#[derive(Debug)]
pub struct MemLink {
    inbox: Queue,
    outbox: Queue,
}

impl MemLink {
    /// Creates a connected endpoint pair `(a, b)`: what `a` sends, `b`
    /// receives, and vice versa.
    pub fn pair() -> (MemLink, MemLink) {
        let ab: Queue = Arc::new(Mutex::new(VecDeque::new()));
        let ba: Queue = Arc::new(Mutex::new(VecDeque::new()));
        (
            MemLink {
                inbox: ba.clone(),
                outbox: ab.clone(),
            },
            MemLink {
                inbox: ab,
                outbox: ba,
            },
        )
    }
}

impl Transport for MemLink {
    fn send(&mut self, datagram: &[u8]) -> io::Result<()> {
        self.outbox.lock().unwrap().push_back(datagram.to_vec());
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8], _timeout: Duration) -> io::Result<Option<usize>> {
        match self.inbox.lock().unwrap().pop_front() {
            Some(datagram) => {
                let n = datagram.len().min(buf.len());
                buf[..n].copy_from_slice(&datagram[..n]);
                Ok(Some(n))
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_link_delivers_in_order() {
        let (mut a, mut b) = MemLink::pair();
        a.send(b"one").unwrap();
        a.send(b"two").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(b.recv(&mut buf, Duration::ZERO).unwrap(), Some(3));
        assert_eq!(&buf[..3], b"one");
        assert_eq!(b.recv(&mut buf, Duration::ZERO).unwrap(), Some(3));
        assert_eq!(&buf[..3], b"two");
        assert_eq!(b.recv(&mut buf, Duration::ZERO).unwrap(), None);
    }

    #[test]
    fn mem_link_is_bidirectional() {
        let (mut a, mut b) = MemLink::pair();
        a.send(b"ping").unwrap();
        let mut buf = [0u8; 16];
        let n = b.recv(&mut buf, Duration::ZERO).unwrap().unwrap();
        b.send(&buf[..n]).unwrap();
        let n = a.recv(&mut buf, Duration::ZERO).unwrap().unwrap();
        assert_eq!(&buf[..n], b"ping");
    }

    #[test]
    fn udp_loopback_roundtrips_if_available() {
        // Exercises the real socket path; skips (rather than flakes) in
        // sandboxes that forbid binding loopback sockets.
        let Ok(mut server) = UdpServerSocket::bind("127.0.0.1:0") else {
            eprintln!("skipping: cannot bind loopback UDP");
            return;
        };
        let addr = server.local_addr().unwrap();
        let mut client = UdpTransport::connect(addr).unwrap();
        client.send(b"hello wire").unwrap();
        let mut buf = [0u8; 64];
        let (n, from) = server
            .recv_from(&mut buf, Duration::from_secs(5))
            .unwrap()
            .expect("datagram arrives on loopback");
        server.send_to(&buf[..n], from).unwrap();
        let n = client
            .recv(&mut buf, Duration::from_secs(5))
            .unwrap()
            .expect("reply arrives");
        assert_eq!(&buf[..n], b"hello wire");
    }
}
