//! Blocking single-threaded `PALMED-WIRE v1` server (and test client) over
//! UNIX-domain or TCP sockets.
//!
//! The socket layer binds the handful of syscalls it needs directly
//! (`socket`/`bind`/`listen`/`accept`/`recv`/`send`/…) instead of pulling
//! in a crate — the workspace builds offline.  The raw binding is gated to Linux, where the
//! `sockaddr_un`/`sockaddr_in` layouts below are ABI-correct; every other
//! target simply lacks this module (the frame codec and connection state
//! machine are platform-independent and fully exercised through in-memory
//! streams).
//!
//! The server is deliberately single-threaded: one accept loop, one
//! [`Connection`] per client, each pumped with non-blocking reads/writes.
//! Robustness comes from the state machine, not from threads — a stalled,
//! hostile or half-closed peer costs one poisoned or timed-out connection,
//! never the process.  There is one front-end and one serve core: an
//! `epoll(7)` readiness loop (see [`crate::epoll`]) pumps the ready
//! connections, and one [`SharedBatcher`] round per wakeup serves every
//! request they delivered (see [`crate::batcher`] for the bit-identity and
//! fairness contract).

#![cfg(target_os = "linux")]

use crate::batcher::SharedBatcher;
use crate::conn::{Connection, Engine, Limits, WireStream};
use crate::frame::{decode_frame, Decoded, Frame, WireError};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Raw Linux syscall bindings: AF_UNIX and AF_INET stream sockets.
mod sys {
    use std::ffi::c_void;
    use std::io;
    use std::net::{Ipv4Addr, SocketAddrV4};

    pub(super) const AF_UNIX: i32 = 1;
    pub(super) const AF_INET: i32 = 2;
    pub(super) const SOCK_STREAM: i32 = 1;
    const F_SETFL: i32 = 4;
    const O_NONBLOCK: i32 = 0o4000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    const IPPROTO_TCP: i32 = 6;
    const TCP_NODELAY: i32 = 1;
    /// Suppresses `SIGPIPE` on writes to a half-closed peer — the error
    /// comes back as `EPIPE` and shrinks one connection, not the process.
    const MSG_NOSIGNAL: i32 = 0x4000;

    /// `struct sockaddr_un` as Linux lays it out.
    #[repr(C)]
    pub(super) struct SockaddrUn {
        pub(super) sun_family: u16,
        pub(super) sun_path: [u8; 108],
    }

    /// `struct sockaddr_in` as Linux lays it out (port and address stored
    /// big-endian).
    #[repr(C)]
    pub(super) struct SockaddrIn {
        pub(super) sin_family: u16,
        pub(super) sin_port: u16,
        pub(super) sin_addr: u32,
        pub(super) sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        // Address pointers are `*const c_void`: C's `struct sockaddr *`
        // erases the per-family layout anyway, and one erased declaration
        // serves both the AF_UNIX and AF_INET call sites without clashing.
        fn bind(fd: i32, addr: *const c_void, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn accept(fd: i32, addr: *mut c_void, len: *mut u32) -> i32;
        fn connect(fd: i32, addr: *const c_void, len: u32) -> i32;
        fn getsockname(fd: i32, addr: *mut c_void, len: *mut u32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const c_void, len: u32) -> i32;
        fn recv(fd: i32, buf: *mut c_void, len: usize, flags: i32) -> isize;
        fn send(fd: i32, buf: *const c_void, len: usize, flags: i32) -> isize;
        fn close(fd: i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        fn unlink(path: *const u8) -> i32;
    }

    /// An owned file descriptor, closed on drop.
    #[derive(Debug)]
    pub(super) struct Fd(pub(super) i32);

    impl Drop for Fd {
        fn drop(&mut self) {
            // SAFETY: `self.0` is a descriptor this process opened and
            // owns exclusively; double closes are prevented by ownership.
            unsafe {
                close(self.0);
            }
        }
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// Encodes `path` into a `sockaddr_un` (NUL-terminated, 107-byte max).
    pub(super) fn addr_for(path: &[u8]) -> io::Result<SockaddrUn> {
        let mut addr = SockaddrUn { sun_family: AF_UNIX as u16, sun_path: [0; 108] };
        if path.is_empty() || path.len() >= addr.sun_path.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "socket path must be 1..=107 bytes",
            ));
        }
        addr.sun_path[..path.len()].copy_from_slice(path);
        Ok(addr)
    }

    /// A new stream socket in `domain` ([`AF_UNIX`] or [`AF_INET`]):
    /// non-blocking for a server listener, blocking for a client (a
    /// client waits in `recv`/`send` instead of spinning).
    pub(super) fn stream_socket(domain: i32, nonblocking: bool) -> io::Result<Fd> {
        // SAFETY: plain syscall, no pointers.
        let fd = check(unsafe { socket(domain, SOCK_STREAM, 0) })?;
        let fd = Fd(fd);
        if nonblocking {
            set_nonblocking(&fd)?;
        }
        Ok(fd)
    }

    fn set_nonblocking(fd: &Fd) -> io::Result<()> {
        // SAFETY: plain syscall on an owned descriptor.
        check(unsafe { fcntl(fd.0, F_SETFL, O_NONBLOCK) })?;
        Ok(())
    }

    fn set_opt(fd: &Fd, level: i32, name: i32, value: i32) -> io::Result<()> {
        // SAFETY: `value` is a live i32 for the duration of the call and
        // `len` states its exact size.
        check(unsafe { setsockopt(fd.0, level, name, &value as *const i32 as *const c_void, 4) })?;
        Ok(())
    }

    /// Disables Nagle batching: request/response frames should leave as
    /// soon as they are written, not wait out a delayed-ACK window.
    pub(super) fn set_nodelay(fd: &Fd) -> io::Result<()> {
        set_opt(fd, IPPROTO_TCP, TCP_NODELAY, 1)
    }

    pub(super) fn bind_listen(fd: &Fd, path: &[u8]) -> io::Result<()> {
        let addr = addr_for(path)?;
        let len = (2 + path.len() + 1) as u32;
        // SAFETY: `addr` is a valid SockaddrUn and `len` covers the family
        // field plus the NUL-terminated path actually written into it.
        check(unsafe { bind(fd.0, &addr as *const SockaddrUn as *const c_void, len) })?;
        // SAFETY: plain syscall on the bound descriptor.
        check(unsafe { listen(fd.0, 64) })?;
        Ok(())
    }

    fn addr_in(addr: SocketAddrV4) -> SockaddrIn {
        SockaddrIn {
            sin_family: AF_INET as u16,
            sin_port: addr.port().to_be(),
            sin_addr: u32::from(*addr.ip()).to_be(),
            sin_zero: [0; 8],
        }
    }

    pub(super) fn bind_listen_tcp(fd: &Fd, addr: SocketAddrV4) -> io::Result<()> {
        // Reusable address: a stopped server's TIME_WAIT remnant must not
        // block the next bind at the same port.
        set_opt(fd, SOL_SOCKET, SO_REUSEADDR, 1)?;
        let raw = addr_in(addr);
        let len = std::mem::size_of::<SockaddrIn>() as u32;
        // SAFETY: `raw` is a valid SockaddrIn and `len` its exact size.
        check(unsafe { bind(fd.0, &raw as *const SockaddrIn as *const c_void, len) })?;
        // SAFETY: plain syscall on the bound descriptor.
        check(unsafe { listen(fd.0, 64) })?;
        Ok(())
    }

    /// The locally bound TCP address — how a port-0 bind learns its port.
    pub(super) fn local_addr_tcp(fd: &Fd) -> io::Result<SocketAddrV4> {
        let mut raw = addr_in(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0));
        let mut len = std::mem::size_of::<SockaddrIn>() as u32;
        // SAFETY: `raw`/`len` are live out-parameters sized to SockaddrIn.
        check(unsafe { getsockname(fd.0, &mut raw as *mut SockaddrIn as *mut c_void, &mut len) })?;
        Ok(SocketAddrV4::new(
            Ipv4Addr::from(u32::from_be(raw.sin_addr)),
            u16::from_be(raw.sin_port),
        ))
    }

    pub(super) fn connect_to(fd: &Fd, path: &[u8]) -> io::Result<()> {
        let addr = addr_for(path)?;
        let len = (2 + path.len() + 1) as u32;
        // SAFETY: as for `bind` above.
        check(unsafe { connect(fd.0, &addr as *const SockaddrUn as *const c_void, len) })?;
        Ok(())
    }

    pub(super) fn connect_tcp(fd: &Fd, addr: SocketAddrV4) -> io::Result<()> {
        let raw = addr_in(addr);
        let len = std::mem::size_of::<SockaddrIn>() as u32;
        // SAFETY: as for `bind_listen_tcp` above.
        check(unsafe { connect(fd.0, &raw as *const SockaddrIn as *const c_void, len) })?;
        Ok(())
    }

    /// Accepts one pending client, `Ok(None)` when none is waiting.
    pub(super) fn accept_one(fd: &Fd) -> io::Result<Option<Fd>> {
        // SAFETY: null address out-parameters are allowed by accept(2).
        let ret = unsafe { accept(fd.0, std::ptr::null_mut(), std::ptr::null_mut()) };
        if ret < 0 {
            let err = io::Error::last_os_error();
            return match err.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted => Ok(None),
                _ => Err(err),
            };
        }
        let client = Fd(ret);
        set_nonblocking(&client)?;
        Ok(Some(client))
    }

    pub(super) fn recv_bytes(fd: &Fd, buf: &mut [u8]) -> io::Result<usize> {
        // SAFETY: `buf` is a live, writable slice of exactly `buf.len()`
        // bytes for the duration of the call.
        let ret = unsafe { recv(fd.0, buf.as_mut_ptr() as *mut c_void, buf.len(), 0) };
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret as usize)
        }
    }

    pub(super) fn send_bytes(fd: &Fd, buf: &[u8]) -> io::Result<usize> {
        // SAFETY: `buf` is a live, readable slice; MSG_NOSIGNAL keeps a
        // dead peer from raising SIGPIPE.
        let ret = unsafe { send(fd.0, buf.as_ptr() as *const c_void, buf.len(), MSG_NOSIGNAL) };
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret as usize)
        }
    }

    pub(super) fn unlink_path(path: &[u8]) {
        let mut nul = Vec::with_capacity(path.len() + 1);
        nul.extend_from_slice(path);
        nul.push(0);
        // SAFETY: `nul` is a NUL-terminated byte string; failure (e.g. the
        // file is already gone) is intentionally ignored.
        unsafe {
            unlink(nul.as_ptr());
        }
    }
}

/// [`WireStream`] over a non-blocking socket descriptor.
struct SocketStream<'a>(&'a sys::Fd);

impl WireStream for SocketStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        sys::recv_bytes(self.0, buf)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        sys::send_bytes(self.0, buf)
    }
}

/// The readiness mechanism behind [`WireServer`].  `epoll(7)` is the only
/// one: the interest list lives in the kernel and each wakeup pumps only
/// the connections that are actually ready (plus a periodic
/// all-connections timeout sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontEnd {
    /// `epoll(7)` readiness.
    #[default]
    Epoll,
}

/// What the server listens on.
enum Transport {
    Unix { path: PathBuf },
    Tcp { addr: std::net::SocketAddrV4 },
}

impl Transport {
    /// Per-transport client setup at accept time.
    fn prepare_client(&self, client: &sys::Fd) {
        if let Transport::Tcp { .. } = self {
            // Nagle off: a request/response protocol must not wait out
            // delayed ACKs.  Failure is harmless (the frame still flows).
            let _ = sys::set_nodelay(client);
        }
    }

    /// Post-loop teardown (the UNIX socket file is unlinked).
    fn cleanup(&self) {
        if let Transport::Unix { path } = self {
            if let Ok(raw) = path_bytes(path) {
                sys::unlink_path(&raw);
            }
        }
    }
}

/// One connection in the epoll table.
struct EpollSlot {
    fd: sys::Fd,
    conn: Connection,
    /// Whether `EPOLLOUT` interest is currently registered (kept in
    /// lockstep with `conn.write_backlog() > 0`).
    write_interest: bool,
}

/// Ticks between full-table timeout sweeps on the epoll front-end.  Ready
/// connections are pumped immediately; this only bounds how stale an
/// *idle* connection's deadline/idle checks can get, so it just needs to
/// be well under the smallest production timeout window.
const EPOLL_SWEEP_TICKS: u64 = 25;

/// A bound, not-yet-running wire server.
pub struct WireServer {
    transport: Transport,
    listener: sys::Fd,
    engine: Engine,
    limits: Limits,
    stop: Arc<AtomicBool>,
}

impl WireServer {
    /// Binds a UNIX socket at `path` (unlinking any stale *socket* file
    /// first) and prepares to serve `engine` under `limits`.
    ///
    /// # Errors
    ///
    /// Propagates socket/bind/listen failures and over-long paths, and
    /// refuses (with [`io::ErrorKind::AlreadyExists`]) to replace an
    /// existing path that is not a socket — a mistyped path must not
    /// silently delete an operator's file.
    pub fn bind(path: impl AsRef<Path>, engine: Engine, limits: Limits) -> io::Result<WireServer> {
        use std::os::unix::fs::FileTypeExt;
        let path = path.as_ref().to_path_buf();
        let raw = path_bytes(&path)?;
        match std::fs::symlink_metadata(&path) {
            Ok(meta) if meta.file_type().is_socket() => sys::unlink_path(&raw),
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!(
                        "refusing to bind at `{}`: the path exists and is not a socket",
                        path.display()
                    ),
                ));
            }
            Err(_) => {}
        }
        let listener = sys::stream_socket(sys::AF_UNIX, true)?;
        sys::bind_listen(&listener, &raw)?;
        Ok(WireServer::new(Transport::Unix { path }, listener, engine, limits))
    }

    /// Binds a TCP listener at `addr` (port 0 picks a free port — read it
    /// back with [`WireServer::tcp_addr`]) behind the *same* connection
    /// state machine and limits as the UNIX-socket server.  `TCP_NODELAY`
    /// is set on every accepted connection.
    ///
    /// Note the threat-model shift: a UNIX socket is gated by filesystem
    /// permissions, a TCP port by whatever can reach it.  The frame layer
    /// treats every peer as hostile either way (see the crate docs), but
    /// transport authentication remains out of scope — bind loopback or
    /// firewall accordingly.
    ///
    /// # Errors
    ///
    /// Propagates socket/bind/listen failures.
    pub fn bind_tcp(
        addr: std::net::SocketAddrV4,
        engine: Engine,
        limits: Limits,
    ) -> io::Result<WireServer> {
        let listener = sys::stream_socket(sys::AF_INET, true)?;
        sys::bind_listen_tcp(&listener, addr)?;
        let addr = sys::local_addr_tcp(&listener)?;
        Ok(WireServer::new(Transport::Tcp { addr }, listener, engine, limits))
    }

    fn new(transport: Transport, listener: sys::Fd, engine: Engine, limits: Limits) -> WireServer {
        WireServer { transport, listener, engine, limits, stop: Arc::new(AtomicBool::new(false)) }
    }

    /// Identity: [`FrontEnd::Epoll`] is the only front-end.  Kept so the
    /// `palbench` wire workload, which names its production configuration
    /// explicitly, still builds.
    #[must_use]
    pub fn with_front_end(self, _front_end: FrontEnd) -> WireServer {
        self
    }

    /// Identity for `true`: cross-connection batching is the only serve
    /// core.  Kept so the `palbench` wire workload, which names its
    /// production configuration explicitly, still builds.
    ///
    /// # Panics
    ///
    /// On `false`: isolated per-connection serving was removed, and a
    /// caller asking for it must not silently get batched serving.
    #[must_use]
    pub fn with_batching(self, batching: bool) -> WireServer {
        assert!(
            batching,
            "isolated per-connection serving was removed; WireServer always serves through \
             the shared batcher"
        );
        self
    }

    /// A handle that stops the serve loop: set it to `true` and
    /// [`WireServer::run`] drains every live connection and returns.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// The socket path this server is bound at (UNIX transport only).
    pub fn path(&self) -> Option<&Path> {
        match &self.transport {
            Transport::Unix { path } => Some(path),
            Transport::Tcp { .. } => None,
        }
    }

    /// The bound TCP address (TCP transport only) — the way to learn the
    /// actual port after a port-0 bind.
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddrV4> {
        match &self.transport {
            Transport::Unix { .. } => None,
            Transport::Tcp { addr } => Some(*addr),
        }
    }

    /// Runs the blocking serve loop until the stop handle is raised, then
    /// gracefully drains: accepting stops, every connection serves its
    /// already-received requests and flushes before the loop exits.
    ///
    /// The kernel keeps the interest list; each wakeup pumps the ready
    /// connections only, through one [`SharedBatcher`] round (gather →
    /// serve → flush).  `EPOLLOUT` interest tracks write-backlog
    /// transitions, and a periodic sweep (every 25 ticks) runs the timeout
    /// checks over the full table.
    ///
    /// # Errors
    ///
    /// Propagates `epoll(7)` and `accept(2)` failures; per-connection
    /// failures never surface here (they shrink that connection's state
    /// machine).
    pub fn run(self) -> io::Result<()> {
        use std::collections::BTreeMap;

        /// The listener's reserved epoll token; connections count up from 0
        /// and never reach it.
        const LISTENER_TOKEN: u64 = u64::MAX;

        let WireServer { transport, listener, engine, limits, stop } = self;
        let mut batcher = SharedBatcher::new(engine);
        let epoll = crate::epoll::Epoll::new()?;
        epoll.add(listener.0, LISTENER_TOKEN, false)?;
        let started = Instant::now();
        let mut conns: BTreeMap<u64, EpollSlot> = BTreeMap::new();
        let mut next_token: u64 = 0;
        let mut ready = Vec::new();
        let mut draining = false;
        let mut last_sweep: u64 = 0;
        loop {
            if !draining && stop.load(Ordering::SeqCst) {
                draining = true;
                for slot in conns.values_mut() {
                    slot.conn.begin_drain();
                }
            }
            if draining && conns.is_empty() {
                break;
            }

            epoll.wait(10, &mut ready)?;
            palmed_obs::counter!("wire.frontend.wakeups").inc();
            // Ticks are wall milliseconds since the server started; every
            // timeout is a deterministic function of them.  New
            // connections are born at the current tick, so their idle
            // clocks start at accept, not at server start.
            let now = started.elapsed().as_millis() as u64;

            let mut accept_ready = false;
            let mut tokens: Vec<u64> = Vec::new();
            for event in &ready {
                if event.token == LISTENER_TOKEN {
                    accept_ready = true;
                } else {
                    tokens.push(event.token);
                }
            }
            if accept_ready && !draining {
                while let Some(client) = sys::accept_one(&listener)? {
                    transport.prepare_client(&client);
                    let token = next_token;
                    next_token += 1;
                    epoll.add(client.0, token, false)?;
                    conns.insert(
                        token,
                        EpollSlot {
                            fd: client,
                            conn: Connection::new(limits, now),
                            write_interest: false,
                        },
                    );
                    // A newborn connection is pumped this very tick — its
                    // first bytes may already be in the socket buffer.
                    tokens.push(token);
                }
            }

            // Deadline/idle policies must also fire for connections that
            // are *not* ready; a periodic sweep pumps the whole table.
            // While draining, every tick is a sweep so the drain converges.
            if draining || now.saturating_sub(last_sweep) >= EPOLL_SWEEP_TICKS {
                last_sweep = now;
                tokens = conns.keys().copied().collect();
                palmed_obs::counter!("wire.frontend.sweep_pumps").add(tokens.len() as u64);
            } else {
                tokens.sort_unstable();
                tokens.dedup();
                tokens.retain(|token| conns.contains_key(token));
            }

            palmed_obs::counter!("wire.frontend.pumps").add(tokens.len() as u64);
            for token in &tokens {
                let slot = conns.get_mut(token).expect("tokens name live connections");
                slot.conn.pump_gather(now, &mut SocketStream(&slot.fd));
            }
            batcher.serve_round(
                conns
                    .iter_mut()
                    .filter(|(token, _)| tokens.binary_search(token).is_ok())
                    .map(|(_, slot)| &mut slot.conn),
            );
            for token in &tokens {
                let slot = conns.get_mut(token).expect("tokens name live connections");
                slot.conn.pump_flush(now, &mut SocketStream(&slot.fd));
                if slot.conn.is_closed() {
                    // Dropping the fd closes it (removing it from the
                    // interest list implicitly); the explicit delete keeps
                    // the kernel set in lockstep.
                    let _ = epoll.delete(slot.fd.0);
                    conns.remove(token);
                    continue;
                }
                let want = slot.conn.write_backlog() > 0;
                if want != slot.write_interest {
                    epoll.modify(slot.fd.0, *token, want)?;
                    slot.write_interest = want;
                }
            }
        }
        transport.cleanup();
        Ok(())
    }
}

/// A blocking test/client endpoint: one frame out, one frame back.  Its
/// socket stays in blocking mode, so a waiting client sleeps in the kernel
/// instead of competing with the server for a core.
pub struct WireClient {
    fd: sys::Fd,
    /// Bytes received past the last decoded frame.
    buf: Vec<u8>,
}

impl WireClient {
    /// Connects to the server socket at `path`.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (including a not-yet-listening
    /// server — callers retry).
    pub fn connect(path: impl AsRef<Path>) -> io::Result<WireClient> {
        let raw = path_bytes(path.as_ref())?;
        let fd = sys::stream_socket(sys::AF_UNIX, false)?;
        sys::connect_to(&fd, &raw)?;
        Ok(WireClient { fd, buf: Vec::new() })
    }

    /// Connects to a TCP wire server at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (including a not-yet-listening
    /// server — callers retry).
    pub fn connect_tcp(addr: std::net::SocketAddrV4) -> io::Result<WireClient> {
        let fd = sys::stream_socket(sys::AF_INET, false)?;
        sys::connect_tcp(&fd, addr)?;
        let _ = sys::set_nodelay(&fd);
        Ok(WireClient { fd, buf: Vec::new() })
    }

    /// Sends `frame` and blocks until one frame comes back.
    ///
    /// # Errors
    ///
    /// I/O errors, a server-side disconnect, or a malformed reply (the
    /// decode rejection is surfaced as [`io::ErrorKind::InvalidData`]).
    pub fn call(&mut self, frame: &Frame) -> io::Result<Frame> {
        self.send(frame)?;
        self.recv()
    }

    /// Sends one frame, blocking until the kernel has taken every byte.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.send_bytes(&frame.encode())
    }

    /// Sends a burst of frames concatenated into a single write sequence —
    /// the way to land several requests in one kernel delivery so a server
    /// tick observes them together (the exact-shed tests depend on this).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send_all(&mut self, frames: &[Frame]) -> io::Result<()> {
        let mut bytes = Vec::new();
        for frame in frames {
            frame.encode_into(&mut bytes);
        }
        self.send_bytes(&bytes)
    }

    fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut at = 0;
        while at < bytes.len() {
            match sys::send_bytes(&self.fd, &bytes[at..]) {
                Ok(n) => at += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Blocks until one full frame arrives.
    ///
    /// # Errors
    ///
    /// As for [`WireClient::call`].
    pub fn recv(&mut self) -> io::Result<Frame> {
        loop {
            match decode_frame(&self.buf, u32::MAX).map_err(invalid_reply)? {
                Decoded::Frame { consumed, frame } => {
                    self.buf.drain(..consumed);
                    return Ok(frame);
                }
                Decoded::NeedMore => {}
            }
            let mut chunk = [0u8; 4096];
            match sys::recv_bytes(&self.fd, &mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-reply",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn invalid_reply(err: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err)
}

fn path_bytes(path: &Path) -> io::Result<Vec<u8>> {
    use std::os::unix::ffi::OsStrExt;
    Ok(path.as_os_str().as_bytes().to_vec())
}
