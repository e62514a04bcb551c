//! Raw `epoll(7)` shim for the wire server's readiness loop.
//!
//! Same no-new-crates discipline as the socket shim in [`crate::sock`]:
//! the three syscalls the readiness loop needs (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`) are bound directly, gated to Linux where the
//! `epoll_event` ABI below is correct.
//!
//! The interest list is the point: epoll keeps the fd set kernel-side and
//! `epoll_wait` returns only the fds that are actually ready, so a wakeup
//! costs the ready connections, not every open one.  Registration is level-triggered — a connection with
//! undecoded bytes or an unread socket buffer keeps reporting ready, so a
//! server that defers reading under write backpressure is re-woken without
//! any user-space bookkeeping.  Write interest (`Epoll::modify`) is
//! added only while a connection has backlogged output and removed when it
//! drains, so flushed connections do not busy-wake the loop.

#![cfg(target_os = "linux")]

use std::io;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

/// `struct epoll_event`.  The kernel packs it on x86-64 (12 bytes,
/// unaligned `data`) and uses natural C layout everywhere else — mirroring
/// that split is what makes the shim ABI-correct on both.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
}

fn check(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One readiness report from [`Epoll::wait`]: the token the ready fd was
/// registered with.  The event mask is deliberately not surfaced — a
/// connection pump is bidirectional (flush, then fill), so readable,
/// writable, error and hang-up states all get the same treatment, and the
/// pump observes errors/EOF through the socket calls themselves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ready {
    /// The token the fd was registered with.
    pub(crate) token: u64,
}

/// An owned epoll instance.
#[derive(Debug)]
pub(crate) struct Epoll {
    epfd: i32,
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `epfd` was opened by `Epoll::new` and is owned
        // exclusively; ownership prevents double closes.
        unsafe {
            close(self.epfd);
        }
    }
}

impl Epoll {
    /// A fresh epoll instance (close-on-exec).
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let epfd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { epfd })
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, data: token };
        // SAFETY: `event` is a live, correctly-laid-out EpollEvent for the
        // duration of the call (DEL ignores it but a valid pointer is
        // passed anyway, for pre-2.6.9 kernel semantics).
        check(unsafe { epoll_ctl(self.epfd, op, fd, &mut event) })?;
        Ok(())
    }

    /// Registers `fd` under `token`, level-triggered, read interest always
    /// and write interest only when asked.
    pub(crate) fn add(&self, fd: i32, token: u64, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest(writable), token)
    }

    /// Re-arms `fd`'s interest set (the write-interest transition).
    pub(crate) fn modify(&self, fd: i32, token: u64, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest(writable), token)
    }

    /// Removes `fd` from the interest list.  Closing the fd removes it
    /// implicitly; the explicit form keeps the kernel set in lockstep with
    /// the connection table.
    pub(crate) fn delete(&self, fd: i32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` and appends what became ready to `out`
    /// (cleared first).  `EINTR` is reported as zero events, like the
    /// `poll` shim.
    pub(crate) fn wait(&self, timeout_ms: i32, out: &mut Vec<Ready>) -> io::Result<usize> {
        out.clear();
        let mut events = [EpollEvent { events: 0, data: 0 }; 64];
        // SAFETY: `events` is a live mutable array of exactly 64
        // correctly-laid-out entries.
        let ret =
            unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        if ret < 0 {
            let err = io::Error::last_os_error();
            return match err.kind() {
                io::ErrorKind::Interrupted => Ok(0),
                _ => Err(err),
            };
        }
        for event in events.iter().take(ret as usize) {
            // Copy out of the (possibly packed) struct before using.
            let token = event.data;
            out.push(Ready { token });
        }
        Ok(ret as usize)
    }
}

fn interest(writable: bool) -> u32 {
    if writable {
        EPOLLIN | EPOLLOUT
    } else {
        EPOLLIN
    }
}
