//! Raw Linux syscall bindings for the event loop: `epoll` and `writev`.
//!
//! The workspace vendors no external crates, so these are hand-declared
//! `extern "C"` bindings to the system libc that every Rust binary on
//! Linux already links. Only what the event loop needs is bound — four
//! calls and a handful of constants — wrapped in safe types immediately
//! below so no other module touches a raw fd flag.

#![cfg(target_os = "linux")]

use std::ffi::c_void;
use std::io;
use std::os::fd::RawFd;

/// `epoll_event.events` bit: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// `epoll_event.events` bit: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// `epoll_event.events` bit: error condition (always reported).
pub const EPOLLERR: u32 = 0x008;
/// `epoll_event.events` bit: hangup (always reported).
pub const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;

/// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel ABI
/// packs it there so 32- and 64-bit layouts agree); natural alignment
/// everywhere else.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-bit mask (`EPOLLIN` | …).
    pub events: u32,
    /// The caller's token, returned verbatim with each event.
    pub token: u64,
}

/// The kernel's `struct iovec` for vectored writes.
#[repr(C)]
struct IoVec {
    base: *const c_void,
    len: usize,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn writev(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance. Interest is registered per fd with an opaque
/// `u64` token that [`Epoll::wait`] hands back with each readiness event.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates the epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Self { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events: interest, token };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` with the given interest bits under `token`.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Replaces the interest bits for an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, token: 0 };
        // A non-null event pointer keeps pre-2.6.9 kernel semantics happy.
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Blocks up to `timeout_ms` (`-1` = forever) for readiness events,
    /// filling `events` and returning how many are valid. `EINTR` is
    /// retried internally — a stray signal must not count as a timeout.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `events` is a valid, writable slice for the call.
            let n = unsafe {
                epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe { close(self.fd) };
    }
}

/// Writes as much of `bufs` as the socket accepts in **one** `writev`
/// call, returning the bytes written (0 on `EWOULDBLOCK`). At most 64
/// iovecs per call — the response queue behind it simply flushes again on
/// the next writable event.
pub fn writev_once(fd: RawFd, bufs: &[&[u8]]) -> io::Result<usize> {
    const MAX_IOV: usize = 64;
    let iov: Vec<IoVec> = bufs
        .iter()
        .take(MAX_IOV)
        .map(|b| IoVec { base: b.as_ptr() as *const c_void, len: b.len() })
        .collect();
    if iov.is_empty() {
        return Ok(0);
    }
    loop {
        // SAFETY: every iovec points into a live borrowed slice.
        let n = unsafe { writev(fd, iov.as_ptr(), iov.len() as i32) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        match err.kind() {
            io::ErrorKind::Interrupted => continue,
            io::ErrorKind::WouldBlock => return Ok(0),
            _ => return Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_reports_readability_with_the_registered_token() {
        let (mut a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(a.as_raw_fd(), EPOLLIN, 42).unwrap();
        let mut events = [EpollEvent { events: 0, token: 0 }; 8];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "nothing readable yet");
        use std::io::Write;
        (&b).write_all(b"x").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let token = events[0].token;
        assert_eq!(token, 42);
        let mut byte = [0u8; 1];
        a.read_exact(&mut byte).unwrap();
        ep.delete(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn writev_once_coalesces_buffers() {
        let (a, mut b) = std::os::unix::net::UnixStream::pair().unwrap();
        let n = writev_once(a.as_raw_fd(), &[b"hel", b"lo ", b"world"]).unwrap();
        assert_eq!(n, 11);
        let mut got = [0u8; 11];
        b.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello world");
    }
}
