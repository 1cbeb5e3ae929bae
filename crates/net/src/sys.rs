//! Raw readiness-notification syscalls for the [`crate::reactor`].
//!
//! No `libc` crate: the C library is always linked, so the handful of
//! calls the reactor needs (`epoll` on Linux, `poll(2)` everywhere else
//! on Unix, plus a `pipe(2)`-based waker) are declared directly as
//! `extern "C"` items. The [`Poller`] facade hides the backend choice:
//! Linux defaults to epoll, other Unixes use `poll`, and
//! [`Poller::with_backend`] can force the `poll` backend on Linux so
//! tests exercise the portability path on the primary platform.
//! Everything else a connection needs (bind, accept, read, vectored
//! write) goes through `std::net`.
//!
//! This module is Unix-only; on other targets there is no server
//! (`NetServer::spawn` returns `Unsupported`).
#![cfg(unix)]

use std::collections::HashMap;
use std::io;
use std::os::raw::{c_int, c_short, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

// --- extern declarations ---------------------------------------------------

#[cfg(target_os = "linux")]
mod ffi_epoll {
    use super::*;

    // x86_64's ABI packs `epoll_event`; other Linux arches do not.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }
}

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: c_int = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: c_int = 0x0004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    fn pipe(fds: *mut c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: plain fcntl on an owned fd.
    unsafe {
        let flags = cvt(fcntl(fd, F_GETFL, 0))?;
        cvt(fcntl(fd, F_SETFL, flags | O_NONBLOCK))?;
    }
    Ok(())
}

/// Duration → millisecond timeout for epoll/poll (`None` = wait
/// forever).
fn millis(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        // Round up so a 100µs deadline does not busy-spin at timeout 0.
        Some(d) => d
            .as_millis()
            .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
            .min(c_int::MAX as u128) as c_int,
    }
}

// --- public facade ---------------------------------------------------------

/// Which readiness events a registered fd should report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    pub read: bool,
    pub write: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

/// One readiness event. A peer's half-close (`EPOLLRDHUP`) is folded
/// into `readable` — it means a read will (eventually) return EOF, and
/// the peer may still be receiving, so it must not be treated as fatal.
/// `hangup` covers only `EPOLLERR`/`EPOLLHUP` (`POLLERR`/`POLLHUP`):
/// the connection is truly gone in both directions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
}

/// Backend selector for [`Poller::with_backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backend {
    /// Platform default: epoll on Linux, `poll(2)` elsewhere.
    Auto,
    /// Force the portable `poll(2)` backend (tests, diagnostics).
    Poll,
}

enum Impl {
    #[cfg(target_os = "linux")]
    Epoll { epfd: RawFd },
    Poll {
        registered: HashMap<RawFd, (u64, Interest)>,
    },
}

/// Readiness poller over a set of `(fd, token, interest)` registrations.
pub(crate) struct Poller {
    backend: Impl,
}

impl Poller {
    pub fn with_backend(backend: Backend) -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        if backend == Backend::Auto {
            // SAFETY: epoll_create1 with a valid flag.
            let epfd = cvt(unsafe { ffi_epoll::epoll_create1(ffi_epoll::EPOLL_CLOEXEC) })?;
            return Ok(Poller {
                backend: Impl::Epoll { epfd },
            });
        }
        let _ = backend;
        Ok(Poller {
            backend: Impl::Poll {
                registered: HashMap::new(),
            },
        })
    }

    /// Human-readable backend name (used in test diagnostics).
    #[cfg(test)]
    pub fn backend_name(&self) -> &'static str {
        match self.backend {
            #[cfg(target_os = "linux")]
            Impl::Epoll { .. } => "epoll",
            Impl::Poll { .. } => "poll",
        }
    }

    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Impl::Epoll { epfd } => {
                epoll_ctl_op(*epfd, ffi_epoll::EPOLL_CTL_ADD, fd, token, interest)
            }
            Impl::Poll { registered } => {
                registered.insert(fd, (token, interest));
                Ok(())
            }
        }
    }

    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Impl::Epoll { epfd } => {
                epoll_ctl_op(*epfd, ffi_epoll::EPOLL_CTL_MOD, fd, token, interest)
            }
            Impl::Poll { registered } => {
                registered.insert(fd, (token, interest));
                Ok(())
            }
        }
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Impl::Epoll { epfd } => {
                epoll_ctl_op(*epfd, ffi_epoll::EPOLL_CTL_DEL, fd, 0, Interest::NONE)
            }
            Impl::Poll { registered } => {
                registered.remove(&fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses; appends the ready events to `events` (cleared first).
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Impl::Epoll { epfd } => {
                let mut raw = [ffi_epoll::EpollEvent { events: 0, data: 0 }; 64];
                let n = loop {
                    // SAFETY: valid epfd and a correctly-sized buffer.
                    let ret = unsafe {
                        ffi_epoll::epoll_wait(
                            *epfd,
                            raw.as_mut_ptr(),
                            raw.len() as c_int,
                            millis(timeout),
                        )
                    };
                    match cvt(ret) {
                        Ok(n) => break n as usize,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e),
                    }
                };
                for ev in &raw[..n] {
                    // Copy out of the (possibly packed) struct first.
                    let bits = ev.events;
                    let token = ev.data;
                    events.push(Event {
                        token,
                        readable: bits & (ffi_epoll::EPOLLIN | ffi_epoll::EPOLLRDHUP) != 0,
                        writable: bits & ffi_epoll::EPOLLOUT != 0,
                        hangup: bits & (ffi_epoll::EPOLLERR | ffi_epoll::EPOLLHUP) != 0,
                    });
                }
                Ok(())
            }
            Impl::Poll { registered } => {
                let mut fds: Vec<PollFd> = Vec::with_capacity(registered.len());
                let mut tokens: Vec<u64> = Vec::with_capacity(registered.len());
                for (&fd, &(token, interest)) in registered.iter() {
                    let mut mask: c_short = 0;
                    if interest.read {
                        mask |= POLLIN;
                    }
                    if interest.write {
                        mask |= POLLOUT;
                    }
                    fds.push(PollFd {
                        fd,
                        events: mask,
                        revents: 0,
                    });
                    tokens.push(token);
                }
                loop {
                    // SAFETY: fds points at an initialised slice of PollFd.
                    let ret =
                        unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, millis(timeout)) };
                    match cvt(ret) {
                        Ok(_) => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e),
                    }
                }
                for (pfd, &token) in fds.iter().zip(&tokens) {
                    if pfd.revents == 0 {
                        continue;
                    }
                    events.push(Event {
                        token,
                        readable: pfd.revents & POLLIN != 0,
                        writable: pfd.revents & POLLOUT != 0,
                        hangup: pfd.revents & (POLLERR | POLLHUP) != 0,
                    });
                }
                Ok(())
            }
        }
    }
}

#[cfg(target_os = "linux")]
fn epoll_ctl_op(
    epfd: RawFd,
    op: c_int,
    fd: RawFd,
    token: u64,
    interest: Interest,
) -> io::Result<()> {
    // RDHUP only rides along with read interest: a connection that is
    // deliberately not reading (mid-dispatch) must not be woken over
    // and over by a peer's half-close, which level-triggered epoll
    // would otherwise re-report forever.
    let mut bits = 0u32;
    if interest.read {
        bits |= ffi_epoll::EPOLLIN | ffi_epoll::EPOLLRDHUP;
    }
    if interest.write {
        bits |= ffi_epoll::EPOLLOUT;
    }
    let mut ev = ffi_epoll::EpollEvent {
        events: bits,
        data: token,
    };
    // SAFETY: valid epfd/fd; `ev` outlives the call (DEL ignores it).
    cvt(unsafe { ffi_epoll::epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Impl::Epoll { epfd } = self.backend {
            // SAFETY: closing an fd we own.
            unsafe {
                close(epfd);
            }
        }
    }
}

/// Cross-thread wakeup for a blocked [`Poller::wait`]: a non-blocking
/// `pipe(2)`. Register [`Waker::read_fd`] with read interest; any thread
/// may call [`Waker::wake`]; the poller thread calls [`Waker::drain`]
/// when the read end reports readable.
pub(crate) struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: pipe writes exactly two fds into the array.
        cvt(unsafe { pipe(fds.as_mut_ptr()) })?;
        let waker = Waker {
            read_fd: fds[0],
            write_fd: fds[1],
        };
        set_nonblocking(waker.read_fd)?;
        set_nonblocking(waker.write_fd)?;
        Ok(waker)
    }

    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Wakes the poller. A full pipe means a wake is already pending —
    /// that is success, not failure.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: writing one byte from a valid buffer to an owned fd.
        unsafe {
            write(self.write_fd, (&byte as *const u8).cast::<c_void>(), 1);
        }
    }

    /// Consumes all pending wake bytes.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: reading into a valid buffer from an owned fd.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr().cast::<c_void>(), buf.len()) };
            if n <= 0 {
                break; // empty (EAGAIN), EOF or error: nothing pending
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: closing fds we own.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn backends() -> Vec<Backend> {
        let mut backends = vec![Backend::Auto];
        if cfg!(target_os = "linux") {
            backends.push(Backend::Poll);
        }
        backends
    }

    #[test]
    fn waker_wakes_poller_across_threads() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let waker = std::sync::Arc::new(Waker::new().unwrap());
            poller.register(waker.read_fd(), 7, Interest::READ).unwrap();

            let w = std::sync::Arc::clone(&waker);
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                w.wake();
            });
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 7 && e.readable),
                "{}: expected waker readiness, got {events:?}",
                poller.backend_name()
            );
            waker.drain();
            // Drained: the next wait times out instead of spinning.
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(events.is_empty(), "{}: {events:?}", poller.backend_name());
            t.join().unwrap();
        }
    }

    #[test]
    fn socket_readability_is_reported() {
        for backend in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let mut client = TcpStream::connect(addr).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            server_side.set_nonblocking(true).unwrap();

            let mut poller = Poller::with_backend(backend).unwrap();
            poller
                .register(server_side.as_raw_fd(), 42, Interest::READ)
                .unwrap();

            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            assert!(events.is_empty(), "{}: {events:?}", poller.backend_name());

            client.write_all(b"x").unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 42 && e.readable),
                "{}: {events:?}",
                poller.backend_name()
            );
            poller.deregister(server_side.as_raw_fd()).unwrap();
        }
    }
}
