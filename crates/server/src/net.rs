//! The TCP transport: length-prefixed frames over `std::net`.
//!
//! Framing is the simplest thing that works: every message is a 4-byte
//! big-endian length followed by that many body bytes (encoded by
//! [`crate::codec`]). One request, one response, in order, per
//! connection — a connection is a client's command stream, and the
//! concurrency story lives in [`CobraService`], not the socket layer.
//!
//! A `Submit` frame is not decoded here: the connection thread splits it
//! at the program ([`crate::codec::SubmitFrame`]) and hands the encoded
//! program to [`CobraService::submit_frame`], which decodes it only
//! behind admission and only if the plan cache misses. A client encodes
//! each request once, whatever the number of retry attempts.
//!
//! [`WireServer::spawn`] binds a listener and serves each connection on
//! its own thread. Shutdown is cooperative: connection threads use a
//! read timeout to poll the shutdown flag, and [`WireServer::shutdown`]
//! unblocks the accept loop by connecting to itself. It is the holder of
//! the `WireServer` that stops it; no frame does — a peer that can
//! connect must not be able to stop the server for every tenant.
//!
//! **Fault injection.** When the service's [`crate::FaultPlan`] is enabled, the
//! response write path consults it per reply and injects transport
//! faults — connection resets, partial writes, stalls, slow trickles,
//! corrupted frames — deterministically from the plan's seed. The
//! matching client story is [`RetryPolicy`]: [`WireClient::connect_with`]
//! retries transient failures on a fresh connection with bounded
//! exponential backoff, deterministic jitter, and per-submission
//! idempotency keys so a retried submission whose original completed is
//! replayed, not re-executed.

use crate::codec::{Request, Response, SubmitFrame};
use crate::error::ServerError;
use crate::fault::{FaultKind, FaultSite};
use crate::service::ServerCounters;
use crate::service::{CobraService, SessionId, SubmitReply};
use crate::sync;
use netsim::StdRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Frames larger than this are rejected as protocol errors (64 MiB —
/// far beyond any real program, small enough to bound a bad frame).
const MAX_FRAME: u32 = 64 << 20;

/// Largest up-front body allocation. A length prefix is attacker/chaos
/// controlled; bodies grow in bounded steps as bytes actually arrive, so
/// a hostile 64 MiB prefix costs bandwidth, never memory.
const ALLOC_CAP: usize = 1 << 20;

/// Most bytes asked of the socket in one `read` while a frame arrives.
const READ_STEP: usize = 64 * 1024;

/// Send one frame. Prefix and body leave in a single `write_all`: on a
/// `TCP_NODELAY` socket two writes are two segments, and the peer's reader
/// would wake for the 4-byte one. `cut` is the `PartialWrite` fault — only
/// the prefix and that many body bytes are sent, leaving the peer
/// mid-frame.
fn write_frame(stream: &mut TcpStream, body: &[u8], cut: Option<usize>) -> std::io::Result<()> {
    let sent = cut.map_or(body.len(), |n| n.min(body.len()));
    let mut frame = Vec::with_capacity(4 + sent);
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(&body[..sent]);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Read one frame, for either end. `Ok(None)` means no frame is coming:
/// the peer closed cleanly between frames, or `stop` tripped.
///
/// The two ends differ only in what a read timeout means. The server
/// passes its `stop` flag: a timeout is a poll tick — bytes read so far are
/// kept, the flag is re-checked, the read resumes. The client passes
/// `None`: a timeout is its per-attempt deadline and fails the read.
///
/// The length prefix is never trusted for the allocation (see
/// [`ALLOC_CAP`]): the buffer grows as bytes arrive.
fn read_frame(
    stream: &mut TcpStream,
    stop: Option<&AtomicBool>,
) -> std::io::Result<Option<Vec<u8>>> {
    use std::io::ErrorKind;
    let mut buf: Vec<u8> = Vec::with_capacity(4);
    let mut need = 4usize;
    let mut in_header = true;
    loop {
        if buf.len() == need {
            if !in_header {
                return Ok(Some(buf));
            }
            let len = u32::from_be_bytes(buf[..4].try_into().expect("four header bytes"));
            if len > MAX_FRAME {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
                ));
            }
            in_header = false;
            need = len as usize;
            buf = Vec::with_capacity(need.min(ALLOC_CAP));
            continue;
        }
        if stop.is_some_and(|s| s.load(Ordering::Acquire)) {
            return Ok(None);
        }
        let old = buf.len();
        buf.resize(old + (need - old).min(READ_STEP), 0);
        let got = stream.read(&mut buf[old..]);
        buf.truncate(old + got.as_ref().map_or(0, |&n| n));
        match got {
            // Clean close only between frames; mid-frame EOF is an error.
            Ok(0) if in_header && buf.is_empty() => return Ok(None),
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if stop.is_some()
                    && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
}

/// The wire front end: a TCP listener serving a [`CobraService`].
pub struct WireServer {
    service: CobraService,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl WireServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `service`. Returns once the listener is accepting.
    pub fn spawn(service: CobraService, addr: impl ToSocketAddrs) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_service = service.clone();
        let accept_stop = stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name("cobra-wire-accept".into())
            .spawn(move || accept_loop(listener, accept_service, accept_stop))?;
        Ok(WireServer {
            service,
            addr,
            stop,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service this server fronts.
    pub fn service(&self) -> &CobraService {
        &self.service
    }

    /// Stop accepting connections, shut the service down, and join the
    /// accept loop. Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.service.shutdown();
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = sync::lock(&self.accept_thread).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, service: CobraService, stop: Arc<AtomicBool>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        let conn_service = service.clone();
        let conn_stop = stop.clone();
        // Connection threads are detached; they exit when the peer hangs
        // up or the stop flag trips (checked each read-timeout tick).
        let _ = std::thread::Builder::new()
            .name("cobra-wire-conn".into())
            .spawn(move || serve_connection(stream, conn_service, conn_stop));
    }
}

fn serve_connection(mut stream: TcpStream, service: CobraService, stop: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let faults = service.config().faults.clone();
    loop {
        let body = match read_frame(&mut stream, Some(&stop)) {
            Ok(Some(body)) => body,
            Ok(None) => return, // clean close or shutdown
            Err(_) => return,
        };
        let mut frame = handle_request(&service, &body).encode();
        let mut cut = None;
        // Chaos harness: the response write is the transport's seam, so
        // every transport fault is injected here.
        match faults.decide(FaultSite::Response) {
            Some(FaultKind::ConnReset) => return, // reply swallowed, peer sees EOF
            // Length prefix plus half the body, then sever: the peer
            // is left mid-frame and must reconnect.
            Some(FaultKind::PartialWrite) => cut = Some(frame.len() / 2),
            Some(FaultKind::StallRead) => std::thread::sleep(faults.stall_duration()),
            Some(FaultKind::SlowRead) => std::thread::sleep(faults.slow_duration()),
            Some(FaultKind::CorruptFrame) => {
                // Clobber the response tag: corruption the decoder is
                // guaranteed to detect, never silently-wrong fields.
                frame[0] = 0xEE;
            }
            Some(FaultKind::WorkerPanic) | None => {} // panics inject in the service
        }
        if write_frame(&mut stream, &frame, cut).is_err() || cut.is_some() {
            return;
        }
    }
}

/// Execute one request against the service; a failure is the typed
/// [`Response::Error`]. A `Submit` is handed on with its program still
/// encoded (see the module docs); everything else is decoded here.
fn handle_request(service: &CobraService, body: &[u8]) -> Response {
    let respond = || -> Result<Response, ServerError> {
        if let Some(frame) = SubmitFrame::parse(body)? {
            return Ok(Response::SubmitOk(Box::new(service.submit_frame(&frame)?)));
        }
        Ok(match Request::decode(body)? {
            Request::OpenSession { tenant } => {
                let Some(id) = service.tenant_id(&tenant) else {
                    return Err(ServerError::UnknownTenant(tenant));
                };
                Response::SessionOpened {
                    session: service.open_session(id)?.0,
                }
            }
            Request::Submit { .. } => unreachable!("`SubmitFrame::parse` takes every Submit"),
            Request::Report { session } => {
                Response::ReportText(service.session_report(SessionId(session))?.to_string())
            }
            Request::Counters => Response::Counters(service.counters()),
            Request::CloseSession { session } => {
                service.close_session(SessionId(session))?;
                Response::Closed
            }
        })
    };
    respond().unwrap_or_else(|e| Response::Error {
        code: e.code(),
        message: e.to_string(),
    })
}

/// How a [`WireClient`] handles transient failures: per-request
/// deadlines, bounded retry, exponential backoff with deterministic
/// jitter.
///
/// Retries happen on a *fresh connection* (transport state after a
/// partial frame is unknowable) and only for failures that are safe or
/// idempotent to repeat: transport errors, corrupt response frames,
/// [`ServerError::Overloaded`] shedding, and [`ServerError::Internal`]
/// worker panics. Submissions carry an idempotency key, so a retry whose
/// original attempt actually completed replays the recorded reply
/// instead of executing twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request (1 = no retry). Clamped to ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Socket read deadline per attempt (`Duration::ZERO` = wait
    /// forever). A stalled server turns into a timed-out attempt instead
    /// of a hung client.
    pub request_timeout: Duration,
    /// Seed for the deterministic backoff jitter (same seed, same
    /// schedule — chaos runs replay exactly).
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries, no deadline: the pre-resilience client behavior.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            request_timeout: Duration::ZERO,
            seed: 0,
        }
    }

    /// A sensible resilient default: 6 attempts, 5 ms base backoff capped
    /// at 200 ms, 2 s per-attempt deadline.
    pub fn standard(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            request_timeout: Duration::from_secs(2),
            seed,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::standard(0x5EED)
    }
}

/// A blocking client for the wire protocol. One connection, one request
/// in flight at a time (clone-free by design — open more clients for
/// concurrency; the server multiplexes). Reconnects and retries per its
/// [`RetryPolicy`]; [`WireClient::connect`] uses [`RetryPolicy::none`].
pub struct WireClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    policy: RetryPolicy,
    rng: StdRng,
    retries: u64,
}

impl WireClient {
    /// Connect with no retries and no deadline (the original client
    /// behavior); use [`WireClient::connect_with`] for resilience.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<WireClient, ServerError> {
        WireClient::connect_with(addr, RetryPolicy::none())
    }

    /// Connect with an explicit [`RetryPolicy`].
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> Result<WireClient, ServerError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ServerError::Io("address resolved to nothing".into()))?;
        let mut client = WireClient {
            addr,
            stream: None,
            policy,
            rng: StdRng::seed_from_u64(policy.seed),
            retries: 0,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Reconnect-and-retry cycles performed so far (0 on a fault-free
    /// connection).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn ensure_connected(&mut self) -> Result<(), ServerError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            if self.policy.request_timeout > Duration::ZERO {
                stream.set_read_timeout(Some(self.policy.request_timeout))?;
            }
            self.stream = Some(stream);
        }
        Ok(())
    }

    /// One attempt. The boolean is "safe to retry": transport and
    /// corrupt-frame failures always are (state is discarded with the
    /// connection); decoded server errors only when they are transient
    /// by contract (`Overloaded` shedding, `Internal` panic isolation).
    fn call_once(&mut self, request: &[u8]) -> Result<Response, (ServerError, bool)> {
        if let Err(e) = self.ensure_connected() {
            return Err((e, true));
        }
        let stream = self.stream.as_mut().expect("connected above");
        if let Err(e) = write_frame(stream, request, None) {
            return Err((e.into(), true));
        }
        let body = match read_frame(stream, None) {
            Ok(Some(body)) => body,
            Ok(None) => return Err((ServerError::Io("server closed the connection".into()), true)),
            Err(e) => return Err((e.into(), true)),
        };
        let response = match Response::decode(&body) {
            Ok(r) => r,
            Err(e) => return Err((e, true)), // corrupt frame: retry on a fresh connection
        };
        if let Response::Error { code, message } = response {
            let err = ServerError::from_code(code, message);
            let transient = matches!(
                err,
                ServerError::Overloaded { .. } | ServerError::Internal(_)
            );
            return Err((err, transient));
        }
        Ok(response)
    }

    /// Send `request`, an encoded frame body: the same bytes every attempt.
    fn call(&mut self, request: &[u8]) -> Result<Response, ServerError> {
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.call_once(request) {
                Ok(response) => return Ok(response),
                Err((err, retryable)) => {
                    if !retryable || attempt >= max_attempts {
                        return Err(err);
                    }
                    // Drop the connection unconditionally: after a partial
                    // or corrupt frame the stream's framing state is
                    // unknowable, and a fresh connect is always safe.
                    self.stream = None;
                    self.retries += 1;
                    std::thread::sleep(self.backoff(attempt));
                }
            }
        }
    }

    /// Exponential backoff with deterministic jitter: `base · 2^(n-1)`
    /// capped at `max_backoff`, plus up to 50% jitter from the seeded
    /// stream (decorrelates retry storms, replays exactly per seed).
    fn backoff(&mut self, attempt: u32) -> Duration {
        let base = self.policy.base_backoff.min(self.policy.max_backoff);
        if base.is_zero() {
            return Duration::ZERO;
        }
        let exp = base.saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = exp.min(self.policy.max_backoff);
        let jitter_span = (capped.as_nanos() as u64 / 2).max(1);
        capped + Duration::from_nanos(self.rng.gen_range(0..jitter_span))
    }

    /// Open a session against the named tenant.
    pub fn open_session(&mut self, tenant: &str) -> Result<SessionId, ServerError> {
        let request = Request::OpenSession {
            tenant: tenant.to_string(),
        };
        match self.call(&request.encode())? {
            Response::SessionOpened { session } => Ok(SessionId(session)),
            other => Err(unexpected(&other)),
        }
    }

    /// Submit a program on a session and wait for its results.
    ///
    /// Under a retrying policy every submission carries a fresh nonzero
    /// idempotency key; all retry attempts reuse it, so a reply lost in
    /// transit is replayed from the server's per-session window rather
    /// than optimized and executed a second time.
    pub fn submit(
        &mut self,
        session: SessionId,
        program: &imperative::ast::Program,
    ) -> Result<SubmitReply, ServerError> {
        let idempotency = if self.policy.max_attempts > 1 {
            self.rng.gen_range(1..u64::MAX)
        } else {
            0
        };
        match self.call(&SubmitFrame::encode(session.0, idempotency, program))? {
            Response::SubmitOk(reply) => Ok(*reply),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the rendered optimization report for the session's last
    /// submitted program.
    pub fn report(&mut self, session: SessionId) -> Result<String, ServerError> {
        match self.call(&Request::Report { session: session.0 }.encode())? {
            Response::ReportText(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the server-wide counters.
    pub fn counters(&mut self) -> Result<ServerCounters, ServerError> {
        match self.call(&Request::Counters.encode())? {
            Response::Counters(c) => Ok(c),
            other => Err(unexpected(&other)),
        }
    }

    /// Close a session. A retry that finds the session already gone
    /// treats that as success — the first attempt's close landed, only
    /// its ack was lost.
    pub fn close_session(&mut self, session: SessionId) -> Result<(), ServerError> {
        let before = self.retries;
        match self.call(&Request::CloseSession { session: session.0 }.encode()) {
            Ok(Response::Closed) => Ok(()),
            Ok(other) => Err(unexpected(&other)),
            Err(ServerError::UnknownSession(_)) if self.retries > before => Ok(()),
            Err(e) => Err(e),
        }
    }
}

fn unexpected(resp: &Response) -> ServerError {
    ServerError::Protocol(format!("unexpected response frame: {resp:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_cache::CacheOutcome;
    use crate::service::{ServerConfig, TenantSpec};
    use workloads::genprog::{GenCase, GenConfig};

    #[test]
    fn wire_roundtrip_matches_in_process() {
        let service = CobraService::new(ServerConfig::default());
        let case = GenCase::from_seed(11, &GenConfig::default());
        let fx = case.fixture();
        let tenant = service.register_tenant(TenantSpec::new(
            "acme",
            fx.db.clone(),
            fx.mapping.clone(),
            fx.funcs.clone(),
        ));

        // In-process baseline on its own session.
        let local_session = service.open_session(tenant).unwrap();
        let local = service.submit(local_session, &case.program).unwrap();

        let server = WireServer::spawn(service, "127.0.0.1:0").unwrap();
        let mut client = WireClient::connect(server.local_addr()).unwrap();
        let session = client.open_session("acme").unwrap();
        let reply = client.submit(session, &case.program).unwrap();
        // Same tenant, same program: the wire submission must hit the
        // plan cache warmed by the in-process one and agree on results.
        assert_eq!(reply.cache, CacheOutcome::Hit);
        assert_eq!(reply.fingerprint, local.fingerprint);
        assert_eq!(reply.results, local.results);

        let report = client.report(session).unwrap();
        assert!(!report.is_empty());
        let counters = client.counters().unwrap();
        assert_eq!(counters.cache_hits, 1);
        client.close_session(session).unwrap();

        server.shutdown();
        assert!(server.service().is_shut_down());
        server.shutdown(); // idempotent
    }

    #[test]
    fn unknown_tenant_and_session_error_over_the_wire() {
        let service = CobraService::new(ServerConfig::default());
        let server = WireServer::spawn(service, "127.0.0.1:0").unwrap();
        let mut client = WireClient::connect(server.local_addr()).unwrap();
        let err = client.open_session("nobody").unwrap_err();
        assert!(matches!(err, ServerError::UnknownTenant(_)));
        let case = GenCase::from_seed(1, &GenConfig::default());
        let err = client.submit(SessionId(999), &case.program).unwrap_err();
        assert!(matches!(err, ServerError::UnknownSession(_)));
        server.shutdown();
    }
}
