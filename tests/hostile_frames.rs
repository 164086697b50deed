//! Frames built to kill the process rather than to fail a request.
//!
//! Panic isolation turns a panicking worker into a typed error, but a
//! stack overflow or a failed allocation *aborts*: nothing unwinds and
//! every session dies. Three inputs used to get there from one frame:
//!
//! * an expression nested 5,000 `Not`s deep (5 KB) — the decoder recursed
//!   once per tag;
//! * embedded SQL nested far past the parser's budget — by parentheses,
//!   by `NOT`, and by a left-deep `+` chain (a loop in the parser, but a
//!   nest in the plan every later pass recurses over);
//! * a statement count claiming every remaining byte of the frame — legal
//!   for the length check, but `Vec::with_capacity` multiplied it by
//!   `size_of::<Stmt>()`.
//!
//! Each is now a `Protocol` error, and a live server answers all of them
//! and then an honest request on the same connection.
//!
//! A fourth needed no hostile encoding at all: a three-statement program
//! whose callee calls itself. The inliner expanded it for ever and the
//! interpreter followed it down; both now stop, with a typed error.

use cobra::prelude::*;
use cobra::server::codec::SubmitFrame;
use cobra::server::{CacheOutcome, Request, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};

/// The system allocator, remembering the largest single request made by
/// a thread that asked to be watched (per thread, because the tests of
/// this binary run side by side).
struct LargestRequest;

thread_local! {
    // `None`: this thread is not watched. Const-initialized and without a
    // destructor, so reading it from inside the allocator never allocates.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().map(|seen| seen.max(size))));
}

/// The largest single allocation this thread makes while running `f`.
fn largest_allocation_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.set(Some(0));
    let out = f();
    (out, LARGEST.take().expect("watched above"))
}

// SAFETY: defers to `System` unchanged; only records sizes.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

#[path = "support/latch.rs"]
mod latch;

/// The wire encoding's primitives (big-endian, u32-length-prefixed).
#[derive(Default)]
struct Frame(Vec<u8>);

impl Frame {
    fn u8(self, v: u8) -> Frame {
        self.fill(v, 1)
    }
    fn u32(mut self, v: u32) -> Frame {
        self.0.extend_from_slice(&v.to_be_bytes());
        self
    }
    fn str(self, s: &str) -> Frame {
        let mut f = self.u32(s.len() as u32);
        f.0.extend_from_slice(s.as_bytes());
        f
    }
    fn fill(mut self, byte: u8, n: usize) -> Frame {
        self.0.resize(self.0.len() + n, byte);
        self
    }

    /// `Submit` on `session` (no idempotency key) of one parameterless
    /// function `f`, up to its statement count.
    fn submit(session: u64) -> Frame {
        let mut f = Frame::default().u8(2);
        f.0.extend_from_slice(&session.to_be_bytes());
        f.fill(0, 8).u32(1).str("f").u32(0)
    }

    /// `let x = <expr follows>` as the function's only statement.
    fn let_x(self) -> Frame {
        self.u32(1).u32(1).u8(0).str("x")
    }
}

/// The frames above: `let x = !!…!y`, then `let x = query(<sql>)` per
/// hostile SQL text, then the over-claimed statement count.
fn hostile_frames(session: u64) -> Vec<Vec<u8>> {
    let n = 100_000;
    let sql = [
        format!(
            "SELECT * FROM t WHERE {}a = 1{}",
            "(".repeat(n),
            ")".repeat(n)
        ),
        format!("SELECT * FROM t WHERE {}a = 1", "NOT ".repeat(n)),
        format!("SELECT * FROM t WHERE {} = 1", vec!["a"; n].join(" + ")),
    ];
    let mut frames = vec![Frame::submit(session).let_x().fill(3, 5_000).u8(0).str("y")];
    frames.extend(
        sql.iter()
            .map(|sql| Frame::submit(session).let_x().u8(8).str(sql).u32(0)),
    );
    frames.push(overclaimed_stmts(session, 1 << 20));
    frames.into_iter().map(|f| f.0).collect()
}

/// A statement count equal to the `filler` bytes behind it (so the length
/// check passes), none of which decodes as a statement.
fn overclaimed_stmts(session: u64, filler: usize) -> Frame {
    Frame::submit(session).u32(filler as u32).fill(0xFF, filler)
}

#[test]
fn overclaimed_length_does_not_preallocate() {
    // 4 MiB of filler claims 4M statements: hundreds of MiB if taken at
    // its word; decoding may not ask for even the frame's own size.
    let frame = overclaimed_stmts(1, 4 << 20).0;
    let (decoded, largest) = largest_allocation_during(|| Request::decode(&frame));
    assert!(
        matches!(decoded, Err(ServerError::Protocol(_))),
        "{decoded:?}"
    );
    assert!(
        largest < frame.len(),
        "largest single allocation was {largest} bytes for a {}-byte frame",
        frame.len()
    );
}

/// One honest frame off a raw socket (4-byte big-endian length, then the
/// body).
fn read_raw_frame(stream: &mut std::net::TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("frame length");
    let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut body).expect("frame body");
    body
}

/// One request/reply exchange on a raw socket.
fn exchange(stream: &mut std::net::TcpStream, body: &[u8]) -> Response {
    stream
        .write_all(&(body.len() as u32).to_be_bytes())
        .and_then(|()| stream.write_all(body))
        .expect("send");
    Response::decode(&read_raw_frame(stream)).expect("well-formed reply")
}

#[test]
fn the_server_answers_every_hostile_frame_and_keeps_serving() {
    let case = GenCase::from_seed(0, &GenConfig::default());
    let fx = case.fixture();
    let service = CobraService::new(ServerConfig::default());
    service.register_tenant(TenantSpec::new(
        "t0",
        fx.db.clone(),
        fx.mapping.clone(),
        fx.funcs.clone(),
    ));
    let server = WireServer::spawn(service, "127.0.0.1:0").expect("bind");
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");

    let open = Request::OpenSession {
        tenant: "t0".into(),
    };
    let Response::SessionOpened { session } = exchange(&mut stream, &open.encode()) else {
        panic!("session opens");
    };
    let protocol = ServerError::Protocol(String::new()).code();
    for frame in hostile_frames(session) {
        let reply = exchange(&mut stream, &frame);
        assert!(
            matches!(reply, Response::Error { code, .. } if code == protocol),
            "hostile frame answered with {reply:?}"
        );
    }

    // Same connection, same session, still in business.
    let submit = Request::Submit {
        session,
        idempotency: 0,
        program: case.program.clone(),
    };
    let reply = exchange(&mut stream, &submit.encode());
    assert!(matches!(reply, Response::SubmitOk(_)), "{reply:?}");
    server.shutdown();
}

/// Request tag 6 asked the server to shut down, and any peer that could
/// connect could send it. It is no request now: the peer gets the typed
/// error an unassigned tag gets, and a client on another connection is
/// served as before and after.
#[test]
fn no_frame_stops_the_server() {
    let case = GenCase::from_seed(0, &GenConfig::default());
    let fx = case.fixture();
    let service = CobraService::new(ServerConfig::default());
    service.register_tenant(TenantSpec::new(
        "t0",
        fx.db.clone(),
        fx.mapping.clone(),
        fx.funcs.clone(),
    ));
    let server = WireServer::spawn(service, "127.0.0.1:0").expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let session = client.open_session("t0").expect("session opens");
    let before = client.submit(session, &case.program).expect("served");

    let mut peer = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let protocol = ServerError::Protocol(String::new()).code();
    let reply = exchange(&mut peer, &[6]);
    assert!(
        matches!(&reply, Response::Error { code, message }
            if *code == protocol && message.contains("request tag")),
        "tag 6 answered with {reply:?}"
    );

    assert!(!server.service().is_shut_down());
    let after = client.submit(session, &case.program).expect("still served");
    assert_eq!(after.cache, CacheOutcome::Hit);
    assert_eq!(after.results, before.results);
    let mut late = WireClient::connect(server.local_addr()).expect("still accepting");
    late.open_session("t0").expect("sessions still open");
    server.shutdown();
}

/// `name(n) { y = callee(n); return y; }`
fn calling(name: &str, callee: &str) -> Function {
    let call = StmtKind::LetCall("y".into(), callee.into(), vec![Expr::var("n")]);
    let ret = StmtKind::Return(Some(Expr::var("y")));
    Function::new(
        name,
        vec!["n".into()],
        vec![Stmt::new(call), Stmt::new(ret)],
    )
}

/// `main() { x = f(10); return x; }` over
/// `f(n) { if (n <= 0) { return 0; } y = f(n - 1); return y + 1; }`
fn counting_down_from_10() -> Program {
    use cobra::minidb::BinOp;
    let lit = |v: i64| Expr::lit(v);
    let ret = |e| Stmt::new(StmtKind::Return(Some(e)));
    let call = |x: &str, arg| Stmt::new(StmtKind::LetCall(x.into(), "f".into(), vec![arg]));
    let base_case = StmtKind::If {
        cond: Expr::bin(BinOp::Le, Expr::var("n"), lit(0)),
        then_branch: vec![ret(lit(0))],
        else_branch: vec![],
    };
    let f = vec![
        Stmt::new(base_case),
        call("y", Expr::bin(BinOp::Sub, Expr::var("n"), lit(1))),
        ret(Expr::bin(BinOp::Add, Expr::var("y"), lit(1))),
    ];
    let main = vec![call("x", lit(10)), ret(Expr::var("x"))];
    Program {
        functions: vec![
            Function::new("main", vec![], main),
            Function::new("f", vec!["n".into()], f),
        ],
    }
}

#[test]
fn calls_that_never_return_are_refused_and_the_server_keeps_serving() {
    let fx = motivating::build_fixture(200, 40, 3);
    // Recursion into the entry, into the callee itself, between two callees.
    let endless = [
        vec![calling("main", "main")],
        vec![calling("main", "f"), calling("f", "f")],
        vec![calling("main", "f"), calling("f", "g"), calling("g", "f")],
    ]
    .map(|functions| Program { functions });
    let too_deep = |why: &str| why.contains("nest deeper");

    // In process: the optimizer declines to inline and comes back, the
    // interpreter stops at its depth bound.
    let cobra = fx.cobra_builder().build();
    for program in &endless {
        cobra.optimize_program(program).expect("optimizes");
        let refused = run_on(&fx, NetworkProfile::fast_local(), program).err();
        assert!(matches!(&refused, Some(e) if too_deep(&e.to_string())));
    }

    // Over a socket: a typed error each, then business as usual on the
    // same connection — P0's reply, and a recursion that does end.
    let service = CobraService::new(ServerConfig::default());
    service.register_tenant(TenantSpec::new(
        "t0",
        fx.db.clone(),
        fx.mapping.clone(),
        fx.funcs.clone(),
    ));
    let server = WireServer::spawn(service, "127.0.0.1:0").expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let session = client.open_session("t0").expect("session opens");
    for program in &endless {
        let refused = client.submit(session, program);
        assert!(
            matches!(&refused, Err(ServerError::Db(why)) if too_deep(why)),
            "{refused:?}"
        );
    }
    let p0 = motivating::p0();
    let as_written = run_on(&fx, NetworkProfile::slow_remote(), &p0).expect("P0 runs");
    let reply = client.submit(session, &p0).expect("still serving");
    assert_eq!(
        reply.results,
        as_written.outcome.normalized_with_vars(&["result"])
    );
    let reply = client.submit(session, &counting_down_from_10());
    let ten = cobra::interp::Snapshot::Scalar(cobra::minidb::Value::Int(10));
    assert_eq!(reply.expect("recursion that ends").results.ret, ten);
    server.shutdown();
}

/// The frame limits `server::net` reads under (private there): frames
/// above `MAX_FRAME` are refused, and no length prefix buys more than
/// `ALLOC_CAP` bytes before the bytes themselves arrive.
const MAX_FRAME: u32 = 64 << 20;
const ALLOC_CAP: usize = 1 << 20;

/// A server that reads one request frame, answers with `reply` verbatim
/// and hangs up.
fn reply_once_with(reply: Vec<u8>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        read_raw_frame(&mut stream);
        stream.write_all(&reply).expect("reply");
    });
    (addr, server)
}

/// The reader both ends share, from the client's side: a hostile *reply*
/// is a typed error — no panic, no hang — and never an allocation the
/// size of its claim.
#[test]
fn the_client_refuses_hostile_replies_without_allocating_their_claim() {
    let mut overclaimed = MAX_FRAME.to_be_bytes().to_vec();
    overclaimed.extend_from_slice(&[0xAB; 10]);
    // What is sent, and what the error must say (so a case cannot pass for
    // another case's reason if the limits above drift from `net`'s).
    let replies = [
        ((MAX_FRAME + 1).to_be_bytes().to_vec(), "exceeds"),
        (overclaimed, "end of file"),
        (vec![0, 0], "end of file"),
    ];
    for (reply, says) in replies {
        let (addr, server) = reply_once_with(reply);
        // `connect` is `RetryPolicy::none()`: one attempt, no deadline, so
        // a reader that waited for the claimed bytes would hang here.
        let mut client = WireClient::connect(addr).expect("connect");
        let (outcome, largest) = largest_allocation_during(|| client.open_session("t0"));
        server.join().expect("the fake server answered");
        assert!(
            matches!(&outcome, Err(ServerError::Io(why)) if why.contains(says)),
            "expected an I/O error saying `{says}`: {outcome:?}"
        );
        assert!(
            largest <= ALLOC_CAP + 4096,
            "`{says}`: largest single allocation was {largest} bytes"
        );
    }
}

/// A raw socket to `server` with a session open on tenant `t0`.
fn raw_session(server: &WireServer) -> (std::net::TcpStream, u64) {
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    // `exchange` writes prefix and body apart: without this each exchange
    // waits out a delayed ACK, a minute over the ~1,500 of the mutation test.
    stream.set_nodelay(true).expect("nodelay");
    let open = Request::OpenSession {
        tenant: "t0".into(),
    };
    let Response::SessionOpened { session } = exchange(&mut stream, &open.encode()) else {
        panic!("session opens");
    };
    (stream, session)
}

/// `Submit` frames on `session` whose 17 header bytes are honest and whose
/// program is not: the three hostile nests and the over-claimed count
/// above, then bytes that are no program at all, `honest` cut short, and
/// `honest` with a byte behind it.
fn malformed_submits(session: u64, honest: &Program) -> Vec<Vec<u8>> {
    let honest = SubmitFrame::encode(session, 0, honest);
    let mut trailing = honest.clone();
    trailing.push(0);
    let mut frames = hostile_frames(session);
    frames.push(Frame::submit(session).fill(0xA7, 64).0);
    frames.push(honest[..honest.len() * 2 / 3].to_vec());
    frames.push(trailing);
    frames
}

/// Decoding a program — parsing its SQL, allocating its tree — is work a
/// peer makes the server do, so it happens behind admission. With the one
/// worker held, malformed submissions are shed like any other, nothing of
/// them decoded and nothing allocated for them; with a permit to be had,
/// each is the `Protocol` error it always was.
#[test]
fn a_malformed_program_is_decoded_only_once_a_permit_is_held() {
    let case = GenCase::from_seed(0, &GenConfig::default());
    let fx = case.fixture();
    let latch = std::sync::Arc::new(latch::Latch::default());
    let service = CobraService::new(ServerConfig {
        max_concurrent: 1,
        max_queue: 0,
        ..ServerConfig::default()
    });
    service.register_tenant(TenantSpec::new(
        "t0",
        fx.db.clone(),
        fx.mapping.clone(),
        latch.funcs(&fx.funcs),
    ));
    let server = WireServer::spawn(service.clone(), "127.0.0.1:0").expect("bind");
    let (mut stream, session) = raw_session(&server);
    let frames = malformed_submits(session, &case.program);
    let code_of = |reply: Response| match reply {
        Response::Error { code, .. } => code,
        other => panic!("a malformed submission answered with {other:?}"),
    };

    std::thread::scope(|scope| {
        let occupant = scope.spawn(|| {
            let mut client = WireClient::connect(server.local_addr()).expect("connect");
            let session = client.open_session("t0").expect("session opens");
            client.submit(session, &latch::holding_program())
        });
        latch.wait_entered();
        let before = service.counters();
        let overloaded = ServerError::Overloaded {
            running: 1,
            queued: 0,
        };
        for frame in &frames {
            assert_eq!(code_of(exchange(&mut stream, frame)), overloaded.code());
            // The same refusal on this thread, where the allocator watches.
            let parsed = SubmitFrame::parse(frame).unwrap().expect("a Submit");
            let (refused, largest) = largest_allocation_during(|| service.submit_frame(&parsed));
            assert_eq!(refused, Err(overloaded.clone()));
            assert!(
                largest <= 64,
                "shedding a {}-byte frame allocated {largest} bytes at once",
                frame.len()
            );
        }
        let after = service.counters();
        assert_eq!(after.programs_decoded, before.programs_decoded);
        assert_eq!(after.rejected - before.rejected, 2 * frames.len() as u64);
        latch.open();
        occupant.join().unwrap().expect("the occupant is served");
    });

    let before = service.counters();
    let cached = service.cache_len();
    let protocol = ServerError::Protocol(String::new()).code();
    for frame in &frames {
        assert_eq!(code_of(exchange(&mut stream, frame)), protocol);
    }
    let after = service.counters();
    assert_eq!(
        after.programs_decoded - before.programs_decoded,
        frames.len() as u64
    );
    assert_eq!(after.cache_misses, before.cache_misses, "none was searched");
    assert_eq!(service.cache_len(), cached, "and none left an entry");
    server.shutdown();
}

/// Structured mutation of primed `Submit` frames: every byte flipped (its
/// lowest bit, then its highest) and every truncation. The server hashes
/// the program slice without decoding it, so this is the check that it
/// never answers for bytes other than the ones it was sent: a mutant gets
/// a typed error, or exactly what its own program computes as written —
/// and a `Hit` only if its program bytes are a primed frame's.
#[test]
fn a_mutated_primed_frame_is_answered_for_its_own_bytes() {
    let fx = motivating::build_fixture(60, 12, 3);
    let service = CobraService::new(ServerConfig::default());
    let spec = TenantSpec::new("t0", fx.db.clone(), fx.mapping.clone(), fx.funcs.clone());
    service.register_tenant(spec.feedback(false));
    let server = WireServer::spawn(service, "127.0.0.1:0").expect("bind");
    let (mut stream, session) = raw_session(&server);

    let as_written = |program: &Program| {
        let observed: Vec<&str> = program.entry().params.iter().map(|p| p.as_str()).collect();
        run_on(&fx, NetworkProfile::slow_remote(), program)
            .map(|run| run.outcome.normalized_with_vars(&observed))
    };
    // ORM navigation in a loop, and the same report as one SQL join.
    let (mut mutants, mut replies, mut hits) = (0, 0, 0);
    for program in [motivating::p0(), motivating::p1()] {
        let primed = SubmitFrame::encode(session, 0, &program);
        let Response::SubmitOk(cold) = exchange(&mut stream, &primed) else {
            panic!("priming submission");
        };
        assert_eq!(cold.cache, CacheOutcome::Miss);
        assert_eq!(cold.results, as_written(&program).expect("runs as written"));

        let flips = [0x01u8, 0x80].into_iter().flat_map(|mask| {
            let primed = &primed;
            (0..primed.len()).map(move |at| {
                let mut mutant = primed.clone();
                mutant[at] ^= mask;
                mutant
            })
        });
        let cuts = (0..primed.len()).map(|cut| primed[..cut].to_vec());
        for mutant in flips.chain(cuts) {
            mutants += 1;
            let reply = match exchange(&mut stream, &mutant) {
                Response::Error { code, message } => {
                    let typed = ServerError::from_code(code, message);
                    assert!(!matches!(typed, ServerError::Internal(_)), "{typed}");
                    continue;
                }
                Response::SubmitOk(reply) => reply,
                other => panic!("a mutant answered with {other:?}"),
            };
            replies += 1;
            let Ok(Request::Submit { program: own, .. }) = Request::decode(&mutant) else {
                panic!("a reply to bytes that do not decode as a submission");
            };
            let own_results = as_written(&own).expect("served what does not run as written");
            assert_eq!(reply.results, own_results);
            let primed_bytes = mutant.get(17..) == Some(&primed[17..]);
            assert_eq!(reply.cache == CacheOutcome::Hit, primed_bytes);
            hits += primed_bytes as usize;
        }
    }
    // Two flips of each of the eight idempotency-key bytes of two frames
    // leave the program bytes alone: those, and only those, hit.
    assert_eq!(hits, 32);
    assert!(replies > hits, "some mutants are programs that run");
    eprintln!("{mutants} mutants, {replies} answered, {hits} of them hits");
    server.shutdown();
}
