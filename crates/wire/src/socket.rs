//! Workers over TCP: the same worker protocol as the pipe constructor
//! ([`WireTransport::spawn_pipes`]), carried over loopback sockets — the
//! step from a simulated cluster to workers that can live on other
//! machines.
//!
//! The coordinator binds a listener; each spawned worker connects back
//! (`--connect`) and introduces itself with a `Hello { worker }` frame
//! echoing the slot token it was handed:
//!
//! ```text
//! coordinator (listener)              worker k  (pcq-analyze worker --connect addr --token k)
//!       ◀───────────  connect
//!       ◀───────────  Hello{worker: k}
//!   Eval…       ───▶                   (then exactly the stdio protocol,
//!       ◀───────────  EvalResult…       pipelined under the same driver)
//! ```
//!
//! `Hello` names nothing, so it leaves both ends' symbol dictionaries (see
//! [`crate::codec`]) empty — the coordinator insists on that — and the
//! connection's dictionaries count from the first frame after it. The
//! `PCQW` frames are self-delimiting, so they concatenate on the
//! stream without any extra record layer; `TCP_NODELAY` keeps the small
//! control frames from stalling behind Nagle's algorithm. After the
//! handshake the connections are ordinary endpoints of the pipelined
//! driver (see [`crate::driver`]) — same in-flight window, byte
//! accounting and worker-death requeue as over pipes, byte-identically.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use distribution::TransportError;

use crate::codec::{Dictionary, Encoder};
use crate::driver::{Backoff, Endpoint, StderrTail, WireTransport};
use crate::frame::{read_frame, write_frame};
use crate::message::Message;
use crate::process::run_worker;

/// How long the coordinator waits for spawned workers to connect back.
const SPAWN_ACCEPT_DEADLINE: Duration = Duration::from_secs(10);

/// How long a connected socket may dawdle over its `Hello` frame.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// The longest sleep between two polls of the listener.
const ACCEPT_POLL_CAP: Duration = Duration::from_millis(5);

impl WireTransport {
    /// Spawns one subprocess of `program` per argument list (each gets
    /// `--connect <addr> --token <i>` appended) against an ephemeral
    /// loopback listener, and talks to each over the TCP connection it
    /// opens back — the socket analogue of [`WireTransport::spawn_pipes`].
    pub fn spawn_sockets(
        program: &Path,
        per_worker_args: &[Vec<String>],
    ) -> Result<WireTransport, TransportError> {
        let listener = bind()?;
        let addr = local_addr(&listener)?;
        let mut children = Vec::with_capacity(per_worker_args.len());
        let mut tails = Vec::with_capacity(per_worker_args.len());
        for (token, args) in per_worker_args.iter().enumerate() {
            let mut child = Command::new(program)
                .args(args)
                .arg("--connect")
                .arg(addr.to_string())
                .arg("--token")
                .arg(token.to_string())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| {
                    TransportError::Io(format!("cannot spawn worker {}: {e}", program.display()))
                })?;
            // Same crash-diagnostics capture as over pipes: a dead
            // worker's stderr tail rides along on the round error.
            tails.push(child.stderr.take().map(StderrTail::capture));
            children.push(Some(child));
        }
        let endpoints = accept_workers(&listener, &mut children)?;
        Ok(WireTransport::new(endpoints, children, tails))
    }
}

fn bind() -> Result<TcpListener, TransportError> {
    TcpListener::bind("127.0.0.1:0")
        .map_err(|e| TransportError::Io(format!("cannot bind listener: {e}")))
}

fn local_addr(listener: &TcpListener) -> Result<SocketAddr, TransportError> {
    listener
        .local_addr()
        .map_err(|e| TransportError::Io(format!("cannot read listener address: {e}")))
}

/// Accepts connections until every spawned worker has introduced itself
/// with a valid `Hello` for its slot, or the deadline passes. A worker
/// that exits before connecting is reported as such (instead of an opaque
/// timeout).
fn accept_workers(
    listener: &TcpListener,
    children: &mut [Option<Child>],
) -> Result<Vec<Endpoint>, TransportError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| TransportError::Io(format!("cannot poll listener: {e}")))?;
    let expected = children.len();
    let deadline = Instant::now() + SPAWN_ACCEPT_DEADLINE;
    let mut slots: Vec<Option<Endpoint>> = (0..expected).map(|_| None).collect();
    let mut connected = 0usize;
    // A spawned worker connects back within a few milliseconds, and the
    // run cannot start before the last one has.
    let mut backoff = Backoff::new(ACCEPT_POLL_CAP);
    while connected < expected {
        match listener.accept() {
            Ok((stream, _)) => {
                let token = handshake(&stream)?;
                if token >= expected as u64 {
                    return Err(TransportError::Protocol(format!(
                        "worker introduced itself with token {token}, expected 0..{expected}"
                    )));
                }
                let slot = &mut slots[token as usize];
                if slot.is_some() {
                    return Err(TransportError::Protocol(format!(
                        "two workers claimed token {token}"
                    )));
                }
                let writer = stream
                    .try_clone()
                    .map_err(|e| TransportError::Io(format!("cannot clone worker stream: {e}")))?;
                *slot = Some(Endpoint::new(writer, stream));
                connected += 1;
                backoff = Backoff::new(ACCEPT_POLL_CAP);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                for (i, child) in children.iter_mut().enumerate() {
                    let exited = child
                        .as_mut()
                        .is_some_and(|c| matches!(c.try_wait(), Ok(Some(_))));
                    if exited && slots[i].is_none() {
                        return Err(TransportError::Io(format!(
                            "worker {i} exited before connecting back"
                        )));
                    }
                }
                if Instant::now() >= deadline {
                    return Err(TransportError::Io(format!(
                        "only {connected} of {expected} workers connected before the deadline"
                    )));
                }
                backoff.sleep();
            }
            Err(e) => return Err(TransportError::Io(format!("accept failed: {e}"))),
        }
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("all slots filled"))
        .collect())
}

/// Reads and validates the `Hello` frame off a fresh connection, returning
/// the worker's token. Configures the stream (blocking, `TCP_NODELAY`) on
/// the way.
fn handshake(stream: &TcpStream) -> Result<u64, TransportError> {
    stream
        .set_nonblocking(false)
        .map_err(|e| TransportError::Io(format!("cannot configure worker stream: {e}")))?;
    stream
        .set_nodelay(true)
        .map_err(|e| TransportError::Io(format!("cannot configure worker stream: {e}")))?;
    stream
        .set_read_timeout(Some(HELLO_TIMEOUT))
        .map_err(|e| TransportError::Io(format!("cannot configure worker stream: {e}")))?;
    let mut reader = stream;
    let mut dictionary = Dictionary::new();
    let hello = match read_frame::<Message>(&mut reader, &mut dictionary) {
        // The endpoint's dictionary starts empty after the handshake, as
        // the worker's encoder does: a hello that named something would
        // leave the two out of step.
        Ok(Some(Message::Hello { .. })) if !dictionary.is_empty() => {
            return Err(TransportError::Protocol(
                "hello frame carried a symbol table".to_string(),
            ))
        }
        Ok(Some(Message::Hello { worker })) => worker,
        Ok(Some(other)) => {
            return Err(TransportError::Protocol(format!(
                "expected hello as a connection's first frame, got {}",
                other.kind()
            )))
        }
        Ok(None) => {
            return Err(TransportError::Io(
                "worker closed its connection before saying hello".to_string(),
            ))
        }
        Err(e) => return Err(TransportError::Protocol(format!("bad hello frame: {e}"))),
    };
    stream
        .set_read_timeout(None)
        .map_err(|e| TransportError::Io(format!("cannot configure worker stream: {e}")))?;
    Ok(hello)
}

/// The worker side of a socket connection: connects to the coordinator at
/// `addr`, introduces itself with `Hello { worker: token }`, then runs the
/// ordinary worker loop over the connection ([`run_worker`], which also
/// documents `fail_after` and `slow_eval_us`). Backs
/// `pcq-analyze worker --connect addr --token k`.
pub fn run_worker_connect(
    addr: &str,
    token: u64,
    fail_after: Option<u64>,
    slow_eval_us: u64,
) -> Result<(), String> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to coordinator at {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("cannot configure stream: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    write_frame(
        &mut writer,
        &mut Encoder::new(),
        &Message::Hello { worker: token },
    )
    .map_err(|e| format!("cannot send hello: {e}"))?;
    run_worker(stream, writer, fail_after, slow_eval_us)
}
