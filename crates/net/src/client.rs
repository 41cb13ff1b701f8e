//! The serving client and the multi-client determinism harness
//! (DESIGN.md §14.6).
//!
//! [`NetClient`] keeps one connection, one outstanding request at a time,
//! and rides out transport chaos by reconnecting and resending: the
//! engine is pure and requests are idempotent, so a retried answer is
//! byte-identical to the one the fault destroyed. Protocol error frames
//! are **not** retried — resending a malformed or unroutable frame would
//! only fail again — and surface as [`NetReply::ErrorFrame`].
//!
//! [`run_clients`] is the determinism harness the remote gate drives: a
//! fixed workload is split round-robin over K client threads (request id
//! = workload index), answers are matched by request id, and the merged
//! response vector is returned in workload order — byte-comparable across
//! K = 1/2/8, cache on/off, and against local replay.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};

use intertubes_serve::Query;
use netpoll::{NbStream, ReadOutcome};

use crate::wire::{encode_frame, Frame, FrameKind, FrameReader, WireError};

/// Reconnect-and-resend attempts before a request is abandoned.
const MAX_ATTEMPTS: usize = 64;

/// Poll ticks (~0.5 ms each) to wait for one response before the attempt
/// is written off as lost. Generous: a wave against a large snapshot can
/// take a while. Failure-path only — no response byte depends on it.
const WAIT_TICKS: usize = 120_000;

/// A terminal answer from the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetReply {
    /// A response frame's canonical JSON payload.
    Response(String),
    /// An error frame's payload (`{"error": ..., "detail": ...}`).
    ErrorFrame(String),
}

impl NetReply {
    /// The payload, whichever kind arrived.
    pub fn payload(&self) -> &str {
        match self {
            NetReply::Response(p) | NetReply::ErrorFrame(p) => p,
        }
    }
}

/// One tenant's connection to a serving front-end.
pub struct NetClient {
    addr: SocketAddr,
    tenant: String,
    conn: Option<(NbStream, FrameReader)>,
}

impl NetClient {
    /// A client for `tenant`, connecting lazily to `addr`.
    pub fn new(addr: impl ToSocketAddrs, tenant: &str) -> io::Result<NetClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("address resolved to nothing"))?;
        Ok(NetClient {
            addr,
            tenant: tenant.to_string(),
            conn: None,
        })
    }

    /// The tenant this client identifies as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    fn connected(&mut self) -> Result<&mut (NbStream, FrameReader), WireError> {
        if self.conn.is_none() {
            let stream = NbStream::connect(self.addr).map_err(|e| WireError::Io(e.to_string()))?;
            self.conn = Some((stream, FrameReader::new()));
        }
        // Just ensured Some; unreachable fallback keeps this panic-free.
        self.conn.as_mut().ok_or(WireError::Closed)
    }

    /// Sends `query` against `snapshot` and waits for the matching
    /// answer. Transport failures reconnect and resend transparently;
    /// protocol errors surface as [`NetReply::ErrorFrame`].
    pub fn request(
        &mut self,
        snapshot: &str,
        request_id: u64,
        query: &Query,
    ) -> Result<NetReply, WireError> {
        // A query is a plain data enum; serialization cannot fail.
        let payload = serde_json::to_string(query).unwrap_or_default();
        let frame = Frame::request(&self.tenant, snapshot, request_id, payload);
        let bytes = encode_frame(&frame)?;
        let mut last = WireError::Closed;
        for _ in 0..MAX_ATTEMPTS {
            match self.attempt(&bytes, request_id) {
                Ok(reply) => return Ok(reply),
                Err(e) if e.is_retryable() => {
                    self.conn = None; // reconnect on the next attempt
                    last = e;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// One send + wait on the current connection.
    fn attempt(&mut self, bytes: &[u8], request_id: u64) -> Result<NetReply, WireError> {
        let (stream, reader) = self.connected()?;
        // Send the whole frame (non-blocking writes may take many ticks).
        let mut sent = 0;
        while sent < bytes.len() {
            match stream.write_some(&bytes[sent..]) {
                Ok(0) => netpoll::tick(),
                Ok(n) => sent += n,
                Err(e) => return Err(WireError::Io(e.to_string())),
            }
        }
        // Wait for the matching answer.
        let mut buf = vec![0u8; 64 * 1024];
        for _ in 0..WAIT_TICKS {
            match stream.read_some(&mut buf) {
                Ok(ReadOutcome::Data(n)) => reader.feed(&buf[..n]),
                Ok(ReadOutcome::Pending) => {
                    netpoll::tick();
                    continue;
                }
                Ok(ReadOutcome::Closed) => return Err(reader.close()),
                Err(e) => return Err(WireError::Io(e.to_string())),
            }
            loop {
                match reader.next_frame()? {
                    Some(frame) if frame.request_id == request_id => {
                        return match frame.kind {
                            FrameKind::Error => Ok(NetReply::ErrorFrame(frame.payload)),
                            _ => Ok(NetReply::Response(frame.payload)),
                        };
                    }
                    // An answer to a request a previous attempt gave up
                    // on; correlation ids make it safe to skip.
                    Some(_) => continue,
                    None => break,
                }
            }
        }
        Err(WireError::Io("timed out waiting for response".to_string()))
    }

    /// Closes the connection (a clean client-initiated session end — what
    /// the server's `--sessions` exit condition counts).
    pub fn close(&mut self) {
        if let Some((stream, _)) = self.conn.take() {
            stream.shutdown();
        }
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        self.close();
    }
}

/// The multi-client determinism harness: splits `queries` round-robin
/// over `clients` concurrent connections (request id = workload index)
/// and returns the payloads merged back into workload order. Any
/// transport-level failure aborts the whole run with the error.
pub fn run_clients(
    addr: SocketAddr,
    tenant: &str,
    snapshot: &str,
    queries: &[Query],
    clients: usize,
) -> Result<Vec<String>, WireError> {
    let clients = clients.max(1);
    let mut slots: Vec<Option<String>> = vec![None; queries.len()];
    let results: Vec<Result<Vec<(usize, String)>, WireError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|j| {
                scope.spawn(move || {
                    let mut client =
                        NetClient::new(addr, tenant).map_err(|e| WireError::Io(e.to_string()))?;
                    let mut answers = Vec::new();
                    for (i, query) in queries.iter().enumerate() {
                        if i % clients != j {
                            continue;
                        }
                        let reply = client.request(snapshot, i as u64, query)?;
                        answers.push((i, reply.payload().to_string()));
                    }
                    client.close();
                    Ok(answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err(WireError::Io("client thread panicked".to_string())),
            })
            .collect()
    });
    for result in results {
        for (i, payload) in result? {
            slots[i] = Some(payload);
        }
    }
    Ok(slots.into_iter().map(Option::unwrap_or_default).collect())
}
