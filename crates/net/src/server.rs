//! The serving front-end's poll loop (DESIGN.md §14.2).
//!
//! One single-threaded, non-blocking loop owns every connection: accept,
//! read + reassemble frames, route by snapshot id through the
//! [`SnapshotRegistry`], answer, flush. Query *computation* still fans out
//! inside the wave scheduler (`run_batch_telemetry`'s parallel compute
//! phase) — the loop only serializes the decide/assemble work the
//! determinism contract already requires to be serial, so a poll loop
//! costs no parallelism the scheduler didn't already forbid.
//!
//! Ordering discipline: frames are routed in (connection ordinal, arrival
//! order) and snapshot batches run in id order, so the per-frame answers
//! are a deterministic function of what arrived — and since the engine is
//! pure and responses are matched by request id, *how* requests interleave
//! across ticks cannot change any response byte.
//!
//! Per-tenant token-bucket quotas gate every request **before** it
//! reaches the scheduler's queue-position admission: an over-quota frame
//! costs no queue slot and is answered with a typed `Rejected` response —
//! never a drop, never a closed connection (DESIGN.md §14.4).

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use intertubes_faults::{FaultFamily, FaultPlan, InjectionLedger};
use intertubes_serve::{
    quota_rejection, Query, QuotaConfig, QuotaDecision, Response, TenantQuotas,
};
use netpoll::{NbListener, NbStream, ReadOutcome};

use crate::registry::SnapshotRegistry;
use crate::wire::{Frame, FrameKind, FrameReader, WireError};

/// Bytes per poll tick a slow-loris'd connection is allowed to flush.
const LORIS_CHUNK: usize = 7;

/// Read buffer per connection per tick.
const READ_BUF: usize = 64 * 1024;

/// What one server run did (all counters are totals over the run).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Connections accepted.
    pub accepted: u64,
    /// Request frames decoded.
    pub frames: u64,
    /// Response frames produced (engine answers + quota rejections).
    pub responses: u64,
    /// Error frames produced (wire/protocol failures).
    pub errors: u64,
    /// Frames answered with a quota `Rejected` response.
    pub quota_rejected: u64,
    /// Transport faults injected (torn frame, slow-loris, disconnect).
    pub ledger: InjectionLedger,
    /// Client-initiated session closes observed (server-initiated chaos
    /// closes never count — the reconnecting client is the same session).
    pub sessions_closed: u64,
}

/// One live connection's state.
struct Conn {
    stream: NbStream,
    reader: FrameReader,
    /// Bytes queued for the peer, drained by `write_some`.
    outbox: Vec<u8>,
    /// Response frames queued on this connection (chaos stream index).
    frames_out: u64,
    /// When set, flush at most this many bytes per tick (slow-loris).
    chunk: Option<usize>,
    /// Close once the outbox drains (error frames, torn frames).
    close_after_flush: bool,
    /// The server decided to close — a peer EOF after this is not a
    /// client-initiated session end.
    server_closed: bool,
}

impl Conn {
    fn new(stream: NbStream) -> Conn {
        Conn {
            stream,
            reader: FrameReader::new(),
            outbox: Vec::new(),
            frames_out: 0,
            chunk: None,
            close_after_flush: false,
            server_closed: false,
        }
    }
}

/// The remote serving front-end. Configure, then [`NetServer::spawn`] (in
/// process) or [`NetServer::run`] (the CLI's foreground path).
pub struct NetServer {
    registry: SnapshotRegistry,
    quotas: TenantQuotas,
    /// Transport fault plan; the empty plan serves clean.
    chaos: FaultPlan,
    session_limit: Option<u64>,
}

impl NetServer {
    /// A front-end over `registry` with unlimited quotas and no chaos.
    pub fn new(registry: SnapshotRegistry) -> NetServer {
        NetServer {
            registry,
            quotas: TenantQuotas::new(QuotaConfig::default()),
            chaos: FaultPlan::default(),
            session_limit: None,
        }
    }

    /// Enforces `quota` per tenant, ahead of queue-position admission.
    pub fn with_quota(mut self, quota: QuotaConfig) -> NetServer {
        self.quotas = TenantQuotas::new(quota);
        self
    }

    /// Injects the plan's transport families into response frames (a
    /// plan without them leaves the server clean).
    pub fn with_chaos(mut self, plan: &FaultPlan) -> NetServer {
        self.chaos = plan.clone();
        self
    }

    /// Exit after `n` client-initiated session closes (the CLI's
    /// `--sessions` termination condition).
    pub fn with_session_limit(mut self, n: u64) -> NetServer {
        self.session_limit = Some(n);
        self
    }

    /// The registry being served.
    pub fn registry(&self) -> &SnapshotRegistry {
        &self.registry
    }

    /// Binds `addr` and runs the poll loop on a background thread.
    /// Binding port 0 picks an ephemeral port; see [`RunningServer::addr`].
    pub fn spawn(self, addr: &str) -> io::Result<RunningServer> {
        let listener = NbListener::bind(addr)?;
        let local = listener.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("intertubes-net".to_string())
            .spawn(move || self.serve_loop(&listener, Some(&flag)))?;
        Ok(RunningServer {
            addr: local,
            stop,
            handle,
        })
    }

    /// Runs the poll loop in the foreground until the session limit is
    /// reached (never, without one).
    pub fn run(self, listener: &NbListener) -> io::Result<ServerReport> {
        self.serve_loop(listener, None)
    }

    /// The poll loop. One pass = accept, read, route, answer, flush.
    fn serve_loop(
        mut self,
        listener: &NbListener,
        stop: Option<&AtomicBool>,
    ) -> io::Result<ServerReport> {
        let mut report = ServerReport::default();
        let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
        let mut next_conn: u64 = 0;
        loop {
            if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                break;
            }
            if self
                .session_limit
                .is_some_and(|n| report.sessions_closed >= n)
            {
                break;
            }
            let mut progressed = false;

            // Accept everything pending.
            let mut accepted = 0u64;
            while let Some((stream, _peer)) = listener.accept()? {
                conns.insert(next_conn, Conn::new(stream));
                next_conn += 1;
                accepted += 1;
            }
            if accepted > 0 {
                progressed = true;
                report.accepted += accepted;
                let mut stage = intertubes_obs::stage("net.accept");
                stage.items("connections", accepted as usize);
            }

            // Read + reassemble. Frames keep (conn, frame) for replies.
            let mut inbound: Vec<(u64, Frame)> = Vec::new();
            let mut dead: Vec<u64> = Vec::new();
            let mut buf = vec![0u8; READ_BUF];
            for (&cid, conn) in conns.iter_mut() {
                if conn.close_after_flush {
                    continue; // already answering a fatal error
                }
                loop {
                    match conn.stream.read_some(&mut buf) {
                        Ok(ReadOutcome::Data(n)) => {
                            progressed = true;
                            conn.reader.feed(&buf[..n]);
                        }
                        Ok(ReadOutcome::Pending) => break,
                        Ok(ReadOutcome::Closed) => {
                            progressed = true;
                            if !conn.server_closed {
                                report.sessions_closed += 1;
                            }
                            dead.push(cid);
                            break;
                        }
                        Err(e) => {
                            progressed = true;
                            intertubes_obs::counter("net.read_errors", 1);
                            let _ = e; // surfaced as a dropped connection
                            dead.push(cid);
                            break;
                        }
                    }
                }
                if dead.last() == Some(&cid) {
                    continue;
                }
                loop {
                    match conn.reader.next_frame() {
                        Ok(Some(frame)) => inbound.push((cid, frame)),
                        Ok(None) => break,
                        Err(e) => {
                            // Unsynchronized stream: answer with a typed
                            // error frame, then close after it flushes.
                            // Never a hang, never a process exit.
                            report.errors += 1;
                            let reply = Frame {
                                kind: FrameKind::Error,
                                tenant: String::new(),
                                snapshot: String::new(),
                                request_id: 0,
                                payload: e.to_error_payload(),
                            };
                            queue_frame(conn, &reply);
                            conn.close_after_flush = true;
                            conn.server_closed = true;
                            break;
                        }
                    }
                }
            }
            for cid in dead.drain(..) {
                conns.remove(&cid);
            }

            // Route + answer.
            if !inbound.is_empty() {
                progressed = true;
                report.frames += inbound.len() as u64;
                let mut stage = intertubes_obs::stage("net.frame");
                stage.items("frames", inbound.len());
                drop(stage);
                let replies = self.route(&inbound, &mut report);
                for (cid, reply) in replies {
                    let Some(conn) = conns.get_mut(&cid) else {
                        continue; // peer vanished; answer has nowhere to go
                    };
                    self.dispatch(cid, conn, &reply, &mut report);
                }
            }

            // Flush outboxes; retire drained close-after-flush conns.
            for (&cid, conn) in conns.iter_mut() {
                if conn.outbox.is_empty() {
                    continue;
                }
                let budget = conn.chunk.unwrap_or(conn.outbox.len());
                let take = budget.min(conn.outbox.len());
                match conn.stream.write_some(&conn.outbox[..take]) {
                    Ok(0) => {}
                    Ok(n) => {
                        progressed = true;
                        conn.outbox.drain(0..n);
                    }
                    Err(_) => {
                        progressed = true;
                        conn.outbox.clear();
                        conn.server_closed = true;
                        dead.push(cid);
                    }
                }
            }
            conns.retain(|_, conn| {
                if conn.close_after_flush && conn.outbox.is_empty() {
                    conn.stream.shutdown();
                    return false;
                }
                true
            });
            for cid in dead.drain(..) {
                conns.remove(&cid);
            }

            if !progressed {
                netpoll::tick();
            }
        }
        Ok(report)
    }

    /// Routes decoded frames: quota gate, snapshot lookup, per-snapshot
    /// batches through the wave scheduler. Returns reply frames tagged
    /// with their connection.
    fn route(&mut self, inbound: &[(u64, Frame)], report: &mut ServerReport) -> Vec<(u64, Frame)> {
        let mut stage = intertubes_obs::stage("net.route");
        stage.items("frames", inbound.len());
        let telemetry = Arc::clone(self.registry.telemetry());
        let mut replies: Vec<Option<(u64, Frame)>> = vec![None; inbound.len()];
        // Per-snapshot batch: (reply slot, originating frame, query).
        let mut batches: BTreeMap<String, Vec<(usize, usize, Query)>> = BTreeMap::new();
        for (slot, (cid, frame)) in inbound.iter().enumerate() {
            if frame.kind != FrameKind::Request {
                report.errors += 1;
                let e = WireError::BadKind {
                    found: frame.kind.as_u8(),
                };
                replies[slot] = Some((*cid, frame.reply(FrameKind::Error, e.to_error_payload())));
                continue;
            }
            // Quota gate — ahead of queue-position admission, so a hot
            // tenant's flood never occupies slots other tenants could use.
            let admitted = self.quotas.admit(&frame.tenant) == QuotaDecision::Admitted;
            telemetry.note_tenant(&frame.tenant, admitted);
            if !admitted {
                report.quota_rejected += 1;
                report.responses += 1;
                let json = Response::Rejected {
                    reason: quota_rejection(&frame.tenant, &self.quotas.config()),
                }
                .to_canonical_json();
                replies[slot] = Some((*cid, frame.reply(FrameKind::Response, json)));
                continue;
            }
            if !self.registry.contains(&frame.snapshot) {
                report.errors += 1;
                let e = WireError::UnknownSnapshot {
                    id: frame.snapshot.clone(),
                };
                replies[slot] = Some((*cid, frame.reply(FrameKind::Error, e.to_error_payload())));
                continue;
            }
            match serde_json::from_str::<Query>(&frame.payload) {
                Ok(query) => {
                    batches
                        .entry(frame.snapshot.clone())
                        .or_default()
                        .push((slot, slot, query));
                }
                Err(e) => {
                    // Well-framed but not a query: a typed response, not a
                    // wire error — the connection stays healthy.
                    report.responses += 1;
                    let json = Response::InvalidQuery {
                        reason: format!("unparseable query payload: {e}"),
                    }
                    .to_canonical_json();
                    replies[slot] = Some((*cid, frame.reply(FrameKind::Response, json)));
                }
            }
        }
        for (snapshot, batch) in &batches {
            let queries: Vec<Query> = batch.iter().map(|(_, _, q)| q.clone()).collect();
            // contains() was checked above; serve() only fails on a
            // concurrent unload, which this single-owner loop never does.
            let Some((responses, _stats)) = self.registry.serve(snapshot, &queries) else {
                continue;
            };
            report.responses += responses.len() as u64;
            for ((slot, _, _), json) in batch.iter().zip(responses) {
                let (cid, frame) = &inbound[*slot];
                replies[*slot] = Some((*cid, frame.reply(FrameKind::Response, json)));
            }
        }
        stage.items("batches", batches.len());
        replies.into_iter().flatten().collect()
    }

    /// Queues one reply frame, applying the transport fault families.
    /// Each draw is keyed by the **global** connection ordinal and the
    /// connection's frame ordinal, so a client retrying on a fresh
    /// connection rolls a fresh draw — a deterministic tear-forever loop
    /// is impossible. Families are tried in a fixed order — disconnect,
    /// torn frame, slow-loris — and at most one fires.
    fn dispatch(&self, cid: u64, conn: &mut Conn, reply: &Frame, report: &mut ServerReport) {
        let frame_idx = conn.frames_out;
        conn.frames_out += 1;
        let family = [
            FaultFamily::Disconnect,
            FaultFamily::TornFrame,
            FaultFamily::SlowLoris,
        ]
        .into_iter()
        .find(|&f| self.chaos.fires_at(f, cid, frame_idx));
        let Some(family) = family else {
            queue_frame(conn, reply);
            return;
        };
        let detail = format!("response frame {frame_idx} on connection {cid}");
        report.ledger.record(family, 1, &detail);
        if family == FaultFamily::SlowLoris {
            conn.chunk = Some(LORIS_CHUNK);
            queue_frame(conn, reply);
            return;
        }
        // A disconnect closes before any byte of the frame is sent; a torn
        // frame sends half of it first.
        if family == FaultFamily::TornFrame {
            if let Ok(bytes) = crate::wire::encode_frame(reply) {
                conn.outbox.extend_from_slice(&bytes[..bytes.len() / 2]);
            }
        }
        conn.server_closed = true;
        conn.close_after_flush = true;
    }
}

/// Encodes and queues a frame on a connection's outbox. Frames the server
/// itself builds always encode (ids come from decoded frames, payloads
/// from the engine); an encode failure is degraded to a dropped reply
/// rather than a panic.
fn queue_frame(conn: &mut Conn, frame: &Frame) {
    if let Ok(bytes) = crate::wire::encode_frame(frame) {
        conn.outbox.extend_from_slice(&bytes);
    }
}

/// A server running on a background thread (in-process tests, examples).
pub struct RunningServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<io::Result<ServerReport>>,
}

impl RunningServer {
    /// The bound address (ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the loop to exit and joins it, returning the run's report.
    pub fn stop(self) -> io::Result<ServerReport> {
        self.stop.store(true, Ordering::Relaxed);
        match self.handle.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}
