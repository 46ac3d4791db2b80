//! A small blocking wire-protocol client over `std::net::TcpStream`,
//! used by the examples, the loopback tests and the network
//! benchmark driver. Deliberately simple: the interesting I/O
//! machinery lives on the server side; the client just frames
//! requests, reassembles (possibly chunked) responses, and supports
//! pipelining several requests before collecting.

use crate::wire::{self, Frame, RecvBuf};
use rma_db::{Op, Reply};
use std::collections::VecDeque;
use std::io::{self, Read as _, Write as _};
use std::net::TcpStream;

/// One fully reassembled response.
#[derive(Debug)]
pub struct Completed {
    /// The request's correlation id (as returned by
    /// [`WireClient::send`]).
    pub corr: u32,
    /// One reply per op, in op order. Chunked scan streams arrive
    /// already reassembled into a single [`Reply::Entries`].
    pub replies: Vec<Reply>,
    /// Response frames the reassembly consumed (> 1 when the server
    /// streamed).
    pub frames: u32,
}

struct Partial {
    corr: u32,
    slots: Vec<Option<Reply>>,
    /// `(slot, count)` of the request's scans, `count` bounded by
    /// [`SCAN_RESERVE_MAX`]: what a slot answered over several frames
    /// reserves when its first chunk arrives.
    scans: Vec<(u16, usize)>,
    frames: u32,
}

/// Most entries reserved ahead for one streaming scan, so the op's own
/// `count` (which may be `usize::MAX`) never sizes an allocation.
const SCAN_RESERVE_MAX: usize = 1 << 16;

/// A blocking client connection to a [`NetServer`](crate::NetServer).
pub struct WireClient {
    stream: TcpStream,
    rbuf: RecvBuf,
    next_corr: u32,
    /// Requests awaiting their final frame — as many as the caller
    /// pipelines, a handful: found by a walk over their ids.
    pending: Vec<Partial>,
    done: VecDeque<Completed>,
    sbuf: Vec<u8>,
}

impl WireClient {
    /// Connects to `127.0.0.1:port` with `TCP_NODELAY`.
    pub fn connect(port: u16) -> io::Result<WireClient> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        Ok(WireClient {
            stream,
            rbuf: RecvBuf::default(),
            next_corr: 0,
            pending: Vec::new(),
            done: VecDeque::new(),
            sbuf: Vec::new(),
        })
    }

    /// Frames and sends one request without waiting; returns its
    /// correlation id. Pipelining: send several, then [`recv`]
    /// completions as the server answers.
    ///
    /// [`recv`]: Self::recv
    pub fn send(&mut self, ops: &[Op]) -> io::Result<u32> {
        let corr = self.next_corr;
        self.next_corr = self.next_corr.wrapping_add(1);
        self.sbuf.clear();
        wire::encode_request(&mut self.sbuf, corr, ops);
        self.stream.write_all(&self.sbuf)?;
        let scans = ops.iter().enumerate().filter_map(|(slot, op)| match *op {
            Op::Scan { count, .. } => Some((slot as u16, count.min(SCAN_RESERVE_MAX))),
            _ => None,
        });
        self.pending.push(Partial {
            corr,
            slots: vec![None; ops.len()],
            scans: scans.collect(),
            frames: 0,
        });
        Ok(corr)
    }

    /// Blocks until any in-flight request completes and returns it.
    pub fn recv(&mut self) -> io::Result<Completed> {
        if let Some(c) = self.done.pop_front() {
            return Ok(c);
        }
        if self.pending.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "recv with no request in flight",
            ));
        }
        loop {
            // Drain whole frames already buffered.
            let mut at = 0usize;
            let mut finished = None;
            while finished.is_none() {
                match wire::split_frame(&self.rbuf.unparsed()[at..]).map_err(to_io)? {
                    Frame::Incomplete => break,
                    Frame::Payload { payload, consumed } => {
                        let frame = wire::decode_response(payload).map_err(to_io)?;
                        at += consumed;
                        finished = self.apply(frame)?;
                    }
                }
            }
            if at > 0 {
                self.rbuf.consume(at);
            }
            if let Some(c) = finished {
                return Ok(c);
            }
            let n = self.stream.read(self.rbuf.spare())?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed with requests in flight",
                ));
            }
            self.rbuf.fill(n);
        }
    }

    /// Convenience: one request, wait for its completion. Other
    /// pipelined completions arriving first are queued for [`recv`].
    ///
    /// [`recv`]: Self::recv
    pub fn call(&mut self, ops: &[Op]) -> io::Result<Vec<Reply>> {
        let corr = self.send(ops)?;
        loop {
            let c = self.recv()?;
            if c.corr == corr {
                return Ok(c.replies);
            }
            self.done.push_back(c);
        }
    }

    /// Requests currently awaiting their final frame.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn apply(&mut self, frame: wire::ResponseFrame) -> io::Result<Option<Completed>> {
        let Some(at) = self.pending.iter().position(|p| p.corr == frame.corr) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response for unknown correlation id {}", frame.corr),
            ));
        };
        let p = &mut self.pending[at];
        p.frames += 1;
        for (slot, reply) in frame.items {
            let Some(cell) = p.slots.get_mut(slot as usize) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response slot {slot} out of range"),
                ));
            };
            match (cell.as_mut(), reply) {
                // Chunked scan: later frames append to the slot.
                (Some(Reply::Entries(have)), Reply::Entries(mut more)) => {
                    have.append(&mut more);
                }
                (Some(_), _) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("slot {slot} answered twice"),
                    ));
                }
                // A scan's first chunk with more to come: make room
                // for the rest now, so the chunks that follow append
                // without regrowing.
                (None, Reply::Entries(mut first)) if !frame.last => {
                    if let Some(&(_, count)) = p.scans.iter().find(|(s, _)| *s == slot) {
                        first.reserve(count.saturating_sub(first.len()));
                    }
                    *cell = Some(Reply::Entries(first));
                }
                (None, reply) => *cell = Some(reply),
            }
        }
        if !frame.last {
            return Ok(None);
        }
        let p = self.pending.swap_remove(at);
        let mut replies = Vec::with_capacity(p.slots.len());
        for (i, slot) in p.slots.into_iter().enumerate() {
            match slot {
                Some(r) => replies.push(r),
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("final frame left slot {i} unanswered"),
                    ));
                }
            }
        }
        Ok(Some(Completed {
            corr: frame.corr,
            replies,
            frames: p.frames,
        }))
    }
}

fn to_io(e: wire::WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}
