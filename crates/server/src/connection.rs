//! The connection abstraction: an in-simulation duplex byte pipe.
//!
//! Both halves see raw bytes, so every request and reply goes through
//! the protocol's encoder and decoder in [`crate::proto`]. The pipe
//! carries whole frames — no `Connection` call writes part of one — so
//! reassembly of a frame split across reads is exercised by `proto`'s
//! `partial_frames_wait_for_more_bytes`, not here. The pipe itself is
//! zero-latency (transport delay is not the phenomenon under study;
//! queueing in the engine is); delivery order is FIFO per direction and
//! the shared buffers are `Rc<RefCell<..>>`, so a connection can be
//! cloned into a client actor and a server worker on the same
//! deterministic scheduler.
//!
//! Each direction is one buffer and a read cursor: a send encodes onto
//! the end of the buffer, a receive decodes at the cursor and moves it
//! on. A send first reserves room for its frame, so an empty pipe grows
//! to one frame in one allocation. When the reader catches up the
//! buffer rewinds to empty and keeps its capacity, so once a connection
//! has carried a frame each way a closed-loop exchange allocates
//! nothing. A reader that leaves frames behind has its consumed bytes
//! dropped once they outnumber the unread ones: the buffer never holds
//! more than about twice what is still to be read.

use std::cell::RefCell;
use std::rc::Rc;

use crate::proto::{
    decode_request, decode_response, encode_request, encode_response, ProtoError, RequestFrame,
    ResponseFrame, REQUEST_BYTES, RESPONSE_BYTES,
};

/// `proto`'s decoder for one kind of frame.
type Decode<F> = fn(&[u8]) -> Result<Option<(F, usize)>, ProtoError>;

/// One direction of a connection: frames are appended to `buf` and
/// read from `buf[read..]`.
#[derive(Default)]
struct Pipe {
    buf: Vec<u8>,
    /// Bytes of `buf` already decoded.
    read: usize,
}

impl Pipe {
    /// Decodes the next complete frame off the unread bytes and consumes
    /// it. The consumed bytes are dropped once they outnumber the unread
    /// ones — always when the reader has caught up, which rewinds the
    /// pipe to empty — so the copy of the unread tail is shorter than
    /// what was read since the last drop.
    fn recv<F>(&mut self, decode: Decode<F>) -> Result<Option<F>, ProtoError> {
        let Some((frame, used)) = decode(&self.buf[self.read..])? else {
            return Ok(None);
        };
        self.read += used;
        if self.read > self.buf.len() - self.read {
            self.buf.drain(..self.read);
            self.read = 0;
        }
        Ok(Some(frame))
    }
}

/// One client⇄server byte pipe.
#[derive(Clone)]
pub struct Connection {
    /// Connection id (stable; the pool queues a ready connection by it).
    pub id: u32,
    /// Client → server bytes.
    c2s: Rc<RefCell<Pipe>>,
    /// Server → client bytes.
    s2c: Rc<RefCell<Pipe>>,
}

impl Connection {
    /// A fresh, empty pipe.
    pub fn new(id: u32) -> Connection {
        Connection {
            id,
            c2s: Rc::default(),
            s2c: Rc::default(),
        }
    }

    /// Client side: writes one request frame.
    pub fn send_request(&self, f: &RequestFrame) {
        let mut pipe = self.c2s.borrow_mut();
        pipe.buf.reserve(REQUEST_BYTES);
        encode_request(f, &mut pipe.buf);
    }

    /// Server side: writes one response frame.
    pub fn send_response(&self, f: &ResponseFrame) {
        let mut pipe = self.s2c.borrow_mut();
        pipe.buf.reserve(RESPONSE_BYTES);
        encode_response(f, &mut pipe.buf);
    }

    /// Server side: decodes the next complete request, if any.
    pub fn recv_request(&self) -> Result<Option<RequestFrame>, ProtoError> {
        self.c2s.borrow_mut().recv(decode_request)
    }

    /// Client side: decodes the next complete response, if any.
    pub fn recv_response(&self) -> Result<Option<ResponseFrame>, ProtoError> {
        self.s2c.borrow_mut().recv(decode_response)
    }
}

/// The pipe tests. Seen red, each sabotage alone: no rewind, the drop
/// skipped when nothing is left unread (`a_drained_pipe` fails: the
/// buffer keeps its consumed bytes); a rewind that gives the buffer back
/// (`a_drained_pipe` fails on the capacity); `read` advanced one byte
/// short of the frame (every test fails: the next frame is decoded from
/// the last byte of the one before); no compaction, the drop skipped while
/// bytes are left unread (`a_reader_that_leaves` fails: the buffer grows
/// with every frame sent).
#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Req;

    fn get(req_id: u64) -> RequestFrame {
        RequestFrame {
            tenant: 1,
            req_id,
            req: Req::Get { obj: req_id * 10 },
        }
    }

    #[test]
    fn a_drained_pipe_is_empty_and_keeps_its_capacity() {
        let conn = Connection::new(0);
        for i in 0..4 {
            conn.send_request(&get(i));
        }
        let cap = conn.c2s.borrow().buf.capacity();
        assert!(cap >= 4 * REQUEST_BYTES);
        for i in 0..4 {
            assert_eq!(conn.recv_request().unwrap(), Some(get(i)));
        }
        let pipe = conn.c2s.borrow();
        assert_eq!((pipe.buf.len(), pipe.read), (0, 0));
        assert_eq!(pipe.buf.capacity(), cap);
    }

    #[test]
    fn a_reader_that_leaves_a_frame_behind_keeps_the_buffer_bounded() {
        let conn = Connection::new(0);
        conn.send_request(&get(0));
        for i in 1..=1_000 {
            conn.send_request(&get(i));
            assert_eq!(conn.recv_request().unwrap(), Some(get(i - 1)));
            let pipe = conn.c2s.borrow();
            let unread = pipe.buf.len() - pipe.read;
            assert_eq!(unread, REQUEST_BYTES);
            assert!(
                pipe.buf.len() <= 2 * unread + REQUEST_BYTES,
                "frame {i}: {} bytes held for {unread} unread",
                pipe.buf.len()
            );
        }
    }

    /// Sends and partial receives interleave: send 3, receive 1, send 2,
    /// receive 4. Then a response crosses the other way.
    #[test]
    fn frames_cross_the_pipe_in_order() {
        let conn = Connection::new(0);
        let server = conn.clone();
        let (mut sent, mut got) = (0, 0);
        for (sends, recvs) in [(3, 1), (2, 4)] {
            for _ in 0..sends {
                conn.send_request(&get(sent));
                sent += 1;
            }
            for _ in 0..recvs {
                assert_eq!(server.recv_request().unwrap(), Some(get(got)));
                got += 1;
            }
        }
        assert_eq!(got, 5);
        assert!(server.recv_request().unwrap().is_none());
        server.send_response(&ResponseFrame {
            req_id: 2,
            result: Ok(7),
        });
        assert_eq!(
            conn.recv_response().unwrap().unwrap(),
            ResponseFrame {
                req_id: 2,
                result: Ok(7)
            }
        );
    }
}
