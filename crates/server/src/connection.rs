//! The connection abstraction: an in-simulation duplex byte pipe.
//!
//! Both halves see raw bytes, so the protocol framing in
//! [`crate::proto`] is genuinely exercised — a frame split across two
//! sends is reassembled by the decoder, exactly as it would be over a
//! socket. The pipe itself is zero-latency (transport delay is not the
//! phenomenon under study; queueing in the engine is); delivery order
//! is FIFO per direction and the shared buffers are `Rc<RefCell<..>>`,
//! so a connection can be cloned into a client actor and a server
//! worker on the same deterministic scheduler.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::proto::{
    decode_request, decode_response, encode_request, encode_response, ProtoError, RequestFrame,
    ResponseFrame,
};

/// One client⇄server byte pipe.
#[derive(Clone)]
pub struct Connection {
    /// Connection id (stable; the pool variants key assignment on it).
    pub id: u32,
    /// Client → server bytes.
    c2s: Rc<RefCell<VecDeque<u8>>>,
    /// Server → client bytes.
    s2c: Rc<RefCell<VecDeque<u8>>>,
}

impl Connection {
    /// A fresh, empty pipe.
    pub fn new(id: u32) -> Connection {
        Connection {
            id,
            c2s: Rc::new(RefCell::new(VecDeque::new())),
            s2c: Rc::new(RefCell::new(VecDeque::new())),
        }
    }

    /// Client side: writes one request frame.
    pub fn send_request(&self, f: &RequestFrame) {
        let mut buf = Vec::new();
        encode_request(f, &mut buf);
        self.c2s.borrow_mut().extend(buf);
    }

    /// Server side: writes one response frame.
    pub fn send_response(&self, f: &ResponseFrame) {
        let mut buf = Vec::new();
        encode_response(f, &mut buf);
        self.s2c.borrow_mut().extend(buf);
    }

    /// Server side: decodes the next complete request, if any.
    pub fn recv_request(&self) -> Result<Option<RequestFrame>, ProtoError> {
        let mut q = self.c2s.borrow_mut();
        let Some((frame, used)) = decode_request(q.make_contiguous())? else {
            return Ok(None);
        };
        q.drain(..used);
        Ok(Some(frame))
    }

    /// Client side: decodes the next complete response, if any.
    pub fn recv_response(&self) -> Result<Option<ResponseFrame>, ProtoError> {
        let mut q = self.s2c.borrow_mut();
        let Some((frame, used)) = decode_response(q.make_contiguous())? else {
            return Ok(None);
        };
        q.drain(..used);
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Req;

    #[test]
    fn frames_cross_the_pipe_in_order() {
        let conn = Connection::new(0);
        let server = conn.clone();
        for i in 0..3u64 {
            conn.send_request(&RequestFrame {
                tenant: 1,
                req_id: i,
                req: Req::Get { obj: i * 10 },
            });
        }
        for i in 0..3u64 {
            let f = server.recv_request().unwrap().unwrap();
            assert_eq!(f.req_id, i);
            assert_eq!(f.req, Req::Get { obj: i * 10 });
        }
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
