//! The framed request/response wire protocol.
//!
//! The Lustre-shaped service layer (PAPERS.md) speaks a tiny KV-style
//! protocol over byte-stream connections: fixed little-endian frames, a
//! length prefix first so a reader can skip frames it does not
//! understand. Objects are opaque `u64` ids the server maps onto
//! tertiary segments; every request carries the issuing tenant (the
//! fair-queue key) and a client-chosen request id echoed in the
//! response, so open-loop clients can match completions out of order.
//!
//! Request frame layout (after the `u32` length prefix, which counts
//! the remaining bytes):
//!
//! | field  | type | meaning                                   |
//! |--------|------|-------------------------------------------|
//! | opcode | u8   | 1=get 2=put 3=scan 4=stat                 |
//! | tenant | u32  | fair-queue tenant id                      |
//! | req_id | u64  | echoed in the response                    |
//! | obj    | u64  | target object (scan: first object)        |
//! | count  | u32  | scan width (other opcodes: 0)             |
//!
//! Response frame: `u8` status (0=ok, 1=error), `u64` req_id, `u64`
//! value (get/put: virtual completion time; scan: segments queued;
//! stat: demand fetches served so far).

use highlight::TenantId;

/// Frame length prefix plus body may not exceed this (a corrupted
/// length must not make a reader wait forever for bytes).
const MAX_FRAME: u32 = 256;

/// What a client asks of the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// Read an object: demand-fetch its segment, respond when readable.
    Get {
        /// Target object.
        obj: u64,
    },
    /// Write an object: stage, seal, and copy out its segment.
    Put {
        /// Target object.
        obj: u64,
    },
    /// Prefetch a range of objects (the speculative-scan opcode — and
    /// the vehicle of a prefetch storm).
    Scan {
        /// First object of the range.
        start: u64,
        /// Number of objects.
        count: u32,
    },
    /// Engine statistics snapshot (served without queuing).
    Stat,
}

impl Req {
    /// The wire opcode byte.
    pub fn opcode(self) -> u8 {
        match self {
            Req::Get { .. } => 1,
            Req::Put { .. } => 2,
            Req::Scan { .. } => 3,
            Req::Stat => 4,
        }
    }
}

/// One request frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestFrame {
    /// The issuing tenant (fair-queue key).
    pub tenant: TenantId,
    /// Client-chosen id echoed in the response.
    pub req_id: u64,
    /// The operation.
    pub req: Req,
}

/// One response frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResponseFrame {
    /// The request id this answers.
    pub req_id: u64,
    /// `Ok(value)` or `Err(code)`.
    pub result: Result<u64, u32>,
}

/// A malformed frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The length prefix exceeds `MAX_FRAME`.
    Oversize(u32),
    /// The frame body is shorter than its opcode requires.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown status byte.
    BadStatus(u8),
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn get_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Appends `f` to `buf` as one frame.
pub fn encode_request(f: &RequestFrame, buf: &mut Vec<u8>) {
    let (obj, count) = match f.req {
        Req::Get { obj } | Req::Put { obj } => (obj, 0),
        Req::Scan { start, count } => (start, count),
        Req::Stat => (0, 0),
    };
    put_u32(buf, 25); // opcode + tenant + req_id + obj + count
    buf.push(f.req.opcode());
    put_u32(buf, f.tenant);
    put_u64(buf, f.req_id);
    put_u64(buf, obj);
    put_u32(buf, count);
}

/// Appends `f` to `buf` as one frame.
pub fn encode_response(f: &ResponseFrame, buf: &mut Vec<u8>) {
    put_u32(buf, 17); // status + req_id + value
    let (status, value) = match f.result {
        Ok(v) => (0u8, v),
        Err(code) => (1u8, code as u64),
    };
    buf.push(status);
    put_u64(buf, f.req_id);
    put_u64(buf, value);
}

/// Splits the next frame body off `buf`: `Ok(None)` while the frame is
/// still arriving, `Ok(Some((body, consumed)))` once complete.
fn next_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, ProtoError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = get_u32(buf);
    if len > MAX_FRAME {
        return Err(ProtoError::Oversize(len));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((&buf[4..total], total)))
}

/// Decodes one request frame off the front of `buf`, returning it and
/// the bytes consumed; `Ok(None)` while the frame is incomplete.
pub fn decode_request(buf: &[u8]) -> Result<Option<(RequestFrame, usize)>, ProtoError> {
    let Some((body, consumed)) = next_frame(buf)? else {
        return Ok(None);
    };
    if body.len() < 25 {
        return Err(ProtoError::Truncated);
    }
    let tenant = get_u32(&body[1..]);
    let req_id = get_u64(&body[5..]);
    let obj = get_u64(&body[13..]);
    let count = get_u32(&body[21..]);
    let req = match body[0] {
        1 => Req::Get { obj },
        2 => Req::Put { obj },
        3 => Req::Scan { start: obj, count },
        4 => Req::Stat,
        op => return Err(ProtoError::BadOpcode(op)),
    };
    Ok(Some((
        RequestFrame {
            tenant,
            req_id,
            req,
        },
        consumed,
    )))
}

/// Decodes one response frame off the front of `buf` (see
/// [`decode_request`]).
pub fn decode_response(buf: &[u8]) -> Result<Option<(ResponseFrame, usize)>, ProtoError> {
    let Some((body, consumed)) = next_frame(buf)? else {
        return Ok(None);
    };
    if body.len() < 17 {
        return Err(ProtoError::Truncated);
    }
    let req_id = get_u64(&body[1..]);
    let value = get_u64(&body[9..]);
    let result = match body[0] {
        0 => Ok(value),
        1 => Err(value as u32),
        st => return Err(ProtoError::BadStatus(st)),
    };
    Ok(Some((ResponseFrame { req_id, result }, consumed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let frames = [
            RequestFrame {
                tenant: 7,
                req_id: 1,
                req: Req::Get { obj: 42 },
            },
            RequestFrame {
                tenant: 0,
                req_id: u64::MAX,
                req: Req::Put { obj: 9 },
            },
            RequestFrame {
                tenant: 3,
                req_id: 2,
                req: Req::Scan {
                    start: 100,
                    count: 16,
                },
            },
            RequestFrame {
                tenant: 1,
                req_id: 3,
                req: Req::Stat,
            },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            encode_request(f, &mut buf);
        }
        let mut off = 0;
        for f in &frames {
            let (got, used) = decode_request(&buf[off..]).unwrap().unwrap();
            assert_eq!(&got, f);
            off += used;
        }
        assert_eq!(off, buf.len(), "no trailing bytes");
    }

    #[test]
    fn responses_round_trip() {
        for f in [
            ResponseFrame {
                req_id: 5,
                result: Ok(123_456),
            },
            ResponseFrame {
                req_id: 6,
                result: Err(2),
            },
        ] {
            let mut buf = Vec::new();
            encode_response(&f, &mut buf);
            let (got, used) = decode_response(&buf).unwrap().unwrap();
            assert_eq!(got, f);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut buf = Vec::new();
        encode_request(
            &RequestFrame {
                tenant: 1,
                req_id: 1,
                req: Req::Get { obj: 1 },
            },
            &mut buf,
        );
        for cut in 0..buf.len() {
            assert_eq!(decode_request(&buf[..cut]).unwrap(), None, "cut {cut}");
        }
        assert!(decode_request(&buf).unwrap().is_some());
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Oversize length prefix.
        let huge = (MAX_FRAME + 1).to_le_bytes().to_vec();
        assert_eq!(
            decode_request(&huge),
            Err(ProtoError::Oversize(MAX_FRAME + 1))
        );
        // Bad opcode.
        let mut buf = Vec::new();
        encode_request(
            &RequestFrame {
                tenant: 0,
                req_id: 0,
                req: Req::Stat,
            },
            &mut buf,
        );
        buf[4] = 99;
        assert_eq!(decode_request(&buf), Err(ProtoError::BadOpcode(99)));
        // Truncated body (length prefix says 3 bytes, opcode needs 25).
        let mut short = 3u32.to_le_bytes().to_vec();
        short.extend_from_slice(&[1, 0, 0]);
        assert_eq!(decode_request(&short), Err(ProtoError::Truncated));
        // Bad status.
        let mut rbuf = Vec::new();
        encode_response(
            &ResponseFrame {
                req_id: 0,
                result: Ok(0),
            },
            &mut rbuf,
        );
        rbuf[4] = 7;
        assert_eq!(decode_response(&rbuf), Err(ProtoError::BadStatus(7)));
    }
}
