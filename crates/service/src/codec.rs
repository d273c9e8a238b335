//! Length-prefixed binary envelope codec — the framed-TCP wire format.
//!
//! Each frame is a little-endian `u32` body length followed by the body: a
//! head of typed fields ending in the payload length, then the payload.
//!
//! ```text
//! ┌─────────────┬──────┬─────────┬──────────────────────────────┬─────────┐
//! │ len: u32 LE │ kind │ version │ fields … payload len: u32 LE │ payload │
//! └─────────────┴──────┴─────────┴──────────────────────────────┴─────────┘
//! ```
//!
//! Strings are `u32` length + UTF-8 bytes; maps are `u32` count + pairs;
//! integers are little-endian; the response status travels as
//! [`ServiceCode::wire`].  The codec is hand-rolled (no serialization crate
//! on the wire) so the format is explicit, versioned, and stable across
//! builds.
//!
//! A sender hands `[len, head, payload]` to one vectored write, so with
//! `TCP_NODELAY` a small frame leaves as one segment that never waits for a
//! delayed ACK; a receiver decodes off the stream, bounded by the frame
//! length, reading the payload straight into the envelope.  Frames above
//! [`MAX_FRAME_BYTES`] are refused before anything is sent or allocated.

use crate::{Operation, RequestEnvelope, ResponseEnvelope};
use sigma_core::ServiceCode;
use std::collections::BTreeMap;
use std::io::{self, IoSlice, Read, Write};

/// Hard cap on a frame body; larger lengths are rejected as corruption.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Wire format version stamped into every frame.
pub const WIRE_VERSION: u8 = 1;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;

const OP_BACKUP: u8 = 1;
const OP_RESTORE: u8 = 2;
const OP_DELETE_FILE: u8 = 3;
const OP_DELETE_BACKUP: u8 = 4;
const OP_DELETE_GENERATION: u8 = 5;
const OP_COLLECT_GARBAGE: u8 = 6;
const OP_STATS: u8 = 7;

/// Why a frame could not be encoded or decoded.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying socket/stream failure.
    Io(io::Error),
    /// Body length exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// The body length, saturated at `u32::MAX`.
        len: u32,
    },
    /// First body byte is neither request nor response.
    UnknownKind(u8),
    /// Version byte this build does not speak.
    UnsupportedVersion(u8),
    /// Opcode byte outside the known operations.
    UnknownOpcode(u8),
    /// Response status outside the [`ServiceCode`] table.
    UnknownCode(u16),
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// Body ended before the structure was complete, or had trailing bytes.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {}", e),
            CodecError::FrameTooLarge { len } => {
                write!(
                    f,
                    "frame body of {} bytes exceeds cap {}",
                    len, MAX_FRAME_BYTES
                )
            }
            CodecError::UnknownKind(k) => write!(f, "unknown frame kind {}", k),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported wire version {}", v),
            CodecError::UnknownOpcode(op) => write!(f, "unknown opcode {}", op),
            CodecError::UnknownCode(c) => write!(f, "unknown service code {}", c),
            CodecError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::Malformed(what) => write!(f, "malformed frame: {}", what),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// `true` when the error means the peer hung up cleanly between frames.
#[cfg(test)]
pub(crate) fn is_clean_eof(err: &CodecError) -> bool {
    matches!(err, CodecError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof)
}

/// A body length checked against [`MAX_FRAME_BYTES`].
fn frame_len(len: usize) -> Result<u32, CodecError> {
    let len = u32::try_from(len).unwrap_or(u32::MAX);
    if len > MAX_FRAME_BYTES {
        return Err(CodecError::FrameTooLarge { len });
    }
    Ok(len)
}

// ---------------------------------------------------------------- encoding

/// Encodes an envelope head: every field up to the payload length.
struct Encoder(Vec<u8>);

impl Encoder {
    /// Refuses an over-cap payload before a byte is encoded.
    fn new(kind: u8, payload: &[u8]) -> Result<Self, CodecError> {
        frame_len(payload.len())?;
        Ok(Encoder(vec![kind, WIRE_VERSION]))
    }

    fn put<const N: usize>(&mut self, bytes: [u8; N]) {
        self.0.extend_from_slice(&bytes);
    }

    fn string(&mut self, v: &str) {
        // Lossless once `finish` has bounded the whole frame.
        self.put((v.len() as u32).to_le_bytes());
        self.0.extend_from_slice(v.as_bytes());
    }

    fn map(&mut self, m: &BTreeMap<String, String>) {
        self.put((m.len() as u32).to_le_bytes());
        for (k, v) in m {
            self.string(k);
            self.string(v);
        }
    }

    fn finish(mut self, payload: &[u8]) -> Result<Vec<u8>, CodecError> {
        self.put((payload.len() as u32).to_le_bytes());
        frame_len(self.0.len().saturating_add(payload.len()))?;
        Ok(self.0)
    }
}

fn request_head(req: &RequestEnvelope) -> Result<Vec<u8>, CodecError> {
    let mut e = Encoder::new(KIND_REQUEST, &req.payload)?;
    e.put(req.request_id.to_le_bytes());
    e.string(&req.tenant);
    // The opcode, then Backup's file name, then the operation's u64.
    let (opcode, arg) = match &req.operation {
        Operation::Backup { generation, .. } => (OP_BACKUP, Some(generation)),
        Operation::Restore { file_id } => (OP_RESTORE, Some(file_id)),
        Operation::DeleteFile { file_id } => (OP_DELETE_FILE, Some(file_id)),
        Operation::DeleteBackup { session_id } => (OP_DELETE_BACKUP, Some(session_id)),
        Operation::DeleteGeneration { generation } => (OP_DELETE_GENERATION, Some(generation)),
        Operation::CollectGarbage => (OP_COLLECT_GARBAGE, None),
        Operation::Stats => (OP_STATS, None),
    };
    e.put([opcode]);
    if let Operation::Backup { file_name, .. } = &req.operation {
        e.string(file_name);
    }
    if let Some(arg) = arg {
        e.put(arg.to_le_bytes());
    }
    e.map(&req.metadata);
    e.finish(&req.payload)
}

fn response_head(resp: &ResponseEnvelope) -> Result<Vec<u8>, CodecError> {
    let mut e = Encoder::new(KIND_RESPONSE, &resp.payload)?;
    e.put(resp.request_id.to_le_bytes());
    e.put(resp.code.wire().to_le_bytes());
    e.string(&resp.message);
    e.map(&resp.metadata);
    e.finish(&resp.payload)
}

/// Serializes a request body (no length prefix).
pub fn encode_request(req: &RequestEnvelope) -> Result<Vec<u8>, CodecError> {
    Ok([request_head(req)?.as_slice(), &req.payload].concat())
}

/// Serializes a response body (no length prefix).
pub fn encode_response(resp: &ResponseEnvelope) -> Result<Vec<u8>, CodecError> {
    Ok([response_head(resp)?.as_slice(), &resp.payload].concat())
}

/// Writes `req` as one frame.
pub(crate) fn write_request(w: &mut impl Write, req: &RequestEnvelope) -> Result<(), CodecError> {
    send(w, &request_head(req)?, &req.payload)
}

/// Writes `resp` as one frame.
pub(crate) fn write_response(w: &mut impl Write, r: &ResponseEnvelope) -> Result<(), CodecError> {
    send(w, &response_head(r)?, &r.payload)
}

/// Writes `[len, head, payload]` vectored: the payload is never copied.
fn send(w: &mut impl Write, head: &[u8], payload: &[u8]) -> Result<(), CodecError> {
    let len = frame_len(head.len() + payload.len())?.to_le_bytes();
    let mut parts = [&len[..], head, payload].map(IoSlice::new);
    let mut left = &mut parts[..];
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(w.flush()?)
}

// ---------------------------------------------------------------- decoding

/// Decodes one body off a reader, checking every field and length against
/// `left`, the body bytes not yet read, before anything is read or allocated.
struct Decoder<R> {
    r: R,
    left: usize,
}

impl<R: Read> Decoder<R> {
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        self.claim(N)?;
        let mut bytes = [0; N];
        self.r.read_exact(&mut bytes)?;
        Ok(bytes)
    }

    fn claim(&mut self, n: usize) -> Result<(), CodecError> {
        let truncated = CodecError::Malformed("body truncated");
        self.left = self.left.checked_sub(n).ok_or(truncated)?;
        Ok(())
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads into a buffer of exactly the field's length, with no zero-fill.
    fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = u32::from_le_bytes(self.array()?) as usize;
        self.claim(len)?;
        let mut v = Vec::with_capacity(len);
        (&mut self.r).take(len as u64).read_to_end(&mut v)?;
        if v.len() < len {
            return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.bytes()?).map_err(|_| CodecError::InvalidUtf8)
    }

    fn map(&mut self) -> Result<BTreeMap<String, String>, CodecError> {
        let count = u32::from_le_bytes(self.array()?);
        let mut m = BTreeMap::new();
        for _ in 0..count {
            let k = self.string()?;
            let v = self.string()?;
            m.insert(k, v);
        }
        Ok(m)
    }

    fn open(&mut self, expected_kind: u8) -> Result<(), CodecError> {
        let [kind] = self.array()?;
        if kind != KIND_REQUEST && kind != KIND_RESPONSE {
            return Err(CodecError::UnknownKind(kind));
        }
        if kind != expected_kind {
            return Err(CodecError::Malformed("frame kind does not match direction"));
        }
        let [version] = self.array()?;
        if version != WIRE_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        Ok(())
    }
}

fn request_from<R: Read>(d: &mut Decoder<R>) -> Result<RequestEnvelope, CodecError> {
    d.open(KIND_REQUEST)?;
    let request_id = d.u64()?;
    let tenant = d.string()?;
    let operation = match d.array()? {
        [OP_BACKUP] => Operation::Backup {
            file_name: d.string()?,
            generation: d.u64()?,
        },
        [OP_RESTORE] => Operation::Restore { file_id: d.u64()? },
        [OP_DELETE_FILE] => Operation::DeleteFile { file_id: d.u64()? },
        [OP_DELETE_BACKUP] => Operation::DeleteBackup {
            session_id: d.u64()?,
        },
        [OP_DELETE_GENERATION] => Operation::DeleteGeneration {
            generation: d.u64()?,
        },
        [OP_COLLECT_GARBAGE] => Operation::CollectGarbage,
        [OP_STATS] => Operation::Stats,
        [other] => return Err(CodecError::UnknownOpcode(other)),
    };
    Ok(RequestEnvelope {
        request_id,
        tenant,
        operation,
        metadata: d.map()?,
        payload: d.bytes()?,
    })
}

fn response_from<R: Read>(d: &mut Decoder<R>) -> Result<ResponseEnvelope, CodecError> {
    d.open(KIND_RESPONSE)?;
    let request_id = d.u64()?;
    let wire_code = u16::from_le_bytes(d.array()?);
    let code = ServiceCode::from_wire(wire_code).ok_or(CodecError::UnknownCode(wire_code))?;
    Ok(ResponseEnvelope {
        request_id,
        code,
        message: d.string()?,
        metadata: d.map()?,
        payload: d.bytes()?,
    })
}

type Decode<R, T> = fn(&mut Decoder<R>) -> Result<T, CodecError>;

/// Decodes a body of `len` bytes off `r`.  After any error but I/O the rest
/// of the body is skipped, so a stream stays at the next frame boundary.
fn read_body<R: Read, T>(r: R, len: usize, decode: Decode<R, T>) -> Result<T, CodecError> {
    let mut d = Decoder { r, left: len };
    let err = match decode(&mut d) {
        Ok(value) if d.left == 0 => return Ok(value),
        Ok(_) => CodecError::Malformed("trailing bytes after body"),
        Err(err @ CodecError::Io(_)) => return Err(err),
        Err(err) => err,
    };
    io::copy(&mut d.r.take(d.left as u64), &mut io::sink())?;
    Err(err)
}

/// Deserializes a request body produced by [`encode_request`].
pub fn decode_request(body: &[u8]) -> Result<RequestEnvelope, CodecError> {
    read_body(body, body.len(), request_from)
}

/// Deserializes a response body produced by [`encode_response`].
pub fn decode_response(body: &[u8]) -> Result<ResponseEnvelope, CodecError> {
    read_body(body, body.len(), response_from)
}

/// Reads one request frame.  After any error but [`CodecError::Io`] and
/// [`CodecError::FrameTooLarge`] the stream is at the next frame boundary.
pub(crate) fn read_request(r: &mut impl Read) -> Result<RequestEnvelope, CodecError> {
    read_frame(r, request_from)
}

/// Reads one response frame; errors as for [`read_request`].
pub(crate) fn read_response(r: &mut impl Read) -> Result<ResponseEnvelope, CodecError> {
    read_frame(r, response_from)
}

fn read_frame<R: Read, T>(mut r: R, decode: Decode<R, T>) -> Result<T, CodecError> {
    let mut len = [0; 4];
    r.read_exact(&mut len)?;
    let len = frame_len(u32::from_le_bytes(len) as usize)?;
    read_body(r, len as usize, decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_ops() -> Vec<Operation> {
        vec![
            Operation::Backup {
                file_name: "db.dump".into(),
                generation: 3,
            },
            Operation::Restore { file_id: 42 },
            Operation::DeleteFile { file_id: u64::MAX },
            Operation::DeleteBackup { session_id: 7 },
            Operation::DeleteGeneration { generation: 0 },
            Operation::CollectGarbage,
            Operation::Stats,
        ]
    }

    #[test]
    fn request_round_trips_for_every_operation() {
        for (i, op) in sample_ops().into_iter().enumerate() {
            let req = RequestEnvelope::new(i as u64, "tenant-α", op)
                .with_token("s3cret")
                .with_metadata("trace", "xyz")
                .with_payload(vec![0xAB; 17]);
            let body = encode_request(&req).unwrap();
            assert_eq!(decode_request(&body).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trips_for_every_code() {
        for code in [
            ServiceCode::Ok,
            ServiceCode::InvalidRequest,
            ServiceCode::Unauthorized,
            ServiceCode::NotFound,
            ServiceCode::Conflict,
            ServiceCode::ResourceExhausted,
            ServiceCode::Internal,
            ServiceCode::Unavailable,
        ] {
            let resp = ResponseEnvelope {
                request_id: 9,
                code,
                message: "détail".into(),
                metadata: BTreeMap::from([("file_id".into(), "5".into())]),
                payload: vec![1, 2, 3],
            };
            let body = encode_response(&resp).unwrap();
            assert_eq!(decode_response(&body).unwrap(), resp);
        }
    }

    #[test]
    fn framing_round_trips_over_a_stream() {
        let req = RequestEnvelope::new(5, "t", Operation::Stats);
        let resp = ResponseEnvelope::ok(5).with_payload(vec![3; 40]);
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        write_response(&mut wire, &resp).unwrap();
        write_request(&mut wire, &req).unwrap();
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(read_request(&mut cursor).unwrap(), req);
        assert_eq!(read_response(&mut cursor).unwrap(), resp);
        assert_eq!(read_request(&mut cursor).unwrap(), req);
        let eof = read_request(&mut cursor).unwrap_err();
        assert!(is_clean_eof(&eof));
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        let err = read_request(&mut io::Cursor::new(wire)).unwrap_err();
        assert!(matches!(err, CodecError::FrameTooLarge { .. }), "{}", err);
    }

    /// Takes at most `limit` bytes per call and counts the calls.
    struct CountingWriter {
        limit: usize,
        calls: usize,
        bytes: Vec<u8>,
    }

    impl CountingWriter {
        fn new(limit: usize) -> Self {
            CountingWriter {
                limit,
                calls: 0,
                bytes: Vec::new(),
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let start = self.bytes.len();
            for buf in bufs {
                let room = self.limit - (self.bytes.len() - start);
                self.bytes.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.bytes.len() - start)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn framed(body: Vec<u8>) -> Vec<u8> {
        [(body.len() as u32).to_le_bytes().to_vec(), body].concat()
    }

    #[test]
    fn each_frame_is_one_write_and_survives_short_writes() {
        let req = RequestEnvelope::new(
            7,
            "acme",
            Operation::Backup {
                file_name: "f".into(),
                generation: 1,
            },
        )
        .with_token("s3cret")
        .with_payload(vec![0x5A; 16 << 10]);
        let resp = ResponseEnvelope::ok(7)
            .with_metadata("file_id", "3")
            .with_payload(vec![0xA5; 16 << 10]);
        let request_frame = framed(encode_request(&req).unwrap());
        let response_frame = framed(encode_response(&resp).unwrap());

        let mut all = CountingWriter::new(usize::MAX);
        write_request(&mut all, &req).unwrap();
        assert_eq!((all.calls, &all.bytes), (1, &request_frame));
        let mut all = CountingWriter::new(usize::MAX);
        write_response(&mut all, &resp).unwrap();
        assert_eq!((all.calls, &all.bytes), (1, &response_frame));

        let mut trickle = CountingWriter::new(1);
        write_request(&mut trickle, &req).unwrap();
        write_response(&mut trickle, &resp).unwrap();
        assert_eq!(trickle.bytes, [request_frame, response_frame].concat());
    }

    #[test]
    fn over_cap_payload_is_refused_before_a_byte_is_written() {
        let payload = vec![0; MAX_FRAME_BYTES as usize + 1];
        let mut req = RequestEnvelope::new(1, "t", Operation::Stats).with_payload(payload);
        let mut w = CountingWriter::new(usize::MAX);
        for err in [
            encode_request(&req).unwrap_err(),
            write_request(&mut w, &req).unwrap_err(),
        ] {
            assert!(matches!(err, CodecError::FrameTooLarge { len } if len == MAX_FRAME_BYTES + 1));
        }
        let resp = ResponseEnvelope::ok(1).with_payload(std::mem::take(&mut req.payload));
        for err in [
            encode_response(&resp).unwrap_err(),
            write_response(&mut w, &resp).unwrap_err(),
        ] {
            assert!(matches!(err, CodecError::FrameTooLarge { .. }), "{}", err);
        }
        assert_eq!((w.calls, w.bytes.len()), (0, 0));
    }

    #[test]
    fn inner_length_beyond_the_frame_is_malformed_and_skipped() {
        let req = RequestEnvelope::new(2, "t", Operation::Stats).with_payload(vec![9; 32]);
        let mut bad = framed(encode_request(&req).unwrap());
        // The payload length is the u32 right before the payload.
        let at = bad.len() - 32 - 4;
        bad[at..at + 4].copy_from_slice(&MAX_FRAME_BYTES.to_le_bytes());
        assert!(matches!(
            decode_request(&bad[4..]).unwrap_err(),
            CodecError::Malformed(_)
        ));
        // Over a stream the bad frame is skipped to its end, so the next
        // frame still decodes.
        let mut wire = bad;
        write_request(&mut wire, &req).unwrap();
        let mut cursor = io::Cursor::new(wire);
        assert!(matches!(
            read_request(&mut cursor).unwrap_err(),
            CodecError::Malformed(_)
        ));
        assert_eq!(read_request(&mut cursor).unwrap(), req);
    }

    #[test]
    fn corruption_is_detected_not_misread() {
        let req = RequestEnvelope::new(1, "t", Operation::Restore { file_id: 8 });
        let good = encode_request(&req).unwrap();

        // Wrong kind byte.
        let mut bad = good.clone();
        bad[0] = 99;
        assert!(matches!(
            decode_request(&bad).unwrap_err(),
            CodecError::UnknownKind(99)
        ));

        // Response frame offered where a request is expected.
        let resp_body = encode_response(&ResponseEnvelope::ok(1)).unwrap();
        assert!(matches!(
            decode_request(&resp_body).unwrap_err(),
            CodecError::Malformed(_)
        ));

        // Future version.
        let mut bad = good.clone();
        bad[1] = WIRE_VERSION + 1;
        assert!(matches!(
            decode_request(&bad).unwrap_err(),
            CodecError::UnsupportedVersion(_)
        ));

        // Truncated body.
        let bad = &good[..good.len() - 1];
        assert!(matches!(
            decode_request(bad).unwrap_err(),
            CodecError::Malformed(_)
        ));

        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            decode_request(&bad).unwrap_err(),
            CodecError::Malformed(_)
        ));

        // Unknown status code.
        let mut bad = resp_body.clone();
        // request_id occupies bytes [2, 10); the code is the next two.
        bad[10] = 0xFF;
        bad[11] = 0xFF;
        assert!(matches!(
            decode_response(&bad).unwrap_err(),
            CodecError::UnknownCode(0xFFFF)
        ));
    }

    /// Derives an arbitrary (possibly multi-byte-UTF-8, possibly empty)
    /// string from raw bytes.
    fn string_from(bytes: &[u8]) -> String {
        bytes
            .iter()
            .map(|&b| match b % 4 {
                0 => 'α',
                1 => '\u{1F984}',
                _ => (b'a' + (b % 26)) as char,
            })
            .collect()
    }

    /// Hands out the wire in reads of the given sizes, round robin.
    struct ShortReads<'a> {
        wire: &'a [u8],
        sizes: &'a [usize],
        turn: usize,
    }

    impl Read for ShortReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.turn % self.sizes.len()];
            self.turn += 1;
            let n = size.min(buf.len()).min(self.wire.len());
            buf[..n].copy_from_slice(&self.wire[..n]);
            self.wire = &self.wire[n..];
            Ok(n)
        }
    }

    proptest! {
        #[test]
        fn prop_request_round_trip(
            request_id in any::<u64>(),
            tenant_raw in proptest::collection::vec(any::<u8>(), 0..32),
            op_idx in 0usize..7,
            name_raw in proptest::collection::vec(any::<u8>(), 0..64),
            num in any::<u64>(),
            meta_raw in proptest::collection::vec(any::<u8>(), 0..10),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let tenant = string_from(&tenant_raw);
            let file_name = string_from(&name_raw);
            let metadata: BTreeMap<String, String> = meta_raw
                .chunks(2)
                .map(|pair| (string_from(&pair[..1]), string_from(&pair[1..])))
                .collect();
            let operation = match op_idx {
                0 => Operation::Backup { file_name, generation: num },
                1 => Operation::Restore { file_id: num },
                2 => Operation::DeleteFile { file_id: num },
                3 => Operation::DeleteBackup { session_id: num },
                4 => Operation::DeleteGeneration { generation: num },
                5 => Operation::CollectGarbage,
                _ => Operation::Stats,
            };
            let req = RequestEnvelope { request_id, tenant, operation, metadata, payload };
            let body = encode_request(&req).unwrap();
            prop_assert_eq!(decode_request(&body).unwrap(), req);
        }

        #[test]
        fn prop_frames_round_trip_through_short_reads(
            request_id in any::<u64>(),
            tenant_raw in proptest::collection::vec(any::<u8>(), 0..32),
            meta_raw in proptest::collection::vec(any::<u8>(), 0..10),
            payload in proptest::collection::vec(any::<u8>(), 0..4096),
            code_idx in 0usize..8,
            sizes in proptest::collection::vec(1usize..64, 1..16),
        ) {
            let metadata: BTreeMap<String, String> = meta_raw
                .chunks(2)
                .map(|pair| (string_from(&pair[..1]), string_from(&pair[1..])))
                .collect();
            let req = RequestEnvelope {
                request_id,
                tenant: string_from(&tenant_raw),
                operation: Operation::Restore { file_id: request_id },
                metadata: metadata.clone(),
                payload: payload.clone(),
            };
            let code = [
                ServiceCode::Ok,
                ServiceCode::InvalidRequest,
                ServiceCode::Unauthorized,
                ServiceCode::NotFound,
                ServiceCode::Conflict,
                ServiceCode::ResourceExhausted,
                ServiceCode::Internal,
                ServiceCode::Unavailable,
            ][code_idx];
            let resp = ResponseEnvelope {
                request_id,
                code,
                message: string_from(&tenant_raw),
                metadata,
                payload,
            };
            let mut wire = Vec::new();
            write_request(&mut wire, &req).unwrap();
            write_response(&mut wire, &resp).unwrap();
            let mut r = ShortReads { wire: &wire, sizes: &sizes, turn: 0 };
            prop_assert_eq!(read_request(&mut r).unwrap(), req);
            prop_assert_eq!(read_response(&mut r).unwrap(), resp);
            prop_assert!(is_clean_eof(&read_request(&mut r).unwrap_err()));
        }

        #[test]
        fn prop_decode_never_panics_on_noise(noise in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_request(&noise);
            let _ = decode_response(&noise);
            let _ = read_request(&mut io::Cursor::new(framed(noise.clone())));
            let _ = read_response(&mut io::Cursor::new(framed(noise)));
        }
    }
}
