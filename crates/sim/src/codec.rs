//! A minimal length-prefixed byte codec for wire messages.
//!
//! The workspace has no runtime dependency outside itself, so every
//! NAS, NGAP, SBI and P-AKA message states its field list once, in
//! `shield5g_nf::wire`, and each field's codec makes the [`Writer`] /
//! [`Reader`] calls here. That keeps wire sizes deterministic and
//! inspectable — which matters, because message sizes feed the latency
//! model (paper Table I counts bytes in and out of each enclave).
//!
//! Messages nest (NAS in a protected PDU in NGAP in an HTTP body), so an
//! encoder writes *into* a [`Writer`] ([`Writer::put_nested`]) and a
//! decoder borrows what it only parses and drops ([`Reader::bytes_ref`],
//! [`Reader::str_ref`]): each message is written once, into one buffer.
//!
//! That buffer is a [`Body`], and a buffer is written once and recycled
//! zeroed: when a `Body` drops, its written bytes are overwritten with
//! zeros and the buffer joins a small per-thread spare list, where the
//! next [`Writer::new`] (or [`Body::from`] a slice) picks it up — the
//! smallest spare with room, so short messages keep short buffers. A
//! steady-state registration therefore encodes its messages into the
//! buffers its earlier messages released, and no buffer carries one
//! message's bytes (a K_SEAF, an OPc) into the next. The list is bounded
//! by constants, not a setting: at most [`SPARE_BUFFERS`] buffers, each
//! holding at least the room a fresh writer gets (128 bytes) and at most
//! [`SPARE_CAPACITY`] bytes. A buffer outside that range, or past the
//! count, is zeroed and freed. The lower bound keeps the short `String`
//! bodies of error replies (a shed, an injected fault) out of the list:
//! no writer could use one, and 32 of them would leave every
//! [`Writer::new`] allocating afresh.

use crate::SimError;
use shield5g_crypto::secret::KeySink;
use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut, Range};

/// Most buffers a thread keeps for reuse.
pub const SPARE_BUFFERS: usize = 32;

/// Largest capacity, in bytes, of a buffer kept for reuse.
pub const SPARE_CAPACITY: usize = 4096;

/// Capacity of a fresh buffer: room for the SBI / NAS / NGAP messages
/// of a registration (all under 128 bytes), so pushing their fields
/// does not regrow it. Also the least capacity a kept spare has.
const FRESH_CAPACITY: usize = 128;

thread_local! {
    /// Zeroed buffers released by dropped [`Body`]s.
    static SPARE: Cell<Vec<Vec<u8>>> = const { Cell::new(Vec::new()) };
}

/// An empty buffer with room for `len` bytes: the smallest spare that
/// has it, so a short message does not hold a long one's buffer, or a
/// fresh one of exactly that room.
fn spare_buffer(len: usize) -> Vec<u8> {
    let reused = SPARE
        .try_with(|spare| {
            let mut list = spare.take();
            let fit = (0..list.len())
                .filter(|&at| list[at].capacity() >= len)
                .min_by_key(|&at| list[at].capacity());
            let buf = fit.map(|at| list.swap_remove(at));
            spare.set(list);
            buf
        })
        .ok()
        .flatten();
    match reused {
        Some(mut buf) => {
            buf.clear();
            buf
        }
        None => Vec::with_capacity(len),
    }
}

/// Zeroes `buf` over its written length and keeps it for reuse, unless
/// it is smaller than a fresh writer buffer, too large, or the list is
/// full.
fn recycle(mut buf: Vec<u8>) {
    buf.fill(0);
    if !(FRESH_CAPACITY..=SPARE_CAPACITY).contains(&buf.capacity()) {
        return;
    }
    // Past thread exit there is no list, and the buffer is freed.
    let _ = SPARE.try_with(|spare| {
        let mut list = spare.take();
        if list.len() < SPARE_BUFFERS {
            // The list itself is allocated once, at its cap.
            list.reserve_exact(SPARE_BUFFERS - list.len());
            list.push(buf);
        }
        spare.set(list);
    });
}

/// An owned wire buffer: an encoded message, an HTTP body. Reads as the
/// bytes it holds (`Deref<Target = [u8]>`); when dropped it is zeroed
/// and recycled (see the module docs). `Body::default()` is empty and
/// holds no buffer.
#[derive(Default, PartialEq, Eq)]
pub struct Body(Vec<u8>);

impl Drop for Body {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.0));
    }
}

impl Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for Body {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl AsRef<[u8]> for Body {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Takes the vector as the buffer: it is recycled like any other.
impl From<Vec<u8>> for Body {
    fn from(bytes: Vec<u8>) -> Self {
        Body(bytes)
    }
}

/// Copies the bytes into a spare buffer.
impl From<&[u8]> for Body {
    fn from(bytes: &[u8]) -> Self {
        let mut buf = spare_buffer(bytes.len());
        buf.extend_from_slice(bytes);
        Body(buf)
    }
}

/// A text body (an error message).
impl From<String> for Body {
    fn from(text: String) -> Self {
        Body(text.into_bytes())
    }
}

impl Clone for Body {
    fn clone(&self) -> Self {
        Body::from(&self[..])
    }
}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Body {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.0 == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Body {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.0 == *other
    }
}

impl PartialEq<Vec<u8>> for Body {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.0 == *other
    }
}

/// Builds a wire message field by field, into a [`Body`].
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Body,
}

impl Writer {
    /// An empty writer on a spare buffer (see the module docs), or on a
    /// fresh one with room for the SBI / NAS / NGAP messages of a
    /// registration.
    #[must_use]
    pub fn new() -> Self {
        Writer {
            buf: Body(spare_buffer(FRESH_CAPACITY)),
        }
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.0.push(v);
        self
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) -> &mut Self {
        self.buf.0.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.0.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.0.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a fixed-size array verbatim.
    pub fn put_array<const N: usize>(&mut self, v: &[u8; N]) -> &mut Self {
        self.buf.0.extend_from_slice(v);
        self
    }

    /// Appends variable-length bytes with a `u32` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(v.len() as u32);
        self.buf.0.extend_from_slice(v);
        self
    }

    /// Appends a UTF-8 string with a `u32` length prefix.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) -> &mut Self {
        self.put_u8(u8::from(v))
    }

    /// Appends what `inner` writes as one length-prefixed field: what
    /// [`Writer::put_bytes`] appends for the finished inner message,
    /// without building it first. Returns where the inner bytes sit.
    pub fn put_nested(&mut self, inner: impl FnOnce(&mut Writer)) -> Range<usize> {
        self.put_u32(0);
        let start = self.buf.len();
        inner(self);
        let len = (self.buf.len() - start) as u32;
        self.buf[start - 4..start].copy_from_slice(&len.to_be_bytes());
        start..self.buf.len()
    }

    /// The bytes written so far, to cipher a nested field or fill in a
    /// field (a MAC) that depends on later ones.
    pub fn written_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// The wire bytes of the message `message` writes: the owned form of
    /// an `encode_into`.
    #[must_use]
    pub fn build(message: impl FnOnce(&mut Writer)) -> Body {
        let mut w = Writer::new();
        message(&mut w);
        w.buf
    }

    /// Finishes and returns the wire bytes.
    #[must_use]
    pub fn into_bytes(self) -> Body {
        self.buf
    }

    /// Current length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A key written onto the wire, unframed like [`Writer::put_array`]: one of
/// the two places a `SecretBytes` may copy its bytes to (see
/// `shield5g_crypto::secret`).
impl KeySink for Writer {
    fn put_key(&mut self, key: &[u8]) {
        self.buf.0.extend_from_slice(key);
    }
}

/// Reads a wire message field by field.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading `buf` from the beginning.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SimError> {
        if self.pos + n > self.buf.len() {
            return Err(SimError::MalformedHttp(format!(
                "truncated message: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// All readers return [`SimError::MalformedHttp`] on truncation.
    pub fn u8(&mut self) -> Result<u8, SimError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SimError> {
        self.array().map(u16::from_be_bytes)
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SimError> {
        self.array().map(u32::from_be_bytes)
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SimError> {
        self.array().map(u64::from_be_bytes)
    }

    /// Reads a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], SimError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads length-prefixed bytes, borrowed from the message: for a
    /// field that is parsed and dropped (a nested PDU, a digit string).
    pub fn bytes_ref(&mut self) -> Result<&'a [u8], SimError> {
        let len = self.u32()? as usize;
        if len > 16 * 1024 * 1024 {
            return Err(SimError::MalformedHttp(format!(
                "implausible field length {len}"
            )));
        }
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the message.
    pub fn str_ref(&mut self) -> Result<&'a str, SimError> {
        std::str::from_utf8(self.bytes_ref()?)
            .map_err(|_| SimError::MalformedHttp("non-utf8 string field".into()))
    }

    /// Reads length-prefixed bytes into an owned field.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SimError> {
        self.bytes_ref().map(<[u8]>::to_vec)
    }

    /// Reads a length-prefixed UTF-8 string into an owned field.
    pub fn str(&mut self) -> Result<String, SimError> {
        self.str_ref().map(str::to_owned)
    }

    /// Asserts the whole buffer was consumed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedHttp`] when trailing bytes remain.
    pub fn finish(self) -> Result<(), SimError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SimError::MalformedHttp(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_field_types() {
        let mut w = Writer::new();
        w.put_u8(7)
            .put_u16(300)
            .put_u32(70_000)
            .put_u64(1 << 40)
            .put_array(&[9u8; 16])
            .put_bytes(b"variable")
            .put_str("imsi-001010000000001")
            .put_bool(true);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.array::<16>().unwrap(), [9u8; 16]);
        assert_eq!(r.bytes().unwrap(), b"variable");
        assert_eq!(r.str().unwrap(), "imsi-001010000000001");
        assert_eq!(r.u8().unwrap(), 1);
        r.finish().unwrap();
    }

    #[test]
    fn nested_field_is_the_length_prefixed_inner_message() {
        let inner = Writer::build(|w| {
            w.put_u8(0x5e).put_str("inner");
        });
        let mut w = Writer::new();
        w.put_u8(1);
        let at = w.put_nested(|w| {
            w.put_u8(0x5e).put_str("inner");
        });
        w.put_u8(2);
        // Where the inner bytes sit, for in-place transforms.
        assert_eq!(&w.written_mut()[at], &inner[..]);
        let mut flat = Writer::new();
        flat.put_u8(1).put_bytes(&inner).put_u8(2);
        let bytes = w.into_bytes();
        assert_eq!(bytes, flat.into_bytes());
        // A reader borrows the nested field straight from the message.
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.bytes_ref().unwrap(), &inner[..]);
        assert_eq!(r.u8().unwrap(), 2);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.put_u32(10);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.u64().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.put_u8(1).put_u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn implausible_length_rejected() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn non_utf8_string_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.str().is_err());
    }

    #[test]
    fn empty_writer() {
        let w = Writer::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }

    /// Empties this thread's spare list and returns what it held.
    fn take_spares() -> Vec<Vec<u8>> {
        SPARE.with(Cell::take)
    }

    #[test]
    fn a_returned_buffer_holds_no_earlier_bytes() {
        take_spares();
        let key = [0xa5; FRESH_CAPACITY];
        let body = Writer::build(|w| {
            w.put_array(&key);
        });
        assert_eq!(body, key);
        drop(body);
        // It sits in the list over its written length, every byte zero.
        let spares = take_spares();
        assert_eq!(spares.len(), 1);
        assert_eq!(spares[0], [0; FRESH_CAPACITY]);
        // A copy and a clone are recycled the same way.
        let copy = Body::from(&key[..]);
        drop(copy.clone());
        drop(copy);
        let spares = take_spares();
        assert_eq!(spares.len(), 2);
        assert!(spares.iter().all(|buf| *buf == [0; FRESH_CAPACITY]));
        // The next writer takes a spare and starts empty on it.
        drop(Writer::build(|w| {
            w.put_array(&key);
        }));
        let w = Writer::new();
        assert!(w.is_empty());
        assert!(take_spares().is_empty());
    }

    #[test]
    fn error_bodies_do_not_crowd_out_writer_buffers() {
        take_spares();
        let long = Writer::build(|w| {
            w.put_array(&[0x5a; 1000]);
        });
        let room = long.0.capacity();
        let errors: Vec<Body> = (0..SPARE_BUFFERS)
            .map(|i| Body::from(format!("injected upstream failure {i}")))
            .collect();
        drop(errors);
        assert!(take_spares().is_empty(), "short bodies are freed");
        drop(long);
        // The writer-sized buffer is the one the next writer gets.
        let w = Writer::new();
        assert_eq!(w.buf.0.capacity(), room);
        assert!(w.is_empty());
        assert!(take_spares().is_empty());
    }

    #[test]
    fn the_spare_list_never_exceeds_its_cap() {
        take_spares();
        let bodies: Vec<Body> = (0..2 * SPARE_BUFFERS)
            .map(|i| {
                Writer::build(|w| {
                    w.put_u64(i as u64);
                })
            })
            .collect();
        drop(Body::from(vec![0x5a; SPARE_CAPACITY + 1]));
        assert!(take_spares().is_empty(), "an oversized buffer is freed");
        drop(bodies);
        let spares = take_spares();
        assert_eq!(spares.len(), SPARE_BUFFERS);
        assert!(spares.iter().all(|buf| {
            (FRESH_CAPACITY..=SPARE_CAPACITY).contains(&buf.capacity())
                && buf.iter().all(|&b| b == 0)
        }));
    }

    #[test]
    fn a_short_message_takes_the_smallest_spare_with_room() {
        take_spares();
        let long = Body::from(vec![1; 1000]);
        let written = Writer::build(|w| {
            w.put_u8(1);
        });
        drop((long, written, Body::from(vec![2; 300])));
        // 64 bytes: the 128-byte writer buffer, not the longer two.
        let short = Body::from(&[3; 64][..]);
        let mut left: Vec<usize> = take_spares().iter().map(Vec::len).collect();
        left.sort_unstable();
        assert_eq!(left, [300, 1000]);
        drop(short);
        assert_eq!(take_spares().len(), 1);
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_bytes_round_trip(data in proptest::collection::vec(0u8.., 0..200), s in "[a-z0-9-]{0,40}") {
            let mut w = Writer::new();
            w.put_bytes(&data).put_str(&s);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            proptest::prop_assert_eq!(r.bytes().unwrap(), data);
            proptest::prop_assert_eq!(r.str().unwrap(), s);
            r.finish().unwrap();
        }
    }
}
