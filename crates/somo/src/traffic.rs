//! Report wire-size accounting (§3.2's operational notes).
//!
//! LiquidEye runs with "a reporting cycle of 5 seconds, and the leaf SOMO
//! report is 40 bytes... In a wide-area and large-scale deployment, we will
//! opt for a less aggressive interval and also employ compression
//! optimization." [`TrafficLedger`] counts the messages and bytes one
//! traffic source ships; [`Encodable`] gives a report its wire encoding, so
//! a fixed wire size (`query::Aggregate::WIRE_BYTES`) can be checked
//! against an actual encoding.

pub use bytes::{BufMut, Bytes, BytesMut};

use crate::report::Report;

/// Running message/byte counters for one traffic source (gather rounds,
/// query descents, subscription deltas, …). Downstream crates hold one
/// ledger per source so benches can compare them on equal terms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficLedger {
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
}

impl TrafficLedger {
    /// Account one message of `bytes` payload.
    pub fn record(&mut self, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
    }

    /// Fold another ledger in.
    pub fn absorb(&mut self, other: &TrafficLedger) {
        self.messages += other.messages;
        self.bytes += other.bytes;
    }
}

/// A report that knows its wire encoding.
pub trait Encodable: Report {
    /// Serialize into a byte buffer (length-prefixed fields, no
    /// compression — the paper's "compression optimization" would sit on
    /// top of this).
    fn encode(&self) -> Bytes;

    /// Wire size in bytes.
    fn encoded_len(&self) -> usize {
        self.encode().len()
    }
}
