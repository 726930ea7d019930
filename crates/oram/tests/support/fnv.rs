//! FNV-1a fingerprints for the golden-trace tests (`secemb-oram` and
//! `secemb-laoram` both include this file).

use secemb_trace::{AccessKind, Trace};

/// A running 64-bit FNV-1a hash.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of every event's (region, kind, offset, len), in program order.
pub fn trace_hash(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    for e in trace.events() {
        h.write(&e.region.0.to_le_bytes());
        h.write(&[matches!(e.kind, AccessKind::Write) as u8]);
        h.write(&e.offset.to_le_bytes());
        h.write(&e.len.to_le_bytes());
    }
    h.0
}
