//! Exact digests of result cells, compared against the recorded references.
//!
//! A digest covers every field a cell serialises, floats by their bit
//! pattern, except `wall_s`: fig1-scale's wall-clock seconds, the one
//! non-simulated value in any cell.

use serde::{Serialize, Value};

/// The field left out of every digest.
const WALL_CLOCK_FIELD: &str = "wall_s";

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorb `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_len(&mut self, n: usize) {
        self.write(&(n as u64).to_le_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.write(b"n"),
            Value::Bool(b) => self.write(&[b'b', *b as u8]),
            Value::I64(n) => {
                self.write(b"i");
                self.write(&n.to_le_bytes());
            }
            Value::U64(n) => {
                self.write(b"u");
                self.write(&n.to_le_bytes());
            }
            Value::F64(x) => {
                self.write(b"f");
                self.write(&x.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                self.write(b"s");
                self.write_len(s.len());
                self.write(s.as_bytes());
            }
            Value::Array(items) => {
                self.write(b"a");
                self.write_len(items.len());
                for it in items {
                    self.value(it);
                }
            }
            Value::Object(entries) => {
                let kept: Vec<_> = entries
                    .iter()
                    .filter(|(k, _)| k != WALL_CLOCK_FIELD)
                    .collect();
                self.write(b"o");
                self.write_len(kept.len());
                for (k, v) in kept {
                    self.write_len(k.len());
                    self.write(k.as_bytes());
                    self.value(v);
                }
            }
        }
    }
}

/// Digest of one cell, plus `extra` bytes that belong to it (a cell's
/// exported event stream).
pub fn cell_digest<C: Serialize>(cell: &C, extra: &[u8]) -> String {
    let mut h = Fnv::default();
    h.value(&cell.to_value());
    h.write_len(extra.len());
    h.write(extra);
    h.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_field_is_ignored_and_floats_are_exact() {
        let cell = |wall: f64, lat: f64| {
            Value::Object(vec![
                ("latency_us".into(), Value::F64(lat)),
                ("wall_s".into(), Value::F64(wall)),
            ])
        };
        assert_eq!(
            cell_digest(&cell(1.0, 5.0), b""),
            cell_digest(&cell(2.0, 5.0), b"")
        );
        assert_ne!(
            cell_digest(&cell(1.0, 5.0), b""),
            cell_digest(&cell(1.0, 5.0 + f64::EPSILON * 8.0), b"")
        );
        assert_ne!(
            cell_digest(&cell(1.0, 5.0), b""),
            cell_digest(&cell(1.0, 5.0), b"x")
        );
    }
}
