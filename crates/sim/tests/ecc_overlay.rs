//! The ECC scratchpad keeps explicit codewords only for words a flip has
//! struck. This checks it against a reference that stores and decodes a
//! full codeword for every word, over random contents and random
//! interleavings of flips (data, check and parity bits, repeated flips on
//! one word), reads, single writes and bulk stores.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use rapid_sim::ecc::{self, Decoded};
use rapid_sim::Scratchpad;

/// A scratchpad that encodes every word on every store.
struct FullEcc {
    data: Vec<f32>,
    codewords: Vec<u64>,
    sec: u64,
    ded: u64,
    pending: Option<usize>,
}

impl FullEcc {
    fn new(values: &[f32]) -> Self {
        let codewords = values.iter().map(|v| ecc::encode(v.to_bits())).collect();
        Self {
            data: values.to_vec(),
            codewords,
            sec: 0,
            ded: 0,
            pending: None,
        }
    }

    fn read(&mut self, addr: usize) -> f32 {
        match ecc::decode(self.codewords[addr]) {
            Decoded::Clean => self.data[addr],
            Decoded::CorrectedData(bits) => {
                self.sec += 1;
                f32::from_bits(bits)
            }
            Decoded::CorrectedCheck => {
                self.sec += 1;
                self.data[addr]
            }
            Decoded::DoubleError => {
                self.ded += 1;
                self.pending.get_or_insert(addr);
                f32::from_bits(ecc::data_of(self.codewords[addr]))
            }
        }
    }

    fn write(&mut self, addr: usize, v: f32) {
        self.data[addr] = v;
        self.codewords[addr] = ecc::encode(v.to_bits());
    }

    fn inject_flip(&mut self, addr: usize, bit: u32) {
        self.codewords[addr] ^= 1 << (bit % ecc::CODEWORD_BITS);
    }
}

proptest! {
    #[test]
    fn sparse_overlay_matches_full_codewords(
        init in proptest::collection::vec(0u32..u32::MAX, 1..24),
        ops in proptest::collection::vec((0u8..6, 0usize..64, 0u32..64, 0u32..u32::MAX), 0..300),
    ) {
        let values: Vec<f32> = init.iter().map(|&b| f32::from_bits(b)).collect();
        let n = values.len();
        let mut full = FullEcc::new(&values);
        let mut spad = Scratchpad::new(n).with_ecc();
        spad.store_slice(0, &values);
        for (op, addr, bit, bits) in ops {
            let addr = addr % n;
            match op {
                // Flips weigh double, so words collect several.
                0 | 1 => {
                    full.inject_flip(addr, bit);
                    spad.inject_flip(addr, bit);
                }
                2 => prop_assert_eq!(spad.read(addr).to_bits(), full.read(addr).to_bits()),
                3 => {
                    full.write(addr, f32::from_bits(bits));
                    spad.write(addr, f32::from_bits(bits));
                }
                4 => {
                    let len = (bit as usize % 6).min(n - addr);
                    let vs: Vec<f32> =
                        (0..len as u32).map(|i| f32::from_bits(bits.rotate_left(i))).collect();
                    for (i, &v) in vs.iter().enumerate() {
                        full.write(addr + i, v);
                    }
                    spad.store_slice(addr, &vs);
                }
                _ => {
                    // A clean slice must be what per-word reads deliver,
                    // and those reads must count nothing.
                    let len = (bit as usize % 6).min(n - addr);
                    if let Some(vs) = spad.clean_slice(addr, len) {
                        let (sec, ded) = (full.sec, full.ded);
                        for (i, v) in vs.iter().enumerate() {
                            prop_assert_eq!(v.to_bits(), full.read(addr + i).to_bits());
                        }
                        prop_assert_eq!((full.sec, full.ded), (sec, ded));
                    }
                    prop_assert_eq!(spad.take_uncorrectable(), full.pending.take());
                }
            }
            prop_assert_eq!(spad.ecc_sec(), full.sec);
            prop_assert_eq!(spad.ecc_ded(), full.ded);
        }
        for a in 0..n {
            prop_assert_eq!(spad.read(a).to_bits(), full.read(a).to_bits());
        }
        prop_assert_eq!((spad.ecc_sec(), spad.ecc_ded()), (full.sec, full.ded));
        prop_assert_eq!(spad.take_uncorrectable(), full.pending.take());
    }
}
