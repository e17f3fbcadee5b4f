//! A fixed reference computation, run interleaved with the timed work so
//! host cost can be expressed in units of this machine's speed at that
//! moment.
//!
//! A shared virtual machine changes speed by up to 1.6x within seconds
//! (neighbours on the same cores and caches), and CPU time moves with it
//! just as wall time does. The reference does the kind of work a
//! discrete-event simulator does — a timer heap, hashed state, scattered
//! arrays in and beyond a core's private cache, an ordered map and small
//! allocations — but runs none of the program's code, so a change to the
//! program leaves its cost alone while a change of host speed moves both.
//!
//! Its memory (about 7 MiB) is allocated once and kept, so it neither
//! frees large blocks (which would move the allocator's mmap threshold
//! under the program) nor grows from call to call.

use crate::host::process_cpu_s;
use crate::stats::median;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;

/// Timer-heap steps in one unit of reference work.
const HEAP_STEPS: u32 = 20_000;
/// Ordered-map steps in one unit of reference work.
const MAP_STEPS: u32 = 10_000;
/// Read-modify-writes of the small array in one unit of reference work.
const HOT_STEPS: u32 = 750_000;
/// Pending timers kept in the heap.
const PENDING: u64 = 4_096;
/// Distinct keys of the hashed state.
const KEYS: u64 = 1 << 15;
/// Distinct keys of the ordered map.
const MAP_KEYS: u64 = 1 << 13;
/// Slots of the scattered array (4 MiB of `f64`).
const SLOTS: usize = 1 << 19;
/// Slots of the small array (512 KiB of `u64`, resident in a core's
/// private cache).
const HOT_SLOTS: usize = 1 << 16;
/// Longest per-key list in the ordered map.
const LIST_CAP: usize = 16;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// State of the reference computation, kept between units so every unit
/// does the same amount of work.
pub struct Reference {
    rng: u64,
    now: u64,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    state: HashMap<u64, u64>,
    slots: Vec<f64>,
    hot: Vec<u64>,
    lists: BTreeMap<u64, Vec<u64>>,
    acc: u64,
}

impl Reference {
    pub fn new() -> Reference {
        let mut rng = 0x5eed_u64;
        let heap = (0..PENDING)
            .map(|id| Reverse((splitmix(&mut rng) >> 40, id)))
            .collect();
        let mut r = Reference {
            rng,
            now: 0,
            heap,
            state: (0..KEYS).map(|k| (k, 0)).collect(),
            slots: vec![0.0; SLOTS],
            hot: vec![1; HOT_SLOTS],
            lists: BTreeMap::new(),
            acc: 0,
        };
        // Reach the ordered map's steady size before any unit is timed.
        for _ in 0..4 {
            r.unit();
        }
        r
    }

    /// One unit of reference work; the same amount on every call.
    pub fn unit(&mut self) {
        for _ in 0..HEAP_STEPS {
            let Reverse((t, id)) = self.heap.pop().expect("the heap is never empty");
            self.now = self.now.max(t);
            let r = splitmix(&mut self.rng);
            let e = self.state.entry((r ^ id) % KEYS).or_insert(0);
            *e = e.wrapping_add(t);
            self.acc = self.acc.wrapping_add(*e);
            let slot = (r >> 13) as usize % SLOTS;
            self.slots[slot] = self.slots[slot] * 0.5 + (t & 0xffff) as f64;
            self.heap.push(Reverse((self.now + (r >> 44) + 1, id)));
        }
        for i in 0..MAP_STEPS {
            let r = splitmix(&mut self.rng);
            let key = r % MAP_KEYS;
            if r & 3 == 0 {
                if let Some(list) = self.lists.remove(&key) {
                    self.acc = self.acc.wrapping_add(list.len() as u64);
                }
            } else {
                let list = self.lists.entry(key).or_default();
                list.push(u64::from(i));
                if list.len() > LIST_CAP {
                    list.clear();
                    list.shrink_to_fit();
                }
                let boxed = Box::new([r; 8]);
                self.acc = self.acc.wrapping_add(black_box(&boxed)[(r as usize) & 7]);
            }
        }
        for _ in 0..HOT_STEPS {
            let r = splitmix(&mut self.rng);
            let slot = r as usize % HOT_SLOTS;
            self.hot[slot] = self.hot[slot].wrapping_mul(3).wrapping_add(r);
        }
        black_box(&self.slots);
        black_box(&self.hot);
        black_box(self.acc);
    }

    /// Run `units` units.
    pub fn run(&mut self, units: u32) {
        for _ in 0..units {
            self.unit();
        }
    }
}

/// Runs the reference between pieces of timed work and reports its CPU
/// cost per unit around each piece.
pub struct Meter {
    reference: Reference,
    units: u32,
    last_unit_s: f64,
    /// CPU seconds per unit, one entry per calibration.
    pub unit_s: Vec<f64>,
}

impl Meter {
    pub fn new() -> Meter {
        let mut m = Meter {
            reference: Reference::new(),
            units: 1,
            last_unit_s: 0.0,
            unit_s: Vec::new(),
        };
        m.last_unit_s = m.calibrate();
        m
    }

    /// Run about `cpu_s` of reference work at each calibration (at least
    /// one unit), and calibrate once at that size.
    pub fn aim(&mut self, cpu_s: f64) {
        let units = (cpu_s / self.last_unit_s).round();
        self.units = units.clamp(1.0, 1_000.0) as u32;
        self.last_unit_s = self.calibrate();
    }

    fn calibrate(&mut self) -> f64 {
        let c0 = process_cpu_s();
        self.reference.run(self.units);
        let per_unit = (process_cpu_s() - c0) / f64::from(self.units);
        self.unit_s.push(per_unit);
        per_unit
    }

    /// Calibrate after a piece of work that has just ended; returns the
    /// mean CPU seconds per unit of the calibrations either side of it.
    pub fn around(&mut self) -> f64 {
        let before = self.last_unit_s;
        self.last_unit_s = self.calibrate();
        0.5 * (before + self.last_unit_s)
    }
}

/// Pieces of timed work priced in reference units, in blocks of at least
/// `block_s` of host time. A block's price per item is its host time
/// over the reference cost around its pieces, so a speed change of the
/// host that lasts a few pieces moves both sides of the ratio; the run
/// reports the median block.
pub struct Priced {
    block_s: f64,
    host_s: f64,
    ref_s: f64,
    /// Reference units per item, one entry per closed block.
    pub blocks: Vec<f64>,
}

impl Priced {
    pub fn new(block_s: f64) -> Priced {
        Priced {
            block_s,
            host_s: 0.0,
            ref_s: 0.0,
            blocks: Vec::new(),
        }
    }

    /// Add a piece of `items` items that took `host_s`, with the reference
    /// at `unit_s` CPU seconds per unit around it.
    pub fn add(&mut self, host_s: f64, unit_s: f64, items: u32) {
        self.host_s += host_s;
        self.ref_s += unit_s * f64::from(items);
        if self.host_s >= self.block_s {
            self.blocks.push(self.host_s / self.ref_s);
            self.host_s = 0.0;
            self.ref_s = 0.0;
        }
    }

    /// Reference units per item: the median block, or the open block when
    /// none closed.
    pub fn units_per_item(&self) -> f64 {
        if self.blocks.is_empty() {
            self.host_s / self.ref_s
        } else {
            median(&self.blocks)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_price_items_by_ratio_of_sums() {
        let mut p = Priced::new(1.0);
        p.add(0.5, 0.01, 1);
        assert!(p.blocks.is_empty());
        assert!((p.units_per_item() - 50.0).abs() < 1e-9);
        p.add(0.7, 0.03, 1);
        p.add(2.0, 0.01, 4);
        p.add(1.0, 0.01, 1);
        let want = [30.0, 50.0, 100.0];
        assert_eq!(p.blocks.len(), want.len());
        for (got, want) in p.blocks.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{got} != {want}");
        }
        assert!((p.units_per_item() - 50.0).abs() < 1e-9);
    }
}
