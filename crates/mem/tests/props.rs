//! Property tests for the memory stack: burst plans, striping balance,
//! write/read through arbitrary offsets, and the sparse physical store
//! against a flat model.

use proptest::prelude::*;

use fv_mem::{MemoryStack, PhysicalMemory};
use fv_sim::calib::{MEM_BURST_BYTES, PAGE_BYTES, STRIPE_BYTES};

fn stack(channels: usize) -> MemoryStack {
    MemoryStack::new(channels, 32 * 1024 * 1024)
}

/// Pages in the store the flat-model property runs against.
const PHYS_PAGES: u64 = 3;

/// Mostly short accesses, some longer than a stripe, a few longer than
/// an MMU page.
fn phys_len() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..600,
        0u64..600,
        0u64..3 * STRIPE_BYTES,
        PAGE_BYTES - 100..PAGE_BYTES + 5_000,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A burst plan covers exactly the requested range, with every burst
    /// within size bounds and on the channel the striping dictates.
    #[test]
    fn burst_plan_covers_range(
        channels in 1usize..4,
        offset in 0u64..100_000,
        len in 1u64..2_000_000,
    ) {
        let mut m = stack(channels);
        let d = m.create_domain();
        let va = m.alloc(d, offset + len).unwrap();
        let plan = m.plan_bursts(d, va + offset, len).unwrap();
        let total: u64 = plan.iter().map(|b| b.bytes).sum();
        prop_assert_eq!(total, len);
        for b in &plan {
            prop_assert!(b.bytes > 0 && b.bytes <= MEM_BURST_BYTES);
            prop_assert!(b.channel < channels);
            // A burst never crosses a stripe boundary.
            prop_assert_eq!(b.paddr / STRIPE_BYTES, (b.paddr + b.bytes - 1) / STRIPE_BYTES);
        }
    }

    /// Striping balances a large sequential read across channels.
    #[test]
    fn striping_balances_channels(channels in 2usize..4) {
        let mut m = stack(channels);
        let d = m.create_domain();
        let len = 4u64 << 20;
        let va = m.alloc(d, len).unwrap();
        let plan = m.plan_bursts(d, va, len).unwrap();
        let mut per_channel = vec![0u64; channels];
        for b in &plan {
            per_channel[b.channel] += b.bytes;
        }
        let max = *per_channel.iter().max().unwrap() as f64;
        let min = *per_channel.iter().min().unwrap() as f64;
        prop_assert!(max / min < 1.05, "imbalanced striping: {:?}", per_channel);
    }

    /// Scattered writes followed by reads at arbitrary offsets return
    /// exactly what was written last.
    #[test]
    fn random_offset_rw(
        writes in prop::collection::vec((0u64..500_000, 1usize..5_000, any::<u8>()), 1..10),
    ) {
        let mut m = stack(2);
        let d = m.create_domain();
        let va = m.alloc(d, 1 << 20).unwrap();
        let mut shadow = vec![0u8; 1 << 20];
        for &(off, len, fill) in &writes {
            let off = off % ((1 << 20) - len as u64);
            let data = vec![fill; len];
            m.write(d, va + off, &data).unwrap();
            shadow[off as usize..off as usize + len].copy_from_slice(&data);
        }
        let back = m.read(d, va, 1 << 20).unwrap();
        prop_assert_eq!(back, shadow);
    }

    /// The sparse store is indistinguishable from a flat zero-initialised
    /// array: writes, views and page releases at unaligned offsets and
    /// lengths straddling stripes and MMU pages, with never-written and
    /// released ranges reading zero, and `resident_bytes` equal to each
    /// page's written extent. A view is a snapshot: one held across later
    /// writes and releases still reads the array as it was when taken,
    /// and a released page it holds reads zeros to everyone else.
    #[test]
    fn sparse_store_equals_a_flat_array(
        ops in prop::collection::vec(
            ((0u8..9, 0u64..=PHYS_PAGES, 0u64..=2, 0u64..300), phys_len(), any::<u8>()),
            1..40,
        ),
    ) {
        let total = PHYS_PAGES * PAGE_BYTES;
        let mut m = PhysicalMemory::new(2, total / 2);
        let mut flat = vec![0u8; total as usize];
        let mut extent = [0u64; PHYS_PAGES as usize];
        let mut held = Vec::new();
        for &((kind, page, stripe, back), len, fill) in &ops {
            // Just below a page or stripe boundary, clipped to the end.
            let at = (page * PAGE_BYTES + stripe * STRIPE_BYTES).saturating_sub(back).min(total);
            let len = len.min(total - at) as usize;
            let model = at as usize..at as usize + len;
            match kind {
                0..=3 => {
                    let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8) | 1).collect();
                    m.write(at, &data);
                    flat[model].copy_from_slice(&data);
                    for p in at / PAGE_BYTES..(at + len as u64).div_ceil(PAGE_BYTES) {
                        let end = (at + len as u64).min((p + 1) * PAGE_BYTES) - p * PAGE_BYTES;
                        let seen = &mut extent[p as usize];
                        *seen = end.max(*seen);
                    }
                }
                4 | 5 => {
                    let view = m.view(at, len);
                    prop_assert_eq!(view.len(), len);
                    prop_assert_eq!(&view.to_vec()[..], &flat[model.clone()]);
                    // One slice, borrowed or stitched, of a sub-range.
                    let sub = len / 3..len - len / 4;
                    let mut scratch = Vec::new();
                    prop_assert_eq!(
                        view.contiguous(sub.clone(), &mut scratch),
                        &flat[model][sub]
                    );
                }
                6 | 7 => held.push((m.view(at, len), flat[model].to_vec())),
                _ => {
                    let p = page.min(PHYS_PAGES - 1);
                    m.release(p);
                    flat[(p * PAGE_BYTES) as usize..((p + 1) * PAGE_BYTES) as usize].fill(0);
                    extent[p as usize] = 0;
                }
            }
            prop_assert_eq!(m.resident_bytes(), extent.iter().sum::<u64>());
        }
        for (view, then) in &held {
            prop_assert!(view.to_vec() == *then, "a held view moved");
        }
        prop_assert!(m.view(0, total as usize).to_vec() == flat, "whole-memory image differs from the flat model");
    }
}
