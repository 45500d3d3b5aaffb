//! # fv-mem — the Farview memory stack
//!
//! "The memory stack implements the buffer pool memory using the on-board
//! DRAM memory attached to the FPGA. It handles dynamic memory
//! allocations, address translations, and concurrent accesses." (§4.4)
//!
//! This crate implements that stack functionally and provides the DRAM
//! timing model the simulator charges against:
//!
//! * [`PhysicalMemory`] — the node's bytes, kept by physical address in
//!   copy-on-write 2 MB pages (`Arc<Vec<u8>>`, written through
//!   `Arc::make_mut`) resident only where written, with the striping
//!   ("interleaved abstraction for DRAM accesses that aggregates the
//!   bandwidth from multiple memory channels", §4.4) as the function
//!   from address to channel that bursts are planned and timed by.
//! * [`PageView`] — how a query reads: the pages' `Arc`s and the ranges
//!   in them, unwritten tails read from a static zero page; a snapshot
//!   no later write or free changes, built without copying a byte.
//! * [`Tlb`] — the BRAM TLB: bounded capacity, LRU replacement, hit/miss
//!   accounting.
//! * [`MemoryStack`] — the MMU: per-domain page tables over naturally
//!   aligned 2 MB pages, allocation/free, protection and isolation
//!   between dynamic regions (a page returns to the pool zeroed), page
//!   sharing between queue pairs, views, byte read/write, and burst
//!   planning for the simulator.
//! * [`DramTiming`] — per-channel bandwidth servers with the calibrated
//!   18 GBps rate and per-burst overheads.
//!
//! The functional and timed sides are kept in lockstep: `plan_bursts`
//! yields exactly the channel/byte schedule over the bytes `view`
//! covers, and a burst never crosses a page, so the simulator charges
//! time for precisely the bytes the pipeline streams.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod error;
mod phys;
mod stack;
mod timing;
mod tlb;

pub use error::MemError;
pub use phys::{PageView, PhysicalMemory};
pub use stack::{BurstReq, DomainId, MemoryStack, TlbStats, VirtAddr};
pub use timing::DramTiming;
pub use tlb::Tlb;

/// Round `bytes` up to whole 2 MB pages.
pub fn pages_for(bytes: u64) -> u64 {
    bytes.div_ceil(fv_sim::calib::PAGE_BYTES)
}

#[cfg(test)]
mod tests {
    #[test]
    fn pages_for_rounds_up() {
        use fv_sim::calib::PAGE_BYTES;
        assert_eq!(super::pages_for(0), 0);
        assert_eq!(super::pages_for(1), 1);
        assert_eq!(super::pages_for(PAGE_BYTES), 1);
        assert_eq!(super::pages_for(PAGE_BYTES + 1), 2);
    }
}
