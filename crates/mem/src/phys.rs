//! Multi-channel physical memory with stripe interleaving.
//!
//! Physical addresses form one flat space; consecutive
//! [`fv_sim::calib::STRIPE_BYTES`]-sized stripes rotate across channels
//! ("allocating memory in a striping pattern across all available memory
//! channels, thus maximizing the available bandwidth to each dynamic
//! region", §4.4). The mapping is:
//!
//! ```text
//! stripe   = paddr / STRIPE_BYTES
//! channel  = stripe % n_channels
//! in_chan  = (stripe / n_channels) * STRIPE_BYTES + paddr % STRIPE_BYTES
//! ```

use fv_sim::calib::STRIPE_BYTES;

/// Channel-interleaved backing store.
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    channels: Vec<Vec<u8>>,
    total_bytes: u64,
}

impl PhysicalMemory {
    /// Allocate `n_channels` channels of `channel_bytes` each.
    ///
    /// # Panics
    /// Panics unless `channel_bytes` is a positive multiple of the stripe
    /// size (hardware channels are stripe-granular).
    pub fn new(n_channels: usize, channel_bytes: u64) -> Self {
        assert!(n_channels > 0, "need at least one channel");
        assert!(
            channel_bytes > 0 && channel_bytes.is_multiple_of(STRIPE_BYTES),
            "channel size must be a positive multiple of the {STRIPE_BYTES}-byte stripe"
        );
        PhysicalMemory {
            channels: vec![vec![0u8; channel_bytes as usize]; n_channels],
            total_bytes: channel_bytes * n_channels as u64,
        }
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Total capacity across channels.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Which channel serves physical address `paddr`.
    pub fn channel_of(&self, paddr: u64) -> usize {
        ((paddr / STRIPE_BYTES) % self.channels.len() as u64) as usize
    }

    /// `(channel, offset_within_channel)` for `paddr`.
    fn locate(&self, paddr: u64) -> (usize, usize) {
        let n = self.channels.len() as u64;
        let stripe = paddr / STRIPE_BYTES;
        let channel = (stripe % n) as usize;
        let in_chan = (stripe / n) * STRIPE_BYTES + paddr % STRIPE_BYTES;
        (channel, in_chan as usize)
    }

    /// The stripe-contiguous pieces of the `len` bytes at `paddr`, in
    /// address order.
    ///
    /// # Panics
    /// Panics on out-of-range physical addresses (physical ranges are
    /// validated by the MMU before they get here; a violation is a bug).
    fn pieces(&self, paddr: u64, len: usize) -> impl Iterator<Item = &[u8]> {
        assert!(
            paddr + len as u64 <= self.total_bytes,
            "physical read past end of memory"
        );
        let mut addr = paddr;
        let end = paddr + len as u64;
        std::iter::from_fn(move || {
            if addr == end {
                return None;
            }
            let (ch, off) = self.locate(addr);
            let take = (STRIPE_BYTES - addr % STRIPE_BYTES).min(end - addr) as usize;
            addr += take as u64;
            Some(&self.channels[ch][off..off + take])
        })
    }

    /// Read `out.len()` bytes starting at `paddr`, crossing stripes as
    /// needed.
    ///
    /// # Panics
    /// Panics on out-of-range physical addresses.
    pub fn read(&self, paddr: u64, out: &mut [u8]) {
        let mut done = 0usize;
        for piece in self.pieces(paddr, out.len()) {
            out[done..done + piece.len()].copy_from_slice(piece);
            done += piece.len();
        }
    }

    /// Append the `len` bytes starting at `paddr` to `out`, crossing
    /// stripes as needed — a read that writes each byte of a fresh
    /// buffer once, where [`PhysicalMemory::read`] needs it zeroed first.
    ///
    /// # Panics
    /// Panics on out-of-range physical addresses.
    pub fn read_append(&self, paddr: u64, len: usize, out: &mut Vec<u8>) {
        for piece in self.pieces(paddr, len) {
            out.extend_from_slice(piece);
        }
    }

    /// Write `data` starting at `paddr`.
    ///
    /// # Panics
    /// Panics on out-of-range physical addresses.
    pub fn write(&mut self, paddr: u64, data: &[u8]) {
        assert!(
            paddr + data.len() as u64 <= self.total_bytes,
            "physical write past end of memory"
        );
        let mut addr = paddr;
        let mut done = 0usize;
        while done < data.len() {
            let (ch, off) = self.locate(addr);
            let stripe_left = (STRIPE_BYTES - addr % STRIPE_BYTES) as usize;
            let take = stripe_left.min(data.len() - done);
            self.channels[ch][off..off + take].copy_from_slice(&data[done..done + take]);
            addr += take as u64;
            done += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripes_rotate_across_channels() {
        let m = PhysicalMemory::new(2, 8 * STRIPE_BYTES);
        assert_eq!(m.channel_of(0), 0);
        assert_eq!(m.channel_of(STRIPE_BYTES - 1), 0);
        assert_eq!(m.channel_of(STRIPE_BYTES), 1);
        assert_eq!(m.channel_of(2 * STRIPE_BYTES), 0);
        assert_eq!(m.channel_of(3 * STRIPE_BYTES), 1);
    }

    #[test]
    fn rw_roundtrip_across_stripe_boundary() {
        let mut m = PhysicalMemory::new(2, 8 * STRIPE_BYTES);
        let data: Vec<u8> = (0..(2 * STRIPE_BYTES + 100))
            .map(|i| (i % 251) as u8)
            .collect();
        let base = STRIPE_BYTES / 2; // deliberately unaligned
        m.write(base, &data);
        let mut back = vec![0u8; data.len()];
        m.read(base, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn channels_hold_disjoint_bytes() {
        let mut m = PhysicalMemory::new(4, 4 * STRIPE_BYTES);
        // Fill each stripe with its index.
        let total = m.total_bytes();
        for stripe in 0..total / STRIPE_BYTES {
            let buf = vec![stripe as u8; STRIPE_BYTES as usize];
            m.write(stripe * STRIPE_BYTES, &buf);
        }
        // Stripe k must live on channel k % 4.
        for stripe in 0..total / STRIPE_BYTES {
            let mut one = [0u8; 1];
            m.read(stripe * STRIPE_BYTES, &mut one);
            assert_eq!(one[0], stripe as u8);
            assert_eq!(m.channel_of(stripe * STRIPE_BYTES), (stripe % 4) as usize);
        }
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn oob_read_panics() {
        let m = PhysicalMemory::new(1, STRIPE_BYTES);
        let mut buf = [0u8; 2];
        m.read(STRIPE_BYTES - 1, &mut buf);
    }

    #[test]
    fn total_bytes() {
        let m = PhysicalMemory::new(2, 16 * STRIPE_BYTES);
        assert_eq!(m.total_bytes(), 32 * STRIPE_BYTES);
        assert_eq!(m.channel_count(), 2);
    }
}
