//! A direct-mapped branch target buffer.

use crate::Addr;

/// Running BTB statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BtbStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that found a matching entry.
    pub hits: u64,
    /// Entries written.
    pub updates: u64,
}

/// A direct-mapped BTB holding taken-branch targets (the paper uses 4 K
/// entries). Reconstruction treats it exactly like a direct-mapped cache:
/// the reverse scan installs the youngest target for each entry and marks it
/// reconstructed; older references to reconstructed entries are ignored.
///
/// Layout is struct-of-arrays: contiguous tag and target vectors plus
/// `valid`/`reconstructed` bitsets, so the fetch-path probe reads two cache
/// lines instead of striding over 32-byte entry structs, and
/// [`Btb::begin_reconstruction`] clears one bit per entry. The previous
/// array-of-structs layout survives as `RefBtb` in the integration-test
/// crate, the equivalence oracle.
#[derive(Clone, Debug)]
pub struct Btb {
    tags: Vec<u64>,
    targets: Vec<Addr>,
    /// Valid bit `i` lives at bit `i & 63` of `valid[i >> 6]`.
    valid: Vec<u64>,
    /// Reconstructed bit `i`, same packing as `valid`.
    recon: Vec<u64>,
    index_mask: u64,
    tag_shift: u32,
    stats: BtbStats,
}

impl Btb {
    /// The paper's size.
    pub const PAPER_ENTRIES: usize = 4096;

    /// Builds an empty BTB with `entries` slots (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a nonzero power of two.
    pub fn new(entries: usize) -> Btb {
        assert!(entries.is_power_of_two() && entries > 0, "BTB size must be a power of two");
        Btb {
            tags: vec![0; entries],
            targets: vec![0; entries],
            valid: vec![0; entries.div_ceil(64)],
            recon: vec![0; entries.div_ceil(64)],
            index_mask: entries as u64 - 1,
            tag_shift: entries.trailing_zeros(),
            stats: BtbStats::default(),
        }
    }

    /// Number of entries.
    pub fn num_entries(&self) -> usize {
        self.tags.len()
    }

    /// Running statistics.
    pub fn stats(&self) -> BtbStats {
        self.stats
    }

    /// Resets statistics (state untouched).
    pub fn reset_stats(&mut self) {
        self.stats = BtbStats::default();
    }

    /// Entry index for a PC.
    #[inline]
    pub fn index(&self, pc: Addr) -> usize {
        ((pc >> 2) & self.index_mask) as usize
    }

    #[inline]
    fn tag(&self, pc: Addr) -> u64 {
        (pc >> 2) >> self.tag_shift
    }

    #[inline]
    fn bit(v: &[u64], i: usize) -> bool {
        v[i >> 6] & (1u64 << (i & 63)) != 0
    }

    #[inline]
    fn set_bit(v: &mut [u64], i: usize) {
        v[i >> 6] |= 1u64 << (i & 63);
    }

    /// Looks up the predicted target for `pc`.
    #[inline]
    pub fn lookup(&mut self, pc: Addr) -> Option<Addr> {
        self.stats.lookups += 1;
        let idx = self.index(pc);
        if Self::bit(&self.valid, idx) && self.tags[idx] == self.tag(pc) {
            self.stats.hits += 1;
            Some(self.targets[idx])
        } else {
            None
        }
    }

    /// Non-counting lookup (used inside reconstruction probes).
    #[inline]
    pub fn peek(&self, pc: Addr) -> Option<Addr> {
        let idx = self.index(pc);
        (Self::bit(&self.valid, idx) && self.tags[idx] == self.tag(pc)).then(|| self.targets[idx])
    }

    /// Installs/updates the target for a taken control transfer at `pc`.
    #[inline]
    pub fn update(&mut self, pc: Addr, target: Addr) {
        let idx = self.index(pc);
        self.tags[idx] = self.tag(pc);
        self.targets[idx] = target;
        Self::set_bit(&mut self.valid, idx);
        self.stats.updates += 1;
    }

    // ---- reconstruction ---------------------------------------------------

    /// Clears all reconstructed bits.
    pub fn begin_reconstruction(&mut self) {
        self.recon.fill(0);
    }

    /// Applies one logged taken transfer during the reverse scan. Returns
    /// `true` if the entry was (newly) reconstructed, `false` if a younger
    /// reference had already reconstructed it.
    #[inline]
    pub fn reconstruct(&mut self, pc: Addr, target: Addr) -> bool {
        let idx = self.index(pc);
        if Self::bit(&self.recon, idx) {
            return false;
        }
        self.tags[idx] = self.tag(pc);
        self.targets[idx] = target;
        Self::set_bit(&mut self.valid, idx);
        Self::set_bit(&mut self.recon, idx);
        true
    }

    /// Whether the entry mapped by `pc` is reconstructed.
    #[inline]
    pub fn is_reconstructed(&self, pc: Addr) -> bool {
        Self::bit(&self.recon, self.index(pc))
    }

    /// Marks the entry mapped by `pc` reconstructed without touching its
    /// content. Used when execution itself writes an entry (its state is
    /// now exact, so the reverse scan must not overwrite it with older
    /// information).
    #[inline]
    pub fn mark_reconstructed(&mut self, pc: Addr) {
        let idx = self.index(pc);
        Self::set_bit(&mut self.recon, idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_miss_then_hit() {
        let mut b = Btb::new(16);
        assert_eq!(b.lookup(0x1000), None);
        b.update(0x1000, 0x2000);
        assert_eq!(b.lookup(0x1000), Some(0x2000));
        assert_eq!(b.stats().hits, 1);
        assert_eq!(b.stats().lookups, 2);
    }

    #[test]
    fn tag_disambiguates_aliases() {
        let mut b = Btb::new(16);
        let pc_a = 0x1000;
        let pc_b = pc_a + 16 * 4; // same index, different tag
        assert_eq!(b.index(pc_a), b.index(pc_b));
        b.update(pc_a, 0x2000);
        assert_eq!(b.lookup(pc_b), None);
        b.update(pc_b, 0x3000);
        assert_eq!(b.lookup(pc_b), Some(0x3000));
        assert_eq!(b.lookup(pc_a), None); // evicted
    }

    #[test]
    fn reverse_reconstruction_keeps_youngest() {
        let mut b = Btb::new(16);
        b.begin_reconstruction();
        // Reverse scan: youngest first.
        assert!(b.reconstruct(0x1000, 0xaaaa));
        // Older reference to the same entry is ignored.
        assert!(!b.reconstruct(0x1000, 0xbbbb));
        assert_eq!(b.peek(0x1000), Some(0xaaaa));
        assert!(b.is_reconstructed(0x1000));
    }

    #[test]
    fn begin_reconstruction_clears_bits_not_content() {
        let mut b = Btb::new(16);
        b.reconstruct(0x1000, 0xaaaa);
        b.begin_reconstruction();
        assert!(!b.is_reconstructed(0x1000));
        assert_eq!(b.peek(0x1000), Some(0xaaaa)); // stale content survives
    }

    #[test]
    fn bitsets_span_multiple_words() {
        // 128 entries = 2 valid words; exercise entries on both sides.
        let mut b = Btb::new(128);
        let pc_lo = 3u64 << 2; // index 3
        let pc_hi = 100u64 << 2; // index 100
        b.update(pc_lo, 0x111);
        b.update(pc_hi, 0x222);
        assert_eq!(b.peek(pc_lo), Some(0x111));
        assert_eq!(b.peek(pc_hi), Some(0x222));
        b.mark_reconstructed(pc_hi);
        assert!(b.is_reconstructed(pc_hi));
        assert!(!b.is_reconstructed(pc_lo));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Btb::new(12);
    }
}
