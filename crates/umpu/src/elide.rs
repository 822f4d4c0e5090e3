//! The store-elision map: which program-counter addresses hold stores that
//! a static certificate (see `harbor-flow`'s `StoreCertificate`) has proven
//! to land inside the executing module's own state segment.
//!
//! The map is the *hardware-facing* half of check elision: a flat bitmap
//! over the 64 Ki word-address space, shared (via `Arc`) between the host
//! that derives it and the [`UmpuEnv`](crate::UmpuEnv) consulting it on the
//! store path. It is immutable once published — the host swaps in a freshly
//! built map at every certificate rebuild point (boot, module install,
//! module unload), the same points that bump the loader's flash generation,
//! so a decoded fast-path image can never outlive the map it baked in.

/// Immutable per-PC bitmap of statically certified store instructions.
///
/// Word-address indexed; addresses above the 64 Ki flash space are never
/// certified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElisionMap {
    bits: Box<[u64; 1024]>,
}

impl Default for ElisionMap {
    fn default() -> Self {
        ElisionMap::new()
    }
}

impl ElisionMap {
    /// An empty map: no store is certified.
    pub fn new() -> ElisionMap {
        ElisionMap { bits: Box::new([0u64; 1024]) }
    }

    /// Marks the store instruction at word address `pc` as certified.
    pub fn set(&mut self, pc: u32) {
        if pc < 0x1_0000 {
            self.bits[(pc >> 6) as usize] |= 1u64 << (pc & 63);
        }
    }

    /// Whether the store at word address `pc` is certified.
    #[inline]
    pub fn certified(&self, pc: u32) -> bool {
        pc < 0x1_0000 && self.bits[(pc >> 6) as usize] & (1u64 << (pc & 63)) != 0
    }

    /// Number of certified PCs in the map.
    pub fn len(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether no PC is certified.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

impl FromIterator<u32> for ElisionMap {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> ElisionMap {
        let mut m = ElisionMap::new();
        for pc in iter {
            m.set(pc);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_test_round_trip() {
        let m: ElisionMap = [0u32, 63, 64, 0xffff].into_iter().collect();
        assert!(m.certified(0));
        assert!(m.certified(63));
        assert!(m.certified(64));
        assert!(m.certified(0xffff));
        assert!(!m.certified(1));
        assert!(!m.certified(0xfffe));
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
    }

    #[test]
    fn out_of_range_pcs_are_never_certified() {
        let mut m = ElisionMap::new();
        m.set(0x1_0000);
        m.set(u32::MAX);
        assert!(m.is_empty());
        assert!(!m.certified(0x1_0000));
        assert!(!m.certified(u32::MAX));
    }
}
