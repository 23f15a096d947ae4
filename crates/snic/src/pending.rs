//! The Pending PR Table: a per-RIG-unit CAM of outstanding requests
//! (paper §5.2, §5.3).
//!
//! Each client RIG unit tracks the PRs it has issued whose responses have
//! not yet arrived. The table serves two purposes:
//!
//! - **Coalescing**: a new idx matching an outstanding entry is dropped —
//!   the in-flight response will satisfy it (only PRs from the *same* RIG
//!   unit coalesce; the paper avoids cross-unit synchronization).
//! - **Flow control**: when the table is full (256 entries in Table 5) the
//!   unit stalls, bounding the node's outstanding traffic — this is what
//!   makes the lossless-network assumption self-enforcing.
//!
//! The hardware table is a CAM of `capacity` entries, so the simulated one
//! is sized by its capacity too, not by the idx domain: a 128-node point
//! builds 2,048 of them, and one bit per column each would cost hundreds of
//! MiB on a multi-million-column matrix.

/// Key of an empty slot. Keys are idx words (`idx >> 6 < 2^26`), so no
/// key ever equals it.
const EMPTY: u32 = u32::MAX;

/// 2^64 / φ: the Fibonacci-hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A bounded set of outstanding PR idxs.
///
/// # Example
///
/// ```
/// use netsparse_snic::PendingTable;
/// let mut t = PendingTable::new(2);
/// assert!(t.insert(5));
/// assert!(t.insert(9));
/// assert!(t.is_full());
/// assert!(!t.insert(11)); // no room
/// assert!(t.contains(5)); // coalescing check
/// t.remove(5);
/// assert!(t.insert(11));
/// ```
///
/// The table is a pure membership set — nothing observes an entry order —
/// stored as a sparse bitset keyed by idx word: an open-addressing hash
/// table (linear probing, Fibonacci hashing) whose slots hold an idx word
/// `idx >> 6` and that word's 64 membership bits. Keying by word keeps a
/// banded matrix's neighbouring idxs in one slot. Each occupied slot holds
/// at least one outstanding idx, so at most `min(capacity, domain words)`
/// slots are ever occupied; the slot count is the next power of two of
/// twice that, keeping the load at or below one half (512 slots, 6 KiB, at
/// the paper's 256 entries). A word whose last bit clears is deleted by
/// backward shift, so probe runs never carry tombstones.
#[derive(Debug, Clone)]
pub struct PendingTable {
    capacity: usize,
    len: usize,
    peak: usize,
    /// Exclusive idx bound: the declared domain, or 2^32 for any `u32`.
    limit: u64,
    /// Idx word held by each slot, or [`EMPTY`].
    keys: Vec<u32>,
    /// Outstanding idxs of each occupied slot's word (never zero there;
    /// stale in empty slots).
    bits: Vec<u64>,
    /// `64 - log2(slots)`: maps a Fibonacci product to its home slot.
    shift: u32,
}

impl PendingTable {
    /// Creates an empty table with room for `capacity` outstanding PRs,
    /// accepting arbitrary `u32` idxs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_limit(capacity, 1 << 32)
    }

    /// Creates an empty table with room for `capacity` outstanding PRs
    /// whose idxs all lie in `[0, domain)`. The domain only bounds the
    /// slot count (a domain of fewer than `capacity` words needs fewer
    /// slots) and is checked on insert.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn for_domain(capacity: usize, domain: u32) -> Self {
        Self::with_limit(capacity, u64::from(domain))
    }

    fn with_limit(capacity: usize, limit: u64) -> Self {
        assert!(capacity > 0, "pending table needs at least one entry");
        let words = limit.div_ceil(64) as usize;
        let slots = (2 * capacity.min(words).max(1)).next_power_of_two();
        PendingTable {
            capacity,
            len: 0,
            peak: 0,
            limit,
            keys: vec![EMPTY; slots],
            bits: vec![0; slots],
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// Maximum outstanding PRs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current outstanding PRs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no PRs are outstanding.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the table has no free entries (the unit must stall).
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// The slot `key`'s probe run starts at.
    #[inline]
    fn home(&self, key: u32) -> usize {
        (u64::from(key).wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The slot holding `key`, or `Err` with the empty slot that ends its
    /// probe run (where an insert puts it). The load stays at or below one
    /// half, so every run ends.
    #[inline]
    fn find(&self, key: u32) -> Result<usize, usize> {
        let mask = self.keys.len() - 1;
        let mut s = self.home(key);
        loop {
            match self.keys[s] {
                k if k == key => return Ok(s),
                EMPTY => return Err(s),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// Whether a PR for `idx` is outstanding (the coalescing probe).
    #[inline]
    pub fn contains(&self, idx: u32) -> bool {
        self.find(idx >> 6)
            .is_ok_and(|s| self.bits[s] & (1u64 << (idx & 63)) != 0)
    }

    /// Registers an outstanding PR for `idx`. Returns `false` (and does
    /// nothing) if the table is full.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is already present — the caller must coalesce
    /// duplicates before issuing, so a double insert is a model bug.
    /// On a [`PendingTable::for_domain`] table, also panics if `idx` lies
    /// outside the declared domain.
    #[inline]
    pub fn insert(&mut self, idx: u32) -> bool {
        if self.is_full() {
            return false;
        }
        assert!(
            u64::from(idx) < self.limit,
            "idx {idx} outside the declared domain"
        );
        let bit = 1u64 << (idx & 63);
        match self.find(idx >> 6) {
            Ok(s) => {
                assert!(
                    self.bits[s] & bit == 0,
                    "idx {idx} already outstanding; caller must coalesce"
                );
                self.bits[s] |= bit;
            }
            Err(s) => {
                self.keys[s] = idx >> 6;
                self.bits[s] = bit;
            }
        }
        self.len += 1;
        self.peak = self.peak.max(self.len);
        true
    }

    /// Clears the entry for `idx` if it is outstanding; returns whether it
    /// was. One probe serves both the check and the removal.
    #[inline]
    pub fn remove_if_present(&mut self, idx: u32) -> bool {
        let Ok(s) = self.find(idx >> 6) else {
            return false;
        };
        let bit = 1u64 << (idx & 63);
        if self.bits[s] & bit == 0 {
            return false;
        }
        self.bits[s] &= !bit;
        if self.bits[s] == 0 {
            self.vacate(s);
        }
        self.len -= 1;
        true
    }

    /// Clears the entry for `idx` when its response arrives.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was not outstanding — a response without a matching
    /// request is a protocol violation.
    #[inline]
    pub fn remove(&mut self, idx: u32) {
        assert!(
            self.remove_if_present(idx),
            "response for idx {idx} that was never outstanding"
        );
    }

    /// Empties slot `hole` by backward shift. Walking on through the probe
    /// run, each key whose probe path passes the hole (its home is at
    /// least as far behind its slot as the hole is, cyclically) moves into
    /// the hole, and its old slot becomes the hole; the run's end leaves
    /// the last hole empty.
    fn vacate(&mut self, mut hole: usize) {
        let mask = self.keys.len() - 1;
        let mut s = hole;
        loop {
            s = (s + 1) & mask;
            let key = self.keys[s];
            if key == EMPTY {
                break;
            }
            let home = self.home(key);
            if (s.wrapping_sub(home) & mask) >= (s.wrapping_sub(hole) & mask) {
                self.keys[hole] = key;
                self.bits[hole] = self.bits[s];
                hole = s;
            }
        }
        self.keys[hole] = EMPTY;
    }

    /// Highest simultaneous occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Forgets every outstanding entry (watchdog recovery, §7.1: the
    /// failed RIG operation's in-flight PRs are abandoned).
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        self.keys.fill(EMPTY);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsparse_desim::SplitMix64;
    use std::collections::BTreeSet;

    #[test]
    fn fills_and_frees() {
        let mut t = PendingTable::new(3);
        for i in 0..3 {
            assert!(t.insert(i));
        }
        assert!(t.is_full());
        assert!(!t.insert(99));
        t.remove(1);
        assert!(!t.is_full());
        assert!(t.insert(99));
        assert_eq!(t.peak(), 3);
    }

    #[test]
    fn contains_tracks_outstanding_only() {
        let mut t = PendingTable::new(3);
        t.insert(7);
        assert!(t.contains(7));
        t.remove(7);
        assert!(!t.contains(7));
    }

    #[test]
    fn clear_forgets_everything() {
        let mut t = PendingTable::new(3);
        t.insert(1);
        t.insert(2);
        t.clear();
        assert!(t.is_empty());
        assert!(!t.contains(2));
        assert!(t.insert(1));
    }

    #[test]
    fn slots_follow_capacity_not_domain() {
        // 512 slots at the paper's 256 entries, whatever the column count.
        assert_eq!(PendingTable::for_domain(256, 2_970_000).keys.len(), 512);
        assert_eq!(PendingTable::new(256).keys.len(), 512);
        // A domain of fewer words than entries needs fewer slots.
        assert_eq!(PendingTable::for_domain(256, 1000).keys.len(), 32);
        assert_eq!(PendingTable::for_domain(1 << 20, 4096).keys.len(), 128);
    }

    #[test]
    fn full_u32_domain_accepts_any_idx() {
        let mut t = PendingTable::for_domain(4, u32::MAX);
        assert!(t.insert(u32::MAX - 1));
        assert!(t.contains(u32::MAX - 1));
        t.remove(u32::MAX - 1);
        assert!(t.is_empty());
        let mut t = PendingTable::new(4);
        assert!(t.insert(u32::MAX));
        assert!(t.contains(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "already outstanding")]
    fn double_insert_is_a_bug() {
        let mut t = PendingTable::new(4);
        t.insert(7);
        t.insert(7);
    }

    #[test]
    #[should_panic(expected = "already outstanding")]
    fn double_insert_is_a_bug_for_domain() {
        let mut t = PendingTable::for_domain(4, 64);
        t.insert(7);
        t.insert(7);
    }

    #[test]
    #[should_panic(expected = "never outstanding")]
    fn orphan_response_is_a_bug() {
        PendingTable::new(4).remove(1);
    }

    #[test]
    #[should_panic(expected = "never outstanding")]
    fn orphan_response_is_a_bug_for_domain() {
        PendingTable::for_domain(4, 64).remove(1);
    }

    #[test]
    #[should_panic(expected = "outside the declared domain")]
    fn rejects_out_of_domain_insert() {
        PendingTable::for_domain(4, 64).insert(64);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        PendingTable::new(0);
    }

    /// How the model test draws idxs.
    #[derive(Clone, Copy, Debug)]
    enum Pattern {
        /// A slowly drifting window a few words wide (stokes-like): many
        /// idxs per word.
        Banded,
        /// Uniform over the domain (europe-like): about one idx per word.
        Scattered,
        /// Words whose home is one of the last two slots or the first, so
        /// probe runs collide and wrap past the table end, and deletes shift
        /// chains.
        Colliding,
    }

    /// Checks the table's layout: every occupied slot is reachable from
    /// its key's home without crossing an empty slot, no word is stored
    /// twice or empty, and the bits add up to `len`.
    fn check_layout(t: &PendingTable) {
        let mut total = 0u64;
        for (s, &key) in t.keys.iter().enumerate() {
            if key == EMPTY {
                continue;
            }
            assert_eq!(t.find(key), Ok(s), "word {key} lost from its probe run");
            assert_ne!(t.bits[s], 0, "empty word {key} left in slot {s}");
            total += u64::from(t.bits[s].count_ones());
        }
        assert_eq!(total, t.len as u64);
    }

    /// Drives `ops` random operations on `t` against a `BTreeSet` model.
    /// Phases alternate between filling (mostly inserts, until full) and
    /// draining (mostly removes, until empty), with an occasional clear.
    fn run_model(mut t: PendingTable, pattern: Pattern, seed: u64, ops: usize) {
        let mut rng = SplitMix64::new(seed);
        let mut model = BTreeSet::new();
        let limit = t.limit;
        // Colliding pool: words (from the bottom and the top of the
        // domain) whose home is slot 0 or one of the last two; a domain
        // of a few words uses all of them.
        let slots = t.keys.len();
        let max_word = ((limit - 1) >> 6) as u32;
        let words: BTreeSet<u32> = (0..=max_word.min(1 << 18))
            .chain(max_word.saturating_sub(1 << 18)..=max_word)
            .collect();
        let mut pool: Vec<u32> = words
            .iter()
            .copied()
            .filter(|&w| [0, slots - 2, slots - 1].contains(&t.home(w)))
            .collect();
        if pool.len() < 4 {
            pool = words.into_iter().collect();
        }
        let mut center = 0u64;
        let mut filling = true;
        let (mut saw_full, mut saw_empty) = (false, false);
        for _ in 0..ops {
            let idx = match pattern {
                Pattern::Banded => {
                    center = (center + rng.next_range(8)) % limit;
                    ((center + rng.next_range(192)) % limit) as u32
                }
                Pattern::Scattered => rng.next_range(limit) as u32,
                Pattern::Colliding => {
                    let w = pool[rng.next_range(pool.len() as u64) as usize];
                    let idx = u64::from(w) * 64 + rng.next_range(8);
                    idx.min(limit - 1) as u32
                }
            };
            match rng.next_range(16) {
                0 => assert_eq!(t.contains(idx), model.contains(&idx)),
                1 if rng.next_range(64) == 0 => {
                    t.clear();
                    model.clear();
                }
                1..=2 => assert_eq!(t.remove_if_present(idx), model.remove(&idx)),
                r => {
                    if filling == (r < 12) {
                        if !model.contains(&idx) {
                            let room = !t.is_full();
                            assert_eq!(t.insert(idx), room);
                            if room {
                                model.insert(idx);
                            }
                        }
                    } else if let Some(&live) = model.iter().nth(idx as usize % model.len().max(1))
                    {
                        t.remove(live);
                        model.remove(&live);
                    }
                }
            }
            if t.is_full() {
                saw_full = true;
                filling = false;
            }
            if t.is_empty() {
                saw_empty = true;
                filling = true;
            }
            assert_eq!(t.len(), model.len());
            assert_eq!(t.is_full(), model.len() >= t.capacity());
            assert!(t.peak() >= t.len());
            check_layout(&t);
            for &live in &model {
                assert!(t.contains(live), "{pattern:?}: lost idx {live}");
            }
        }
        let cap = t.capacity();
        assert!(saw_empty, "{pattern:?} {cap}/{limit}: never drained");
        // A domain of fewer idxs than entries can never fill.
        if limit >= t.capacity() as u64 {
            assert!(saw_full, "{pattern:?} {cap}/{limit}: never filled");
        }
    }

    /// Tables covering the shapes the simulator builds and the edges of
    /// the layout: tiny, paper-sized, domain narrower than the capacity
    /// (in words and in idxs), and domains reaching `u32::MAX`.
    fn model_tables() -> Vec<PendingTable> {
        vec![
            PendingTable::new(3),
            PendingTable::new(256),
            PendingTable::for_domain(256, 2_970_000),
            PendingTable::for_domain(64, 1000),
            PendingTable::for_domain(256, 100),
            PendingTable::for_domain(32, u32::MAX),
        ]
    }

    fn run_models(ops: usize) {
        for (i, t) in model_tables().into_iter().enumerate() {
            for (j, p) in [Pattern::Banded, Pattern::Scattered, Pattern::Colliding]
                .into_iter()
                .enumerate()
            {
                run_model(t.clone(), p, (i * 3 + j) as u64, ops);
            }
        }
    }

    #[test]
    fn matches_btreeset_model() {
        run_models(4_000);
    }

    #[test]
    #[ignore = "long model run (~10^6 ops); scripts/ci.sh runs it in release"]
    fn matches_btreeset_model_long() {
        run_models(1_000_000 / 18);
    }
}
