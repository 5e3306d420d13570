//! The arena-backed storage core of the simulation engine: a
//! struct-of-arrays in-flight packet slab ([`PacketSlab`]) and
//! occupancy-sized ring-buffer FIFOs ([`LinkQueues`] for packets,
//! [`FlitQueues`] for wormhole flits — one generic [`Fifos`] behind both).
//!
//! The first engine kept one heap-allocated `VecDeque` of 16-byte packet
//! structs per directed link — ~2m independent allocations that appear and
//! die over a run, every queue header on its own cache line, every queued
//! packet moved by value on each hop. This module replaces that with flat
//! arenas whose size follows the traffic, not the network:
//!
//! * packets live in **one** slab for the whole run and are referred to by
//!   `u32` id everywhere (queues, arrival lists), with a freelist so ids
//!   are recycled as packets are delivered;
//! * each queue owns only a 4-byte **handle**. Zero means idle, so the
//!   handle column is a zeroed allocation whose pages fault in only where
//!   traffic goes. A live handle indexes a freelisted pool of entries,
//!   each an inline `RING_STRIDE`-slot ring plus its length and head, so
//!   pushing and popping a shallow queue is a couple of loads and stores
//!   with no allocation. A queue deeper than the ring spills its tail to
//!   a pooled `VecDeque` the entry indexes directly (no hashing). A queue
//!   that empties returns its entry to the freelist, and a drained spill
//!   deque goes back to its pool with its capacity, so steady-state push
//!   and pop allocate nothing.
//!
//! Memory is therefore 4 B per queue plus O(occupied queues + spilled
//! values), however large the network: at Γ_26 (4.7 M directed links)
//! a run holds an 18 MiB handle column and a pool sized by the few
//! hundred links that hold packets at once. [`Fifos::load`] doubles as
//! the live load view the adaptive routers consult.

use std::collections::VecDeque;

/// Per-link ring capacity (slots), a power of two. Queues only grow past
/// this under congestion, where the simulated network is the bottleneck
/// anyway; at light and moderate load every FIFO operation stays inside
/// the ring. Kept small deliberately: every live queue entry carries its
/// ring inline and the engine is cache-bound, so a lean entry beats a
/// roomy one.
pub const RING_STRIDE: usize = 4;

/// Sentinel for the [`PacketSlab::next_copy`] column: this packet chains
/// no follow-up copy (every non-collective packet, and the last sibling
/// copy of a one-port replication chain).
pub const NO_COPY: u32 = u32::MAX;

/// Struct-of-arrays packet arena: destination, injection cycle, hop
/// count, and the collective-replication chain live in parallel vectors
/// indexed by packet id, with freelist recycling. The engine's queues and
/// arrival lists carry only the ids.
#[derive(Clone, Debug, Default)]
pub struct PacketSlab {
    dst: Vec<u32>,
    inject: Vec<u64>,
    hops: Vec<u32>,
    /// Collective tree-forwarding chain: the copy-plan edge the packet's
    /// origin emits next, once this copy departs ([`NO_COPY`] otherwise).
    /// Lives in the slab so replication allocates nothing per packet —
    /// spawned copies reuse freelisted ids like every other packet.
    next_copy: Vec<u32>,
    free: Vec<u32>,
}

impl PacketSlab {
    /// An empty slab.
    pub fn new() -> PacketSlab {
        PacketSlab::default()
    }

    /// A slab with room for `capacity` concurrently live packets before
    /// the columns reallocate.
    pub fn with_capacity(capacity: usize) -> PacketSlab {
        PacketSlab {
            dst: Vec::with_capacity(capacity),
            inject: Vec::with_capacity(capacity),
            hops: Vec::with_capacity(capacity),
            next_copy: Vec::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    /// Admits a packet, reusing a retired id when one is free. The
    /// replication chain starts empty ([`NO_COPY`]).
    #[inline]
    pub fn alloc(&mut self, dst: u32, inject: u64) -> u32 {
        if let Some(id) = self.free.pop() {
            self.dst[id as usize] = dst;
            self.inject[id as usize] = inject;
            self.hops[id as usize] = 0;
            self.next_copy[id as usize] = NO_COPY;
            id
        } else {
            self.dst.push(dst);
            self.inject.push(inject);
            self.hops.push(0);
            self.next_copy.push(NO_COPY);
            (self.dst.len() - 1) as u32
        }
    }

    /// Retires a delivered packet; its id goes back on the freelist.
    #[inline]
    pub fn release(&mut self, id: u32) {
        self.free.push(id);
    }

    /// Destination of packet `id`.
    #[inline]
    pub fn dst(&self, id: u32) -> u32 {
        self.dst[id as usize]
    }

    /// Injection cycle of packet `id`.
    #[inline]
    pub fn inject(&self, id: u32) -> u64 {
        self.inject[id as usize]
    }

    /// Link traversals packet `id` has made so far.
    #[inline]
    pub fn hops(&self, id: u32) -> u32 {
        self.hops[id as usize]
    }

    /// Records one link traversal for packet `id`.
    #[inline]
    pub fn record_hop(&mut self, id: u32) {
        self.hops[id as usize] += 1;
    }

    /// Restores a carried hop count onto a freshly allocated id — the
    /// sharded engine releases a packet's slot when it departs a lane
    /// and re-allocates at the committing lane, so the cumulative count
    /// rides along in the outbox message.
    #[inline]
    pub fn set_hops(&mut self, id: u32, hops: u32) {
        self.hops[id as usize] = hops;
    }

    /// The copy-plan edge the origin of packet `id` emits after this copy
    /// departs, or [`NO_COPY`] — the one-port tree-forwarding chain of
    /// the collective path.
    #[inline]
    pub fn next_copy(&self, id: u32) -> u32 {
        self.next_copy[id as usize]
    }

    /// Chains the follow-up copy-plan edge `next` onto packet `id`.
    #[inline]
    pub fn set_next_copy(&mut self, id: u32, next: u32) {
        self.next_copy[id as usize] = next;
    }

    /// Packets currently live (allocated and not yet released).
    pub fn live(&self) -> usize {
        self.dst.len() - self.free.len()
    }
}

/// Handle of an idle queue. Index 0 of the entry pool is a permanently
/// empty sentinel, so [`Fifos::load`] reads through any handle without a
/// branch, and a zeroed handle column means "every queue idle".
const IDLE: u32 = 0;

/// [`Entry::spill`] value of a queue that fits its ring.
const NO_SPILL: u32 = u32::MAX;

/// One live FIFO: the inline ring plus, for a queue deeper than the
/// ring, the index of its pooled spill deque. Aligned so that no packet
/// entry (28 B of fields) straddles a cache line.
#[derive(Clone, Debug)]
#[repr(align(32))]
struct Entry<T> {
    ring: [T; RING_STRIDE],
    /// Front cursor into `ring`, `0..RING_STRIDE`.
    head: u32,
    /// Total occupancy (ring **plus** spill) — also the load figure
    /// adaptive routers see. Zero only for the sentinel and freelisted
    /// entries.
    len: u32,
    spill: u32,
}

impl<T: Copy + Default> Entry<T> {
    fn empty() -> Entry<T> {
        Entry {
            ring: [T::default(); RING_STRIDE],
            head: 0,
            len: 0,
            spill: NO_SPILL,
        }
    }
}

/// Occupancy-sized FIFOs, one per queue index (a directed link, or a
/// link × virtual-channel buffer). See the [module docs](self) for the
/// memory model. [`LinkQueues`] and [`FlitQueues`] are its two
/// instantiations.
#[derive(Clone, Debug)]
pub struct Fifos<T> {
    /// Per-queue handle into `pool`, [`IDLE`] for an empty queue.
    handle: Vec<u32>,
    /// Live entries; `pool[0]` is the idle sentinel.
    pool: Vec<Entry<T>>,
    /// Retired `pool` indices, reused before the pool grows.
    free: Vec<u32>,
    /// Spill deques of the queues deeper than the ring.
    spills: Vec<VecDeque<T>>,
    /// Drained `spills` indices; their deques keep their capacity.
    free_spills: Vec<u32>,
}

/// Packet FIFOs, one per directed link, holding [`PacketSlab`] ids and
/// indexed by CSR directed-edge id.
pub type LinkQueues = Fifos<u32>;

/// Flit FIFOs for the wormhole engine, one per (directed link × virtual
/// channel) buffer, holding packed `u64` flit records (see
/// [`SwitchingSpec::Wormhole`](crate::switching::SwitchingSpec)). The
/// capacity a buffer advertises (`buf_flits`) is enforced *logically* by
/// the engine's credit check, not by the allocation: a degenerate
/// configuration with an effectively unbounded buffer costs no memory
/// beyond the flits actually queued.
pub type FlitQueues = Fifos<u64>;

impl LinkQueues {
    /// Empty FIFOs for `links` directed links.
    pub fn new(links: usize) -> LinkQueues {
        Fifos::with_queues(links)
    }
}

impl FlitQueues {
    /// Empty flit buffers for `links` directed links × `vcs` virtual
    /// channels. Buffer `b = edge * vcs + vc`.
    pub fn new(links: usize, vcs: usize) -> FlitQueues {
        Fifos::with_queues(links * vcs)
    }
}

impl<T: Copy + Default> Fifos<T> {
    fn with_queues(queues: usize) -> Fifos<T> {
        Fifos {
            handle: vec![IDLE; queues],
            pool: vec![Entry::empty()],
            free: Vec::new(),
            spills: Vec::new(),
            free_spills: Vec::new(),
        }
    }

    /// Number of queues.
    pub fn queues(&self) -> usize {
        self.handle.len()
    }

    /// Enqueues `v` on queue `q`.
    #[inline]
    pub fn push(&mut self, q: usize, v: T) {
        let mut h = self.handle[q];
        if h == IDLE {
            h = self.free.pop().unwrap_or_else(|| {
                self.pool.push(Entry::empty());
                (self.pool.len() - 1) as u32
            });
            self.handle[q] = h;
        }
        let entry = &mut self.pool[h as usize];
        let l = entry.len as usize;
        if l < RING_STRIDE {
            entry.ring[(entry.head as usize + l) & (RING_STRIDE - 1)] = v;
        } else {
            if entry.spill == NO_SPILL {
                entry.spill = self.free_spills.pop().unwrap_or_else(|| {
                    self.spills.push(VecDeque::new());
                    (self.spills.len() - 1) as u32
                });
            }
            self.spills[entry.spill as usize].push_back(v);
        }
        entry.len += 1;
    }

    /// The front value of queue `q` without dequeuing it — what the
    /// wormhole forward phase inspects to decide whether the flit can
    /// advance before spending the link's cycle on it.
    #[inline]
    pub fn front(&self, q: usize) -> Option<T> {
        let entry = &self.pool[self.handle[q] as usize];
        (entry.len > 0).then(|| entry.ring[entry.head as usize & (RING_STRIDE - 1)])
    }

    /// Dequeues the front value of queue `q`, or `None` when it is idle.
    /// A queue that empties returns its entry (and a drained spill deque
    /// its deque) to the pool.
    #[inline]
    pub fn pop(&mut self, q: usize) -> Option<T> {
        let h = self.handle[q];
        if h == IDLE {
            return None;
        }
        let entry = &mut self.pool[h as usize];
        let head = entry.head as usize & (RING_STRIDE - 1);
        let v = entry.ring[head];
        if entry.len as usize > RING_STRIDE {
            // The ring was full: the eldest spilled value is promoted into
            // the slot just vacated, which (head + RING_STRIDE ≡ head) is
            // exactly where FIFO order wants it. O(1), no shifting.
            let spill = &mut self.spills[entry.spill as usize];
            entry.ring[head] = spill
                .pop_front()
                .expect("occupancy beyond the stride implies a spill deque");
            if spill.is_empty() {
                self.free_spills.push(entry.spill);
                entry.spill = NO_SPILL;
            }
        }
        entry.head = ((head + 1) & (RING_STRIDE - 1)) as u32;
        entry.len -= 1;
        if entry.len == 0 {
            self.free.push(h);
            self.handle[q] = IDLE;
        }
        Some(v)
    }

    /// Occupancy of queue `q`.
    #[inline]
    pub fn load(&self, q: usize) -> usize {
        self.pool[self.handle[q] as usize].len as usize
    }

    /// Entries ever allocated, the idle sentinel included — the pool's
    /// high-water mark of simultaneously occupied queues, plus one.
    #[cfg(test)]
    pub(crate) fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Spill deques ever allocated — the high-water mark of queues
    /// simultaneously deeper than the ring.
    #[cfg(test)]
    pub(crate) fn spill_pool_len(&self) -> usize {
        self.spills.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn slab_recycles_ids() {
        let mut slab = PacketSlab::new();
        let a = slab.alloc(7, 100);
        let b = slab.alloc(9, 200);
        assert_eq!((slab.dst(a), slab.inject(a)), (7, 100));
        assert_eq!((slab.dst(b), slab.inject(b)), (9, 200));
        assert_eq!(slab.live(), 2);
        slab.record_hop(a);
        slab.record_hop(a);
        assert_eq!(slab.hops(a), 2);
        slab.release(a);
        assert_eq!(slab.live(), 1);
        let c = slab.alloc(3, 300);
        assert_eq!(c, a, "freelist recycles the retired id");
        assert_eq!(slab.hops(c), 0, "recycled ids start fresh");
        assert_eq!(slab.dst(c), 3);
        assert_eq!(slab.live(), 2);
    }

    #[test]
    fn copy_chain_column_defaults_clear_and_survives_recycling() {
        let mut slab = PacketSlab::with_capacity(2);
        let a = slab.alloc(1, 0);
        assert_eq!(slab.next_copy(a), NO_COPY, "fresh packets chain nothing");
        slab.set_next_copy(a, 17);
        assert_eq!(slab.next_copy(a), 17);
        slab.release(a);
        let b = slab.alloc(2, 5);
        assert_eq!(b, a, "freelist recycles");
        assert_eq!(slab.next_copy(b), NO_COPY, "recycled ids chain nothing");
    }

    #[test]
    fn queues_are_fifo_within_the_ring() {
        let mut q = LinkQueues::new(3);
        for id in 0..RING_STRIDE as u32 {
            q.push(1, id);
        }
        assert_eq!(q.load(1), RING_STRIDE);
        assert_eq!(q.load(0), 0);
        for id in 0..RING_STRIDE as u32 {
            assert_eq!(q.pop(1), Some(id));
        }
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn queues_spill_and_drain_in_order_past_the_stride() {
        // Push 5× the stride through one link, interleaving pops, and the
        // FIFO order must survive the ring/overflow boundary crossings.
        let mut q = LinkQueues::new(2);
        let total = 5 * RING_STRIDE as u32;
        let mut next_pop = 0u32;
        for id in 0..total {
            q.push(0, id);
            if id % 3 == 2 {
                assert_eq!(q.pop(0), Some(next_pop));
                next_pop += 1;
            }
        }
        while let Some(id) = q.pop(0) {
            assert_eq!(id, next_pop);
            next_pop += 1;
        }
        assert_eq!(next_pop, total);
        assert_eq!(q.load(0), 0);
        // The drained link is immediately reusable.
        q.push(0, 99);
        assert_eq!(q.pop(0), Some(99));
    }

    #[test]
    fn flit_queues_front_pop_and_spill_stay_fifo() {
        // Two links × two VCs; buffer index = edge * vcs + vc.
        let mut q = FlitQueues::new(2, 2);
        assert_eq!(q.queues(), 4);
        let b = 3; // edge 1, vc 1
        let total = 3 * RING_STRIDE as u64;
        for f in 0..total {
            q.push(b, f << 40 | f); // wide payloads survive intact
        }
        assert_eq!(q.load(b), 3 * RING_STRIDE);
        assert_eq!(q.load(2), 0, "sibling VC untouched");
        for f in 0..total {
            assert_eq!(q.front(b), Some(f << 40 | f), "front peeks, no dequeue");
            assert_eq!(q.pop(b), Some(f << 40 | f));
        }
        assert_eq!(q.front(b), None);
        assert_eq!(q.pop(b), None);
        // Drained buffers are immediately reusable.
        q.push(b, 99);
        assert_eq!(q.pop(b), Some(99));
    }

    #[test]
    fn load_tracks_total_occupancy() {
        let mut q = LinkQueues::new(4);
        for id in 0..(RING_STRIDE as u32 + 3) {
            q.push(2, id);
        }
        assert_eq!(q.load(2), RING_STRIDE + 3, "overflow counts toward load");
        assert_eq!(q.load(1), 0, "idle queues read the sentinel");
        assert_eq!(q.queues(), 4);
        q.pop(2);
        assert_eq!(q.load(2), RING_STRIDE + 2);
    }

    #[test]
    fn one_deep_link_allocates_o1_pool_state_on_a_huge_network() {
        // The allocation cliff: one saturated link on a Γ_30-sized link
        // count must not materialise per-link queue state.
        let mut q = LinkQueues::new(1 << 22);
        let hot = (1 << 22) - 1;
        let depth = 16 * RING_STRIDE as u32;
        for id in 0..depth {
            q.push(hot, id);
        }
        assert_eq!(q.load(hot), depth as usize);
        assert_eq!(q.pool_len(), 2, "sentinel plus the one live entry");
        assert_eq!(q.spill_pool_len(), 1, "one spill deque for one deep link");
        for id in 0..depth {
            assert_eq!(q.pop(hot), Some(id));
        }
        // Drained: entry and deque are recycled, not reallocated.
        for round in 0..3 {
            for id in 0..depth {
                q.push(round, id);
            }
            while q.pop(round).is_some() {}
        }
        assert_eq!((q.pool_len(), q.spill_pool_len()), (2, 1));
    }

    /// SplitMix64 step, so one drawn seed expands into a whole operation
    /// sequence (the proptest shim draws scalars, not collections).
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Replays `ops` random push/pop/front/load operations over `queues`
    /// queues against a `Vec<VecDeque>` model. `push_bias` (out of 8)
    /// sets how often an operation pushes, so depths wander past the ring
    /// and back to idle. Returns the deepest queue seen.
    fn replay_against_model<T>(
        q: &mut Fifos<T>,
        seed: u64,
        ops: usize,
        push_bias: u64,
        value: impl Fn(u64) -> T,
    ) -> Result<usize, TestCaseError>
    where
        T: Copy + Default + PartialEq + std::fmt::Debug,
    {
        let mut model: Vec<VecDeque<T>> = vec![VecDeque::new(); q.queues()];
        let mut state = seed;
        let mut deepest = 0;
        for _ in 0..ops {
            let r = next(&mut state);
            let i = (r % model.len() as u64) as usize;
            match (r >> 32) % 8 {
                k if k < push_bias => {
                    let v = value(next(&mut state));
                    q.push(i, v);
                    model[i].push_back(v);
                    deepest = deepest.max(model[i].len());
                }
                k if k < 7 => prop_assert_eq!(q.pop(i), model[i].pop_front()),
                _ => prop_assert_eq!(q.front(i), model[i].front().copied()),
            }
            prop_assert_eq!(q.load(i), model[i].len());
        }
        for (i, m) in model.iter_mut().enumerate() {
            while let Some(v) = m.pop_front() {
                prop_assert_eq!(q.pop(i), Some(v));
            }
            prop_assert_eq!(q.pop(i), None);
            prop_assert_eq!(q.load(i), 0);
        }
        Ok(deepest)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn link_queues_match_a_vecdeque_model(
            seed in 0u64..u64::MAX,
            links in 1usize..5,
            push_bias in 3u64..6,
        ) {
            let mut q = LinkQueues::new(links);
            // Two passes: the second runs on recycled entries and deques.
            for pass in 0..2 {
                replay_against_model(&mut q, seed ^ pass, 400, push_bias, |r| r as u32)?;
            }
            prop_assert!(q.pool_len() <= links + 1, "one entry per queue at most");
            prop_assert!(q.spill_pool_len() <= links);
        }

        #[test]
        fn flit_queues_match_a_vecdeque_model(
            seed in 0u64..u64::MAX,
            links in 1usize..3,
            vcs in 1usize..3,
            push_bias in 3u64..6,
        ) {
            let mut q = FlitQueues::new(links, vcs);
            for pass in 0..2 {
                replay_against_model(&mut q, seed ^ pass, 400, push_bias, |r| r)?;
            }
            prop_assert!(q.pool_len() <= links * vcs + 1);
            prop_assert!(q.spill_pool_len() <= links * vcs);
        }
    }

    #[test]
    fn model_replay_reaches_past_the_ring() {
        // Guards the generator: a push-heavy replay must drive some queue
        // deep enough to spill, or the proptests above never exercise the
        // spill pool.
        let mut q = LinkQueues::new(2);
        let deepest = replay_against_model(&mut q, 7, 400, 5, |r| r as u32).unwrap();
        assert!(deepest > 2 * RING_STRIDE, "deepest queue {deepest}");
        assert!(q.spill_pool_len() >= 1);
    }
}
