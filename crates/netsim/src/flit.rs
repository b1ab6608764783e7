//! Flits and packet bookkeeping.

/// Sentinel for "not yet happened" cycle stamps.
pub const NEVER: u32 = u32::MAX;

/// Flag bit: first flit of a packet.
pub const HEAD: u8 = 1;
/// Flag bit: last flit of a packet.
pub const TAIL: u8 = 2;

/// The largest packet id a flit can carry: ids take the low 30 bits of
/// the flit word, the [`HEAD`]/[`TAIL`] flags the top two.
pub const MAX_PACKET: u32 = (1 << 30) - 1;

/// Bit position of the flags in the flit word.
const FLAG_SHIFT: u32 = 30;

/// One flow-control digit. The header flit carries the routing
/// information (here: the packet id, which indexes the packet table);
/// body and tail flits follow the path the header established.
///
/// Packed into 8 bytes — one word holding the packet id and the flags,
/// one holding the `moved` stamp — so a depth-4 lane is 32 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flit {
    /// Packet id in bits 0–29, [`HEAD`] in bit 30, [`TAIL`] in bit 31.
    word: u32,
    /// Cycle at which this flit last advanced one pipeline stage; used
    /// to enforce that a flit traverses at most one stage (link,
    /// crossbar) per clock.
    pub moved: u32,
}

const _: () = assert!(std::mem::size_of::<Flit>() == 8);

impl Flit {
    /// A flit of `packet` (at most [`MAX_PACKET`]) carrying the
    /// [`HEAD`]/[`TAIL`] bits in `flags` (a one-flit packet would carry
    /// both; the paper's 64-byte packets are 16 or 32 flits, so this
    /// does not arise in the experiments but the engine supports it).
    ///
    /// # Panics
    /// Panics if `packet` exceeds [`MAX_PACKET`] or `flags` holds a bit
    /// other than `HEAD | TAIL`.
    #[inline]
    pub const fn new(packet: u32, moved: u32, flags: u8) -> Self {
        assert!(packet <= MAX_PACKET, "packet id does not fit the flit word");
        assert!(flags <= HEAD | TAIL, "unknown flit flag bits");
        Flit {
            word: packet | ((flags as u32) << FLAG_SHIFT),
            moved,
        }
    }

    /// Index into the simulation's packet table.
    #[inline]
    pub const fn packet(&self) -> u32 {
        self.word & MAX_PACKET
    }

    /// The [`HEAD`] / [`TAIL`] flag bits.
    #[inline]
    pub const fn flags(&self) -> u8 {
        (self.word >> FLAG_SHIFT) as u8
    }

    /// Whether this is a header flit.
    #[inline]
    pub const fn is_head(&self) -> bool {
        self.flags() & HEAD != 0
    }

    /// Whether this is a tail flit.
    #[inline]
    pub const fn is_tail(&self) -> bool {
        self.flags() & TAIL != 0
    }
}

/// Per-packet record: identity, timing, and size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketRec {
    /// Source node index.
    pub src: u32,
    /// Destination node index.
    pub dest: u32,
    /// Cycle the packet was created (entered the source queue).
    pub created: u32,
    /// Cycle the header flit entered the injection lane ([`NEVER`] while
    /// still queued at the source).
    pub injected: u32,
    /// Cycle the tail flit was received at the destination ([`NEVER`]
    /// while in flight).
    pub delivered: u32,
    /// Number of flits.
    pub flits: u16,
    /// Number of routers whose routing logic handled this packet's
    /// header — for a minimal algorithm this must equal
    /// `min_distance(src, dest) - 1` on delivery.
    pub hops: u16,
    /// In request–reply mode: the request packet this one answers
    /// (`u32::MAX` for requests and for open-loop traffic). Round-trip
    /// time = `delivered - packets[in_reply_to].created`.
    pub in_reply_to: u32,
}

impl PacketRec {
    /// Whether this packet is a reply in request-reply mode.
    pub fn is_reply(&self) -> bool {
        self.in_reply_to != u32::MAX
    }
}

impl PacketRec {
    /// Network latency in cycles (Section 6's definition), or `None`
    /// if the packet has not been delivered.
    pub fn latency(&self) -> Option<u32> {
        if self.delivered == NEVER || self.injected == NEVER {
            None
        } else {
            Some(self.delivered - self.injected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags() {
        let h = Flit::new(0, 0, HEAD);
        let b = Flit::new(0, 0, 0);
        let t = Flit::new(0, 0, TAIL);
        let ht = Flit::new(0, 0, HEAD | TAIL);
        assert!(h.is_head() && !h.is_tail());
        assert!(!b.is_head() && !b.is_tail());
        assert!(!t.is_head() && t.is_tail());
        assert!(ht.is_head() && ht.is_tail());
    }

    #[test]
    fn packet_id_and_flags_share_one_word() {
        for (packet, flags) in [(0, 0), (MAX_PACKET, HEAD | TAIL), (12345, TAIL), (1, HEAD)] {
            let f = Flit::new(packet, 77, flags);
            assert_eq!((f.packet(), f.flags(), f.moved), (packet, flags, 77));
        }
        let f = Flit::new(MAX_PACKET, 0, 0);
        assert!(!f.is_head() && !f.is_tail(), "id bits leak into the flags");
    }

    #[test]
    #[should_panic(expected = "packet id does not fit")]
    fn oversized_packet_ids_are_refused() {
        Flit::new(MAX_PACKET + 1, 0, 0);
    }

    #[test]
    #[should_panic(expected = "unknown flit flag bits")]
    fn unknown_flag_bits_are_refused() {
        Flit::new(0, 0, 4);
    }

    #[test]
    fn latency_requires_both_stamps() {
        let mut p = PacketRec {
            src: 0,
            dest: 1,
            created: 5,
            injected: NEVER,
            delivered: NEVER,
            flits: 16,
            hops: 0,
            in_reply_to: u32::MAX,
        };
        assert_eq!(p.latency(), None);
        p.injected = 10;
        assert_eq!(p.latency(), None);
        p.delivered = 73;
        assert_eq!(p.latency(), Some(63));
    }
}
