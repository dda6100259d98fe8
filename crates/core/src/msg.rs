//! The ring message (`ring_msg_t`, paper Fig. 3 line 4).

use ftmpi::{Datatype, Tag};

/// Tag for normal ring traffic (`T_N`, paper Fig. 3 line 1).
pub const T_N: Tag = 1;
/// Tag for the termination message (`T_D`, paper Fig. 3 line 1).
pub const T_D: Tag = 2;
/// Tag for resent ring traffic in the separate-tag duplicate-control
/// variant (§III-B first option).
pub const T_R: Tag = 3;

/// `struct ring_msg_t { int value; int marker; }` — plus the
/// originating rank (root-failover provenance, see below) and optional
/// padding so latency benchmarks can sweep message sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingMsg {
    /// The accumulated value: the root sets 1, every forwarder
    /// increments (paper Fig. 3 lines 18/23).
    pub value: i64,
    /// The iteration marker used for duplicate control (paper Fig. 3
    /// lines 17/25, §III-B).
    pub marker: u64,
    /// World rank that originated this token. With root failover a
    /// takeover root may hold in-flight tokens of the dead root *and*
    /// its own originations at the same marker; marker dedup alone
    /// cannot tell "my token came home" (a closure) from "the dead
    /// root's token arrived" (forward, or close once at takeover), and
    /// misreading one as the other double-originates a lap. Provenance
    /// makes the distinction exact (DESIGN.md §8.7).
    pub origin: usize,
    /// Padding bytes (zeroes) for message-size sweeps; not interpreted.
    pub pad: Vec<u8>,
}

impl RingMsg {
    /// A fresh iteration token as the root `origin` originates it.
    pub fn originate(marker: u64, origin: usize, pad: usize) -> Self {
        Self::originate_in(marker, origin, pad, Vec::new())
    }

    /// [`RingMsg::originate`] with its pad written into `buf`, whose
    /// allocation it keeps.
    pub(crate) fn originate_in(marker: u64, origin: usize, pad: usize, mut buf: Vec<u8>) -> Self {
        buf.clear();
        buf.resize(pad, 0);
        RingMsg { value: 1, marker, origin, pad: buf }
    }

    /// [`Datatype::from_bytes`] with the pad decoded into `buf`, whose
    /// allocation it keeps: a rank that hands every token's pad on to
    /// the next decode receives tokens without allocating.
    pub(crate) fn from_bytes_in(bytes: &[u8], buf: Vec<u8>) -> ftmpi::Result<Self> {
        match Self::decode_in(bytes, buf)? {
            (msg, []) => Ok(msg),
            _ => Err(ftmpi::Error::TypeMismatch),
        }
    }

    fn decode_in(bytes: &[u8], mut buf: Vec<u8>) -> ftmpi::Result<(Self, &[u8])> {
        let (value, rest) = i64::decode(bytes)?;
        let (marker, rest) = u64::decode(rest)?;
        let (origin, rest) = u64::decode(rest)?;
        let (len, rest) = u64::decode(rest)?;
        let len = usize::try_from(len).map_err(|_| ftmpi::Error::TypeMismatch)?;
        buf.clear();
        let rest = u8::decode_into(len, rest, &mut buf)?;
        Ok((RingMsg { value, marker, origin: origin as usize, pad: buf }, rest))
    }

    /// The token as forwarded by a non-root rank: value incremented,
    /// provenance preserved. Takes the token — a forwarder is done
    /// with what it received — so the pad moves with it.
    pub fn forwarded(mut self) -> Self {
        self.value += 1;
        self
    }
}

impl Datatype for RingMsg {
    const SIZE: Option<usize> = None;

    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.value.encode(buf);
        self.marker.encode(buf);
        (self.origin as u64).encode(buf);
        self.pad.encode(buf);
    }

    fn decode(bytes: &[u8]) -> ftmpi::Result<(Self, &[u8])> {
        Self::decode_in(bytes, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = RingMsg { value: -3, marker: 17, origin: 2, pad: vec![0; 5] };
        let b = m.to_bytes();
        assert_eq!(RingMsg::from_bytes(&b).unwrap(), m);
    }

    #[test]
    fn decoding_in_a_buffer_reuses_it_and_checks_the_length() {
        let m = RingMsg { value: 9, marker: 3, origin: 1, pad: vec![0; 100] };
        let b = m.to_bytes();
        let buf = vec![7u8; 200];
        let at = buf.as_ptr();
        let got = RingMsg::from_bytes_in(&b, buf).unwrap();
        assert_eq!(got, m);
        assert_eq!(got.pad.as_ptr(), at, "the pad is decoded into the given buffer");
        let mut long = b.to_vec();
        long.push(0);
        assert_eq!(RingMsg::from_bytes_in(&long, Vec::new()), Err(ftmpi::Error::TypeMismatch));
        assert_eq!(
            RingMsg::from_bytes_in(&b[..b.len() - 1], Vec::new()),
            Err(ftmpi::Error::TypeMismatch)
        );
        let t = RingMsg::originate_in(4, 2, 3, got.pad);
        assert_eq!((t.pad.as_slice(), t.pad.as_ptr()), (&[0u8; 3][..], at));
    }

    #[test]
    fn originate_and_forward() {
        let t = RingMsg::originate(4, 1, 0);
        assert_eq!((t.value, t.marker, t.origin), (1, 4, 1));
        let f = t.forwarded().forwarded();
        assert_eq!((f.value, f.marker, f.origin), (3, 4, 1));
    }

    #[test]
    fn tags_are_distinct_user_tags() {
        assert!(T_N >= 0 && T_D >= 0 && T_R >= 0);
        assert_ne!(T_N, T_D);
        assert_ne!(T_N, T_R);
        assert_ne!(T_D, T_R);
    }
}
