//! Unique, unforgeable identifiers for Ejects.
//!
//! The paper: "Each Eject has a unique unforgeable identifier (*UID*); one
//! Eject may communicate with another only by knowing its UID."
//!
//! Inside a single simulated Eden a [`Uid`] is a 128-bit quantity composed of
//! a per-process random session nonce and a monotonically increasing
//! sequence number. The nonce makes UIDs from distinct kernel instances
//! (distinct simulated Edens) disjoint; the sequence number makes them
//! unique within one. Unforgeability in the simulation is a matter of API
//! discipline: the only way to obtain a fresh `Uid` is [`Uid::fresh`], and
//! the constructors of meaningful UIDs (Ejects, capability channels) are in
//! kernel-controlled code paths. There is no `from_raw` in the public API.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::RngCore;

/// The session nonce, drawn once per process from the OS entropy source.
fn session_nonce() -> u64 {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let mut cur = NONCE.load(Ordering::Relaxed);
    if cur == 0 {
        let mut fresh = rand::thread_rng().next_u64();
        if fresh == 0 {
            fresh = 1;
        }
        // If several threads race, the first store wins and everyone reloads.
        let _ = NONCE.compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed);
        cur = NONCE.load(Ordering::Relaxed);
    }
    cur
}

/// Process-wide sequence counter for UID allocation.
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);

/// A unique, unforgeable identifier.
///
/// UIDs identify Ejects, and — in the capability-channel scheme of §5 of the
/// paper — individual output channels. They are location independent: "It is
/// not necessary to know the physical location of an Eject within the Eden
/// system."
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uid {
    nonce: u64,
    seq: u64,
}

impl Uid {
    /// Allocate a fresh UID, distinct from every UID previously allocated in
    /// this process, and (with overwhelming probability) from those of other
    /// processes.
    pub fn fresh() -> Self {
        Uid {
            nonce: session_nonce(),
            seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The sequence component. Exposed for diagnostics and stable display
    /// ordering only; it is not sufficient to reconstruct the UID.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Encode to 16 bytes for the wire codec.
    pub(crate) fn to_bytes(self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&self.nonce.to_le_bytes());
        b[8..].copy_from_slice(&self.seq.to_le_bytes());
        b
    }

    /// Decode from 16 bytes, for the wire codec.
    ///
    /// This is `pub(crate)` deliberately: decoding checkpoints is a
    /// kernel-mediated path, and keeping it out of the public API preserves
    /// the unforgeability discipline described in the module docs.
    pub(crate) fn from_bytes(b: &[u8; 16]) -> Self {
        let mut n = [0u8; 8];
        let mut s = [0u8; 8];
        n.copy_from_slice(&b[..8]);
        s.copy_from_slice(&b[8..]);
        Uid {
            nonce: u64::from_le_bytes(n),
            seq: u64::from_le_bytes(s),
        }
    }
}

impl fmt::Debug for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uid({:08x}:{})", self.nonce as u32, self.seq)
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid-{:08x}-{}", self.nonce as u32, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread;

    #[test]
    fn fresh_uids_are_distinct() {
        let a = Uid::fresh();
        let b = Uid::fresh();
        assert_ne!(a, b);
    }

    #[test]
    fn uids_distinct_across_threads() {
        let handles: Vec<_> = (0..8)
            .map(|_| thread::spawn(|| (0..1000).map(|_| Uid::fresh()).collect::<Vec<_>>()))
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for uid in h.join().expect("thread panicked") {
                assert!(seen.insert(uid), "duplicate UID {uid}");
            }
        }
        assert_eq!(seen.len(), 8000);
    }

    #[test]
    fn uid_byte_roundtrip() {
        let u = Uid::fresh();
        assert_eq!(Uid::from_bytes(&u.to_bytes()), u);
    }

    #[test]
    fn uid_display_is_stable() {
        let u = Uid::fresh();
        assert_eq!(format!("{u}"), format!("{u}"));
        assert!(format!("{u}").starts_with("uid-"));
    }

    #[test]
    fn session_nonce_is_nonzero_and_stable() {
        assert_ne!(session_nonce(), 0);
        assert_eq!(session_nonce(), session_nonce());
    }
}
