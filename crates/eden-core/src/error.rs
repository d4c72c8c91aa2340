//! Error types shared across the workspace.

use std::fmt;

use crate::op::OpName;
use crate::uid::Uid;

/// The workspace-wide result alias.
pub type Result<T> = std::result::Result<T, EdenError>;

/// Everything that can go wrong in the simulated Eden.
///
/// Invocation replies carry `Result<Value>`, so these errors propagate across
/// Eject boundaries exactly as Eden error status codes did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdenError {
    /// The target UID names no Eject known to the kernel (active or passive).
    NoSuchEject(Uid),
    /// The Eject exists but does not respond to this operation.
    ///
    /// The paper (§2): the set of invocations an Eject responds to is its
    /// behaviour; invoking outside that set is a protocol error.
    NoSuchOperation {
        /// The Eject that rejected the invocation.
        target: Uid,
        /// The operation that was not understood.
        op: OpName,
    },
    /// The Eject crashed (or was crashed by fault injection) while the
    /// invocation was outstanding, and has no passive representation from
    /// which the kernel could reactivate it.
    EjectCrashed(Uid),
    /// The kernel is shutting down; no further invocations are possible.
    KernelShutdown,
    /// An invocation parameter had the wrong shape for the operation.
    BadParameter(String),
    /// A stream operation named a channel the source does not provide,
    /// or presented a channel capability that was never issued (§5).
    NoSuchChannel(String),
    /// A capability check failed: the presented UID does not authorise the
    /// requested access (§5, capability channels).
    NotAuthorized(String),
    /// End of stream. Used as an error only where a datum was required;
    /// ordinary stream replies carry end-of-stream in-band as a status.
    EndOfStream,
    /// A reply did not arrive within the configured deadline.
    Timeout,
    /// A checkpoint or passive representation could not be decoded.
    CorruptCheckpoint(String),
    /// A host filing-system operation failed (bootstrap UnixFs Ejects, §7).
    HostFs(String),
    /// The invoked Eject explicitly reported failure with a message.
    Application(String),
    /// The fault injector failed this invocation on purpose. Carries the
    /// label of the fault rule that fired, so chaos tests can tell their
    /// own faults from organic failures.
    FaultInjected(String),
    /// A pipeline's wiring graph violates its transput discipline (§3–§5):
    /// fan-out under read-only, fan-in under write-only, an unbuffered
    /// filter pair under conventional, or a forged channel capability.
    /// Raised at build time, before any Eject spawns.
    Discipline(String),
    /// Admission control shed this invocation: the target's bounded mailbox
    /// was full and its shed policy turned the invocation away, or its
    /// deadline ran out while it waited for room. Carries the target and the policy label that
    /// fired, so overload tests can tell shed traffic from organic
    /// failures. Retryable by design — backing off and re-sending is
    /// exactly the client-side rate control an overloaded system wants.
    Overloaded {
        /// The Eject whose mailbox shed the invocation.
        target: Uid,
        /// The shed-policy label (`"reject-newest"`, `"park-timeout"`).
        policy: &'static str,
    },
}

impl EdenError {
    /// Whether retrying the invocation could plausibly succeed.
    ///
    /// Retryable errors are the *transient* ones: a reply deadline expired
    /// ([`EdenError::Timeout`]), the target crashed while the invocation
    /// was outstanding ([`EdenError::EjectCrashed`] — the kernel will
    /// reactivate a checkpointed target on the next invocation), or the
    /// fault injector dropped the invocation on purpose
    /// ([`EdenError::FaultInjected`]), or admission control shed it at a
    /// full bounded mailbox ([`EdenError::Overloaded`] — the queue drains,
    /// and a backed-off retry is the rate control the shed asked for).
    /// Everything else is a property of the request or of the system state
    /// that a retry cannot change: retrying a `BadParameter` or a
    /// `NoSuchEject` (the target has no passive representation to come
    /// back from) only wastes invocations.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            EdenError::Timeout
                | EdenError::EjectCrashed(_)
                | EdenError::FaultInjected(_)
                | EdenError::Overloaded { .. }
        )
    }
}

impl fmt::Display for EdenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdenError::NoSuchEject(uid) => write!(f, "no such Eject: {uid}"),
            EdenError::NoSuchOperation { target, op } => {
                write!(f, "Eject {target} does not respond to operation {op}")
            }
            EdenError::EjectCrashed(uid) => write!(f, "Eject {uid} crashed"),
            EdenError::KernelShutdown => write!(f, "kernel is shutting down"),
            EdenError::BadParameter(msg) => write!(f, "bad invocation parameter: {msg}"),
            EdenError::NoSuchChannel(msg) => write!(f, "no such channel: {msg}"),
            EdenError::NotAuthorized(msg) => write!(f, "not authorized: {msg}"),
            EdenError::EndOfStream => write!(f, "end of stream"),
            EdenError::Timeout => write!(f, "invocation timed out"),
            EdenError::CorruptCheckpoint(msg) => write!(f, "corrupt checkpoint: {msg}"),
            EdenError::HostFs(msg) => write!(f, "host filesystem error: {msg}"),
            EdenError::Application(msg) => write!(f, "application error: {msg}"),
            EdenError::FaultInjected(label) => write!(f, "injected fault: {label}"),
            EdenError::Discipline(msg) => write!(f, "discipline violation: {msg}"),
            EdenError::Overloaded { target, policy } => {
                write!(f, "Eject {target} overloaded (shed policy: {policy})")
            }
        }
    }
}

impl std::error::Error for EdenError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_uid() {
        let u = Uid::fresh();
        let msg = EdenError::NoSuchEject(u).to_string();
        assert!(msg.contains(&u.to_string()));
    }

    #[test]
    fn display_mentions_operation() {
        let u = Uid::fresh();
        let e = EdenError::NoSuchOperation {
            target: u,
            op: OpName::from("Transfer"),
        };
        assert!(e.to_string().contains("Transfer"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(EdenError::Timeout, EdenError::Timeout);
        assert_ne!(EdenError::Timeout, EdenError::EndOfStream);
    }

    #[test]
    fn transient_errors_are_retryable() {
        assert!(EdenError::Timeout.is_retryable());
        assert!(EdenError::EjectCrashed(Uid::fresh()).is_retryable());
        assert!(EdenError::FaultInjected("chaos".into()).is_retryable());
        assert!(EdenError::Overloaded {
            target: Uid::fresh(),
            policy: "reject-newest",
        }
        .is_retryable());
    }

    #[test]
    fn overload_display_names_the_policy() {
        let u = Uid::fresh();
        let msg = EdenError::Overloaded {
            target: u,
            policy: "park-timeout",
        }
        .to_string();
        assert!(msg.contains("park-timeout"));
        assert!(msg.contains(&u.to_string()));
    }

    #[test]
    fn permanent_errors_are_fatal() {
        for e in [
            EdenError::NoSuchEject(Uid::fresh()),
            EdenError::KernelShutdown,
            EdenError::BadParameter("x".into()),
            EdenError::NoSuchChannel("x".into()),
            EdenError::NotAuthorized("x".into()),
            EdenError::EndOfStream,
            EdenError::CorruptCheckpoint("x".into()),
            EdenError::HostFs("x".into()),
            EdenError::Application("x".into()),
            EdenError::Discipline("x".into()),
        ] {
            assert!(!e.is_retryable(), "{e} should be fatal");
        }
    }
}
