//! Channel tables: the source side of §5's multi-output scheme.
//!
//! A multi-output Eject declares its channels in a `ChannelTable`. Under
//! [`ChannelPolicy::Integer`] the identifiers are well-known small numbers
//! (what the 1983 prototype ran); under [`ChannelPolicy::Capability`] each
//! channel's identifier is a fresh UID that can only be learned via the
//! `GetChannel` invocation — "whoever sets up a pipeline must ask each
//! filter for the UIDs of its channels, and then pass them on" (§5).

use eden_core::{EdenError, Result, Uid};

use crate::protocol::{ChannelId, OUTPUT_NAME};

/// How channel identifiers are minted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelPolicy {
    /// Channel *i* in declaration order gets `ChannelId::Number(i)`.
    /// Convenient, documented, forgeable.
    #[default]
    Integer,
    /// Every channel gets a fresh unforgeable `ChannelId::Cap`.
    Capability,
}

/// One declared output channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChannelSpec {
    /// The documented name ("Output", "Report", ...).
    pub(crate) name: String,
    /// The identifier readers must present.
    pub(crate) id: ChannelId,
}

/// The declared output channels of a source or filter.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChannelTable {
    specs: Vec<ChannelSpec>,
}

/// The refusal of an identifier that names no channel: a guessed number
/// names none, and a forged or foreign capability is not authorised.
pub(crate) fn unknown(id: ChannelId) -> EdenError {
    match id {
        ChannelId::Number(n) => EdenError::NoSuchChannel(format!("no channel numbered {n}")),
        ChannelId::Cap(_) => {
            EdenError::NotAuthorized("presented capability does not name any channel".into())
        }
    }
}

impl ChannelTable {
    /// A table with only the primary `Output` channel, integer policy.
    pub(crate) fn single_output() -> ChannelTable {
        ChannelTable::new(ChannelPolicy::Integer, [OUTPUT_NAME])
    }

    /// Declare channels in order under the given policy. The first name
    /// is the primary output.
    pub(crate) fn new<I, S>(policy: ChannelPolicy, names: I) -> ChannelTable
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let specs = names
            .into_iter()
            .enumerate()
            .map(|(i, name)| ChannelSpec {
                name: name.into(),
                id: match policy {
                    ChannelPolicy::Integer => ChannelId::Number(i as u32),
                    ChannelPolicy::Capability => ChannelId::Cap(Uid::fresh()),
                },
            })
            .collect();
        ChannelTable { specs }
    }

    /// Look up a channel's index by the identifier a reader presented.
    /// This is the access check: an identifier not in the table (a guessed
    /// number, a forged or foreign UID) is refused.
    pub(crate) fn index_of(&self, id: ChannelId) -> Result<usize> {
        self.specs
            .iter()
            .position(|s| s.id == id)
            .ok_or_else(|| unknown(id))
    }

    /// Look up a channel's identifier by documented name (the `GetChannel`
    /// service).
    pub(crate) fn id_of(&self, name: &str) -> Result<ChannelId> {
        self.specs
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.id)
            .ok_or_else(|| EdenError::NoSuchChannel(format!("no channel named `{name}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::REPORT_NAME;

    #[test]
    fn integer_policy_numbers_in_order() {
        let t = ChannelTable::new(ChannelPolicy::Integer, [OUTPUT_NAME, REPORT_NAME]);
        assert_eq!(t.id_of(OUTPUT_NAME).unwrap(), ChannelId::Number(0));
        assert_eq!(t.id_of(REPORT_NAME).unwrap(), ChannelId::Number(1));
    }

    #[test]
    fn capability_policy_mints_unique_uids() {
        let t = ChannelTable::new(ChannelPolicy::Capability, [OUTPUT_NAME, REPORT_NAME]);
        let a = t.id_of(OUTPUT_NAME).unwrap();
        let b = t.id_of(REPORT_NAME).unwrap();
        assert_ne!(a, b);
        assert!(matches!(a, ChannelId::Cap(_)));
    }

    #[test]
    fn index_lookup_enforces_access() {
        let t = ChannelTable::new(ChannelPolicy::Integer, [OUTPUT_NAME, REPORT_NAME]);
        assert_eq!(t.index_of(ChannelId::Number(1)).unwrap(), 1);
        // A guessed number outside the table is NoSuchChannel...
        assert!(matches!(
            t.index_of(ChannelId::Number(9)),
            Err(EdenError::NoSuchChannel(_))
        ));
        // ...but a forged capability is NotAuthorized.
        assert!(matches!(
            t.index_of(ChannelId::Cap(Uid::fresh())),
            Err(EdenError::NotAuthorized(_))
        ));
    }

    #[test]
    fn guessing_works_under_integer_policy_only() {
        // The §5 threat: "if E is told to read from F's channel 1, nothing
        // prevents it from reading from F's channel 2 as well" — true for
        // integers, false for capabilities.
        let ints = ChannelTable::new(ChannelPolicy::Integer, [OUTPUT_NAME, REPORT_NAME]);
        assert!(ints.index_of(ChannelId::Number(1)).is_ok());
        let caps = ChannelTable::new(ChannelPolicy::Capability, [OUTPUT_NAME, REPORT_NAME]);
        assert!(caps.index_of(ChannelId::Number(1)).is_err());
    }

    #[test]
    fn unknown_name_is_error() {
        let t = ChannelTable::single_output();
        assert!(t.id_of("Bogus").is_err());
    }
}
