//! Operation names.
//!
//! An invocation is "a request to perform some named operation" (§1). A
//! name the program spells itself — every constant in [`ops`] — is a static
//! ([`OpName::from_static`]): making one allocates nothing and cloning it
//! copies a pointer. A name that arrives borrowed (`From<&str>`, a shell
//! word, a name read off the wire) is copied once into a shared buffer and
//! cloned by reference bump. Nothing is interned: comparison is by content.
//! The well-known names of the transput protocol and the filing system live
//! here so that every crate agrees on spelling.

use std::fmt;

use crate::value::Text;

/// The name of an invocable operation.
///
/// Cloning never copies the name; comparison is by string content.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpName(Text);

impl OpName {
    /// A name that is a static string: no allocation, no copy.
    pub const fn from_static(s: &'static str) -> OpName {
        OpName(Text::from_static(s))
    }

    /// View the name as a string slice.
    pub fn as_str(&self) -> &str {
        self.0.as_str()
    }
}

impl From<&str> for OpName {
    fn from(s: &str) -> Self {
        OpName(Text::from(s))
    }
}

impl From<String> for OpName {
    fn from(s: String) -> Self {
        OpName(Text::from(s))
    }
}

impl fmt::Debug for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OpName({})", self.as_str())
    }
}

impl fmt::Display for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq<&str> for OpName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Well-known operation names used throughout the workspace.
pub mod ops {
    /// Stream protocol (§4, §7): request a batch of data from a source.
    /// The paper's bootstrap system calls this invocation *Transfer*.
    pub const TRANSFER: &str = "Transfer";
    /// Stream protocol, write-only discipline (§5): push a batch of data.
    pub const WRITE: &str = "Write";
    /// Announce end-of-stream to a passive-input Eject (write-only model).
    pub const END_STREAM: &str = "EndStream";
    /// Ask a source for the capability UIDs of its named channels (§5).
    pub const GET_CHANNEL: &str = "GetChannel";
    /// Directory operations (§2).
    pub const LOOKUP: &str = "Lookup";
    /// Add a (name, UID) pair to a directory (§2).
    pub const ADD_ENTRY: &str = "AddEntry";
    /// Remove a named entry from a directory (§2).
    pub const DELETE_ENTRY: &str = "DeleteEntry";
    /// Prepare a directory to stream a printable listing (§2, §4).
    pub const LIST: &str = "List";
    /// File operations (§2).
    pub const OPEN: &str = "Open";
    /// Close a previously opened file or stream.
    pub const CLOSE: &str = "Close";
    /// Ask a file Eject to pull its new contents from a source (§4: "a file
    /// opened for output would immediately issue a Read invocation").
    pub const WRITE_FROM: &str = "WriteFrom";
    /// Checkpoint: create a passive representation on stable storage (§1).
    pub const CHECKPOINT: &str = "Checkpoint";
    /// Ask an Eject to deactivate itself (§1).
    pub const DEACTIVATE: &str = "Deactivate";
    /// Bootstrap Unix file system (§7): create a read stream for a path.
    pub const NEW_STREAM: &str = "NewStream";
    /// Bootstrap Unix file system (§7): copy a stream into a path.
    pub const USE_STREAM: &str = "UseStream";
    /// Generic introspection: report the Eject's abstract type name.
    pub const DESCRIBE: &str = "Describe";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_compare_by_content() {
        assert_eq!(OpName::from("Transfer"), OpName::from("Transfer"));
        assert_ne!(OpName::from("Transfer"), OpName::from("Write"));
        assert_eq!(OpName::from(ops::TRANSFER), "Transfer");
    }

    #[test]
    fn clone_is_same_content() {
        let a = OpName::from("Lookup");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.as_str(), "Lookup");
    }

    #[test]
    fn a_static_name_is_the_borrowed_name() {
        use std::collections::HashSet;
        let fixed = OpName::from_static(ops::TRANSFER);
        assert_eq!(fixed, OpName::from("Transfer"));
        assert_eq!(fixed.clone().as_str(), "Transfer");
        assert!(fixed < OpName::from_static(ops::WRITE));
        let names: HashSet<OpName> = [OpName::from("Transfer")].into();
        assert!(names.contains(&fixed));
    }

    #[test]
    fn display_is_bare_name() {
        assert_eq!(OpName::from("List").to_string(), "List");
    }
}
