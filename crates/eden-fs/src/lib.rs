//! The Eden filing system of §2 and §7: files, directories and the
//! bootstrap Unix-file-system Ejects — all active entities speaking the
//! stream protocol, not passive data structures.
//!
//! * [`FileEject`] — a checkpointable sequence of records; `Open` mints a
//!   disposable reader stream ([`eden_transput::Stage::reader`]),
//!   `WriteFrom` its dual ([`eden_transput::Stage::writer`]), which pulls
//!   new contents from any source Eject — or, given none, takes a write-only
//!   pipeline's writes — and hands them to the file to commit by
//!   checkpointing.
//! * [`DirectoryEject`] — `Lookup` / `AddEntry` / `DeleteEntry` / `List`;
//!   the listing is a source stage the directory answers `Transfer` by, so
//!   a directory *is* a source (§4).
//! * [`DirConcatenatorEject`] — PATH-style lookup across directories,
//!   indistinguishable from a plain directory (behavioural typing, §2).
//! * [`UnixFsEject`] — §7's bootstrap: `NewStream` (whose lines are windows
//!   on the file's one buffer, cut as they are read) and `UseStream` (a
//!   writer whose output is the host file) over a pluggable [`HostFs`]
//!   (hermetic [`MemFs`], or [`RealFs`] on disk).
//!
//! Because files and filters are both just Ejects answering `Transfer`,
//! "there is no distinction between input redirection from a file and from
//! a program" (§4). Output redirection is by UID too: [`write_from_sink`]
//! and [`use_stream_sink`] make a file a pipeline's sink, so the records of
//! `... > file NAME` or `... > unix PATH` move once, from the last filter
//! into the file, and nowhere else.

pub(crate) mod directory;
pub(crate) mod file;
pub mod hostfs;
pub mod mapfile;
pub(crate) mod unixfs;

pub use directory::{DirConcatenatorEject, DirectoryEject};
pub use file::{write_from_sink, FileEject};
pub use hostfs::{HostFs, HostFsHandle, MemFs, RealFs};
pub use mapfile::{read_at_arg, write_at_arg, MapFileEject};
pub use unixfs::{new_stream_arg, use_stream_arg, use_stream_sink, UnixFsEject};

use eden_core::{Result, Uid, Value};
use eden_kernel::Kernel;

/// Register every checkpointable filing-system type on a kernel. Call this
/// on any kernel that must reactivate files or directories from passive
/// representations (including after a simulated whole-system restart).
/// The cursors `OpenDurable` mints are recoverable stream stages, not a
/// filing-system type: they come back through
/// [`eden_transput::recovery::install_recovery`], which the caller makes
/// with the registry of its own filters.
pub fn register_fs_types(kernel: &Kernel) {
    FileEject::register(kernel);
    DirectoryEject::register(kernel);
    MapFileEject::register(kernel);
}

/// Convenience: look `name` up in a directory Eject.
pub fn lookup(kernel: &Kernel, directory: Uid, name: &str) -> Result<Uid> {
    kernel
        .invoke(
            directory,
            eden_core::op::ops::LOOKUP,
            Value::record([("name", Value::str(name))]),
        )
        .wait()?
        .as_uid()
}

/// Convenience: add a `(name, uid)` entry to a directory Eject.
pub fn add_entry(kernel: &Kernel, directory: Uid, name: &str, uid: Uid) -> Result<()> {
    kernel
        .invoke(
            directory,
            eden_core::op::ops::ADD_ENTRY,
            Value::record([("name", Value::str(name)), ("uid", Value::Uid(uid))]),
        )
        .wait()
        .map(|_| ())
}

/// Rename an entry within one directory (atomic — single-Eject dispatch).
pub fn rename_entry(kernel: &Kernel, directory: Uid, from: &str, to: &str) -> Result<()> {
    kernel
        .invoke(
            directory,
            "Rename",
            Value::record([("from", Value::str(from)), ("to", Value::str(to))]),
        )
        .wait()
        .map(|_| ())
}
