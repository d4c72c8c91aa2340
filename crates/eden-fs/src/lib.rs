//! The Eden filing system of §2 and §7: files, directories and the
//! bootstrap Unix-file-system Ejects — all active entities speaking the
//! stream protocol, not passive data structures.
//!
//! * [`FileEject`] — a checkpointable sequence of records; `Open` mints a
//!   disposable reader stream ([`eden_transput::Stage::reader`]),
//!   `WriteFrom` pulls new contents from any source Eject and commits them
//!   by checkpointing.
//! * [`DirectoryEject`] — `Lookup` / `AddEntry` / `DeleteEntry` / `List`;
//!   the listing is a source stage the directory answers `Transfer` by, so
//!   a directory *is* a source (§4).
//! * [`DirConcatenatorEject`] — PATH-style lookup across directories,
//!   indistinguishable from a plain directory (behavioural typing, §2).
//! * [`UnixFsEject`] — §7's bootstrap: `NewStream` (whose lines are windows
//!   on the file's one buffer) and `UseStream` over a pluggable [`HostFs`]
//!   (hermetic [`MemFs`], or [`RealFs`] on disk).
//!
//! Because files and filters are both just Ejects answering `Transfer`,
//! "there is no distinction between input redirection from a file and from
//! a program" (§4) — the integration tests pipe files through filters and
//! filters into files with the same builder calls.


pub mod directory;
pub mod file;
pub mod hostfs;
pub mod mapfile;
pub mod unixfs;

pub use directory::{DirConcatenatorEject, DirectoryEject, DIRECTORY_TYPE};
pub use file::{FileEject, WriteMode, FILE_TYPE};
pub use hostfs::{HostFs, HostFsHandle, MemFs, RealFs};
pub use mapfile::{read_at_arg, write_at_arg, MapFileEject, MAP_FILE_TYPE};
pub use unixfs::{new_stream_arg, use_stream_arg, UnixFsEject};

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
        ).wait()?
        .as_uid()
}

/// Convenience: add a `(name, uid)` entry to a directory Eject.
pub fn add_entry(kernel: &Kernel, directory: Uid, name: &str, uid: Uid) -> Result<()> {
    kernel
        .invoke(
            directory,
            eden_core::op::ops::ADD_ENTRY,
            Value::record([("name", Value::str(name)), ("uid", Value::Uid(uid))]),
        ).wait()
        .map(|_| ())
}

/// Rename an entry within one directory (atomic — single-Eject dispatch).
pub fn rename_entry(kernel: &Kernel, directory: Uid, from: &str, to: &str) -> Result<()> {
    kernel
        .invoke(
            directory,
            "Rename",
            Value::record([("from", Value::str(from)), ("to", Value::str(to))]),
        ).wait()
        .map(|_| ())
}

/// Move an entry from one directory Eject to another.
///
/// This is the §7 "atomic updates" subset across *two* Ejects, done the
/// only way two independent Ejects allow without a transaction protocol:
/// optimistically, with compensation. The entry is inserted at the
/// destination first, then removed from the source; a failure at the
/// second step compensates by removing the fresh destination entry. The
/// non-atomic window is therefore *duplication* (visible in both),
/// never *loss* — the safe side for a filing system.
pub fn move_entry(
    kernel: &Kernel,
    from_dir: Uid,
    name: &str,
    to_dir: Uid,
    new_name: &str,
) -> Result<()> {
    if from_dir == to_dir {
        return rename_entry(kernel, from_dir, name, new_name);
    }
    let uid = lookup(kernel, from_dir, name)?;
    add_entry(kernel, to_dir, new_name, uid)?;
    let removed = kernel.invoke(
        from_dir,
        eden_core::op::ops::DELETE_ENTRY,
        Value::record([("name", Value::str(name))]),
    ).wait();
    match removed {
        Ok(_) => Ok(()),
        Err(e) => {
            // Compensate: undo the destination insert so the move either
            // happened or it did not.
            let _ = kernel.invoke(
                to_dir,
                eden_core::op::ops::DELETE_ENTRY,
                Value::record([("name", Value::str(new_name))]),
            ).wait();
            Err(e)
        }
    }
}
