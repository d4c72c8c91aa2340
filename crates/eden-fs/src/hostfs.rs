//! The host filing system under the bootstrap Ejects of §7.
//!
//! The [`HostFs`] trait and its two implementations ([`MemFs`] in memory,
//! [`RealFs`] over `std::fs`) moved to `eden-core::hostfs` when the
//! durability plane made the kernel's stable store a second consumer of
//! the same I/O path; this module re-exports them so `eden_fs::hostfs`
//! callers keep working, and keeps the two helpers that stand between a
//! file's bytes and a stream of lines: [`file_text`] on the way in (the
//! lines are then [`Text::split_lines`] windows on it) and
//! [`lines_to_bytes`] on the way out.

pub use eden_core::hostfs::{HostFs, HostFsHandle, MemFs, RealFs};
use eden_core::Text;

/// A file's bytes as one text, validated once; bytes that are not UTF-8
/// read as `String::from_utf8_lossy` gives them.
pub fn file_text(bytes: Vec<u8>) -> Text {
    match String::from_utf8(bytes) {
        Ok(text) => Text::from(text),
        Err(e) => Text::from(&*String::from_utf8_lossy(e.as_bytes())),
    }
}

/// Join text lines back into file bytes (trailing newline included).
pub fn lines_to_bytes<S: AsRef<str>>(lines: &[S]) -> Vec<u8> {
    let mut out = Vec::new();
    for line in lines {
        out.extend_from_slice(line.as_ref().as_bytes());
        out.push(b'\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_helpers_roundtrip() {
        let lines = vec!["a", "b", "c"];
        let text = file_text(lines_to_bytes(&lines));
        assert_eq!(text.split_lines().collect::<Vec<_>>(), lines);
        assert_eq!(file_text(Vec::new()).split_lines().count(), 0);
        assert_eq!(file_text(vec![b'a', 0xff]), "a\u{fffd}");
    }

    #[test]
    fn reexported_memfs_still_constructs() {
        let fs = MemFs::new();
        fs.write("a", b"1").unwrap();
        assert_eq!(fs.read("a").unwrap(), b"1");
    }
}
