//! The dynamically-typed datum carried by invocations.
//!
//! §6 of the paper: "Nothing I have said about Eden transput constrains Eden
//! streams to be streams of bytes. Streams of arbitrary records fit into the
//! protocol just as well, provided only that they are homogeneous." The Eden
//! Programming Language lacked type parameterisation; in Rust we model the
//! untyped invocation payload with this enum and let higher layers impose
//! homogeneity where the protocol requires it.
//!
//! # The zero-copy payload plane
//!
//! Every payload-bearing variant is *shared, not copied*, on clone:
//!
//! * [`Value::Str`] holds a [`Text`] — an immutable UTF-8 window on a
//!   [`Bytes`] buffer, so cloning is a reference bump, `wire::decode_shared`
//!   can alias string payloads straight out of a checkpoint buffer, and the
//!   lines of a file ([`Text::split_lines`]) are windows on the file.
//! * [`Value::List`] and [`Value::Record`] hold their elements behind an
//!   `Arc` ([`SharedList`] / [`SharedRecord`]) with make-mut copy-on-write:
//!   a transform that edits a datum in place pays for a spine copy only
//!   when the datum is actually aliased (metered as a `cow_break`).
//!
//! Sharing is semantically invisible — equality, encoding, display and the
//! accessor API are unchanged — but turns the per-hop, per-consumer deep
//! copies of a stream pipeline into O(1) reference bumps. The
//! [`crate::payload`] counters meter both worlds; [`Value::deep_copy`]
//! reproduces the old copying behaviour for baseline comparisons.

use std::sync::Arc;

use bytes::Bytes;

use crate::error::{EdenError, Result};
use crate::payload;
use crate::uid::Uid;

/// An immutable, cheaply-clonable UTF-8 string backed by [`Bytes`].
///
/// Invariant: the underlying buffer is always valid UTF-8 — enforced at
/// every construction site, which is what makes the unchecked view in
/// [`Text::as_str`] sound.
#[derive(Clone)]
pub struct Text(Bytes);

impl Text {
    /// An empty text (no allocation).
    pub const fn new() -> Text {
        Text(Bytes::new())
    }

    /// A text that borrows `s` for the life of the program: no allocation,
    /// no copy. This is how a *name* — a protocol field, an operation — is
    /// spelled; `From<&str>` copies, for text that is borrowed.
    pub const fn from_static(s: &'static str) -> Text {
        Text(Bytes::from_static(s.as_bytes()))
    }

    /// View as a string slice.
    pub fn as_str(&self) -> &str {
        // SAFETY: every constructor validates (or starts from) UTF-8, and
        // the buffer is immutable thereafter.
        unsafe { std::str::from_utf8_unchecked(self.0.as_ref()) }
    }

    /// The shared byte buffer backing this text. Exposed so tests can
    /// assert that decoded texts alias their input buffer.
    pub fn as_shared_bytes(&self) -> &Bytes {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Build from a shared buffer, validating UTF-8. Zero-copy: the text
    /// aliases `bytes`.
    pub fn from_shared(bytes: Bytes) -> std::result::Result<Text, std::str::Utf8Error> {
        std::str::from_utf8(bytes.as_ref())?;
        Ok(Text(bytes))
    }

    /// The sub-text `range`, as a window on this text's buffer: O(1), no
    /// copy, and the window keeps the whole buffer alive. `None` when the
    /// range is out of bounds, inverted, or cuts a character — the check
    /// that keeps [`Text::as_str`]'s unchecked view sound.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Option<Text> {
        self.as_str().get(range.clone())?;
        Some(Text(self.0.slice(range)))
    }

    /// The lines of this text, split exactly as [`str::lines`] splits them
    /// (`\n` or `\r\n` ends a line, the last ending is optional), each a
    /// window on this text's buffer rather than a copy.
    pub fn split_lines(&self) -> impl Iterator<Item = Text> + '_ {
        let whole = self.as_str();
        whole.lines().map(move |line| {
            let start = line.as_ptr() as usize - whole.as_ptr() as usize;
            self.slice(start..start + line.len())
                .expect("`str::lines` yields sub-slices of the `str` it splits")
        })
    }

    /// Copy out into an owned `String`.
    pub fn to_string_owned(&self) -> String {
        self.as_str().to_owned()
    }

    /// True if both texts share the same underlying allocation *and* span.
    pub fn ptr_eq(&self, other: &Text) -> bool {
        let a = self.0.as_ref();
        let b = other.0.as_ref();
        std::ptr::eq(a.as_ptr(), b.as_ptr()) && a.len() == b.len()
    }
}

impl Default for Text {
    fn default() -> Self {
        Text::new()
    }
}

impl std::ops::Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Text {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::borrow::Borrow<str> for Text {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<String> for Text {
    fn from(s: String) -> Text {
        Text(Bytes::from(s))
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        Text(Bytes::from(s))
    }
}

impl From<&String> for Text {
    fn from(s: &String) -> Text {
        Text(Bytes::from(s.as_str()))
    }
}

impl From<Text> for String {
    fn from(t: Text) -> String {
        t.to_string_owned()
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Text {}

impl PartialEq<str> for Text {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Text {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Text {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Text> for str {
    fn eq(&self, other: &Text) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Text> for &str {
    fn eq(&self, other: &Text) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Text> for String {
    fn eq(&self, other: &Text) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Text) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for Text {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl std::fmt::Debug for Text {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for Text {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A reference-counted sequence of values with make-mut copy-on-write.
#[derive(Clone, Debug)]
pub struct SharedList(Arc<Vec<Value>>);

impl SharedList {
    /// Wrap an owned vector (one allocation; never copies the elements).
    pub fn new(items: Vec<Value>) -> SharedList {
        SharedList(Arc::new(items))
    }

    /// Mutable access to the elements. If the list is aliased this breaks
    /// the sharing by copying the spine (the elements themselves are
    /// cheap-cloned, not deep-copied); the break is metered as a
    /// `cow_break`.
    pub fn to_mut(&mut self) -> &mut Vec<Value> {
        if Arc::strong_count(&self.0) > 1 {
            payload::note_cow_break();
        }
        Arc::make_mut(&mut self.0)
    }

    /// Consume into an owned vector. Free when this is the only reference;
    /// otherwise the spine is copied (elements are cheap-cloned).
    pub fn into_vec(self) -> Vec<Value> {
        match Arc::try_unwrap(self.0) {
            Ok(v) => v,
            Err(shared) => (*shared).clone(),
        }
    }

    /// True if both lists share the same allocation.
    pub fn ptr_eq(&self, other: &SharedList) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// True if any other reference to this allocation exists.
    pub fn is_aliased(&self) -> bool {
        Arc::strong_count(&self.0) > 1
    }
}

impl std::ops::Deref for SharedList {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        &self.0
    }
}

impl From<Vec<Value>> for SharedList {
    fn from(v: Vec<Value>) -> SharedList {
        SharedList::new(v)
    }
}

impl FromIterator<Value> for SharedList {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> SharedList {
        SharedList::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a SharedList {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl PartialEq for SharedList {
    fn eq(&self, other: &SharedList) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl Eq for SharedList {}

/// A reference-counted record (named fields, in insertion order) with
/// make-mut copy-on-write.
#[derive(Clone, Debug)]
pub struct SharedRecord(Arc<Vec<(Text, Value)>>);

impl SharedRecord {
    /// Wrap owned fields (one allocation; never copies the values).
    pub fn new(fields: Vec<(Text, Value)>) -> SharedRecord {
        SharedRecord(Arc::new(fields))
    }

    /// Mutable access to the fields; breaks sharing like
    /// [`SharedList::to_mut`].
    pub fn to_mut(&mut self) -> &mut Vec<(Text, Value)> {
        if Arc::strong_count(&self.0) > 1 {
            payload::note_cow_break();
        }
        Arc::make_mut(&mut self.0)
    }

    /// Consume into owned fields. Free when unique; spine-copied when
    /// aliased.
    pub fn into_fields(self) -> Vec<(Text, Value)> {
        match Arc::try_unwrap(self.0) {
            Ok(v) => v,
            Err(shared) => (*shared).clone(),
        }
    }

    /// True if both records share the same allocation.
    pub fn ptr_eq(&self, other: &SharedRecord) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// True if any other reference to this allocation exists.
    pub fn is_aliased(&self) -> bool {
        Arc::strong_count(&self.0) > 1
    }
}

impl std::ops::Deref for SharedRecord {
    type Target = [(Text, Value)];
    fn deref(&self) -> &[(Text, Value)] {
        &self.0
    }
}

impl From<Vec<(Text, Value)>> for SharedRecord {
    fn from(v: Vec<(Text, Value)>) -> SharedRecord {
        SharedRecord::new(v)
    }
}

impl From<Vec<(String, Value)>> for SharedRecord {
    fn from(v: Vec<(String, Value)>) -> SharedRecord {
        SharedRecord::new(v.into_iter().map(|(k, val)| (Text::from(k), val)).collect())
    }
}

impl FromIterator<(Text, Value)> for SharedRecord {
    fn from_iter<I: IntoIterator<Item = (Text, Value)>>(iter: I) -> SharedRecord {
        SharedRecord::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a SharedRecord {
    type Item = &'a (Text, Value);
    type IntoIter = std::slice::Iter<'a, (Text, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl PartialEq for SharedRecord {
    fn eq(&self, other: &SharedRecord) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl Eq for SharedRecord {}

/// A self-describing datum: invocation parameter, reply, or stream record.
#[derive(Debug, PartialEq, Eq)]
pub enum Value {
    /// The absence of a datum (a bare acknowledgement).
    Unit,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A text string. Stream protocols that carry lines use this variant.
    Str(Text),
    /// An opaque byte string. Byte-stream transput uses this variant.
    Bytes(Bytes),
    /// A UID — how capabilities travel inside invocations.
    Uid(Uid),
    /// A heterogeneous sequence.
    List(SharedList),
    /// A record of named fields, in insertion order.
    Record(SharedRecord),
}

impl Clone for Value {
    /// Cloning a payload-bearing value is a reference bump, metered as a
    /// `payload_share` — before the zero-copy plane it was a deep copy.
    fn clone(&self) -> Value {
        match self {
            Value::Unit => Value::Unit,
            Value::Bool(b) => Value::Bool(*b),
            Value::Int(i) => Value::Int(*i),
            Value::Uid(u) => Value::Uid(*u),
            Value::Str(s) => {
                payload::note_share();
                Value::Str(s.clone())
            }
            Value::Bytes(b) => {
                payload::note_share();
                Value::Bytes(b.clone())
            }
            Value::List(items) => {
                payload::note_share();
                Value::List(items.clone())
            }
            Value::Record(fields) => {
                payload::note_share();
                Value::Record(fields.clone())
            }
        }
    }
}

impl Value {
    /// Build a record from field pairs.
    pub fn record<K, I>(fields: I) -> Value
    where
        K: Into<Text>,
        I: IntoIterator<Item = (K, Value)>,
    {
        Value::Record(SharedRecord::new(
            fields
                .into_iter()
                .map(|(k, v)| (k.into(), v))
                .collect(),
        ))
    }

    /// Build a list value (one allocation; elements are moved, not copied).
    pub fn list(items: impl Into<SharedList>) -> Value {
        Value::List(items.into())
    }

    /// Build a string value.
    pub fn str(s: impl Into<Text>) -> Value {
        Value::Str(s.into())
    }

    /// Build a bytes value from anything `Bytes` can be built from.
    pub fn bytes(b: impl Into<Bytes>) -> Value {
        Value::Bytes(b.into())
    }

    /// Look up a record field by name.
    pub fn field(&self, name: &str) -> Result<&Value> {
        match self {
            Value::Record(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| EdenError::BadParameter(format!("missing field `{name}`"))),
            other => Err(EdenError::BadParameter(format!(
                "expected record with field `{name}`, got {}",
                other.kind()
            ))),
        }
    }

    /// Look up an optional record field by name.
    pub fn field_opt(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Record(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Consume the record, extracting one field by name. Avoids cloning
    /// the field's payload when this value is the only reference.
    pub fn take_field(self, name: &str) -> Result<Value> {
        match self {
            Value::Record(fields) => {
                let mut fields = fields.into_fields();
                match fields.iter().position(|(k, _)| k == name) {
                    Some(i) => Ok(fields.swap_remove(i).1),
                    None => Err(EdenError::BadParameter(format!("missing field `{name}`"))),
                }
            }
            other => Err(EdenError::BadParameter(format!(
                "expected record with field `{name}`, got {}",
                other.kind()
            ))),
        }
    }

    /// Interpret as an integer.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(other.type_error("int")),
        }
    }

    /// Interpret as a boolean.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(other.type_error("bool")),
        }
    }

    /// Interpret as a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s.as_str()),
            other => Err(other.type_error("str")),
        }
    }

    /// Interpret as a shared text.
    pub fn as_text(&self) -> Result<&Text> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(other.type_error("str")),
        }
    }

    /// Interpret as a byte string.
    pub fn as_bytes(&self) -> Result<&Bytes> {
        match self {
            Value::Bytes(b) => Ok(b),
            other => Err(other.type_error("bytes")),
        }
    }

    /// Interpret as a UID.
    pub fn as_uid(&self) -> Result<Uid> {
        match self {
            Value::Uid(u) => Ok(*u),
            other => Err(other.type_error("uid")),
        }
    }

    /// Interpret as a list.
    pub fn as_list(&self) -> Result<&[Value]> {
        match self {
            Value::List(items) => Ok(items),
            other => Err(other.type_error("list")),
        }
    }

    /// Consume as a list. Free when this is the only reference to the
    /// list; a spine copy (cheap element clones) when aliased.
    pub fn into_list(self) -> Result<Vec<Value>> {
        match self {
            Value::List(items) => Ok(items.into_vec()),
            other => Err(other.type_error("list")),
        }
    }

    /// Consume as a string.
    pub fn into_str(self) -> Result<Text> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(other.type_error("str")),
        }
    }

    /// The name of this value's variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Str(_) => "str",
            Value::Bytes(_) => "bytes",
            Value::Uid(_) => "uid",
            Value::List(_) => "list",
            Value::Record(_) => "record",
        }
    }

    /// The payload size in bytes, used by the metrics layer to account for
    /// data volume moved by invocations. Exact for nested lists and
    /// records: each container contributes its elements plus a fixed
    /// 4-byte framing term, each field its name plus its value.
    pub fn size_hint(&self) -> usize {
        match self {
            Value::Unit => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            Value::Uid(_) => 16,
            Value::List(items) => items.iter().map(Value::size_hint).sum::<usize>() + 4,
            Value::Record(fields) => fields
                .iter()
                .map(|(k, v)| k.len() + v.size_hint())
                .sum::<usize>()
                .saturating_add(4),
        }
    }

    /// The exact number of bytes [`crate::wire::encode`] will produce for
    /// this value. Used to size encode buffers so the checkpoint path
    /// never reallocates mid-encode.
    pub fn encoded_len(&self) -> usize {
        crate::wire::encoded_len(self)
    }

    /// Physically duplicate this value: every payload byte is copied into
    /// fresh allocations and metered via [`crate::payload::note_copy`].
    ///
    /// Sharing makes `clone` O(1), so nothing in the system needs this for
    /// correctness; it exists to reproduce the pre-zero-copy cost model in
    /// benchmarks and tests.
    pub fn deep_copy(&self) -> Value {
        match self {
            Value::Unit => Value::Unit,
            Value::Bool(b) => Value::Bool(*b),
            Value::Int(i) => Value::Int(*i),
            Value::Uid(u) => Value::Uid(*u),
            Value::Str(s) => {
                payload::note_copy(s.len());
                Value::Str(Text::from(s.as_str()))
            }
            Value::Bytes(b) => {
                payload::note_copy(b.len());
                Value::Bytes(Bytes::copy_from_slice(b))
            }
            Value::List(items) => Value::List(SharedList::new(
                items.iter().map(Value::deep_copy).collect(),
            )),
            Value::Record(fields) => Value::Record(SharedRecord::new(
                fields
                    .iter()
                    .map(|(k, v)| {
                        payload::note_copy(k.len());
                        (Text::from(k.as_str()), v.deep_copy())
                    })
                    .collect(),
            )),
        }
    }

    fn type_error(&self, wanted: &str) -> EdenError {
        EdenError::BadParameter(format!("expected {wanted}, got {}", self.kind()))
    }
}

impl std::fmt::Display for Value {
    /// Human-oriented rendering: top-level strings print bare (stream
    /// lines look like lines); nested strings are quoted; records render
    /// as `{k: v, ...}` and lists as `[a, b]`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            other => fmt_nested(other, f),
        }
    }
}

fn fmt_nested(v: &Value, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
    match v {
        Value::Unit => f.write_str("()"),
        Value::Bool(b) => write!(f, "{b}"),
        Value::Int(i) => write!(f, "{i}"),
        Value::Str(s) => write!(f, "{:?}", s.as_str()),
        Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
        Value::Uid(u) => write!(f, "{u}"),
        Value::List(items) => {
            f.write_str("[")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt_nested(item, f)?;
            }
            f.write_str("]")
        }
        Value::Record(fields) => {
            f.write_str("{")?;
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{k}: ")?;
                fmt_nested(val, f)?;
            }
            f.write_str("}")
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(Text::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Text::from(s))
    }
}

impl From<Text> for Value {
    fn from(t: Text) -> Self {
        Value::Str(t)
    }
}

impl From<Uid> for Value {
    fn from(u: Uid) -> Self {
        Value::Uid(u)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(SharedList::new(v))
    }
}

impl From<()> for Value {
    fn from(_: ()) -> Self {
        Value::Unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_field_lookup() {
        let v = Value::record([("status", Value::from("more")), ("count", Value::from(3))]);
        assert_eq!(v.field("status").unwrap().as_str().unwrap(), "more");
        assert_eq!(v.field("count").unwrap().as_int().unwrap(), 3);
        assert!(v.field("missing").is_err());
        assert!(v.field_opt("missing").is_none());
    }

    #[test]
    fn a_static_name_is_the_name_and_a_datum_is_no_bigger_for_it() {
        let name = Text::from_static("channel");
        assert_eq!(name, Text::from("channel"));
        assert!(name.ptr_eq(&name.clone()) && !name.ptr_eq(&Text::from("channel")));
        let v = Value::record([(name, Value::from(0))]);
        assert_eq!(v, Value::record([("channel", Value::from(0))]));
        assert_eq!(v.field("channel").unwrap().as_int().unwrap(), 0);
        // A record on its way through `pipe-bulk` is 50 000 of these.
        assert_eq!(std::mem::size_of::<Bytes>(), 24);
        assert_eq!(std::mem::size_of::<Text>(), 24);
        assert_eq!(std::mem::size_of::<Value>(), 32);
    }

    #[test]
    fn take_field_extracts_without_lookup_clone() {
        let v = Value::record([("a", Value::from(1)), ("b", Value::str("x"))]);
        assert_eq!(v.clone().take_field("b").unwrap().as_str().unwrap(), "x");
        assert!(v.clone().take_field("zzz").is_err());
        assert!(Value::Int(1).take_field("a").is_err());
    }

    #[test]
    fn field_on_non_record_is_error() {
        let err = Value::Int(1).field("x").unwrap_err();
        assert!(matches!(err, EdenError::BadParameter(_)));
    }

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::from(7).as_int().unwrap(), 7);
        assert!(Value::from(7).as_str().is_err());
        assert!(Value::from("x").as_int().is_err());
        assert!(Value::from(true).as_bool().unwrap());
        let u = Uid::fresh();
        assert_eq!(Value::from(u).as_uid().unwrap(), u);
    }

    #[test]
    fn list_accessors() {
        let v = Value::list(vec![Value::from(1), Value::from(2)]);
        assert_eq!(v.as_list().unwrap().len(), 2);
        assert_eq!(v.into_list().unwrap().len(), 2);
        assert!(Value::Unit.into_list().is_err());
    }

    #[test]
    fn size_hint_reflects_payload() {
        assert_eq!(Value::str("hello").size_hint(), 5);
        assert_eq!(Value::bytes(vec![0u8; 100]).size_hint(), 100);
        let list = Value::list(vec![Value::str("ab"), Value::str("cd")]);
        assert_eq!(list.size_hint(), 2 + 2 + 4);
    }

    #[test]
    fn kind_names() {
        assert_eq!(Value::Unit.kind(), "unit");
        assert_eq!(
            Value::record(Vec::<(&str, Value)>::new()).kind(),
            "record"
        );
    }

    #[test]
    fn display_renders_human_readably() {
        assert_eq!(Value::str("a line").to_string(), "a line");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(
            Value::list(vec![Value::str("q"), Value::Int(2)]).to_string(),
            "[\"q\", 2]"
        );
        assert_eq!(
            Value::record([("n", Value::Int(1)), ("s", Value::str("x"))]).to_string(),
            "{n: 1, s: \"x\"}"
        );
        assert_eq!(Value::bytes(vec![0u8; 3]).to_string(), "<3 bytes>");
    }

    #[test]
    fn record_cow_break_preserves_alias() {
        let v = Value::record([("k", Value::Int(1))]);
        let mut edited = v.clone();
        if let Value::Record(fields) = &mut edited {
            fields.to_mut()[0].1 = Value::Int(99);
        }
        assert_eq!(v.field("k").unwrap().as_int().unwrap(), 1);
        assert_eq!(edited.field("k").unwrap().as_int().unwrap(), 99);
    }

    #[test]
    fn text_equality_and_order() {
        let t = Text::from("abc");
        assert_eq!(t, "abc");
        assert_eq!(t, "abc".to_owned());
        let u = Text::from("abd");
        assert!(t < u);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!(Text::new().is_empty());
        assert_eq!(format!("{t}"), "abc");
        assert_eq!(format!("{t:?}"), "\"abc\"");
    }

    #[test]
    fn text_from_shared_validates_utf8() {
        assert!(Text::from_shared(Bytes::from(&b"ok"[..])).is_ok());
        assert!(Text::from_shared(Bytes::from(&[0xffu8, 0xfe][..])).is_err());
    }

    #[test]
    fn split_lines_splits_as_str_lines_does_and_copies_nothing() {
        for whole in [
            "",
            "\n",
            "one",
            "one\n",
            "one\ntwo",
            "one\r\ntwo\r\n",
            "lone\rcr\nend\r",
            "\n\nblank\n\n\nlines\n",
            "\r\n\r\r\n",
            "grüß\nΟΔΟΣ\r\n日本語\n🦀",
        ] {
            let text = Text::from(whole);
            let windows: Vec<Text> = text.split_lines().collect();
            let want: Vec<&str> = whole.lines().collect();
            assert_eq!(windows, want, "{whole:?}");
            let buffer = text.as_shared_bytes().as_ptr_range();
            for window in &windows {
                let bytes = window.as_shared_bytes().as_ptr_range();
                assert!(buffer.start <= bytes.start && bytes.end <= buffer.end, "{whole:?}");
            }
        }
    }

    #[test]
    fn a_window_outlives_its_text_and_its_siblings() {
        let text = Text::from("first\nsecond\nthird\n");
        let mut windows: Vec<Text> = text.split_lines().collect();
        drop(text);
        let second = windows.swap_remove(1);
        drop(windows);
        assert_eq!(second, "second");
    }

    #[test]
    fn slice_is_a_window_and_refuses_to_cut_a_character() {
        let text = Text::from("aß日c");
        let window = text.slice(1..6).expect("ß日 sits on char boundaries");
        assert_eq!(window, "ß日");
        assert!(std::ptr::eq(window.as_ptr(), text[1..].as_ptr()));
        assert_eq!(window.slice(0..2).expect("a window slices again"), "ß");
        assert_eq!(text.slice(3..3).expect("empty, on a boundary"), "");
        assert_eq!(text.slice(0..text.len()).expect("the whole"), text);
        // Inside `ß` (1..3), inside `日` (3..6), past the end, inverted.
        for (start, end) in [(2, 3), (1, 4), (0, 8), (3, 1)] {
            assert!(text.slice(start..end).is_none(), "{start}..{end}");
        }
    }
}
