//! The Eden stream transput protocol.
//!
//! "The Eden transput package is nothing more than such a protocol designed
//! to support the abstraction of a Sequence, together with a collection of
//! library routines which help user Ejects to obey it" (§6). This module is
//! the protocol half: the invocation shapes for `Transfer` (active input /
//! passive output — the "read only" discipline) and `Write` (active output /
//! passive input — the "write only" discipline), and the channel identifiers
//! of §5 that restore fan-out to the read-only model.
//!
//! Streams carry [`Value`] records, not just bytes (§6: "Streams of
//! arbitrary records fit into the protocol just as well").
//!
//! A field name is a static ([`Text::from_static`]): spelling it allocates
//! nothing, and each encoder hands [`Value::record`] one array per shape,
//! which becomes the record, fields and counts, in one allocation. Decoding
//! a reply or argument nobody else holds allocates nothing: the items list
//! moves out of its record.

use eden_core::value::Text;
use eden_core::{EdenError, Result, Uid, Value};

/// The conventional number of the primary output channel.
pub const CHANNEL_OUTPUT: u32 = 0;
/// The conventional number of the report (monitoring) channel of §5.
pub const CHANNEL_REPORT: u32 = 1;

/// The name of the primary output channel in channel tables.
pub const OUTPUT_NAME: &str = "Output";
/// The name of the report channel in channel tables.
pub const REPORT_NAME: &str = "Report";

/// Identifies one output stream of a multi-output source (§5).
///
/// * [`ChannelId::Number`] — "integer channel identifiers as described in
///   Section 5" (§7, the configuration Eden actually ran). Guessable: any
///   Eject that knows the source's UID can read any numbered channel.
/// * [`ChannelId::Cap`] — "use UIDs as channel identifiers: because UIDs
///   cannot be forged, the only Ejects which are able to make valid
///   ReadonChannel requests of F are those to which a channel identifier
///   has been given explicitly" (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelId {
    /// A well-known small integer (0 = primary output, 1 = reports, ...).
    Number(u32),
    /// An unforgeable capability channel.
    Cap(Uid),
}

impl ChannelId {
    /// The primary output channel.
    pub fn output() -> ChannelId {
        ChannelId::Number(CHANNEL_OUTPUT)
    }

    /// The report channel.
    pub fn report() -> ChannelId {
        ChannelId::Number(CHANNEL_REPORT)
    }
}

/// Encode for transport inside an invocation argument.
impl From<ChannelId> for Value {
    fn from(id: ChannelId) -> Value {
        match id {
            ChannelId::Number(n) => Value::Int(i64::from(n)),
            ChannelId::Cap(uid) => Value::Uid(uid),
        }
    }
}

/// Decode from an invocation argument.
impl TryFrom<&Value> for ChannelId {
    type Error = EdenError;

    fn try_from(v: &Value) -> Result<ChannelId> {
        match v {
            Value::Int(n) if *n >= 0 && *n <= i64::from(u32::MAX) => {
                Ok(ChannelId::Number(*n as u32))
            }
            Value::Uid(uid) => Ok(ChannelId::Cap(*uid)),
            other => Err(EdenError::BadParameter(format!(
                "channel id must be a small integer or a UID, got {}",
                other.kind()
            ))),
        }
    }
}

impl Default for ChannelId {
    fn default() -> Self {
        ChannelId::output()
    }
}

/// A batch of stream records plus the end-of-stream status.
///
/// §7: the bootstrap system's `Transfer` replies with data "and eventually
/// with an indication that the end of the file had been reached". Carrying
/// `end` alongside the final records (rather than as a separate empty
/// reply) keeps the per-datum invocation counts exactly at the paper's
/// n+1 / 2n+2 figures.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Batch {
    /// The records, in stream order.
    pub items: Vec<Value>,
    /// True if no records will follow these.
    pub end: bool,
}

impl Batch {
    /// A batch carrying records, with more to come.
    pub fn more(items: Vec<Value>) -> Batch {
        Batch { items, end: false }
    }

    /// The final batch (possibly carrying the last records).
    pub fn last(items: Vec<Value>) -> Batch {
        Batch { items, end: true }
    }

    /// An empty end-of-stream batch.
    pub fn end() -> Batch {
        Batch {
            items: Vec::new(),
            end: true,
        }
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the batch carries no records.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Encode as a reply value. The items move behind one shared
    /// allocation; no record is copied.
    pub fn to_value(self) -> Value {
        Value::record([
            (Text::from_static("items"), Value::list(self.items)),
            (Text::from_static("end"), Value::Bool(self.end)),
        ])
    }

    /// Decode from a reply value. Consumes the reply: when the reply is
    /// the only reference (the common case) the items are moved out, not
    /// copied.
    pub fn from_value(v: Value) -> Result<Batch> {
        let end = v.field("end")?.as_bool()?;
        let items = match v.take_field("items") {
            Ok(Value::List(items)) => items.into_vec(),
            _ => return Err(EdenError::BadParameter("batch lacks `items` list".into())),
        };
        Ok(Batch { items, end })
    }
}

/// The argument of a `Transfer` invocation: "give me up to `max` records
/// from channel `channel`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRequest {
    /// Which output stream of the source to read (§5).
    pub channel: ChannelId,
    /// Upper bound on records returned; sources may return fewer.
    pub max: usize,
    /// Stream position of the first record wanted, counted from the start
    /// of the stream. `None` means "wherever you left off" (the classic
    /// stateful protocol). A position doubles as a cumulative
    /// acknowledgement: a source that sees `pos = n` knows records before
    /// `n` were delivered and may discard them, and a *recovered* source
    /// re-serves from `n` exactly — this is what makes a `Transfer` retry
    /// after a crash lose and duplicate nothing.
    pub pos: Option<u64>,
}

impl TransferRequest {
    /// A request on the primary channel.
    pub fn primary(max: usize) -> TransferRequest {
        TransferRequest {
            channel: ChannelId::output(),
            max,
            pos: None,
        }
    }

    /// The same request pinned to an absolute stream position.
    pub fn at(mut self, pos: u64) -> TransferRequest {
        self.pos = Some(pos);
        self
    }

    /// Encode as an invocation argument.
    pub fn to_value(self) -> Value {
        let channel = (Text::from_static("channel"), Value::from(self.channel));
        let max = (Text::from_static("max"), Value::Int(self.max as i64));
        match self.pos {
            Some(pos) => {
                let pos = (Text::from_static("pos"), Value::Int(pos as i64));
                Value::record([channel, max, pos])
            }
            None => Value::record([channel, max]),
        }
    }

    /// Decode from an invocation argument.
    pub fn from_value(v: &Value) -> Result<TransferRequest> {
        let channel = ChannelId::try_from(v.field("channel")?)?;
        let max = v.field("max")?.as_int()?;
        if max <= 0 {
            return Err(EdenError::BadParameter(format!(
                "Transfer max must be positive, got {max}"
            )));
        }
        let pos = v
            .field_opt("pos")
            .map(|p| position("Transfer pos", p))
            .transpose()?;
        Ok(TransferRequest {
            channel,
            max: max as usize,
            pos,
        })
    }
}

/// The argument of a `Write` invocation: "here are records for channel
/// `channel`" (write-only discipline, §5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRequest {
    /// Which input stream of the receiver these records belong to.
    pub channel: ChannelId,
    /// The records.
    pub items: Vec<Value>,
    /// True if this is the final write on the stream.
    pub end: bool,
    /// Stream position of the first record in `items`, counted from the
    /// start of the stream. `None` means "append" (the classic protocol).
    /// A sequenced receiver compares `seq` with how many records it has
    /// already accepted and skips the overlap, so a `Write` re-sent after
    /// a crash (whose predecessor may or may not have landed) duplicates
    /// nothing.
    pub seq: Option<u64>,
}

impl WriteRequest {
    /// A write on the primary channel with more to come.
    pub fn more(items: Vec<Value>) -> WriteRequest {
        WriteRequest {
            channel: ChannelId::output(),
            items,
            end: false,
            seq: None,
        }
    }

    /// The final write on the primary channel.
    pub fn last(items: Vec<Value>) -> WriteRequest {
        WriteRequest {
            channel: ChannelId::output(),
            items,
            end: true,
            seq: None,
        }
    }

    /// The same write pinned to an absolute stream position.
    pub fn at(mut self, seq: u64) -> WriteRequest {
        self.seq = Some(seq);
        self
    }

    /// Encode as an invocation argument. The items move behind one shared
    /// allocation; no record is copied.
    pub fn to_value(self) -> Value {
        WriteRequest::value_shared_at(self.channel, Value::list(self.items), self.end, self.seq)
    }

    /// Encode a `Write` argument around an already-shared items list
    /// (`items` must be a `Value::List`), its first item at stream position
    /// `seq` if one is given. This is the fan-out path: one batch allocation
    /// is built once and every consumer's argument holds a reference bump of
    /// it, not a copy.
    pub fn value_shared_at(channel: ChannelId, items: Value, end: bool, seq: Option<u64>) -> Value {
        debug_assert!(matches!(items, Value::List(_)));
        let channel = (Text::from_static("channel"), Value::from(channel));
        let items = (Text::from_static("items"), items);
        let end = (Text::from_static("end"), Value::Bool(end));
        match seq {
            Some(seq) => {
                let seq = (Text::from_static("seq"), Value::Int(seq as i64));
                Value::record([channel, items, end, seq])
            }
            None => Value::record([channel, items, end]),
        }
    }

    /// Decode from an invocation argument. Consumes the argument: the
    /// items are moved out when unaliased, spine-copied (reference bumps,
    /// no payload bytes) when the batch is shared with other consumers.
    pub fn from_value(v: Value) -> Result<WriteRequest> {
        let channel = ChannelId::try_from(v.field("channel")?)?;
        let end = v.field("end")?.as_bool()?;
        let seq = v
            .field_opt("seq")
            .map(|s| position("Write seq", s))
            .transpose()?;
        let items = match v.take_field("items") {
            Ok(Value::List(items)) => items.into_vec(),
            _ => return Err(EdenError::BadParameter("write lacks `items` list".into())),
        };
        Ok(WriteRequest {
            channel,
            items,
            end,
            seq,
        })
    }
}

/// A stream position: counted from the start, so never negative. A negative
/// one is refused rather than read as 0, which would acknowledge or re-serve
/// from the start of the stream without a word.
fn position(what: &str, v: &Value) -> Result<u64> {
    let pos = v.as_int()?;
    u64::try_from(pos)
        .map_err(|_| EdenError::BadParameter(format!("{what} must not be negative, got {pos}")))
}

/// The argument of a `GetChannel` invocation: ask a source for the channel
/// identifier of a named output stream. With capability channels this is
/// the *only* way to learn the identifier (§5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetChannelRequest {
    /// The documented name of the channel, e.g. `"Output"` or `"Report"`.
    pub name: String,
}

impl GetChannelRequest {
    /// Encode as an invocation argument.
    pub fn to_value(self) -> Value {
        Value::record([(Text::from_static("name"), Value::from(self.name))])
    }

    /// Decode from an invocation argument.
    pub fn from_value(v: &Value) -> Result<GetChannelRequest> {
        Ok(GetChannelRequest {
            name: v.field("name")?.as_str()?.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_id_roundtrip() {
        for id in [
            ChannelId::Number(0),
            ChannelId::Number(7),
            ChannelId::Cap(Uid::fresh()),
        ] {
            assert_eq!(ChannelId::try_from(&Value::from(id)).unwrap(), id);
        }
    }

    #[test]
    fn channel_id_rejects_garbage() {
        assert!(ChannelId::try_from(&Value::str("zero")).is_err());
        assert!(ChannelId::try_from(&Value::Int(-1)).is_err());
    }

    #[test]
    fn batch_roundtrip() {
        let b = Batch::more(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(Batch::from_value(b.clone().to_value()).unwrap(), b);
        let e = Batch::end();
        assert!(e.is_empty());
        assert_eq!(Batch::from_value(e.clone().to_value()).unwrap(), e);
    }

    #[test]
    fn batch_last_carries_items_and_end() {
        let b = Batch::last(vec![Value::Int(9)]);
        assert_eq!(b.len(), 1);
        assert!(b.end);
    }

    #[test]
    fn transfer_request_roundtrip() {
        let r = TransferRequest {
            channel: ChannelId::report(),
            max: 32,
            pos: None,
        };
        assert_eq!(TransferRequest::from_value(&r.to_value()).unwrap(), r);
    }

    #[test]
    fn transfer_request_rejects_nonpositive_max() {
        let bad = TransferRequest::primary(1).to_value();
        let mut fields = match bad {
            Value::Record(f) => f,
            _ => unreachable!(),
        };
        fields.to_mut()[1].1 = Value::Int(0);
        assert!(TransferRequest::from_value(&Value::Record(fields)).is_err());
    }

    /// `request` encoded, with its field `name` set to `value`.
    fn with_field(request: Value, name: &str, value: Value) -> Value {
        let Value::Record(mut fields) = request else {
            unreachable!("requests are records")
        };
        let slot = fields
            .to_mut()
            .iter_mut()
            .find(|(k, _)| k == name)
            .expect("field");
        slot.1 = value;
        Value::Record(fields)
    }

    #[test]
    fn transfer_request_refuses_a_negative_position() {
        let at = |pos| {
            with_field(
                TransferRequest::primary(4).at(0).to_value(),
                "pos",
                Value::Int(pos),
            )
        };
        assert!(matches!(
            TransferRequest::from_value(&at(-1)),
            Err(EdenError::BadParameter(_))
        ));
        assert!(TransferRequest::from_value(&at(i64::MIN)).is_err());
        assert_eq!(TransferRequest::from_value(&at(0)).unwrap().pos, Some(0));
    }

    #[test]
    fn write_request_refuses_a_negative_sequence() {
        let at = |seq| {
            with_field(
                WriteRequest::more(vec![Value::Int(1)]).at(0).to_value(),
                "seq",
                Value::Int(seq),
            )
        };
        assert!(matches!(
            WriteRequest::from_value(at(-1)),
            Err(EdenError::BadParameter(_))
        ));
        assert!(WriteRequest::from_value(at(i64::MIN)).is_err());
        assert_eq!(WriteRequest::from_value(at(7)).unwrap().seq, Some(7));
    }

    #[test]
    fn write_request_roundtrip() {
        let w = WriteRequest {
            channel: ChannelId::Cap(Uid::fresh()),
            items: vec![Value::str("a")],
            end: true,
            seq: None,
        };
        assert_eq!(WriteRequest::from_value(w.clone().to_value()).unwrap(), w);
    }

    #[test]
    fn positional_requests_roundtrip() {
        let t = TransferRequest::primary(8).at(1000);
        assert_eq!(TransferRequest::from_value(&t.to_value()).unwrap(), t);
        let w = WriteRequest::more(vec![Value::Int(1)]).at(42);
        assert_eq!(WriteRequest::from_value(w.clone().to_value()).unwrap(), w);
        // Requests without a position decode with `None`, so old-style
        // senders interoperate with sequenced receivers.
        assert_eq!(
            TransferRequest::from_value(&TransferRequest::primary(8).to_value())
                .unwrap()
                .pos,
            None
        );
    }

    #[test]
    fn get_channel_roundtrip() {
        let g = GetChannelRequest {
            name: REPORT_NAME.to_owned(),
        };
        assert_eq!(
            GetChannelRequest::from_value(&g.clone().to_value()).unwrap(),
            g
        );
    }

    #[test]
    fn default_channel_is_primary() {
        assert_eq!(ChannelId::default(), ChannelId::Number(CHANNEL_OUTPUT));
    }
}
