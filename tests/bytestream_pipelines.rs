//! Byte-stream pipelines end to end (§6): Unix-style byte chunks bridged
//! to record filters and back, in every discipline.

use std::time::Duration;

use eden::core::Value;
use eden::filters::{Grep, LineNumber};
use eden::kernel::Kernel;
use eden::transput::bytestream::{concat_bytes, BytesSource, LineJoiner, LineSplitter, Rechunker};
use eden::transput::{Discipline, PipelineSpec};
use proptest::prelude::*;

fn document() -> Vec<u8> {
    let mut text = String::new();
    for i in 0..200 {
        if i % 4 == 0 {
            text.push_str(&format!("ERROR at step {i}\n"));
        } else {
            text.push_str(&format!("ok step {i}\n"));
        }
    }
    text.into_bytes()
}

#[test]
fn byte_grep_pipeline_all_disciplines() {
    // The Unix classic: bytes in, grep'd and numbered text out — except
    // the filters never pump in the asymmetric disciplines.
    let kernel = Kernel::new();
    let mut outputs = Vec::new();
    for discipline in [
        Discipline::ReadOnly { read_ahead: 8 },
        Discipline::WriteOnly { push_ahead: 8 },
        Discipline::Conventional {
            buffer_capacity: 16,
        },
    ] {
        let run = PipelineSpec::new(discipline)
            .source(Box::new(BytesSource::new(document(), 113))) // Awkward chunk size on purpose.
            .stage(Box::new(LineSplitter::new()))
            .stage(Box::new(Grep::matching("ERROR")))
            .stage(Box::new(LineNumber::new()))
            .stage(Box::new(LineJoiner::new()))
            .batch(8)
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(30))
            .unwrap();
        let bytes = concat_bytes(run.output.iter());
        let text = String::from_utf8(bytes.to_vec()).unwrap();
        assert_eq!(text.lines().count(), 50, "{}", discipline.label());
        assert!(text.lines().next().unwrap().contains("ERROR at step 0"));
        outputs.push(text);
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
    kernel.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn split_join_identity_over_chunked_bytes(
        lines in proptest::collection::vec("[a-zA-Z0-9 ]{0,25}", 0..30),
        chunk in 1usize..64,
        batch in 1usize..8,
    ) {
        // For any newline-terminated text and any chunking, splitting then
        // re-joining through a real pipeline is the identity.
        let mut text = String::new();
        for line in &lines {
            text.push_str(line);
            text.push('\n');
        }
        let original = text.into_bytes();
        let kernel = Kernel::new();
        let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source(Box::new(BytesSource::new(original.clone(), chunk)))
            .stage(Box::new(LineSplitter::new()))
            .stage(Box::new(LineJoiner::new()))
            .batch(batch)
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(30))
            .unwrap();
        let rebuilt = concat_bytes(run.output.iter());
        prop_assert_eq!(rebuilt.as_ref(), original.as_slice());
        kernel.shutdown();
    }

    #[test]
    fn rechunk_preserves_bytes(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        in_chunk in 1usize..48,
        out_chunk in 1usize..48,
    ) {
        let kernel = Kernel::new();
        let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
            .source(Box::new(BytesSource::new(payload.clone(), in_chunk)))
            .stage(Box::new(Rechunker::new(out_chunk)))
            .build(&kernel)
            .unwrap()
            .run(Duration::from_secs(30))
            .unwrap();
        let rebuilt = concat_bytes(run.output.iter());
        prop_assert_eq!(rebuilt.as_ref(), payload.as_slice());
        // All chunks except the last are exactly out_chunk bytes.
        for v in run.output.iter().rev().skip(1) {
            prop_assert_eq!(v.as_bytes().expect("bytes").len(), out_chunk);
        }
        kernel.shutdown();
    }
}

#[test]
fn bytes_and_records_mix_in_one_stream() {
    // §6: homogeneity is a protocol convention, not an enforcement; a
    // stray record passes through the byte stages untouched.
    let kernel = Kernel::new();
    let run = PipelineSpec::new(Discipline::ReadOnly { read_ahead: 0 })
        .source_vec(vec![
            Value::bytes(&b"one\n"[..]),
            Value::Int(42),
            Value::bytes(&b"two\n"[..]),
        ])
        .stage(Box::new(LineSplitter::new()))
        .build(&kernel)
        .unwrap()
        .run(Duration::from_secs(10))
        .unwrap();
    assert_eq!(
        run.output,
        vec![Value::str("one"), Value::Int(42), Value::str("two")]
    );
    kernel.shutdown();
}
