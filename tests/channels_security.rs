//! The §5 security story, end to end.
//!
//! "Because our channel identifiers are supplied to Ejects (i.e. user
//! code) rather than system code, there is a risk that a dishonest
//! programmer might read from someone else's channel. In other words, if E
//! is told to read from F's channel 1, nothing prevents it from reading
//! from F's channel 2 as well. One way of overcoming this problem is to
//! use UIDs as channel identifiers: because UIDs cannot be forged, the
//! only Ejects which are able to make valid ReadonChannel requests of F
//! are those to which a channel identifier has been given explicitly."

use std::time::Duration;

use eden::core::op::ops;
use eden::core::{EdenError, Uid, Value};
use eden::filters::SpellCheck;
use eden::kernel::Kernel;
use eden::transput::channels::ChannelPolicy;
use eden::transput::protocol::{
    Batch, ChannelId, GetChannelRequest, TransferRequest, OUTPUT_NAME, REPORT_NAME,
};
use eden::transput::source::VecSource;
use eden::transput::{Input, Output, Stage, StageConfig};

fn spawn_spellcheck_filter(kernel: &Kernel, policy: ChannelPolicy) -> Uid {
    let source = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::from_lines(["secret xyzzy word"]))),
            Output::Passive,
            StageConfig::default(),
        )))
        .unwrap();
    kernel
        .spawn(Box::new(Stage::filter(
            Input::pull(source),
            Box::new(SpellCheck::new(["secret", "word"])),
            Output::Passive,
            StageConfig {
                policy,
                ..Default::default()
            },
        )))
        .unwrap()
}

fn transfer(kernel: &Kernel, target: Uid, channel: ChannelId) -> eden::core::Result<Batch> {
    kernel
        .invoke(
            target,
            ops::TRANSFER,
            TransferRequest {
                channel,
                max: 8,
                pos: None,
            }
            .to_value(),
        )
        .wait()
        .and_then(Batch::from_value)
}

#[test]
fn integer_channels_are_guessable() {
    // The dishonest programmer: told only about channel 0, it reads
    // channel 1 (the report stream) too — and succeeds.
    let kernel = Kernel::new();
    let filter = spawn_spellcheck_filter(&kernel, ChannelPolicy::Integer);
    // Drain the primary (legitimate access drives the stream)...
    let primary = transfer(&kernel, filter, ChannelId::Number(0)).unwrap();
    assert!(!primary.is_empty());
    // ...then snoop the report channel with a guessed identifier.
    let snooped = transfer(&kernel, filter, ChannelId::Number(1)).unwrap();
    assert!(
        snooped
            .items
            .iter()
            .any(|v| v.as_str().unwrap().contains("xyzzy")),
        "integer channels offer no protection: {snooped:?}"
    );
    kernel.shutdown();
}

#[test]
fn capability_channels_refuse_guessed_identifiers() {
    let kernel = Kernel::new();
    let filter = spawn_spellcheck_filter(&kernel, ChannelPolicy::Capability);
    // Guessed integers fail...
    for n in 0..4 {
        let err = transfer(&kernel, filter, ChannelId::Number(n)).unwrap_err();
        assert!(
            matches!(err, EdenError::NoSuchChannel(_)),
            "guessed integer {n} must not resolve: {err}"
        );
    }
    // ...and so do forged UIDs.
    let err = transfer(&kernel, filter, ChannelId::Cap(Uid::fresh())).unwrap_err();
    assert!(matches!(err, EdenError::NotAuthorized(_)));
    kernel.shutdown();
}

#[test]
fn capability_channels_work_when_granted() {
    // The honest connection protocol: ask GetChannel, pass the UID on.
    let kernel = Kernel::new();
    let filter = spawn_spellcheck_filter(&kernel, ChannelPolicy::Capability);
    let output_cap = kernel
        .invoke(
            filter,
            ops::GET_CHANNEL,
            GetChannelRequest {
                name: OUTPUT_NAME.to_owned(),
            }
            .to_value(),
        )
        .wait()
        .unwrap();
    let output_id = ChannelId::try_from(&output_cap).unwrap();
    assert!(matches!(output_id, ChannelId::Cap(_)));
    let batch = transfer(&kernel, filter, output_id).unwrap();
    assert_eq!(batch.items.len(), 1);

    let report_cap = kernel
        .invoke(
            filter,
            ops::GET_CHANNEL,
            GetChannelRequest {
                name: REPORT_NAME.to_owned(),
            }
            .to_value(),
        )
        .wait()
        .unwrap();
    let report_id = ChannelId::try_from(&report_cap).unwrap();
    let report = transfer(&kernel, filter, report_id).unwrap();
    assert!(report.items[0].as_str().unwrap().contains("xyzzy"));
    kernel.shutdown();
}

#[test]
fn channel_capabilities_are_per_channel() {
    // Holding the Output capability grants nothing on Report.
    let kernel = Kernel::new();
    let filter = spawn_spellcheck_filter(&kernel, ChannelPolicy::Capability);
    let output_id = ChannelId::try_from(
        &kernel
            .invoke(
                filter,
                ops::GET_CHANNEL,
                GetChannelRequest {
                    name: OUTPUT_NAME.to_owned(),
                }
                .to_value(),
            )
            .wait()
            .unwrap(),
    )
    .unwrap();
    // The Output capability reads Output...
    transfer(&kernel, filter, output_id).unwrap();
    // ...but is not the Report capability — and there is no way to derive
    // one from the other.
    let report_id = ChannelId::try_from(
        &kernel
            .invoke(
                filter,
                ops::GET_CHANNEL,
                GetChannelRequest {
                    name: REPORT_NAME.to_owned(),
                }
                .to_value(),
            )
            .wait()
            .unwrap(),
    )
    .unwrap();
    assert_ne!(output_id, report_id);
    kernel.shutdown();
}

#[test]
fn get_channel_unknown_name_fails() {
    let kernel = Kernel::new();
    let filter = spawn_spellcheck_filter(&kernel, ChannelPolicy::Capability);
    let err = kernel
        .invoke(
            filter,
            ops::GET_CHANNEL,
            GetChannelRequest {
                name: "Backdoor".to_owned(),
            }
            .to_value(),
        )
        .wait()
        .unwrap_err();
    assert!(matches!(err, EdenError::NoSuchChannel(_)));
    kernel.shutdown();
}

#[test]
fn uid_of_invoker_is_not_visible_to_ejects() {
    // §5: "the effect of a particular invocation ought to depend only on
    // its parameters, and not on the identity of the invoker." Two
    // different callers making the same Transfer get consecutive slices
    // of the same stream — the source cannot tell them apart.
    let kernel = Kernel::new();
    let source = kernel
        .spawn(Box::new(Stage::new(
            Input::Local(Box::new(VecSource::new((0..4).map(Value::Int).collect()))),
            Output::Passive,
            StageConfig::default(),
        )))
        .unwrap();
    let a = transfer(&kernel, source, ChannelId::output()).map(|b| b.items);
    let kernel2 = kernel.clone();
    let b = std::thread::spawn(move || {
        transfer(&kernel2, source, ChannelId::output()).map(|b| b.items)
    })
    .join()
    .unwrap();
    let mut all = a.unwrap();
    all.extend(b.unwrap());
    all.sort_by_key(|v| v.as_int().unwrap());
    assert_eq!(all, (0..4).map(Value::Int).collect::<Vec<_>>());
    kernel.shutdown();
    let _ = Duration::from_secs(0);
}
