//! Executor: parsed [`CommandSpec`] → typed [`PipelineSpec`] → wired
//! Ejects → results.
//!
//! This is the Eject the paper says a security-conscious user could write
//! for themselves (§5): "the security of this scheme thus depends on the
//! honesty of the Eject which performs the interconnections; in the last
//! resort, a user can always convince himself of this by writing such an
//! Eject himself." The executor is the only party that learns channel
//! capabilities; the filters it wires never see each other's.

use std::collections::BTreeMap;
use std::time::Duration;

use eden_core::op::ops;
use eden_core::{EdenError, Result, Uid, Value};
use eden_fs::{lookup, new_stream_arg, use_stream_sink, write_from_sink};
use eden_kernel::Kernel;
use eden_transput::source::VecSource;
use eden_transput::{
    ChannelPolicy, Discipline, FanInMode, InputPort, PipelineRun, PipelineSpec, SinkEject,
};

use crate::parse::{parse, CommandSpec, SinkSpec, SourceSpec};

/// The Ejects a shell session talks to.
#[derive(Clone, Debug)]
pub struct ShellEnv {
    kernel: Kernel,
    /// Directory for `file NAME` sources/sinks (any Eject answering
    /// `Lookup` — a plain directory or a concatenator).
    directory: Option<Uid>,
    /// UnixFs Eject for `unix PATH` sources/sinks.
    unixfs: Option<Uid>,
    /// Deadline for pipeline completion.
    deadline: Duration,
}

impl ShellEnv {
    /// An environment with no filing system attached (only `lines` and
    /// `seq` sources work).
    pub fn new(kernel: &Kernel) -> ShellEnv {
        ShellEnv {
            kernel: kernel.clone(),
            directory: None,
            unixfs: None,
            deadline: Duration::from_secs(30),
        }
    }

    /// Attach a directory for `file` sources and sinks.
    pub fn with_directory(mut self, directory: Uid) -> ShellEnv {
        self.directory = Some(directory);
        self
    }

    /// Attach a UnixFs Eject for `unix` sources and sinks.
    pub fn with_unixfs(mut self, unixfs: Uid) -> ShellEnv {
        self.unixfs = Some(unixfs);
        self
    }

    /// Override the completion deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> ShellEnv {
        self.deadline = deadline;
        self
    }

    /// Parse and execute a command line.
    pub fn run(&self, command: &str) -> Result<ShellRun> {
        self.execute(parse(command)?)
    }

    /// Execute a parsed pipeline.
    pub(crate) fn execute(&self, spec: CommandSpec) -> Result<ShellRun> {
        let discipline = self.discipline(&spec)?;
        let mut builder = PipelineSpec::new(discipline);
        if let Some(batch) = spec.directives.get("batch") {
            builder = builder.batch(parse_num(batch, "@batch")?);
        }
        match spec.directives.get("policy").map(String::as_str) {
            Some("cap") => builder = builder.policy(ChannelPolicy::Capability),
            Some("int") | None => {}
            Some(other) => {
                return Err(EdenError::BadParameter(format!(
                    "@policy must be int or cap, got `{other}`"
                )))
            }
        }
        if let Some(nodes) = spec.directives.get("nodes") {
            let n = u16::try_from(parse_num(nodes, "@nodes")?).map_err(|_| {
                let most = u16::MAX;
                EdenError::BadParameter(format!("@nodes: at most {most} nodes, got `{nodes}`"))
            })?;
            builder = builder.over_nodes(n);
        }
        // The sink is found before anything is opened or flows: a redirect
        // that cannot be resolved fails the command with nothing spawned.
        if let Some(sink) = &spec.sink {
            builder = builder.sink_eject(self.sink(sink)?);
        }
        builder = match &spec.source {
            SourceSpec::Lines(lines) => {
                builder.source(Box::new(VecSource::from_lines(lines.clone())))
            }
            SourceSpec::Seq(n) => builder.source_vec((0..*n).map(Value::Int).collect()),
            SourceSpec::File(name) => builder.source_eject(self.open_file(name)?),
            SourceSpec::Unix(path) => builder.source_eject(self.unix_stream(path)?),
            SourceSpec::Merge(names) => {
                builder.source_ejects_merged(self.open_ports(names)?, FanInMode::Concatenate)
            }
            SourceSpec::Zip(names) => {
                builder.source_ejects_merged(self.open_ports(names)?, FanInMode::Zip)
            }
            SourceSpec::Dir => {
                // §2/§4: a directory is a source. Prepare the listing,
                // then read the directory Eject itself.
                let directory = self.directory.ok_or_else(|| {
                    EdenError::BadParameter("no directory attached; `dir` unavailable".into())
                })?;
                self.kernel
                    .invoke(directory, ops::LIST, Value::Unit)
                    .wait()?;
                builder.source_eject(directory)
            }
        };
        let mut windows_wanted: Vec<(usize, String, String)> = Vec::new();
        for (idx, stage) in spec.stages.iter().enumerate() {
            let args: Vec<&str> = stage.args.iter().map(String::as_str).collect();
            builder = builder.stage(eden_filters::make_filter(&stage.name, &args)?);
            for tap in &stage.taps {
                builder = builder.tap(idx, &tap.channel);
                windows_wanted.push((idx, tap.channel.clone(), tap.window.clone()));
            }
        }
        let mut run = builder.build(&self.kernel)?.run(self.deadline)?;
        let mut windows = BTreeMap::new();
        for (idx, channel, window) in windows_wanted {
            let items = run.report(idx, &channel).unwrap_or(&[]).to_vec();
            windows.insert(window, items);
        }
        let output = std::mem::take(&mut run.output);
        Ok(ShellRun {
            output,
            windows,
            run,
        })
    }

    fn discipline(&self, spec: &CommandSpec) -> Result<Discipline> {
        let read_ahead = spec
            .directives
            .get("readahead")
            .map(|v| parse_num(v, "@readahead"))
            .transpose()?
            .unwrap_or(0);
        let push_ahead = spec
            .directives
            .get("pushahead")
            .map(|v| parse_num(v, "@pushahead"))
            .transpose()?
            .unwrap_or(0);
        let buffer_capacity = spec
            .directives
            .get("buffer")
            .map(|v| parse_num(v, "@buffer"))
            .transpose()?
            .unwrap_or(64);
        match spec
            .directives
            .get("discipline")
            .map(String::as_str)
            .unwrap_or("read-only")
        {
            "read-only" => Ok(Discipline::ReadOnly { read_ahead }),
            "write-only" => Ok(Discipline::WriteOnly { push_ahead }),
            "conventional" => Ok(Discipline::Conventional { buffer_capacity }),
            other => Err(EdenError::BadParameter(format!(
                "@discipline must be read-only, write-only or conventional, got `{other}`"
            ))),
        }
    }

    fn open_file(&self, name: &str) -> Result<Uid> {
        let directory = self.directory.ok_or_else(|| {
            EdenError::BadParameter("no directory attached; `file` sources unavailable".into())
        })?;
        let file = lookup(&self.kernel, directory, name)?;
        self.kernel
            .invoke(file, ops::OPEN, Value::Unit)
            .wait()?
            .as_uid()
    }

    fn open_ports(&self, names: &[String]) -> Result<Vec<InputPort>> {
        names
            .iter()
            .map(|name| self.open_file(name).map(InputPort::primary))
            .collect()
    }

    fn unix_stream(&self, path: &str) -> Result<Uid> {
        let unixfs = self.unixfs.ok_or_else(|| {
            EdenError::BadParameter("no UnixFs attached; `unix` sources unavailable".into())
        })?;
        self.kernel
            .invoke(unixfs, ops::NEW_STREAM, new_stream_arg(path))
            .wait()?
            .as_uid()
    }

    /// Dynamic output redirection (§4: "Redirection of input and output
    /// can be provided very naturally in a system where each entity is
    /// referred to by means of a unique identifier"): the pipeline ends in
    /// the file, by UID. The file pulls from the last filter, or — write-only
    /// — takes its writes.
    fn sink(&self, sink: &SinkSpec) -> Result<SinkEject> {
        match sink {
            SinkSpec::File(name) => {
                let directory = self.directory.ok_or_else(|| {
                    EdenError::BadParameter("no directory attached for `> file`".into())
                })?;
                Ok(write_from_sink(lookup(&self.kernel, directory, name)?))
            }
            SinkSpec::Unix(path) => {
                let unixfs = self.unixfs.ok_or_else(|| {
                    EdenError::BadParameter("no UnixFs attached for `> unix`".into())
                })?;
                Ok(use_stream_sink(unixfs, path))
            }
        }
    }
}

fn parse_num(s: &str, what: &str) -> Result<usize> {
    s.parse()
        .map_err(|_| EdenError::BadParameter(format!("{what}: bad number `{s}`")))
}

/// The results of one shell command.
#[derive(Debug, Clone)]
pub struct ShellRun {
    /// The primary output records — none if the command redirected them,
    /// as in Unix: they are in the file.
    pub output: Vec<Value>,
    /// Window contents, keyed by window name (channel taps).
    pub windows: BTreeMap<String, Vec<Value>>,
    /// Raw pipeline statistics. Its `output` is empty: the records were
    /// moved into [`ShellRun::output`], not kept twice.
    pub run: PipelineRun,
}

impl ShellRun {
    /// Render the primary output as text lines (strings print bare,
    /// structured records in their human form).
    pub fn output_lines(&self) -> Vec<String> {
        self.output.iter().map(Value::to_string).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_directive_refuses_what_a_node_id_cannot_hold() {
        let kernel = Kernel::new();
        let env = ShellEnv::new(&kernel);
        // Past `u16::MAX` a cast would wrap: 65,536 to one node, 70,000 to 4,464.
        for nodes in ["65536", "70000"] {
            match env.run(&format!("@nodes={nodes} seq 3")) {
                Err(EdenError::BadParameter(msg)) => assert!(msg.contains("@nodes"), "{msg}"),
                other => panic!("@nodes={nodes} was not refused: {other:?}"),
            }
        }
        let run = env.run("@nodes=65535 seq 3 | copy").unwrap();
        assert_eq!(run.output, (0..3).map(Value::Int).collect::<Vec<_>>());
        assert!(
            run.run.metrics.remote_invocations > 0,
            "spread over no nodes"
        );
        kernel.shutdown();
    }
}
