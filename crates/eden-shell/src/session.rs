//! An interactive shell session: a home directory, a host filing system,
//! and built-in commands on top of the pipeline language.
//!
//! Built-ins:
//!
//! * `mkfile NAME [LINE...]` — create a file Eject and enter it in the
//!   home directory
//! * `ls` — stream the home directory's listing
//! * `cat NAME` — stream a file's contents
//! * `rm NAME` — remove the directory entry (the file Eject survives
//!   until it deactivates; UIDs, not names, own Ejects)
//! * `checkpoint NAME` / `crash NAME` — durability controls
//! * `stats` — kernel metrics snapshot
//! * `trace` — the kernel's recent invocations, activations and stops
//! * `help`
//!
//! Anything else is parsed as a pipeline (see the crate docs).

use eden_core::op::ops;
use eden_core::{EdenError, Result, Uid, Value};
use eden_fs::{
    add_entry, lookup, register_fs_types, DirectoryEject, FileEject, MemFs, UnixFsEject,
};
use eden_kernel::Kernel;

use crate::exec::ShellEnv;

/// One interactive session over a kernel.
#[derive(Debug)]
pub struct Session {
    kernel: Kernel,
    home: Uid,
    env: ShellEnv,
}

impl Session {
    /// A fresh session: home directory + hermetic UnixFs, fs types
    /// registered.
    pub fn new(kernel: &Kernel) -> Result<Session> {
        register_fs_types(kernel);
        let home = kernel.spawn(Box::new(DirectoryEject::new()))?;
        let unixfs = kernel.spawn(Box::new(UnixFsEject::new(MemFs::new())))?;
        let env = ShellEnv::new(kernel)
            .with_directory(home)
            .with_unixfs(unixfs);
        Ok(Session {
            kernel: kernel.clone(),
            home,
            env,
        })
    }

    /// Execute one command line; returns the printable output lines.
    pub fn execute(&self, line: &str) -> Result<Vec<String>> {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(Vec::new());
        }
        // Built-ins get the same quoting rules as pipelines:
        // `mkfile notes 'alpha line'` is one two-word line, not two lines.
        const BUILTINS: [&str; 12] = [
            "mkfile",
            "ls",
            "cat",
            "rm",
            "checkpoint",
            "crash",
            "stats",
            "trace",
            "top",
            "ejects",
            "mv",
            "help",
        ];
        let tokens = crate::token::tokenize(trimmed)?;
        let is_builtin = matches!(
            tokens.first(),
            Some(crate::token::Token::Word(w)) if BUILTINS.contains(&w.as_str())
        );
        if !is_builtin {
            return self.run_pipeline(trimmed);
        }
        let all_words: Vec<String> = tokens
            .into_iter()
            .map(|t| match t {
                crate::token::Token::Word(w) => Ok(w),
                other => Err(EdenError::BadParameter(format!(
                    "built-in commands take plain (or quoted) words, got {other:?}"
                ))),
            })
            .collect::<Result<Vec<_>>>()?;
        let words: Vec<&str> = all_words.iter().map(String::as_str).collect();
        match words[0] {
            "mkfile" => self.mkfile(&words[1..]),
            "ls" => self.ls(),
            "cat" => self.cat(&words[1..]),
            "rm" => self.rm(&words[1..]),
            "checkpoint" => self.checkpoint(&words[1..]),
            "crash" => self.crash(&words[1..]),
            "stats" => self.stats(&words[1..]),
            "trace" => self.trace(&words[1..]),
            "top" => self.top(&words[1..]),
            "ejects" => self.ejects(),
            "mv" => self.mv(&words[1..]),
            _ => Ok(HELP.lines().map(str::to_owned).collect()),
        }
    }

    /// Execute a pipeline command and render its output and windows.
    fn run_pipeline(&self, command: &str) -> Result<Vec<String>> {
        let run = self.env.run(command)?;
        let mut out = run.output_lines();
        for (window, items) in &run.windows {
            out.push(format!("[window {window}]"));
            for item in items {
                out.push(format!("  {}", render(item)));
            }
        }
        Ok(out)
    }

    fn named_file(&self, args: &[&str], what: &str) -> Result<Uid> {
        let name = args
            .first()
            .ok_or_else(|| EdenError::BadParameter(format!("{what}: need a name")))?;
        lookup(&self.kernel, self.home, name)
    }

    fn mkfile(&self, args: &[&str]) -> Result<Vec<String>> {
        let name = args
            .first()
            .ok_or_else(|| EdenError::BadParameter("mkfile: need a name".into()))?;
        let file = self
            .kernel
            .spawn(Box::new(FileEject::from_lines(args[1..].iter().copied())))?;
        add_entry(&self.kernel, self.home, name, file)?;
        Ok(vec![format!("created {name} ({file})")])
    }

    fn ls(&self) -> Result<Vec<String>> {
        let count = self
            .kernel
            .invoke(self.home, ops::LIST, Value::Unit)
            .wait()?
            .as_int()?;
        let mut lines = Vec::with_capacity(count as usize);
        loop {
            let batch = eden_transput::protocol::Batch::from_value(
                self.kernel
                    .invoke(
                        self.home,
                        ops::TRANSFER,
                        eden_transput::protocol::TransferRequest::primary(32).to_value(),
                    )
                    .wait()?,
            )?;
            for item in batch.items {
                lines.push(render(&item));
            }
            if batch.end {
                break;
            }
        }
        Ok(lines)
    }

    fn cat(&self, args: &[&str]) -> Result<Vec<String>> {
        let file = self.named_file(args, "cat")?;
        let reader = self
            .kernel
            .invoke(file, ops::OPEN, Value::Unit)
            .wait()?
            .as_uid()?;
        let mut lines = Vec::new();
        loop {
            let batch = eden_transput::protocol::Batch::from_value(
                self.kernel
                    .invoke(
                        reader,
                        ops::TRANSFER,
                        eden_transput::protocol::TransferRequest::primary(32).to_value(),
                    )
                    .wait()?,
            )?;
            for item in batch.items {
                lines.push(render(&item));
            }
            if batch.end {
                break;
            }
        }
        Ok(lines)
    }

    fn rm(&self, args: &[&str]) -> Result<Vec<String>> {
        let name = args
            .first()
            .ok_or_else(|| EdenError::BadParameter("rm: need a name".into()))?;
        self.kernel
            .invoke(
                self.home,
                ops::DELETE_ENTRY,
                Value::record([("name", Value::str(*name))]),
            )
            .wait()?;
        Ok(vec![format!("removed {name}")])
    }

    fn checkpoint(&self, args: &[&str]) -> Result<Vec<String>> {
        let file = self.named_file(args, "checkpoint")?;
        self.kernel
            .invoke(file, ops::CHECKPOINT, Value::Unit)
            .wait()?;
        Ok(vec![format!("checkpointed {}", args[0])])
    }

    fn crash(&self, args: &[&str]) -> Result<Vec<String>> {
        let file = self.named_file(args, "crash")?;
        self.kernel.crash(file)?;
        Ok(vec![format!("crashed {} (fail-stop)", args[0])])
    }

    fn stats(&self, args: &[&str]) -> Result<Vec<String>> {
        match args.first() {
            Some(&"--prometheus") => {
                let snap = self.kernel.metrics_snapshot();
                return Ok(eden_kernel::prometheus_text(&snap)
                    .lines()
                    .map(str::to_owned)
                    .collect());
            }
            Some(&"--json") => {
                let snap = self.kernel.metrics_snapshot();
                return Ok(eden_kernel::json_text(&snap)
                    .lines()
                    .map(str::to_owned)
                    .collect());
            }
            Some(other) => {
                return Err(EdenError::BadParameter(format!(
                    "stats: unknown flag `{other}` (try --prometheus or --json)"
                )))
            }
            None => {}
        }
        let snap = self.kernel.metrics_snapshot();
        let s = &snap.metrics;
        Ok(vec![
            format!(
                "invocations: {} ({} remote), replies: {} ({} deferred)",
                s.invocations, s.remote_invocations, s.replies, s.deferred_replies
            ),
            format!(
                "internal msgs: {}, bytes moved: {}, ejects created: {}",
                s.internal_messages,
                s.bytes_total(),
                s.ejects_created
            ),
            format!(
                "activations: {}, deactivations: {}, checkpoints: {} ({} journal entries, {} bytes), crashes: {}",
                s.activations, s.deactivations, s.checkpoints, s.journal_entries, s.checkpoint_bytes, s.crashes
            ),
            format!(
                "faults injected: {}, retries: {}, reactivations: {}, recovered streams: {}",
                s.faults_injected, s.retries, s.reactivations, s.recovered_streams
            ),
            {
                let p = eden_core::payload::snapshot();
                format!(
                    "payload_bytes_moved: {}, payload_copies: {}, cow_breaks: {}, payload_shares: {}",
                    p.payload_bytes_moved, p.payload_copies, p.cow_breaks, p.payload_shares
                )
            },
            {
                let st = eden_core::stream::snapshot();
                format!(
                    "records emitted: {}, collected: {}, in flight: {}, streams active: {}",
                    st.records_emitted,
                    st.records_collected,
                    st.records_in_flight(),
                    st.streams_active()
                )
            },
            format!(
                "sheds: {} (newest {}, park-timeout {}), \
                 mailboxes: {} queued {} (deepest {})",
                s.sheds_total(),
                s.sheds_newest,
                s.sheds_park_timeout,
                snap.mailbox.mailboxes,
                snap.mailbox.queued_total,
                snap.mailbox.queued_max,
            ),
            format!(
                "sched: workers {} (blocked {}, idle {}, spares spawned {}), \
                 inline handoffs: {}, monitor rescues: {}, idle timeouts with work: {}, \
                 ejects parked {} of {}",
                snap.sched.workers,
                snap.sched.workers_blocked,
                snap.sched.workers_idle,
                snap.sched.spares_spawned,
                snap.sched.inline_handoffs,
                snap.sched.monitor_rescues,
                snap.sched.idle_timeouts_with_work,
                snap.sched.parked_ejects,
                snap.sched.resident_ejects,
            ),
        ])
    }

    fn ejects(&self) -> Result<Vec<String>> {
        Ok(self
            .kernel
            .list_ejects()
            .into_iter()
            .map(|info| {
                format!(
                    "{:<24} {:<8} node {}  {}",
                    info.uid,
                    match info.state {
                        eden_kernel::EjectState::Active => "active",
                        eden_kernel::EjectState::Passive => "passive",
                    },
                    info.node.0,
                    info.type_name
                )
            })
            .collect())
    }

    fn mv(&self, args: &[&str]) -> Result<Vec<String>> {
        let (from, to) = match args {
            [from, to] => (*from, *to),
            _ => return Err(EdenError::BadParameter("mv: need OLD-NAME NEW-NAME".into())),
        };
        eden_fs::rename_entry(&self.kernel, self.home, from, to)?;
        Ok(vec![format!("renamed {from} -> {to}")])
    }

    fn top(&self, args: &[&str]) -> Result<Vec<String>> {
        let frames = match args {
            [] => 1,
            ["--watch"] => 5,
            ["--watch", n] => n
                .parse::<usize>()
                .map_err(|_| EdenError::BadParameter(format!("top: bad frame count `{n}`")))?,
            _ => {
                return Err(EdenError::BadParameter(format!(
                    "top: unknown arguments {args:?} (try --watch [FRAMES])"
                )))
            }
        };
        let mut out = Vec::new();
        let mut prev = eden_core::stream::snapshot();
        let mut prev_at = std::time::Instant::now();
        for frame in 0..frames.max(1) {
            if frame > 0 {
                // The watch cadence: long enough for the rates to mean
                // something, short enough to feel live.
                // eden-lint: timer(watch)
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            let now = eden_core::stream::snapshot();
            let elapsed = prev_at.elapsed().as_secs_f64();
            let rate = |n: u64| {
                if frame == 0 || elapsed <= 0.0 {
                    "-".to_owned()
                } else {
                    format!("{:.0}/s", n as f64 / elapsed)
                }
            };
            let delta = now.since(&prev);
            out.push(format!(
                "[{frame}] streams active: {}, records in flight: {}, emit {} collect {}",
                now.streams_active(),
                now.records_in_flight(),
                rate(delta.records_emitted),
                rate(delta.records_collected),
            ));
            for (uid, count) in self.busiest().into_iter().take(10) {
                out.push(format!("{count:>8}  {uid}"));
            }
            prev = now;
            prev_at = std::time::Instant::now();
        }
        if out.len() == frames.max(1) {
            out.push("no per-Eject data (histograms disabled, or nothing invoked yet)".to_owned());
        }
        Ok(out)
    }

    /// Completed invocations per target Eject, busiest first: the stage
    /// table's counts summed over each Eject's operations.
    fn busiest(&self) -> Vec<(Uid, u64)> {
        let mut tallies = std::collections::BTreeMap::new();
        for stage in self.kernel.stage_summaries() {
            *tallies.entry(stage.target).or_insert(0) += stage.count;
        }
        let mut tallies: Vec<(Uid, u64)> = tallies.into_iter().collect();
        tallies.sort_by_key(|&(uid, count)| (std::cmp::Reverse(count), uid));
        tallies
    }

    fn trace(&self, args: &[&str]) -> Result<Vec<String>> {
        let export = match args.first() {
            Some(&"export") => true,
            Some(other) => {
                return Err(EdenError::BadParameter(format!(
                    "trace: unknown subcommand `{other}` (try `trace` or `trace export`)"
                )))
            }
            None => false,
        };
        if !self.kernel.spans_enabled() {
            return Ok(vec![
                "span recording disabled (enable KernelConfig.observability.spans)".to_owned(),
            ]);
        }
        let spans = self.kernel.spans();
        if export {
            // Chrome trace_event JSON: load into chrome://tracing or
            // Perfetto. One line so callers can redirect it to a file.
            return Ok(vec![eden_kernel::chrome_trace_json(&spans)]);
        }
        let (lifecycle, evicted) = self.kernel.lifecycle();
        let mut out = eden_kernel::render_events(&spans, &lifecycle);
        let evicted = evicted + self.kernel.spans_dropped();
        if evicted > 0 {
            out.push(format!(
                "({evicted} earlier event(s) evicted from the ring)"
            ));
        }
        Ok(out)
    }
}

fn render(v: &Value) -> String {
    v.to_string()
}

/// The help text.
pub(crate) const HELP: &str = "\
built-ins:
  mkfile NAME [LINE...]   create a file Eject in the home directory
  ls                      list the home directory (streamed)
  cat NAME                stream a file's contents
  rm NAME                 remove a directory entry
  mv OLD NEW              rename a directory entry (atomic)
  ejects                  list every Eject the kernel knows
  checkpoint NAME         write the file's passive representation
  crash NAME              fail-stop the file Eject (recovers on next use)
  stats [--prometheus|--json]
                          kernel metrics snapshot (optionally rendered as
                          Prometheus exposition text or JSON)
  trace                   recent invocations, activations and stops
  trace export            spans as Chrome trace_event JSON (Perfetto)
  top [--watch [FRAMES]]  stream gauges + busiest Ejects; --watch repeats
  help                    this text
pipelines:
  [@key=value ...] SOURCE [| FILTER args... [Chan>window]]... [> SINK]
  sources: lines 'a' 'b' | seq N | file NAME | unix PATH
           merge NAME... (cat-style fan-in) | zip NAME NAME (tuples)
  sinks:   > file NAME | > unix PATH (the command then prints nothing)
  e.g.: file notes | grep eden | upcase > file shouted
        zip old new | compare";

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> (Kernel, Session) {
        let kernel = Kernel::new();
        let session = Session::new(&kernel).unwrap();
        (kernel, session)
    }

    #[test]
    fn mkfile_ls_cat_rm_cycle() {
        let (kernel, s) = session();
        s.execute("mkfile notes hello world").unwrap();
        let ls = s.execute("ls").unwrap();
        assert_eq!(ls.len(), 1);
        assert!(ls[0].starts_with("notes"));
        assert_eq!(s.execute("cat notes").unwrap(), vec!["hello", "world"]);
        s.execute("rm notes").unwrap();
        assert!(s.execute("cat notes").is_err());
        kernel.shutdown();
    }

    #[test]
    fn builtins_honor_quoting() {
        let (kernel, s) = session();
        s.execute("mkfile notes 'alpha line' beta").unwrap();
        assert_eq!(s.execute("cat notes").unwrap(), vec!["alpha line", "beta"]);
        kernel.shutdown();
    }

    #[test]
    fn pipelines_on_session_files() {
        let (kernel, s) = session();
        s.execute("mkfile data 'ignored-quoting' C-comment keep")
            .unwrap();
        let out = s.execute("file data | grep keep").unwrap();
        assert_eq!(out, vec!["keep"]);
        kernel.shutdown();
    }

    #[test]
    fn checkpoint_and_crash_roundtrip() {
        let (kernel, s) = session();
        s.execute("mkfile precious gold").unwrap();
        s.execute("checkpoint precious").unwrap();
        s.execute("crash precious").unwrap();
        // Reactivates on the next use, contents intact.
        assert_eq!(s.execute("cat precious").unwrap(), vec!["gold"]);
        kernel.shutdown();
    }

    #[test]
    fn stats_and_help_and_comments() {
        let (kernel, s) = session();
        assert!(s.execute("# a comment").unwrap().is_empty());
        assert!(s.execute("").unwrap().is_empty());
        assert!(!s.execute("help").unwrap().is_empty());
        let stats = s.execute("stats").unwrap();
        assert!(stats[0].contains("invocations"));
        assert!(stats
            .iter()
            .any(|l| l.contains("payload_bytes_moved") && l.contains("cow_breaks")));
        assert!(stats.iter().any(|l| l.contains("sheds:")
            && l.contains("park-timeout")
            && l.contains("mailboxes:")));
        assert!(stats.iter().any(|l| l.starts_with("sched:")
            && [
                "inline handoffs:",
                "monitor rescues:",
                "idle timeouts with work:",
                "spares spawned"
            ]
            .iter()
            .all(|field| l.contains(field))));
        kernel.shutdown();
    }

    #[test]
    fn trace_command_reports_state() {
        let kernel = Kernel::with_config(eden_kernel::KernelConfig {
            observability: eden_kernel::ObsConfig::full(),
            ..Default::default()
        });
        let s = Session::new(&kernel).unwrap();
        s.execute("mkfile t a").unwrap();
        let trace = s.execute("trace").unwrap();
        assert!(trace.iter().any(|l| l.contains("invoke")));
        assert!(trace
            .iter()
            .any(|l| l.contains("activate") && l.contains("(EdenFile)")));
        let top = s.execute("top").unwrap();
        assert!(top[0].contains("streams active"));
        assert!(top[1].trim().chars().next().unwrap().is_ascii_digit());
        kernel.shutdown();
    }

    #[test]
    fn stats_render_prometheus_and_json() {
        let (kernel, s) = session();
        s.execute("mkfile notes x").unwrap();
        let prom = s.execute("stats --prometheus").unwrap();
        assert!(prom
            .iter()
            .any(|l| l.starts_with("# HELP eden_invocations_total")));
        assert!(prom
            .iter()
            .any(|l| l.starts_with("eden_invocations_total ")));
        let json = s.execute("stats --json").unwrap().join("\n");
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"eden_invocations_total\""));
        assert!(s.execute("stats --bogus").is_err());
        kernel.shutdown();
    }

    #[test]
    fn trace_reports_ring_eviction() {
        // One slot in each of the span store's sixteen per-thread shards.
        let kernel = Kernel::with_config(eden_kernel::KernelConfig {
            observability: eden_kernel::ObsConfig {
                span_capacity: 16,
                ..eden_kernel::ObsConfig::full()
            },
            ..Default::default()
        });
        let s = Session::new(&kernel).unwrap();
        for i in 0..4 {
            s.execute(&format!("mkfile f{i} x")).unwrap();
        }
        let trace = s.execute("trace").unwrap();
        assert!(
            trace.last().unwrap().contains("evicted from the ring"),
            "{trace:?}"
        );
        kernel.shutdown();
    }

    #[test]
    fn trace_export_emits_chrome_json() {
        let kernel = Kernel::with_config(eden_kernel::KernelConfig {
            observability: eden_kernel::ObsConfig::full(),
            ..Default::default()
        });
        let s = Session::new(&kernel).unwrap();
        s.execute("mkfile notes hello").unwrap();
        s.execute("cat notes").unwrap();
        let exported = s.execute("trace export").unwrap().join("");
        assert!(exported.starts_with("{\"traceEvents\":["));
        assert!(exported.contains("\"ph\":\"X\""));
        kernel.shutdown();

        // Spans off: the subcommand says so instead of emitting an empty file.
        let plain = Kernel::new();
        let s = Session::new(&plain).unwrap();
        let out = s.execute("trace export").unwrap();
        assert!(out[0].contains("span recording disabled"));
        plain.shutdown();
    }

    #[test]
    fn top_watch_renders_frames() {
        let kernel = Kernel::with_config(eden_kernel::KernelConfig {
            observability: eden_kernel::ObsConfig::full(),
            ..Default::default()
        });
        let s = Session::new(&kernel).unwrap();
        s.execute("mkfile notes x").unwrap();
        let out = s.execute("top --watch 2").unwrap();
        let frames = out
            .iter()
            .filter(|l| l.contains("records in flight"))
            .count();
        assert_eq!(frames, 2);
        // Each frame lists the home directory, busiest (and only) target.
        let home = s.home.to_string();
        assert_eq!(
            out.iter().filter(|l| l.ends_with(&home)).count(),
            2,
            "{out:?}"
        );
        assert!(s.execute("top --watch zap").is_err());
        kernel.shutdown();
    }

    #[test]
    fn dir_source_pipes_the_listing() {
        let (kernel, s) = session();
        s.execute("mkfile alpha x").unwrap();
        s.execute("mkfile beta y").unwrap();
        let out = s.execute("dir | grep alpha").unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].starts_with("alpha"));
        kernel.shutdown();
    }

    #[test]
    fn errors_are_clean() {
        let (kernel, s) = session();
        assert!(s.execute("mkfile").is_err());
        assert!(s.execute("rm ghost").is_err());
        assert!(s.execute("bogus | pipeline").is_err());
        kernel.shutdown();
    }
}
