//! `eden-sh` — an interactive shell over a simulated Eden.
//!
//! ```text
//! cargo run -p eden-shell --bin eden-sh
//! ```
//!
//! The kernel runs with the observability plane on (spans, lifecycle
//! events and per-stage histograms), so `trace`, `trace export`, `top` and
//! the stage table in `stats --json` have data.
//!
//! Type `help` for the command reference; Ctrl-D or `quit` exits.

use std::io::{BufRead, Write};

use eden_kernel::{Kernel, KernelConfig, ObsConfig};
use eden_shell::session::Session;

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unknown argument `{arg}` (eden-sh takes none)");
        std::process::exit(2);
    }
    let kernel = Kernel::with_config(KernelConfig {
        observability: ObsConfig::full(),
        ..Default::default()
    });
    let session = match Session::new(&kernel) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start session: {e}");
            std::process::exit(1);
        }
    };
    println!("eden shell — asymmetric stream transput (SOSP 1983). `help` for commands.");
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("eden$ ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF.
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if trimmed == "quit" || trimmed == "exit" {
            break;
        }
        match session.execute(trimmed) {
            Ok(output) => {
                for out_line in output {
                    println!("{out_line}");
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }
    kernel.shutdown();
}
