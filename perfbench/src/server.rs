//! The serving process: the real server booted from the durable store
//! (`Engine::open_durable` → `Server`, default configuration), run as a
//! child of the benchmark so its memory excludes input generation.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use cx_explorer::Engine;
use cx_server::{Server, ServerConfig};

use crate::load::Conn;

/// Child side (`perfbench serve --store DIR`): boot, print the port,
/// serve until stdin closes, then shut down and drain.
pub fn serve_main(store: &Path) -> Result<(), String> {
    let engine = Engine::open_durable(store).map_err(|e| format!("open store: {e}"))?;
    let server = Server::new(engine);
    let handle = server
        .serve_background_with(ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let mut out = std::io::stdout();
    writeln!(out, "port {}", handle.port())
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    let mut rest = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut rest);
    drop(handle);
    Ok(())
}

/// Parent side: one running server process.
pub struct ServerProc {
    child: Child,
    pub port: u16,
    /// Seconds from launch (store recovery plus index build) to the first
    /// answered request.
    pub setup_s: f64,
}

impl ServerProc {
    /// Launches a server over `store` and waits for its first answer.
    pub fn boot(store: &Path) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--store")
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let port = BufReader::new(stdout)
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("port ")?.parse::<u16>().ok());
        let mut proc = ServerProc {
            child,
            port: port.unwrap_or(0),
            setup_s: 0.0,
        };
        if port.is_none() {
            return Err(format!("server did not report a port: {line:?}"));
        }
        let reply = Conn::connect(proc.port)
            .and_then(|mut c| c.get("/healthz"))
            .map_err(|e| format!("first request: {e}"))?;
        proc.setup_s = t0.elapsed().as_secs_f64();
        let body = String::from_utf8_lossy(&reply.body);
        if reply.status != 200 || !body.contains("\"graph_loaded\":true") {
            return Err(format!("server not ready: {} {body}", reply.status));
        }
        Ok(proc)
    }

    /// High-water resident set of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Closes the server's stdin and waits for it to drain and exit.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.child.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    /// A server still running here is on an error path: kill and reap it.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
