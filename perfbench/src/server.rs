//! The server under test as a child process, and wire-protocol connections
//! to it.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use mapcomp_service::{
    decode_reply, encode_request, read_frame, ErrorCode, Request, Response, ServiceError,
};

/// A fresh `mapcomp serve --workers 2` on an empty catalog in `dir`, with
/// default incremental persistence and compaction thresholds.
pub struct ServerProcess {
    child: Child,
    /// Kept open so the server's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub dir: PathBuf,
}

impl ServerProcess {
    pub fn start(binary: &Path, dir: PathBuf) -> Result<ServerProcess, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.join("serve.log"))
            .map_err(|e| format!("cannot create the server log: {e}"))?;
        let mut child = Command::new(binary)
            .arg("serve")
            .arg("--catalog")
            .arg(dir.join("catalog.doc"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "server did not announce its address (got {line:?}); log:\n{}",
                    log_tail(&dir)
                ));
            }
        };
        Ok(ServerProcess { child, _stdout: stdout, addr, dir })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A connection whose reads fail after `timeout` without a reply, so a
    /// stalled server fails the run instead of hanging it.
    pub fn connect(&self, timeout: Duration) -> Result<Conn, String> {
        Conn::connect(&self.addr, timeout)
    }

    /// Fail if the server has exited.
    pub fn check_alive(&mut self) -> Result<(), String> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => {
                Err(format!("server exited early ({status}); log:\n{}", log_tail(&self.dir)))
            }
            Err(error) => Err(format!("cannot poll the server: {error}")),
        }
    }

    /// Resident set size (`VmRSS`) in MB.
    pub fn rss_mb(&self) -> Result<f64, String> {
        self.status_mb("VmRSS:")
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.status_mb("VmHWM:")
    }

    fn status_mb(&self, field: &str) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix(field))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no {field} line in the server's /proc status"))
    }

    /// Ask the server to persist and exit, and wait until it has.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.check_alive()?;
        let mut conn = self.connect(Duration::from_secs(60))?;
        match conn.call(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => {}
            other => return Err(format!("shutdown refused: {other:?}")),
        }
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("server did not exit after shutdown".to_string()),
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn log_tail(dir: &Path) -> String {
    let text = std::fs::read_to_string(dir.join("serve.log")).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(20)..].join("\n")
}

/// Why a call did not produce a reply the caller can use.
#[derive(Debug)]
pub enum CallError {
    /// The server shed the request with the `busy` code.
    Busy(String),
    /// The server answered with a service error.
    Service(ServiceError),
    /// The connection failed or the reply did not decode.
    Transport(String),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Busy(message) => write!(f, "busy: {message}"),
            CallError::Service(error) => write!(f, "service error: {error}"),
            CallError::Transport(message) => write!(f, "transport: {message}"),
        }
    }
}

/// One closed-loop connection: each call writes a request frame and waits
/// for its reply, like every real caller.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str, timeout: Duration) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(timeout)).map_err(|e| format!("cannot set a timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("cannot clone the stream: {e}"))?;
        Ok(Conn { reader: BufReader::new(stream), writer })
    }

    pub fn call(&mut self, request: &Request) -> Result<Response, CallError> {
        self.writer
            .write_all(encode_request(request).as_bytes())
            .map_err(|e| CallError::Transport(format!("write failed: {e}")))?;
        let reply = read_frame(&mut self.reader)
            .map_err(|e| CallError::Transport(format!("read failed: {e}")))?
            .ok_or_else(|| CallError::Transport("the server closed the connection".to_string()))?;
        match decode_reply(&reply) {
            Err(error) => Err(CallError::Transport(format!("undecodable reply: {error}"))),
            Ok(Err(error)) if error.code == ErrorCode::Busy => Err(CallError::Busy(error.message)),
            Ok(Err(error)) => Err(CallError::Service(error)),
            Ok(Ok(response)) => Ok(response),
        }
    }
}

/// Sum of every sample of `name` (all label sets) in a Prometheus-style
/// exposition.
pub fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (key, value) = line.rsplit_once(' ')?;
            let matches =
                key == name || key.strip_prefix(name).is_some_and(|labels| labels.starts_with('{'));
            matches.then(|| value.parse::<f64>().ok()).flatten()
        })
        .sum()
}

/// The server's registry, over the wire.
pub fn metrics(conn: &mut Conn) -> Result<String, String> {
    match conn.call(&Request::Metrics) {
        Ok(Response::Metrics { text }) => Ok(text),
        other => Err(format!("metrics scrape failed: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_sums_label_sets_and_skips_comments() {
        let text = "# HELP a x\n# TYPE a counter\na 3\nab 100\nb{kind=\"x\"} 2\nb{kind=\"y\"} 5\n";
        assert_eq!(scrape(text, "a"), 3.0);
        assert_eq!(scrape(text, "b"), 7.0);
        assert_eq!(scrape(text, "c"), 0.0);
    }
}
