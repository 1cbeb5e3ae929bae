//! The real `pclabel-netd` as a child process, and a framed-TCP client
//! of the bench's own (so the load generator does not depend on the
//! repo's client code).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Every server knob the bench passes, recorded with each result.
#[derive(Debug, Clone)]
pub struct ServerFlags {
    pub reactors: usize,
    pub workers: usize,
    pub queue: usize,
    pub max_parked: usize,
    pub max_frame: usize,
    pub timeout_ms: u64,
    pub fsync: &'static str,
    pub snapshot_wal_bytes: u64,
    pub query_threads: usize,
    pub data_dir: Option<PathBuf>,
}

impl ServerFlags {
    pub fn pinned() -> ServerFlags {
        ServerFlags {
            reactors: 1,
            workers: 2,
            queue: 64,
            max_parked: 256,
            // Well above the largest upload (the 7.7 MB Credit-Card CSV)
            // and the snapshot-crossing append batch.
            max_frame: 64 << 20,
            timeout_ms: 60_000,
            fsync: "batch",
            snapshot_wal_bytes: 4 << 20,
            query_threads: 1,
            data_dir: None,
        }
    }

    pub fn args(&self) -> Vec<String> {
        let mut args: Vec<String> = [
            "--listen",
            "127.0.0.1:0",
            "--model",
            "reactor",
            "--allow-remote-shutdown",
            "--log-level",
            "warn",
            "--slow-query-ms",
            "0",
            "--idle-ms",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let numeric = [
            ("--reactors", self.reactors.to_string()),
            ("--workers", self.workers.to_string()),
            ("--queue", self.queue.to_string()),
            ("--max-parked", self.max_parked.to_string()),
            ("--max-frame", self.max_frame.to_string()),
            ("--timeout-ms", self.timeout_ms.to_string()),
            ("--fsync", self.fsync.to_string()),
            ("--snapshot-wal-bytes", self.snapshot_wal_bytes.to_string()),
        ];
        for (flag, value) in numeric {
            args.push(flag.to_string());
            args.push(value);
        }
        if let Some(dir) = &self.data_dir {
            args.push("--data-dir".to_string());
            args.push(dir.display().to_string());
        }
        args
    }

    /// The command line as recorded in the report.
    pub fn describe(&self) -> String {
        format!(
            "PCLABEL_QUERY_THREADS={} pclabel-netd {}",
            self.query_threads,
            self.args().join(" ")
        )
    }
}

/// A running `pclabel-netd`.
pub struct Server {
    child: Child,
    pub addr: String,
    stderr: Arc<Mutex<String>>,
    readers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawns the daemon and waits for its "listening on ADDR" line.
    pub fn spawn(netd: &Path, flags: &ServerFlags) -> io::Result<Server> {
        let mut child = Command::new(netd)
            .args(flags.args())
            .env("PCLABEL_QUERY_THREADS", flags.query_threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = Arc::new(Mutex::new(String::new()));
        let mut readers = Vec::new();
        {
            let pipe = child.stderr.take().expect("piped stderr");
            let sink = Arc::clone(&stderr);
            readers.push(std::thread::spawn(move || {
                for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                    let mut s = sink.lock().expect("stderr buffer");
                    s.push_str(&line);
                    s.push('\n');
                }
            }));
        }
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut addr = None;
        let mut line = String::new();
        while stdout.read_line(&mut line)? > 0 {
            if line.contains("listening on") {
                addr = line.split_whitespace().nth(3).map(str::to_string);
                break;
            }
            line.clear();
        }
        readers.push(std::thread::spawn(move || {
            let mut rest = Vec::new();
            let _ = stdout.read_to_end(&mut rest);
        }));
        let mut server = Server {
            child,
            addr: String::new(),
            stderr,
            readers,
        };
        match addr {
            Some(a) => {
                server.addr = a;
                Ok(server)
            }
            None => {
                let log = server.stderr_text();
                server.kill();
                Err(io::Error::other(format!(
                    "pclabel-netd exited before listening: {log}"
                )))
            }
        }
    }

    pub fn stderr_text(&self) -> String {
        self.stderr.lock().expect("stderr buffer").clone()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// SIGKILL, then reap the process and its pipe readers.
    pub fn kill(mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
        self.stderr_text()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One persistent framed-TCP connection: `u32` big-endian length plus
/// the JSON request, the same framing back.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    payload: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_write_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            payload: Vec::new(),
        })
    }

    /// Connects, retrying while a freshly spawned server comes up.
    pub fn connect_retry(addr: &str, patience: Duration) -> io::Result<Conn> {
        let deadline = Instant::now() + patience;
        loop {
            match Conn::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Sends one request line; returns the response text.
    pub fn call(&mut self, line: &str) -> io::Result<&str> {
        self.out.clear();
        self.out
            .extend_from_slice(&(line.len() as u32).to_be_bytes());
        self.out.extend_from_slice(line.as_bytes());
        self.stream.write_all(&self.out)?;
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let len = u32::from_be_bytes(len) as usize;
        self.payload.resize(len, 0);
        self.stream.read_exact(&mut self.payload)?;
        std::str::from_utf8(&self.payload).map_err(|e| io::Error::other(e.to_string()))
    }
}

/// `GET path` over a fresh HTTP/1.1 connection; returns the body.
pub fn http_get(addr: &str, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )?;
    let mut reader = BufReader::new(stream);
    let mut length = None;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((k, v)) = l.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                length = v.trim().parse::<usize>().ok();
            }
        }
    }
    let mut body = vec![0u8; length.unwrap_or(0)];
    reader.read_exact(&mut body)?;
    String::from_utf8(body).map_err(|e| io::Error::other(e.to_string()))
}

/// Mean of a Prometheus histogram family over all its series
/// (`_sum` / `_count`). A bucketed percentile would read the same bucket
/// bound on every run; the sum keeps every digit. `None` when the family
/// has no observations.
pub fn prometheus_mean(text: &str, family: &str) -> Option<f64> {
    let total = |suffix: &str| -> f64 {
        let name = format!("{family}{suffix}");
        text.lines()
            .filter(|l| {
                l.strip_prefix(&name)
                    .is_some_and(|rest| rest.starts_with(['{', ' ']))
            })
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    let count = total("_count");
    (count > 0.0).then(|| total("_sum") / count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_mean_sums_series() {
        let text = "\
# TYPE pclabel_store_wait_seconds histogram
pclabel_store_wait_seconds_bucket{op=\"query\",le=\"+Inf\"} 100
pclabel_store_wait_seconds_sum{op=\"query\"} 0.001
pclabel_store_wait_seconds_count{op=\"query\"} 100
pclabel_store_wait_seconds_sum{op=\"append_rows\"} 0.003
pclabel_store_wait_seconds_count{op=\"append_rows\"} 100
pclabel_store_wait_seconds_total_sum 7
";
        let mean = prometheus_mean(text, "pclabel_store_wait_seconds").unwrap();
        assert!((mean - 0.00002).abs() < 1e-12, "{mean}");
        assert_eq!(prometheus_mean(text, "absent"), None);
    }

    #[test]
    fn flags_are_all_explicit() {
        let mut flags = ServerFlags::pinned();
        flags.data_dir = Some(PathBuf::from("d"));
        let args = flags.args().join(" ");
        for flag in [
            "--reactors 1",
            "--workers 2",
            "--max-frame",
            "--fsync batch",
            "--snapshot-wal-bytes",
            "--data-dir d",
        ] {
            assert!(args.contains(flag), "{flag} missing from {args}");
        }
    }
}
