//! Server processes on loopback, the line-protocol client, and the
//! `/proc` readings taken from the server processes.

use std::fs;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a server may take to start listening.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `probdb-serve` process. Dropping it kills the process and
/// waits for it to end.
pub struct Server {
    /// Behind a mutex so the watchdog can kill it through `&Server`.
    child: Mutex<Child>,
    pid: u32,
    pub addr: String,
}

impl Server {
    /// Starts `bin` with `args` plus `--addr 127.0.0.1:0`, sending its
    /// standard error to `log`, and waits until it prints its address.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Server, String> {
        let err = fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut server = Server {
            child: Mutex::new(child),
            pid,
            addr: String::new(),
        };
        let start = Instant::now();
        loop {
            let text = fs::read_to_string(log).unwrap_or_default();
            // Only a complete line holds the whole address.
            if let Some((line, _)) = text
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_once('\n'))
            {
                if let Some(addr) = line.split_whitespace().next() {
                    server.addr = addr.to_string();
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.lock_child().try_wait() {
                return Err(format!("server exited with {status} during start: {text}"));
            }
            if start.elapsed() > LISTEN_TIMEOUT {
                return Err(format!("server did not start listening: {text}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> u32 {
        self.pid
    }

    fn lock_child(&self) -> std::sync::MutexGuard<'_, Child> {
        self.child.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// User plus system CPU time of the process so far, in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        let stat = fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name: state is field 3,
        // utime field 14, stime field 15 (1-based, as in proc(5)).
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        (ticks(11) + ticks(12)) as f64 * 1000.0 / clock_ticks_per_second()
    }

    /// A numeric field of `/proc/<pid>/status` (`VmHWM` in kB, `Threads`).
    pub fn status(&self, key: &str) -> f64 {
        let status = fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0)
    }

    /// Kills the process at once; its clients see their connections close.
    pub fn kill_now(&self) {
        let _ = self.lock_child().kill();
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let child = self.child.get_mut().unwrap_or_else(|e| e.into_inner());
        let _ = child.kill();
        let _ = child.wait();
    }
}

fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf only reads a configuration value; it takes an integer
    // and has no memory-safety preconditions.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// A protocol connection: one request line, one framed response.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one line and returns the un-stuffed response text.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))?;
        match pdb_server::protocol::read_framed(&mut self.reader) {
            Ok(Some(response)) => Ok(response),
            Ok(None) => Err("connection closed".into()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Where the benchmark keeps logs, data directories and span files,
/// relative to the checkout it runs in.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench-work")
}
