//! The server child: the workload's default server in a process of its
//! own, so the generator's thread and allocator never share an address
//! space with what they measure.

use crate::adapter::Hosted;
use crate::workload;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Removes every `FLUX_*` variable, so no operator knob left in the
/// environment reconfigures the server under test. Called before any
/// thread exists.
pub fn clear_flux_env() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("FLUX_"))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}

/// A plain blocking echo listener: the floor under every round trip
/// that is not Flux. One connection at a time.
fn echo_loop(listener: TcpListener, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let mut buf = [0u8; 1024];
        while let Ok(n) = stream.read(&mut buf) {
            if n == 0 || stream.write_all(&buf[..n]).is_err() {
                break;
            }
        }
    }
}

/// Body of the `serve` subcommand: hosts the workload's default server
/// until standard input closes.
pub fn serve(name: &str, seed: u64) -> io::Result<()> {
    clear_flux_env();
    // The server keeps no topics of its own, so the number of
    // connections does not matter here.
    let inputs =
        workload::generate(name, seed, 0, None).ok_or_else(|| io::Error::other("unknown workload"))?;
    let hosted = Hosted::spawn(inputs.server(), false)?;
    let echo = TcpListener::bind("127.0.0.1:0")?;
    let echo_addr = echo.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let echo_thread = {
        let stop = stop.clone();
        std::thread::spawn(move || echo_loop(echo, stop))
    };
    println!("READY {} {}", hosted.addr().port(), echo_addr.port());
    io::stdout().flush()?;
    // The parent holds the other end of stdin; its closing, or the
    // parent's death, is the signal to stop.
    io::copy(&mut io::stdin(), &mut io::sink())?;
    hosted.stop();
    stop.store(true, Ordering::SeqCst);
    // Wakes the echo thread out of `accept`.
    let _ = TcpStream::connect(echo_addr);
    echo_thread
        .join()
        .map_err(|_| io::Error::other("echo thread panicked"))
}

/// A running server child.
pub struct Child {
    process: std::process::Child,
    pub addr: SocketAddr,
    pub echo_addr: SocketAddr,
}

impl Child {
    /// Starts this executable's `serve` subcommand and waits for it to
    /// report its ports. The child inherits the calling thread's CPUs:
    /// call it from a thread that is not pinned.
    pub fn spawn(name: &str, seed: u64) -> io::Result<Child> {
        let mut process = Command::new(std::env::current_exe()?)
            .args(["serve", "--workload", name, "--seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = process.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let ports: Vec<u16> = line
            .strip_prefix("READY ")
            .map(|rest| rest.split_whitespace().filter_map(|p| p.parse().ok()).collect())
            .unwrap_or_default();
        let [port, echo_port] = ports[..] else {
            let _ = process.kill();
            let _ = process.wait();
            return Err(io::Error::other(format!("server child said `{}`", line.trim())));
        };
        Ok(Child {
            process,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
            echo_addr: SocketAddr::from(([127, 0, 0, 1], echo_port)),
        })
    }

    pub fn pid(&self) -> u32 {
        self.process.id()
    }

    /// Closes the child's stdin and waits for it to end, killing it if
    /// it has not within five seconds.
    pub fn stop(mut self) -> io::Result<()> {
        self.shut_down()
    }

    /// Kills a child whose work is done without waiting for an orderly
    /// stop: the throw-away servers of the set-up timing.
    pub fn discard(mut self) {
        let _ = self.process.kill();
        let _ = self.process.wait();
    }

    fn shut_down(&mut self) -> io::Result<()> {
        drop(self.process.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if self.process.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.process.kill()?;
        self.process.wait()?;
        Err(io::Error::other("server child had to be killed"))
    }
}

impl Drop for Child {
    /// No error path may leave a server behind.
    fn drop(&mut self) {
        let _ = self.shut_down();
    }
}
