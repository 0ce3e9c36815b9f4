//! The measurement floor: what the clock, the scheduler, one core and the
//! loopback socket cost on this host right now, with no code of the system
//! under test involved. Printed at the top of every run so a reader can tell
//! host drift from a code change; none of these numbers is gated.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::layers::Metrics;
use crate::stats::median;

/// Rows in one `full` scenario matrix; the line probe streams that many.
const LINES: usize = 288;
/// Bytes per probe line, close to a scenario row's.
const LINE_BYTES: usize = 300;

/// Median wall time (ns) of `reps` runs of `body`.
pub fn median_ns(reps: usize, mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples).expect("at least one rep")
}

/// The floor of one host at one moment.
#[derive(Debug, Clone)]
pub struct Floor {
    /// Cost of one `Instant::now()`.
    pub timer_read_ns: f64,
    /// `(requested ms, measured ms)` for the 1/5/20 ms sleep ladder: the
    /// overshoot is the scheduler's wake-up latency.
    pub sleep_ladder_ms: [(f64, f64); 3],
    /// A fixed integer + float loop on one core. It runs the same
    /// instructions on every commit, so when it moves, the host moved.
    pub ref_kernel_ms: f64,
    /// One byte there and back over a loopback TCP connection.
    pub loopback_rtt_us: f64,
    /// 288 newline-flushed 300-byte lines (`TCP_NODELAY`) written by one
    /// thread and read by another: the floor under one warm row stream.
    pub loopback_line_us: f64,
}

fn timer_read_ns() -> f64 {
    const READS: usize = 200_000;
    median_ns(5, || {
        for _ in 0..READS {
            std::hint::black_box(Instant::now());
        }
    }) / READS as f64
}

fn sleep_ladder_ms() -> [(f64, f64); 3] {
    [1.0, 5.0, 20.0].map(|ms| {
        let ns = median_ns(3, || std::thread::sleep(Duration::from_secs_f64(ms / 1e3)));
        (ms, ns / 1e6)
    })
}

fn ref_kernel_ms() -> f64 {
    median_ns(5, || {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0.0f64;
        for _ in 0..4_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        }
        std::hint::black_box(acc);
    }) / 1e6
}

/// Echo and line-stream probes over one loopback connection. The peer
/// thread echoes single bytes until it reads `b'L'`, then answers every
/// further byte with one batch of lines.
fn loopback() -> Result<(f64, f64), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("loopback bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("loopback addr: {e}"))?;
    // The peer polls for its connection under a deadline: if the probe below
    // fails before it connects, a blocking `accept` would never return and
    // the join would hang.
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("loopback listener: {e}"))?;
    let peer = std::thread::spawn(move || -> std::io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut stream = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        };
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        let mut byte = [0u8; 1];
        let mut line = vec![b'x'; LINE_BYTES];
        line[LINE_BYTES - 1] = b'\n';
        let mut streaming = false;
        loop {
            if stream.read(&mut byte)? == 0 {
                return Ok(());
            }
            streaming |= byte[0] == b'L';
            if streaming {
                for _ in 0..LINES {
                    stream.write_all(&line)?;
                    stream.flush()?;
                }
            } else {
                stream.write_all(&byte)?;
            }
        }
    });
    let probe = || -> std::io::Result<(f64, f64)> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut byte = [0u8; 1];
        let mut rtts = Vec::with_capacity(2000);
        for i in 0..2200 {
            let t = Instant::now();
            stream.write_all(b"p")?;
            stream.read_exact(&mut byte)?;
            if i >= 200 {
                rtts.push(t.elapsed().as_nanos() as f64);
            }
        }
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut buf = String::with_capacity(LINE_BYTES + 1);
        let mut batches = Vec::with_capacity(30);
        for i in 0..33 {
            let t = Instant::now();
            stream.write_all(b"L")?;
            for _ in 0..LINES {
                buf.clear();
                reader.read_line(&mut buf)?;
            }
            if i >= 3 {
                batches.push(t.elapsed().as_nanos() as f64);
            }
        }
        Ok((
            median(&rtts).expect("rtt samples") / 1e3,
            median(&batches).expect("batch samples") / 1e3,
        ))
    };
    // The connection closes when `probe` returns, which ends the peer.
    let result = probe().map_err(|e| format!("loopback probe: {e}"));
    let peer_result = peer
        .join()
        .map_err(|_| "loopback peer panicked".to_string())?;
    let result = result?;
    peer_result.map_err(|e| format!("loopback peer: {e}"))?;
    Ok(result)
}

/// Measures the floor (≈ 0.4 s).
pub fn measure() -> Result<Floor, String> {
    let (loopback_rtt_us, loopback_line_us) = loopback()?;
    Ok(Floor {
        timer_read_ns: timer_read_ns(),
        sleep_ladder_ms: sleep_ladder_ms(),
        ref_kernel_ms: ref_kernel_ms(),
        loopback_rtt_us,
        loopback_line_us,
    })
}

impl Floor {
    /// The floor probes as layer metrics.
    pub fn record(&self, out: &mut Metrics) {
        out.insert("bench.timer_read_ns", self.timer_read_ns);
        out.insert("bench.ref_kernel_ms", self.ref_kernel_ms);
        out.insert("bench.loopback_rtt_us", self.loopback_rtt_us);
        out.insert("bench.loopback_line_us", self.loopback_line_us);
    }

    /// The calibration block, one `#`-prefixed line per probe.
    pub fn render(&self) -> String {
        let ladder: Vec<String> = self
            .sleep_ladder_ms
            .iter()
            .map(|(want, got)| format!("{want:.0} ms -> {got:.3} ms"))
            .collect();
        format!(
            "# calibration (this host, now; not gated)\n\
             #   bench.timer_read_ns     {:>10.1} ns   one Instant::now()\n\
             #   sleep ladder            {}\n\
             #   bench.ref_kernel_ms     {:>10.3} ms   fixed one-core loop: moves only when the host does\n\
             #   bench.loopback_rtt_us   {:>10.1} us   1 byte there and back, loopback TCP\n\
             #   bench.loopback_line_us  {:>10.1} us   {LINES} flushed {LINE_BYTES}-byte lines, nodelay\n",
            self.timer_read_ns,
            ladder.join(", "),
            self.ref_kernel_ms,
            self.loopback_rtt_us,
            self.loopback_line_us,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_positive_and_ordered() {
        let floor = measure().unwrap();
        assert!(floor.timer_read_ns > 0.0 && floor.timer_read_ns < 10_000.0);
        assert!(floor.ref_kernel_ms > 0.0);
        assert!(floor.loopback_rtt_us > 0.0);
        assert!(
            floor.loopback_line_us > floor.loopback_rtt_us,
            "288 lines cannot beat one byte"
        );
        for (want, got) in floor.sleep_ladder_ms {
            assert!(got >= want, "a sleep never returns early");
        }
        assert!(floor.render().contains("bench.ref_kernel_ms"));
    }
}
