//! Trace persistence: JSON (full fidelity), CSV (interchange) and a compact
//! little-endian binary format (speed).
//!
//! JSON captures the whole [`TimingTrace`] via serde and is the round-trip
//! format the job runner uses for checkpointing. CSV is the flat
//! `trial,rank,iteration,thread,enter_ns,exit_ns` table that external plotting
//! tools (the paper's figures were produced with NumPy/Matplotlib) consume.
//! The binary format ([`write_binary`]/[`read_binary`]) stores the same dense
//! sample grid as raw little-endian `u64` pairs behind a fixed header, so a
//! paper-scale trace (768,000 samples ≈ 12 MB) loads in milliseconds instead
//! of the seconds JSON parsing takes; it is the format the parallel pipeline
//! benchmark and large campaign checkpoints use.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::sample::{SampleIndex, ThreadSample};
use crate::trace::{TimingTrace, TraceShape};
use crate::CoreError;

/// Writes a trace as JSON to any writer.
pub fn write_json<W: Write>(trace: &TimingTrace, writer: W) -> Result<(), CoreError> {
    serde_json::to_writer(writer, trace)?;
    Ok(())
}

/// Reads a trace from JSON.
pub fn read_json<R: Read>(reader: R) -> Result<TimingTrace, CoreError> {
    Ok(serde_json::from_reader(reader)?)
}

/// Saves a trace to a JSON file (buffered).
pub fn save_json(trace: &TimingTrace, path: impl AsRef<Path>) -> Result<(), CoreError> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    write_json(trace, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Loads a trace from a JSON file (buffered).
pub fn load_json(path: impl AsRef<Path>) -> Result<TimingTrace, CoreError> {
    let file = File::open(path)?;
    read_json(BufReader::new(file))
}

/// Magic bytes opening the binary trace format.
pub const BINARY_MAGIC: [u8; 8] = *b"EBTRACE\x01";

/// Current binary format version.
pub const BINARY_VERSION: u32 = 1;

/// Upper bound accepted for the application-name length field, guarding
/// against allocating from a corrupt header.
const MAX_APP_NAME_BYTES: u32 = 4096;

/// Upper bound accepted per shape dimension **and** for the dimensions'
/// product when reading, guarding the `total × 16`-byte allocation against
/// corrupt headers (the paper-scale trace is 10 × 8 × 200 × 48 = 768,000
/// samples; this leaves ~20× headroom).
const MAX_BINARY_DIM: u64 = 1 << 24;

/// Writes a trace in the compact binary format:
///
/// ```text
/// magic        8 × u8   "EBTRACE\x01"
/// version      u32 LE
/// app_len      u32 LE
/// app          app_len × u8 (UTF-8)
/// trials       u64 LE
/// ranks        u64 LE
/// iterations   u64 LE
/// threads      u64 LE
/// samples      total × (enter_ns u64 LE, exit_ns u64 LE), thread innermost
/// ```
///
/// Every `u64` value round-trips exactly, including the `u64::MAX` "unset"
/// sentinel collectors use for unrecorded slots.
///
/// # Errors
/// [`CoreError::Io`] on write failure.
pub fn write_binary<W: Write>(trace: &TimingTrace, writer: W) -> Result<(), CoreError> {
    let mut w = BufWriter::new(writer);
    w.write_all(&BINARY_MAGIC)?;
    w.write_all(&BINARY_VERSION.to_le_bytes())?;
    let app = trace.app().as_bytes();
    let app_len = u32::try_from(app.len())
        .ok()
        .filter(|&l| l <= MAX_APP_NAME_BYTES)
        .ok_or_else(|| CoreError::Parse(format!("app name too long ({} bytes)", app.len())))?;
    w.write_all(&app_len.to_le_bytes())?;
    w.write_all(app)?;
    let shape = trace.shape();
    for dim in [shape.trials, shape.ranks, shape.iterations, shape.threads] {
        w.write_all(&(dim as u64).to_le_bytes())?;
    }
    // Serialize samples through one flat byte buffer: a single large
    // `write_all` instead of 2 × 768,000 small writes.
    let mut bytes = Vec::with_capacity(trace.samples().len() * 16);
    for s in trace.samples() {
        bytes.extend_from_slice(&s.enter_ns.to_le_bytes());
        bytes.extend_from_slice(&s.exit_ns.to_le_bytes());
    }
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// Reads a trace written by [`write_binary`].
///
/// # Errors
/// [`CoreError::Parse`] on bad magic/version, oversized or malformed header
/// fields, or trailing data; [`CoreError::Io`] on truncated input.
pub fn read_binary<R: Read>(reader: R) -> Result<TimingTrace, CoreError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != BINARY_MAGIC {
        return Err(CoreError::Parse("bad magic: not a binary trace".into()));
    }
    let mut u32_buf = [0u8; 4];
    r.read_exact(&mut u32_buf)?;
    let version = u32::from_le_bytes(u32_buf);
    if version != BINARY_VERSION {
        return Err(CoreError::Parse(format!(
            "unsupported binary trace version {version}"
        )));
    }
    r.read_exact(&mut u32_buf)?;
    let app_len = u32::from_le_bytes(u32_buf);
    if app_len > MAX_APP_NAME_BYTES {
        return Err(CoreError::Parse(format!(
            "app name length {app_len} exceeds limit"
        )));
    }
    let mut app_bytes = vec![0u8; app_len as usize];
    r.read_exact(&mut app_bytes)?;
    let app = String::from_utf8(app_bytes)
        .map_err(|e| CoreError::Parse(format!("app name is not UTF-8: {e}")))?;
    let mut u64_buf = [0u8; 8];
    let mut dims = [0u64; 4];
    for d in &mut dims {
        r.read_exact(&mut u64_buf)?;
        *d = u64::from_le_bytes(u64_buf);
        if *d > MAX_BINARY_DIM {
            return Err(CoreError::Parse(format!(
                "shape dimension {d} exceeds limit {MAX_BINARY_DIM}"
            )));
        }
    }
    // Bound the *product* too, not just each dimension: four dims at the
    // per-dim cap would overflow `TraceShape::total_samples()`'s unchecked
    // multiply. The per-sample cap doubles as an allocation guard.
    let total = dims
        .iter()
        .try_fold(1u64, |acc, &d| acc.checked_mul(d))
        .filter(|&t| t <= MAX_BINARY_DIM)
        .ok_or_else(|| {
            CoreError::Parse(format!("total sample count exceeds limit {MAX_BINARY_DIM}"))
        })?;
    let shape = TraceShape::new(
        dims[0] as usize,
        dims[1] as usize,
        dims[2] as usize,
        dims[3] as usize,
    )?;
    debug_assert_eq!(shape.total_samples() as u64, total);
    let byte_len = (total as usize)
        .checked_mul(16)
        .ok_or_else(|| CoreError::Parse("sample count overflows".into()))?;
    let mut bytes = vec![0u8; byte_len];
    r.read_exact(&mut bytes)?;
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(CoreError::Parse("trailing bytes after samples".into()));
    }
    let mut trace = TimingTrace::new(app, shape);
    for (slot, chunk) in trace.samples_mut().iter_mut().zip(bytes.chunks_exact(16)) {
        *slot = ThreadSample {
            enter_ns: u64::from_le_bytes(chunk[0..8].try_into().expect("8-byte chunk half")),
            exit_ns: u64::from_le_bytes(chunk[8..16].try_into().expect("8-byte chunk half")),
        };
    }
    Ok(trace)
}

/// Saves a trace to a binary file.
///
/// # Errors
/// See [`write_binary`].
pub fn save_binary(trace: &TimingTrace, path: impl AsRef<Path>) -> Result<(), CoreError> {
    write_binary(trace, File::create(path)?)
}

/// Loads a trace from a binary file.
///
/// # Errors
/// See [`read_binary`].
pub fn load_binary(path: impl AsRef<Path>) -> Result<TimingTrace, CoreError> {
    read_binary(File::open(path)?)
}

/// CSV header used by [`write_csv`].
pub const CSV_HEADER: &str = "app,trial,rank,iteration,thread,enter_ns,exit_ns,compute_ns";

/// Writes a trace as CSV (one row per sample, header first).
pub fn write_csv<W: Write>(trace: &TimingTrace, writer: W) -> Result<(), CoreError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{CSV_HEADER}")?;
    let shape = trace.shape();
    for (flat, s) in trace.samples().iter().enumerate() {
        let idx = shape.unflat(flat);
        writeln!(
            w,
            "{},{},{},{},{},{},{},{}",
            trace.app(),
            idx.trial,
            idx.rank,
            idx.iteration,
            idx.thread,
            s.enter_ns,
            s.exit_ns,
            s.compute_time_ns()
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a CSV produced by [`write_csv`] back into a trace.
///
/// The shape is inferred from the maximum index in each dimension, so the file
/// must contain a complete dense grid (which [`write_csv`] always emits).
pub fn read_csv<R: Read>(reader: R) -> Result<TimingTrace, CoreError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .ok_or_else(|| CoreError::Parse("empty CSV".into()))??;
    if header.trim() != CSV_HEADER {
        return Err(CoreError::Parse(format!("unexpected header: {header}")));
    }
    let mut app: Option<String> = None;
    let mut rows: Vec<(SampleIndex, ThreadSample)> = Vec::new();
    let (mut max_t, mut max_r, mut max_i, mut max_th) = (0usize, 0usize, 0usize, 0usize);
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 8 {
            return Err(CoreError::Parse(format!(
                "line {}: expected 8 fields, got {}",
                lineno + 2,
                fields.len()
            )));
        }
        let parse_usize = |s: &str, what: &str| {
            s.trim().parse::<usize>().map_err(|e| {
                CoreError::Parse(format!("line {}: bad {what} `{s}`: {e}", lineno + 2))
            })
        };
        let parse_u64 = |s: &str, what: &str| {
            s.trim().parse::<u64>().map_err(|e| {
                CoreError::Parse(format!("line {}: bad {what} `{s}`: {e}", lineno + 2))
            })
        };
        match &app {
            None => app = Some(fields[0].to_string()),
            Some(a) if a != fields[0] => {
                return Err(CoreError::Parse(format!(
                    "line {}: mixed apps `{a}` and `{}`",
                    lineno + 2,
                    fields[0]
                )))
            }
            _ => {}
        }
        let idx = SampleIndex::new(
            parse_usize(fields[1], "trial")?,
            parse_usize(fields[2], "rank")?,
            parse_usize(fields[3], "iteration")?,
            parse_usize(fields[4], "thread")?,
        );
        let s = ThreadSample {
            enter_ns: parse_u64(fields[5], "enter_ns")?,
            exit_ns: parse_u64(fields[6], "exit_ns")?,
        };
        max_t = max_t.max(idx.trial);
        max_r = max_r.max(idx.rank);
        max_i = max_i.max(idx.iteration);
        max_th = max_th.max(idx.thread);
        rows.push((idx, s));
    }
    let app = app.ok_or_else(|| CoreError::Parse("CSV has no data rows".into()))?;
    let shape = TraceShape::new(max_t + 1, max_r + 1, max_i + 1, max_th + 1)?;
    if rows.len() != shape.total_samples() {
        return Err(CoreError::Parse(format!(
            "CSV has {} rows but inferred shape needs {}",
            rows.len(),
            shape.total_samples()
        )));
    }
    let mut trace = TimingTrace::new(app, shape);
    for (idx, s) in rows {
        trace.set(idx, s)?;
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> TimingTrace {
        TimingTrace::from_fn("MiniFE", TraceShape::new(2, 2, 3, 4).unwrap(), |idx| {
            ThreadSample::new(100, 100 + (idx.thread as u64 + 1) * 1000)
        })
    }

    #[test]
    fn json_roundtrip_in_memory() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_json(&trace, &mut buf).unwrap();
        let back = read_json(&buf[..]).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn json_file_roundtrip() {
        let dir = std::env::temp_dir().join("ebird_core_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let trace = sample_trace();
        save_json(&trace, &path).unwrap();
        let back = load_json(&path).unwrap();
        assert_eq!(trace, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_roundtrip() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with(CSV_HEADER));
        assert_eq!(text.lines().count(), 1 + trace.samples().len());
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn csv_rejects_bad_header() {
        let e = read_csv("nope\n1,2,3\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("unexpected header"));
    }

    #[test]
    fn csv_rejects_wrong_field_count() {
        let data = format!("{CSV_HEADER}\nMiniFE,0,0,0\n");
        let e = read_csv(data.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("expected 8 fields"));
    }

    #[test]
    fn csv_rejects_unparseable_numbers() {
        let data = format!("{CSV_HEADER}\nMiniFE,0,0,0,zero,1,2,1\n");
        let e = read_csv(data.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("bad thread"));
    }

    #[test]
    fn csv_rejects_incomplete_grid() {
        let data = format!("{CSV_HEADER}\nMiniFE,0,0,0,1,1,2,1\n");
        // Single row claims thread index 1 exists, so shape needs 2 samples.
        let e = read_csv(data.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("rows"));
    }

    #[test]
    fn csv_rejects_mixed_apps() {
        let data = format!("{CSV_HEADER}\nA,0,0,0,0,1,2,1\nB,0,0,0,1,1,2,1\n");
        let e = read_csv(data.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("mixed apps"));
    }

    #[test]
    fn csv_rejects_empty_input() {
        assert!(read_csv("".as_bytes()).is_err());
        let only_header = format!("{CSV_HEADER}\n");
        assert!(read_csv(only_header.as_bytes()).is_err());
    }

    #[test]
    fn binary_roundtrip_in_memory() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_binary(&trace, &mut buf).unwrap();
        assert_eq!(
            buf.len(),
            8 + 4 + 4 + trace.app().len() + 32 + trace.samples().len() * 16
        );
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn binary_preserves_u64_max_sentinel() {
        // Unrecorded collector slots carry u64::MAX stamps; they must
        // round-trip exactly (they would lose precision through an f64).
        let trace = TimingTrace::from_fn("sentinel", TraceShape::new(1, 1, 2, 3).unwrap(), |idx| {
            if idx.thread == 1 {
                ThreadSample {
                    enter_ns: u64::MAX,
                    exit_ns: u64::MAX,
                }
            } else {
                ThreadSample::new(7, 11)
            }
        });
        let mut buf = Vec::new();
        write_binary(&trace, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(trace, back);
        assert_eq!(
            back.get(SampleIndex::new(0, 0, 0, 1)).unwrap().enter_ns,
            u64::MAX
        );
    }

    #[test]
    fn binary_file_roundtrip() {
        let dir = std::env::temp_dir().join("ebird_core_io_bin_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.bin");
        let trace = sample_trace();
        save_binary(&trace, &path).unwrap();
        let back = load_binary(&path).unwrap();
        assert_eq!(trace, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_rejects_bad_magic_and_version() {
        let e = read_binary(&b"NOTTRACE"[..8]).unwrap_err();
        assert!(e.to_string().contains("bad magic"));
        let mut buf = Vec::new();
        buf.extend_from_slice(&BINARY_MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        let e = read_binary(&buf[..]).unwrap_err();
        assert!(e.to_string().contains("version 99"));
    }

    #[test]
    fn binary_rejects_corrupt_header_fields() {
        // Oversized app-name length must not allocate.
        let mut buf = Vec::new();
        buf.extend_from_slice(&BINARY_MAGIC);
        buf.extend_from_slice(&BINARY_VERSION.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let e = read_binary(&buf[..]).unwrap_err();
        assert!(e.to_string().contains("exceeds limit"));

        // Oversized dimension must not allocate either.
        let mut buf = Vec::new();
        buf.extend_from_slice(&BINARY_MAGIC);
        buf.extend_from_slice(&BINARY_VERSION.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(b'x');
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let e = read_binary(&buf[..]).unwrap_err();
        assert!(e.to_string().contains("exceeds limit"));

        // Dimensions individually under the cap but whose product overflows
        // u64 (2^24 × 2^24 × 2^16 × 2^8 = 2^72) must be rejected, not
        // wrapped into a tiny allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(&BINARY_MAGIC);
        buf.extend_from_slice(&BINARY_VERSION.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(b'x');
        for d in [1u64 << 24, 1 << 24, 1 << 16, 1 << 8] {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        let e = read_binary(&buf[..]).unwrap_err();
        assert!(
            e.to_string().contains("total sample count exceeds limit"),
            "{e}"
        );
    }

    #[test]
    fn binary_rejects_truncated_and_trailing_data() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_binary(&trace, &mut buf).unwrap();
        let truncated = &buf[..buf.len() - 1];
        assert!(read_binary(truncated).is_err());
        let mut extended = buf.clone();
        extended.push(0);
        let e = read_binary(&extended[..]).unwrap_err();
        assert!(e.to_string().contains("trailing"));
    }

    #[test]
    fn binary_and_json_agree() {
        let trace = sample_trace();
        let mut json = Vec::new();
        write_json(&trace, &mut json).unwrap();
        let mut bin = Vec::new();
        write_binary(&trace, &mut bin).unwrap();
        assert_eq!(
            read_json(&json[..]).unwrap(),
            read_binary(&bin[..]).unwrap()
        );
        // Binary is the compact one.
        assert!(
            bin.len() < json.len(),
            "bin {} vs json {}",
            bin.len(),
            json.len()
        );
    }
}
