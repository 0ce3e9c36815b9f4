//! Trace persistence: JSON (full fidelity), CSV (interchange) and a compact
//! little-endian binary format (speed).
//!
//! All three store what a [`TimingTrace`] holds — the application name, the
//! four dimension sizes and one compute time in nanoseconds per sample — and
//! each has one writer and one reader. JSON is the trace's serde form
//! (`{"app":…,"shape":{…},"samples":[ns, ns, …]}`). CSV is the flat
//! `app,trial,rank,iteration,thread,compute_ns` table that external plotting
//! tools (the paper's figures were produced with NumPy/Matplotlib) consume.
//! The binary format ([`write_binary`]/[`read_binary`]) stores the same dense
//! column as raw little-endian `u64`s behind a fixed header, so a
//! paper-scale trace (768,000 samples ≈ 6 MB) loads in milliseconds instead
//! of the seconds JSON parsing takes.
//!
//! A reader's input is outside the program: whatever the bytes, a reader
//! returns a trace whose every accessor is in range, or a [`CoreError`] —
//! dimensions are bounded by `MAX_TRACE_DIM` (2²⁴) before anything is sized
//! from them, and the sample count must match the shape.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use serde::Deserialize;

use crate::sample::{SampleIndex, ThreadSample};
use crate::trace::{TimingTrace, TraceShape};
use crate::CoreError;

/// Upper bound a reader accepts per shape dimension **and** for the
/// dimensions' product, guarding `TraceShape::total_samples()`'s unchecked
/// multiply and the `total × 8`-byte allocation against corrupt input (the
/// paper-scale trace is 10 × 8 × 200 × 48 = 768,000 samples; this leaves
/// ~20× headroom).
const MAX_TRACE_DIM: u64 = 1 << 24;

/// The shape a file declares, if every dimension and their product are
/// within `MAX_TRACE_DIM`.
///
/// # Errors
/// [`CoreError::Parse`] naming the limit; [`CoreError::EmptyShape`] for a
/// zero dimension.
fn checked_shape(dims: [u64; 4]) -> Result<TraceShape, CoreError> {
    if let Some(d) = dims.iter().find(|&&d| d > MAX_TRACE_DIM) {
        return Err(CoreError::Parse(format!(
            "shape dimension {d} exceeds limit {MAX_TRACE_DIM}"
        )));
    }
    // Four dimensions at the per-dimension cap would overflow the product.
    dims.iter()
        .try_fold(1u64, |acc, &d| acc.checked_mul(d))
        .filter(|&total| total <= MAX_TRACE_DIM)
        .ok_or_else(|| {
            CoreError::Parse(format!("total sample count exceeds limit {MAX_TRACE_DIM}"))
        })?;
    let [trials, ranks, iterations, threads] = dims.map(|d| d as usize);
    TraceShape::new(trials, ranks, iterations, threads)
}

/// Writes a trace as JSON to any writer.
pub fn write_json<W: Write>(trace: &TimingTrace, writer: W) -> Result<(), CoreError> {
    serde_json::to_writer(writer, trace)?;
    Ok(())
}

/// Reads a trace from JSON.
///
/// # Errors
/// [`CoreError::Json`] for malformed text or a missing field,
/// [`CoreError::Parse`] / [`CoreError::EmptyShape`] for an out-of-range
/// shape, [`CoreError::ShapeMismatch`] when the sample count is not the
/// shape's.
pub fn read_json<R: Read>(reader: R) -> Result<TimingTrace, CoreError> {
    /// What [`write_json`] emits, before any of it is trusted.
    #[derive(Deserialize)]
    struct TraceFile {
        app: String,
        shape: TraceShape,
        samples: Vec<ThreadSample>,
    }
    let TraceFile {
        app,
        shape,
        samples,
    } = serde_json::from_reader(reader)?;
    let dims = [shape.trials, shape.ranks, shape.iterations, shape.threads];
    TimingTrace::from_samples(app, checked_shape(dims.map(|d| d as u64))?, samples)
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

/// Current binary format version. Version 1 stored an enter and an exit
/// stamp per sample; no file of it was ever written outside tests, and
/// [`read_binary`] refuses it.
pub const BINARY_VERSION: u32 = 2;

/// Upper bound accepted for the application-name length field, guarding
/// against allocating from a corrupt header.
const MAX_APP_NAME_BYTES: u32 = 4096;

/// Writes a trace in the compact binary format:
///
/// ```text
/// magic        8 × u8   "EBTRACE\x01"
/// version      u32 LE   2
/// app_len      u32 LE
/// app          app_len × u8 (UTF-8)
/// trials       u64 LE
/// ranks        u64 LE
/// iterations   u64 LE
/// threads      u64 LE
/// samples      total × compute_ns u64 LE, thread innermost
/// ```
///
/// Every `u64` value round-trips exactly.
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
    // `write_all` instead of 768,000 small writes.
    let mut bytes = Vec::with_capacity(trace.samples().len() * 8);
    for s in trace.samples() {
        bytes.extend_from_slice(&s.compute_time_ns().to_le_bytes());
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
    }
    let shape = checked_shape(dims)?;
    let mut bytes = vec![0u8; shape.total_samples() * 8];
    r.read_exact(&mut bytes)?;
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(CoreError::Parse("trailing bytes after samples".into()));
    }
    let samples = bytes
        .chunks_exact(8)
        .map(|word| ThreadSample::new(0, u64::from_le_bytes(word.try_into().expect("8 bytes"))))
        .collect();
    TimingTrace::from_samples(app, shape, samples)
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
pub const CSV_HEADER: &str = "app,trial,rank,iteration,thread,compute_ns";

/// Writes a trace as CSV (one row per sample, header first).
pub fn write_csv<W: Write>(trace: &TimingTrace, writer: W) -> Result<(), CoreError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{CSV_HEADER}")?;
    let shape = trace.shape();
    for (flat, s) in trace.samples().iter().enumerate() {
        let idx = shape.unflat(flat);
        writeln!(
            w,
            "{},{},{},{},{},{}",
            trace.app(),
            idx.trial,
            idx.rank,
            idx.iteration,
            idx.thread,
            s.compute_time_ns()
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a CSV produced by [`write_csv`] back into a trace.
///
/// The shape is inferred from the maximum index in each dimension, so the file
/// must contain a complete dense grid (which [`write_csv`] always emits):
/// every slot of the inferred shape written by exactly one row.
///
/// # Errors
/// [`CoreError::Parse`] naming the offending line for a malformed row, an
/// index beyond `MAX_TRACE_DIM` or a slot written twice, and for a row
/// count that is not the inferred shape's.
pub fn read_csv<R: Read>(reader: R) -> Result<TimingTrace, CoreError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .ok_or_else(|| CoreError::Parse("empty CSV".into()))??;
    if header.trim() != CSV_HEADER {
        return Err(CoreError::Parse(format!("unexpected header: {header}")));
    }
    let mut app: Option<String> = None;
    let mut rows: Vec<(usize, SampleIndex, u64)> = Vec::new();
    let mut max_index = [0u64; 4];
    for (lineno, line) in lines.enumerate() {
        let lineno = lineno + 2;
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 6 {
            return Err(CoreError::Parse(format!(
                "line {lineno}: expected 6 fields, got {}",
                fields.len()
            )));
        }
        let parse_u64 = |s: &str, what: &str| {
            s.trim()
                .parse::<u64>()
                .map_err(|e| CoreError::Parse(format!("line {lineno}: bad {what} `{s}`: {e}")))
        };
        match &app {
            None => app = Some(fields[0].to_string()),
            Some(a) if a != fields[0] => {
                return Err(CoreError::Parse(format!(
                    "line {lineno}: mixed apps `{a}` and `{}`",
                    fields[0]
                )))
            }
            _ => {}
        }
        let mut index = [0u64; 4];
        for (k, what) in ["trial", "rank", "iteration", "thread"]
            .into_iter()
            .enumerate()
        {
            index[k] = parse_u64(fields[1 + k], what)?;
            if index[k] >= MAX_TRACE_DIM {
                return Err(CoreError::Parse(format!(
                    "line {lineno}: {what} index {} exceeds limit {MAX_TRACE_DIM}",
                    index[k]
                )));
            }
            max_index[k] = max_index[k].max(index[k]);
        }
        let [trial, rank, iteration, thread] = index.map(|i| i as usize);
        rows.push((
            lineno,
            SampleIndex::new(trial, rank, iteration, thread),
            parse_u64(fields[5], "compute_ns")?,
        ));
    }
    let app = app.ok_or_else(|| CoreError::Parse("CSV has no data rows".into()))?;
    let shape = checked_shape(max_index.map(|i| i + 1))?;
    if rows.len() != shape.total_samples() {
        return Err(CoreError::Parse(format!(
            "CSV has {} rows but inferred shape needs {}",
            rows.len(),
            shape.total_samples()
        )));
    }
    // As many rows as slots: every slot is written exactly once unless some
    // row repeats another's index, which also leaves a hole elsewhere.
    let mut trace = TimingTrace::new(app, shape);
    let mut written = vec![false; rows.len()];
    for (lineno, idx, compute_ns) in rows {
        let flat = shape.flat(idx)?;
        if std::mem::replace(&mut written[flat], true) {
            return Err(CoreError::Parse(format!(
                "line {lineno}: second row for sample {idx}, so another sample has none"
            )));
        }
        trace.samples_mut()[flat] = ThreadSample::new(0, compute_ns);
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
        assert!(e.to_string().contains("expected 6 fields"));
    }

    #[test]
    fn csv_rejects_unparseable_numbers() {
        let data = format!("{CSV_HEADER}\nMiniFE,0,0,0,zero,1\n");
        let e = read_csv(data.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("bad thread"));
    }

    #[test]
    fn csv_rejects_incomplete_grid() {
        let data = format!("{CSV_HEADER}\nMiniFE,0,0,0,1,1\n");
        // Single row claims thread index 1 exists, so shape needs 2 samples.
        let e = read_csv(data.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("rows"));
    }

    #[test]
    fn csv_rejects_mixed_apps() {
        let data = format!("{CSV_HEADER}\nA,0,0,0,0,1\nB,0,0,0,1,1\n");
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
            8 + 4 + 4 + trace.app().len() + 32 + trace.samples().len() * 8
        );
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn every_format_preserves_extreme_compute_times() {
        // 0 is what an unrecorded collector slot stores; u64::MAX would lose
        // precision through an f64.
        let extremes = [0, 1, u64::MAX];
        let trace = TimingTrace::from_fn("extremes", TraceShape::new(1, 1, 2, 3).unwrap(), |idx| {
            ThreadSample::new(0, extremes[idx.thread])
        });
        let (mut bin, mut json, mut csv) = (Vec::new(), Vec::new(), Vec::new());
        write_binary(&trace, &mut bin).unwrap();
        write_json(&trace, &mut json).unwrap();
        write_csv(&trace, &mut csv).unwrap();
        assert_eq!(read_binary(&bin[..]).unwrap(), trace);
        assert_eq!(read_json(&json[..]).unwrap(), trace);
        assert_eq!(read_csv(&csv[..]).unwrap(), trace);
        assert_eq!(
            String::from_utf8(json).unwrap(),
            format!(
                "{{\"app\":\"extremes\",\"shape\":{{\"trials\":1,\"ranks\":1,\"iterations\":2,\
                 \"threads\":3}},\"samples\":[0,1,{max},0,1,{max}]}}",
                max = u64::MAX
            ),
            "samples are bare integers"
        );
    }

    #[test]
    fn csv_rejects_a_duplicated_row_and_the_hole_it_leaves() {
        // Two rows, a two-slot shape — but both rows claim thread 1, so
        // thread 0 was never written. The parent loaded this as (0, 7).
        let data = format!("{CSV_HEADER}\nA,0,0,0,1,5\nA,0,0,0,1,7\n");
        let e = read_csv(data.as_bytes()).unwrap_err();
        assert!(matches!(e, CoreError::Parse(_)), "{e}");
        assert!(e.to_string().contains("line 3: second row"), "{e}");
    }

    #[test]
    fn csv_rejects_indices_beyond_the_dimension_cap() {
        // 2^32 per dimension overflowed `total_samples()`'s multiply.
        let data = format!("{CSV_HEADER}\nA,4294967296,4294967296,0,0,1\n");
        let e = read_csv(data.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 2: trial index"), "{e}");
        // Each index under the cap, their product over it.
        let data = format!("{CSV_HEADER}\nA,16777215,16777215,0,0,1\n");
        let e = read_csv(data.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("total sample count"), "{e}");
    }

    #[test]
    fn json_rejects_a_sample_count_that_is_not_the_shapes() {
        let shape = |t: u64, th: u64| {
            format!("{{\"trials\":{t},\"ranks\":1,\"iterations\":2,\"threads\":{th}}}")
        };
        let file = |shape: String| format!("{{\"app\":\"A\",\"shape\":{shape},\"samples\":[1]}}");
        // The parent loaded this and panicked on the first slice.
        assert!(matches!(
            read_json(file(shape(1, 2)).as_bytes()),
            Err(CoreError::ShapeMismatch)
        ));
        assert!(matches!(
            read_json(file(shape(0, 2)).as_bytes()),
            Err(CoreError::EmptyShape)
        ));
        let e = read_json(file(shape(1 << 40, 1 << 40)).as_bytes()).unwrap_err();
        assert!(e.to_string().contains("exceeds limit"), "{e}");
        let missing = "{\"app\":\"A\",\"samples\":[1]}";
        assert!(matches!(
            read_json(missing.as_bytes()),
            Err(CoreError::Json(_))
        ));
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
        // Version 1 (two stamps per sample) is not read as version 2.
        let mut v1 = Vec::new();
        write_binary(&sample_trace(), &mut v1).unwrap();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        let e = read_binary(&v1[..]).unwrap_err();
        assert!(e.to_string().contains("unsupported binary trace version 1"));
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
        for d in [1, 1, 1, u64::MAX] {
            buf.extend_from_slice(&d.to_le_bytes());
        }
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
    }
}
