//! Streaming trace I/O: format auto-detection, a writer that emits
//! one record at a time, and a reader that yields events as an
//! iterator — neither ever holds the whole log in memory.
//!
//! For the binary codec both ends own one scratch buffer and reuse it
//! for every record: the writer stages each record there, and the
//! reader gathers there only the rare record that straddles the end of
//! its source's buffer; every other record is parsed in place.  The
//! in-memory helpers share that code: [`decode`] is a [`TraceReader`]
//! over a `&[u8]` (whose buffer is the whole input, so nothing is
//! copied), [`encode`] appends the writer's records into one output
//! reserved at its exact size, and [`fingerprint`] streams the writer
//! into an FNV-1a sink from any iterator of events, so neither the log
//! nor its encoding has to exist in memory.

use std::borrow::Borrow;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::binary::{self, Record};
use crate::error::TraceError;
use crate::event::TraceEvent;
use crate::json;

/// On-disk trace encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Length-prefixed binary (`.trace`, or any non-`.json` extension).
    Binary,
    /// One flat JSON object per line (`.json`).
    Json,
}

impl Format {
    /// Auto-detect by file extension: `.json` is JSON, everything else
    /// is binary.
    pub fn for_path(path: &Path) -> Format {
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Format::Json,
            _ => Format::Binary,
        }
    }
}

// ---------------------------------------------------------------- writer

/// Streaming trace writer.  Writes the header up front, one record per
/// [`write`](Self::write), and the end-of-log trailer (with the event
/// count) on [`finish`](Self::finish).  A log without its trailer is
/// detectably truncated.
pub struct TraceWriter<W: Write> {
    w: W,
    fmt: Format,
    events: u64,
    /// Binary record staging buffer, reused for every record.
    scratch: Vec<u8>,
}

impl<W: Write> TraceWriter<W> {
    /// Wrap a sink and write the format header.
    pub fn new(mut w: W, fmt: Format) -> std::io::Result<Self> {
        match fmt {
            Format::Binary => binary::write_header(&mut w)?,
            Format::Json => json::write_header(&mut w)?,
        }
        Ok(TraceWriter { w, fmt, events: 0, scratch: Vec::new() })
    }

    /// Append one event.
    pub fn write(&mut self, ev: &TraceEvent) -> std::io::Result<()> {
        match self.fmt {
            Format::Binary => binary::write_event(&mut self.w, ev, &mut self.scratch)?,
            Format::Json => json::write_event(&mut self.w, ev)?,
        }
        self.events += 1;
        Ok(())
    }

    /// Write the end-of-log trailer, flush, and return the sink.
    pub fn finish(mut self) -> std::io::Result<W> {
        match self.fmt {
            Format::Binary => binary::write_end(&mut self.w, self.events)?,
            Format::Json => json::write_end(&mut self.w, self.events)?,
        }
        self.w.flush()?;
        Ok(self.w)
    }
}

impl TraceWriter<BufWriter<File>> {
    /// Create a trace file, choosing the codec from the extension.
    pub fn create(path: &Path) -> Result<Self, TraceError> {
        let fmt = Format::for_path(path);
        let file = File::create(path)?;
        Ok(TraceWriter::new(BufWriter::new(file), fmt)?)
    }
}

// ---------------------------------------------------------------- reader

#[derive(PartialEq)]
enum ReadState {
    Reading,
    /// End trailer seen and validated; iteration is over.
    Finished,
    /// An error was yielded; iteration is over.
    Failed,
}

/// Streaming trace reader: an iterator of
/// `Result<TraceEvent, TraceError>`.  Validates the header on
/// construction and the end-of-log trailer (event count, no trailing
/// bytes) before ending iteration; a missing trailer is an error, so
/// any truncation — even at a record boundary — is caught.
pub struct TraceReader<R: BufRead> {
    r: R,
    fmt: Format,
    /// Byte offset of the next unread record.
    offset: u64,
    /// 1-based line number (JSON only; the header is line 1).
    line: u64,
    seen: u64,
    state: ReadState,
    /// Gathers a binary record that straddles the source's buffer.
    scratch: Vec<u8>,
}

impl TraceReader<BufReader<File>> {
    /// Open a trace file, choosing the codec from the extension.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let fmt = Format::for_path(path);
        let file = File::open(path)?;
        TraceReader::new(BufReader::new(file), fmt)
    }
}

impl<R: BufRead> TraceReader<R> {
    /// Wrap a source and validate the header.
    pub fn new(mut r: R, fmt: Format) -> Result<Self, TraceError> {
        let mut offset = 0u64;
        let mut line = 1u64;
        match fmt {
            Format::Binary => binary::read_header(&mut r, &mut offset)?,
            Format::Json => {
                let (text, n) = read_json_line(&mut r)?;
                if n == 0 {
                    return Err(TraceError::Truncated { offset: 0 });
                }
                json::parse_header(&text, 1, 0)?;
                offset = n;
                line = 2;
            }
        }
        Ok(TraceReader {
            r,
            fmt,
            offset,
            line,
            seen: 0,
            state: ReadState::Reading,
            scratch: Vec::new(),
        })
    }

    fn next_record(&mut self) -> Result<Option<Record>, TraceError> {
        match self.fmt {
            Format::Binary => {
                binary::read_record(&mut self.r, &mut self.offset, &mut self.scratch)
            }
            Format::Json => {
                let (text, n) = read_json_line(&mut self.r)?;
                if n == 0 {
                    return Ok(None);
                }
                let rec = json::parse_line(&text, self.line, self.offset)?;
                self.offset += n;
                self.line += 1;
                Ok(Some(rec))
            }
        }
    }

    /// After the end trailer: any further byte is corruption.
    fn check_eof(&mut self) -> Result<(), TraceError> {
        let buf = self.r.fill_buf()?;
        if !buf.is_empty() {
            return Err(TraceError::Malformed {
                offset: self.offset,
                what: "data after end trailer",
            });
        }
        Ok(())
    }

    /// One iterator step: `Ok(Some(..))` yields an event, `Ok(None)`
    /// is the validated end of the log.
    fn step(&mut self) -> Result<Option<TraceEvent>, TraceError> {
        match self.next_record()? {
            None => Err(TraceError::MissingEnd { offset: self.offset }),
            Some(Record::Event(ev)) => {
                self.seen += 1;
                Ok(Some(ev))
            }
            Some(Record::End { events }) => {
                if events != self.seen {
                    return Err(TraceError::CountMismatch {
                        declared: events,
                        seen: self.seen,
                        offset: self.offset,
                    });
                }
                self.check_eof()?;
                Ok(None)
            }
        }
    }
}

/// Read one line, returning (text without the newline, bytes consumed
/// including the newline).  `(.., 0)` is end-of-file.
fn read_json_line(r: &mut impl BufRead) -> Result<(String, u64), TraceError> {
    let mut text = String::new();
    let n = r.read_line(&mut text).map_err(|e| {
        // read_line surfaces invalid UTF-8 as InvalidData; map it to a
        // typed decode error rather than a bare I/O failure.
        if e.kind() == std::io::ErrorKind::InvalidData {
            TraceError::Io(std::io::Error::new(e.kind(), "trace line is not valid UTF-8"))
        } else {
            TraceError::Io(e)
        }
    })?;
    while text.ends_with('\n') || text.ends_with('\r') {
        text.pop();
    }
    Ok((text, n as u64))
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceEvent, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.state != ReadState::Reading {
            return None;
        }
        match self.step() {
            Ok(Some(ev)) => Some(Ok(ev)),
            Ok(None) => {
                self.state = ReadState::Finished;
                None
            }
            Err(e) => {
                self.state = ReadState::Failed;
                Some(Err(e))
            }
        }
    }
}

// ---------------------------------------------------------------- helpers

/// Write a full event log to a file, codec chosen by extension.
pub fn write_events(path: &Path, events: &[TraceEvent]) -> Result<(), TraceError> {
    let mut w = TraceWriter::create(path)?;
    for ev in events {
        w.write(ev)?;
    }
    w.finish()?;
    Ok(())
}

/// Read a full event log from a file, codec chosen by extension.
pub fn read_events(path: &Path) -> Result<Vec<TraceEvent>, TraceError> {
    TraceReader::open(path)?.collect()
}

/// Run a full event log through a [`TraceWriter`] into `sink`.
fn encode_into<W: Write, E: Borrow<TraceEvent>>(
    events: impl IntoIterator<Item = E>,
    fmt: Format,
    sink: W,
) -> W {
    const MSG: &str = "in-memory sinks cannot fail";
    let mut w = TraceWriter::new(sink, fmt).expect(MSG);
    for ev in events {
        w.write(ev.borrow()).expect(MSG);
    }
    w.finish().expect(MSG)
}

/// Encode a full event log to bytes.  The binary codec sizes the
/// output exactly and fills it in one pass ([`binary::encode`]); JSON
/// streams through a [`TraceWriter`].
pub fn encode(events: &[TraceEvent], fmt: Format) -> Vec<u8> {
    match fmt {
        Format::Binary => binary::encode(events),
        Format::Json => encode_into(events, fmt, Vec::new()),
    }
}

/// Decode a full event log from bytes.
pub fn decode(bytes: &[u8], fmt: Format) -> Result<Vec<TraceEvent>, TraceError> {
    // No record of either codec is shorter than a binary Fate record,
    // so this is room for every event the input can hold: the vector
    // never regrows, and the reservation is bounded by the input.
    let mut events = Vec::with_capacity(bytes.len() / binary::MIN_RECORD_LEN);
    for ev in TraceReader::new(bytes, fmt)? {
        events.push(ev?);
    }
    Ok(events)
}

/// FNV-1a 64 as a byte sink.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Content fingerprint of an event log: FNV-1a over its binary
/// encoding.  Stable across processes and runs, so it can key memo
/// tables and name replay artifacts.  The events may be borrowed from a
/// slice or generated on the fly; the encoder streams one record at a
/// time straight into the hash, so neither the log nor its encoding is
/// ever materialized.
pub fn fingerprint<E: Borrow<TraceEvent>>(events: impl IntoIterator<Item = E>) -> u64 {
    encode_into(events, Format::Binary, Fnv1a(0xcbf2_9ce4_8422_2325)).0
}
