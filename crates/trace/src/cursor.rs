//! A resumable, offset-tracking JSONL event cursor.
//!
//! The batch readers ([`read_jsonl`](crate::read_jsonl),
//! [`read_jsonl_lossy`](crate::read_jsonl_lossy)) consume a whole stream
//! and return a [`Trace`](crate::Trace); a [`JsonlCursor`] instead yields
//! one event at a time while maintaining a [`CursorState`] — exact byte
//! offset, line count, event count, and the full lossy-skip record — that
//! can be serialized into a checkpoint and later handed back to
//! [`JsonlCursor::resume`] with a reader seeked to
//! [`CursorState::byte_offset`]. A resumed cursor continues line
//! numbering, skip accounting, and `max_errors` budgeting exactly where
//! the checkpointed one stopped, so an interrupted + resumed scan is
//! indistinguishable from an uninterrupted one.
//!
//! The batch readers are drains over this cursor, so every JSONL reader
//! shares one line loop and one decoder. [`JsonlCursor::next_into`]
//! first offers each line to the direct decoder, which parses the exact
//! shape [`write_jsonl`](crate::write_jsonl) emits in place, straight
//! into [`EventBatch`] columns. A line it declines — whitespace, other
//! key orders, unknown or duplicate keys, non-canonical numbers, the
//! BOM-stripped first line, anything malformed — goes through serde, so
//! serde alone decides what is valid and words every error. The decoder
//! accepts only lines whose serde result it reproduces exactly, and
//! [`CursorState`] holds nothing decoder-specific, so events, skips,
//! errors and the state — and the checkpoint bytes built from it — are
//! the same whichever decoder took a line.

use std::io::{BufReader, Read};

use serde::{Deserialize, Serialize};

use crate::batch::{EventBatch, EventRef};
use crate::direct;
use crate::event::TraceEvent;
use crate::lossy::{ErrorClass, ErrorPolicy, ReadOptions, SkippedLine};
use crate::serial::{is_blank, LineReader, TraceIoError};

/// Everything a [`JsonlCursor`] needs to resume mid-stream.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CursorState {
    /// Byte offset of the first unconsumed line (seek target on resume).
    pub byte_offset: u64,
    /// Physical lines consumed (blank lines count).
    pub lines: usize,
    /// Events yielded.
    pub events: u64,
    /// Every line dropped so far (lossy mode).
    pub skipped: Vec<SkippedLine>,
    /// Whether a UTF-8 BOM was stripped from the first line.
    pub bom_stripped: bool,
    /// Lines whose CRLF terminator was normalized.
    pub crlf_lines: usize,
}

/// A streaming JSONL reader that tracks its own resume point.
pub struct JsonlCursor<R> {
    lines: LineReader<BufReader<R>>,
    options: ReadOptions,
    state: CursorState,
}

impl<R: Read> JsonlCursor<R> {
    /// A cursor over a fresh stream.
    pub fn new(reader: R, options: ReadOptions) -> Self {
        JsonlCursor {
            lines: LineReader::new(BufReader::new(reader)),
            options,
            state: CursorState::default(),
        }
    }

    /// Resumes from a checkpointed `state`. The caller must have seeked
    /// `reader` to `state.byte_offset`.
    pub fn resume(reader: R, options: ReadOptions, state: CursorState) -> Self {
        JsonlCursor {
            lines: LineReader::with_start(BufReader::new(reader), state.lines),
            options,
            state,
        }
    }

    /// The current resume point. Valid to checkpoint after any
    /// [`next_event`](Self::next_event) return — the offset always sits
    /// on a line boundary past everything already consumed.
    #[must_use]
    pub fn state(&self) -> &CursorState {
        &self.state
    }

    /// Consumes the cursor, yielding its final state.
    #[must_use]
    pub fn into_state(self) -> CursorState {
        self.state
    }

    /// Yields the next event, or `None` at end of stream. A one-row
    /// wrapper over [`next_into`](Self::next_into).
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on read failure,
    /// [`TraceIoError::TooManyErrors`] when the lossy skip budget is
    /// exhausted, and — under [`ErrorPolicy::Abort`] — the strict
    /// reader's per-line errors.
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        let mut batch = EventBatch::new();
        Ok(self
            .next_into(&mut batch)?
            .then(|| batch.get(0).expect("one decoded row").to_event()))
    }

    /// Decodes the next event straight into a new row of `batch`.
    /// Returns whether an event was appended; `false` means end of
    /// stream.
    ///
    /// A line in the canonical [`write_jsonl`](crate::write_jsonl)
    /// shape takes the direct decoder; every other line — including
    /// the BOM-stripped first line — goes through serde, and serde's
    /// verdict decides whether it is an event or a skip. Either way the row is identical and so is
    /// [`state`](Self::state).
    ///
    /// # Errors
    ///
    /// Same failure model as [`next_event`](Self::next_event).
    pub fn next_into(&mut self, batch: &mut EventBatch) -> Result<bool, TraceIoError> {
        while let Some(line) = self.lines.next_line()? {
            self.state.byte_offset += line.raw_len();
            self.state.lines = line.number;
            self.state.bom_stripped |= line.bom;
            self.state.crlf_lines += usize::from(line.crlf);
            if is_blank(line.bytes) {
                continue;
            }
            let (class, message) = match std::str::from_utf8(line.bytes) {
                Err(e) => (ErrorClass::InvalidUtf8, e.to_string()),
                Ok(text) if !line.bom && direct::decode_line(text, batch) => {
                    self.state.events += 1;
                    return Ok(true);
                }
                Ok(text) => match serde_json::from_str::<TraceEvent>(text) {
                    Ok(event) => {
                        batch.push_event(&event);
                        self.state.events += 1;
                        return Ok(true);
                    }
                    Err(e) => {
                        if self.options.on_error == ErrorPolicy::Abort {
                            return Err(TraceIoError::Parse {
                                line: line.number,
                                source: e,
                            });
                        }
                        let class = if line.terminated {
                            ErrorClass::MalformedJson
                        } else {
                            ErrorClass::TruncatedTail
                        };
                        (class, e.to_string())
                    }
                },
            };
            if self.options.on_error == ErrorPolicy::Abort {
                // Only reachable for invalid UTF-8 (JSON aborts above).
                return Err(TraceIoError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("line {}: {message}", line.number),
                )));
            }
            self.state.skipped.push(SkippedLine {
                line: line.number,
                class,
                message,
            });
            if let Some(max) = self.options.max_errors {
                if self.state.skipped.len() > max {
                    return Err(TraceIoError::TooManyErrors {
                        errors: self.state.skipped.len(),
                        max,
                    });
                }
            }
        }
        Ok(false)
    }

    /// Reads the rest of the stream into owned events, decoding through
    /// batches, and yields them with the final state — what the batch
    /// readers ([`read_jsonl`](crate::read_jsonl),
    /// [`read_jsonl_lossy`](crate::read_jsonl_lossy)) return.
    pub(crate) fn drain(mut self) -> Result<(Vec<TraceEvent>, CursorState), TraceIoError> {
        let mut events = Vec::new();
        let mut batch = EventBatch::new();
        while self.next_into(&mut batch)? {
            if batch.len() == DRAIN_BATCH {
                events.extend(batch.iter().map(EventRef::to_event));
                batch = EventBatch::new();
            }
        }
        events.extend(batch.iter().map(EventRef::to_event));
        Ok((events, self.state))
    }
}

/// Rows per batch when [`JsonlCursor::drain`] materializes owned events.
const DRAIN_BATCH: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ArgValue;
    use crate::lossy::read_jsonl_lossy;
    use crate::{write_jsonl, Trace};

    fn sample_bytes() -> Vec<u8> {
        let trace = Trace::from_events(
            (0u32..6)
                .map(|i| {
                    TraceEvent::build(
                        "write",
                        1,
                        vec![ArgValue::Fd(3), ArgValue::UInt(u64::from(i) * 7)],
                        64,
                    )
                })
                .collect(),
        );
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &trace).unwrap();
        buf
    }

    fn corrupt_bytes() -> Vec<u8> {
        let clean = String::from_utf8(sample_bytes()).unwrap();
        let lines: Vec<&str> = clean.lines().collect();
        let mut text = format!("\u{feff}{}\r\n", lines[0]);
        text.push_str("not json\n\n");
        for l in &lines[1..5] {
            text.push_str(l);
            text.push('\n');
        }
        // Valid lines for both decoders: an escaped path the direct
        // decoder takes, and a spaced-out line it declines to serde.
        let escaped = TraceEvent::build("open", 2, vec![ArgValue::Path("/mnt/\"q\"\n".into())], 3);
        text.push_str(&serde_json::to_string(&escaped).unwrap());
        text.push('\n');
        text.push_str(&lines[1].replacen(',', " , ", 1));
        text.push('\n');
        let mut bytes = text.into_bytes();
        bytes.extend_from_slice(b"\xff\xfe torn\n");
        bytes.extend_from_slice(&lines[5].as_bytes()[..lines[5].len() / 2]);
        bytes
    }

    fn drain<R: Read>(cursor: &mut JsonlCursor<R>) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        while let Some(e) = cursor.next_event().unwrap() {
            events.push(e);
        }
        events
    }

    #[test]
    fn cursor_matches_batch_lossy_reader() {
        let bytes = corrupt_bytes();
        let batch = read_jsonl_lossy(&bytes[..], &ReadOptions::default()).unwrap();
        let mut cursor = JsonlCursor::new(&bytes[..], ReadOptions::default());
        let events = drain(&mut cursor);
        let state = cursor.into_state();
        assert_eq!(events, batch.trace.events());
        assert_eq!(state.skipped, batch.skipped);
        assert_eq!(state.lines, batch.lines);
        assert_eq!(state.bom_stripped, batch.bom_stripped);
        assert_eq!(state.crlf_lines, batch.crlf_lines);
        assert_eq!(state.byte_offset, bytes.len() as u64);
        assert_eq!(state.events, events.len() as u64);
    }

    #[test]
    fn resume_at_every_event_boundary_is_seamless() {
        let bytes = corrupt_bytes();
        let mut full = JsonlCursor::new(&bytes[..], ReadOptions::default());
        let full_events = drain(&mut full);
        let full_state = full.into_state();
        // Boundaries fall after lines of both decoders.
        let texts: Vec<&str> = bytes
            .split(|&b| b == b'\n')
            .filter_map(|l| std::str::from_utf8(l).ok())
            .collect();
        let direct = |l: &str| direct::decode_line(l, &mut EventBatch::new());
        let serde_only = |l: &str| !direct(l) && serde_json::from_str::<TraceEvent>(l).is_ok();
        assert!(texts.iter().filter(|l| direct(l)).count() >= 4);
        assert!(texts.iter().any(|l| serde_only(l)));

        for stop_after in 0..=full_events.len() {
            let mut head = JsonlCursor::new(&bytes[..], ReadOptions::default());
            let mut events = Vec::new();
            for _ in 0..stop_after {
                events.push(head.next_event().unwrap().unwrap());
            }
            let saved = head.into_state();
            // Round-trip the state through serde, as a checkpoint would.
            let saved: CursorState =
                serde_json::from_str(&serde_json::to_string(&saved).unwrap()).unwrap();
            let tail_bytes = &bytes[usize::try_from(saved.byte_offset).unwrap()..];
            let mut tail = JsonlCursor::resume(tail_bytes, ReadOptions::default(), saved);
            events.extend(drain(&mut tail));
            assert_eq!(events, full_events, "stop_after={stop_after}");
            assert_eq!(tail.into_state(), full_state, "stop_after={stop_after}");
        }
    }

    #[test]
    fn strict_policy_aborts_like_read_jsonl() {
        let options = ReadOptions {
            on_error: ErrorPolicy::Abort,
            ..ReadOptions::default()
        };
        let mut cursor = JsonlCursor::new(&b"\nbad line\n"[..], options);
        match cursor.next_event().unwrap_err() {
            TraceIoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn max_errors_budget_spans_resume() {
        let options = ReadOptions {
            max_errors: Some(2),
            ..ReadOptions::default()
        };
        let bytes = b"junk one\njunk two\njunk three\n";
        let mut head = JsonlCursor::new(&bytes[..], options);
        assert!(head.next_event().unwrap_err().to_string().contains("limit"));

        // Consume one junk line's worth by resuming after the first line
        // with one skip on the books: the budget continues, not resets.
        let mut head = JsonlCursor::new(&b"junk one\n"[..], options);
        assert!(head.next_event().unwrap().is_none());
        let mut state = head.into_state();
        assert_eq!(state.skipped.len(), 1);
        state.byte_offset = 0;
        let mut tail = JsonlCursor::resume(&b"junk two\njunk three\n"[..], options, state);
        match tail.next_event().unwrap_err() {
            TraceIoError::TooManyErrors { errors, max } => {
                assert_eq!(errors, 3);
                assert_eq!(max, 2);
            }
            other => panic!("expected TooManyErrors, got {other}"),
        }
    }
}
