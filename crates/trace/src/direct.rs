//! The direct JSONL decoder: canonical lines straight into batch columns.
//!
//! Deserializing a line through serde builds a `serde::Value` tree and
//! then an owned [`TraceEvent`](crate::TraceEvent) — about twenty heap
//! allocations per event before the row is copied into an
//! [`EventBatch`] and the event dropped. [`decode_line`] instead scans
//! the line in place and pushes the row through the batch's
//! [`RowBuilder`](crate::batch::RowBuilder): the syscall name goes
//! through the batch name table and path/str payloads are unescaped
//! straight into the batch arena, so a decoded line costs no allocation
//! beyond amortized column growth.
//!
//! The decoder is an exact accelerator, not a second reader. It accepts
//! only the shape [`write_jsonl`](crate::write_jsonl) emits:
//!
//! ```text
//! {"seq":N,"timestamp_ns":N,"pid":N,"name":"S","sysno":N,"args":[{"Tag":V},…],"retval":N}
//! ```
//!
//! with exactly those keys in that order, externally tagged arguments,
//! and canonical integers (no leading zeros, no `-0`, no fraction or
//! exponent) in range for their field. Anything else — whitespace,
//! other key orders, unknown or duplicate keys, floats, out-of-range
//! values, string escapes in the syscall name, a surrogate-pair `\u`
//! escape — is *declined*: the batch is left untouched and the caller
//! hands the line to serde. So serde stays the only definition of valid
//! input and the only source of error text; every line the decoder does
//! accept decodes to exactly the event serde would produce.

use crate::batch::{ArgView, EventBatch, RowBuilder};

/// Decodes one normalized line (terminator, `\r` and BOM already
/// stripped) into a new row of `batch`. Returns `false`, with `batch`
/// exactly as before, when the line is not in the canonical shape.
pub(crate) fn decode_line(line: &str, batch: &mut EventBatch) -> bool {
    let mut scan = Scan {
        line,
        bytes: line.as_bytes(),
        pos: 0,
    };
    let Some(head) = scan.head() else {
        return false;
    };
    let mut row = batch.begin_row();
    if scan.args(&mut row).is_none() {
        return false;
    }
    let Some(retval) = scan.tail() else {
        return false;
    };
    let name_id = row.intern_name(head.name);
    row.commit(
        head.seq,
        head.timestamp_ns,
        head.pid,
        name_id,
        head.sysno,
        retval,
    );
    true
}

/// The fields that precede `args` in a canonical line.
struct Head<'a> {
    seq: u64,
    timestamp_ns: u64,
    pid: u32,
    name: &'a str,
    sysno: u32,
}

/// A forward-only cursor over one line. Every method returns `None` to
/// decline; a declined line is abandoned, never resumed.
struct Scan<'a> {
    line: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scan<'a> {
    fn head(&mut self) -> Option<Head<'a>> {
        self.eat(b"{\"seq\":")?;
        let seq = self.uint()?;
        self.eat(b",\"timestamp_ns\":")?;
        let timestamp_ns = self.uint()?;
        self.eat(b",\"pid\":")?;
        let pid = u32::try_from(self.uint()?).ok()?;
        self.eat(b",\"name\":\"")?;
        let name = self.plain_str()?;
        self.eat(b",\"sysno\":")?;
        let sysno = u32::try_from(self.uint()?).ok()?;
        self.eat(b",\"args\":[")?;
        Some(Head {
            seq,
            timestamp_ns,
            pid,
            name,
            sysno,
        })
    }

    /// The argument list up to and including its closing `]`.
    fn args(&mut self, row: &mut RowBuilder<'_>) -> Option<()> {
        if self.eat(b"]").is_some() {
            return Some(());
        }
        loop {
            self.eat(b"{\"")?;
            let bytes = self.bytes;
            let tag_len = bytes[self.pos..].iter().position(|&b| b == b'"')?;
            let tag = &bytes[self.pos..self.pos + tag_len];
            self.pos += tag_len;
            self.eat(b"\":")?;
            match tag {
                b"Int" => row.push_arg(ArgView::Int(self.int()?)),
                b"UInt" => row.push_arg(ArgView::UInt(self.uint()?)),
                b"Fd" => row.push_arg(ArgView::Fd(i32::try_from(self.int()?).ok()?)),
                b"Flags" => row.push_arg(ArgView::Flags(self.u32()?)),
                b"Mode" => row.push_arg(ArgView::Mode(self.u32()?)),
                b"Whence" => row.push_arg(ArgView::Whence(self.u32()?)),
                b"Ptr" => row.push_arg(ArgView::Ptr(self.uint()?)),
                b"Path" | b"Str" => {
                    self.eat(b"\"")?;
                    row.push_text_arg(tag == b"Path", |arena| self.unescape_into(arena))?;
                }
                _ => return None,
            }
            self.eat(b"}")?;
            if self.eat(b"]").is_some() {
                return Some(());
            }
            self.eat(b",")?;
        }
    }

    /// `,"retval":N}` and the end of the line.
    fn tail(&mut self) -> Option<i64> {
        self.eat(b",\"retval\":")?;
        let retval = self.int()?;
        self.eat(b"}")?;
        (self.pos == self.bytes.len()).then_some(retval)
    }

    fn eat(&mut self, literal: &[u8]) -> Option<()> {
        if self.bytes[self.pos..].starts_with(literal) {
            self.pos += literal.len();
            Some(())
        } else {
            None
        }
    }

    /// A canonical non-negative integer: `0` or a nonzero digit
    /// followed by digits, at most `u64::MAX`.
    fn uint(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut value: u64 = 0;
        while let Some(&b) = self.bytes.get(self.pos) {
            if !b.is_ascii_digit() {
                break;
            }
            value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
            self.pos += 1;
        }
        let digits = self.pos - start;
        if digits == 0 || (digits > 1 && self.bytes[start] == b'0') {
            return None;
        }
        Some(value)
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.uint()?).ok()
    }

    /// A canonical signed integer in `i64` range; `-0` is declined.
    fn int(&mut self) -> Option<i64> {
        if self.eat(b"-").is_none() {
            return i64::try_from(self.uint()?).ok();
        }
        match self.uint()? {
            0 => None,
            // `i64::MIN` has no positive counterpart; wrap it into place.
            magnitude if magnitude <= 1 << 63 => Some((magnitude as i64).wrapping_neg()),
            _ => None,
        }
    }

    /// The rest of a string whose opening quote is consumed, as a slice
    /// of the line; declines if the string holds any escape.
    fn plain_str(&mut self) -> Option<&'a str> {
        let start = self.pos;
        let len = self.bytes[start..].iter().position(|&b| ends_run(b))?;
        if self.bytes[start + len] != b'"' {
            return None;
        }
        self.pos = start + len + 1;
        Some(&self.line[start..start + len])
    }

    /// Appends the rest of a string whose opening quote is consumed to
    /// `out`, resolving escapes exactly as serde does.
    fn unescape_into(&mut self, out: &mut String) -> Option<()> {
        loop {
            let start = self.pos;
            let run = self.bytes[start..].iter().position(|&b| ends_run(b))?;
            // The stop bytes are ASCII, so the run ends on a char
            // boundary of the (already UTF-8-validated) line.
            out.push_str(&self.line[start..start + run]);
            self.pos = start + run + 1;
            match self.bytes[start + run] {
                b'"' => return Some(()),
                b'\\' => {}
                // A raw control character: serde rejects the line.
                _ => return None,
            }
            let escape = *self.bytes.get(self.pos)?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{08}',
                b'f' => '\u{0c}',
                // Surrogates (pairs included) fail `from_u32`: declined.
                b'u' => char::from_u32(self.hex4()?)?,
                _ => return None,
            });
        }
    }

    fn hex4(&mut self) -> Option<u32> {
        let digits = self.bytes.get(self.pos..self.pos + 4)?;
        let mut code = 0;
        for &b in digits {
            code = code * 16 + char::from(b).to_digit(16)?;
        }
        self.pos += 4;
        Some(code)
    }
}

/// Whether `b` ends a run of literal string bytes: the closing quote,
/// an escape, or a raw control character (which serde rejects).
fn ends_run(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{CursorState, JsonlCursor};
    use crate::event::{ArgValue, TraceEvent};
    use crate::lossy::{ErrorClass, ErrorPolicy, ReadOptions, SkippedLine};
    use crate::serial::TraceIoError;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    /// Decodes `line` alone; `None` if declined.
    fn direct(line: &str) -> Option<TraceEvent> {
        let mut batch = EventBatch::new();
        decode_line(line, &mut batch).then(|| {
            assert_eq!(batch.len(), 1);
            batch.get(0).unwrap().to_event()
        })
    }

    /// The contract: a line is either declined or decodes to exactly
    /// serde's event — and is never accepted where serde errors.
    fn check(line: &str) -> Result<(), TestCaseError> {
        if let Some(event) = direct(line) {
            match serde_json::from_str::<TraceEvent>(line) {
                Ok(expected) => prop_assert_eq!(event, expected, "line {:?}", line),
                Err(e) => prop_assert!(false, "accepted {line:?}, serde says {e}"),
            }
        }
        Ok(())
    }

    fn line_of(event: &TraceEvent) -> String {
        serde_json::to_string(event).unwrap()
    }

    fn sample() -> TraceEvent {
        let mut event = TraceEvent::build(
            "openat",
            257,
            vec![
                ArgValue::Fd(-100),
                ArgValue::Path("/mnt/test/a".into()),
                ArgValue::Flags(0o101),
                ArgValue::Mode(0o644),
            ],
            3,
        );
        event.seq = 7;
        event.timestamp_ns = 70;
        event.pid = 42;
        event
    }

    fn arb_text() -> impl Strategy<Value = String> {
        // Printable ASCII, the JSON-escaped characters, controls, and
        // multi-byte code points up to the astral planes.
        let ch = prop_oneof![
            0x20u32..0x7f,
            Just(u32::from('"')),
            Just(u32::from('\\')),
            0u32..0x20,
            0x80u32..0xd800,
            0xe000u32..0x11_0000,
        ]
        .prop_map(|c| char::from_u32(c).unwrap_or('?'));
        vec(ch, 0..12).prop_map(|chars| chars.into_iter().collect())
    }

    fn arb_arg() -> impl Strategy<Value = ArgValue> {
        prop_oneof![
            prop_oneof![any::<i64>(), Just(i64::MIN), Just(i64::MAX), Just(0i64)]
                .prop_map(ArgValue::Int),
            prop_oneof![any::<u64>(), Just(u64::MAX), Just(0u64)].prop_map(ArgValue::UInt),
            prop_oneof![any::<i32>(), Just(-100i32), -3i32..3].prop_map(ArgValue::Fd),
            arb_text().prop_map(ArgValue::Path),
            arb_text().prop_map(ArgValue::Str),
            any::<u32>().prop_map(ArgValue::Flags),
            any::<u32>().prop_map(ArgValue::Mode),
            (0u32..5).prop_map(ArgValue::Whence),
            prop_oneof![any::<u64>(), Just(0u64)].prop_map(ArgValue::Ptr),
        ]
    }

    fn arb_event() -> impl Strategy<Value = TraceEvent> {
        (
            (prop_oneof![any::<u64>(), 0u64..10], any::<u64>()),
            prop_oneof![any::<u32>(), 0u32..3],
            prop_oneof![Just("open".to_owned()), "[a-z_0-9]{1,10}", arb_text()],
            (any::<u32>(), vec(arb_arg(), 0..5)),
            prop_oneof![any::<i64>(), Just(i64::MIN), -200i64..200],
        )
            .prop_map(|((seq, timestamp_ns), pid, name, (sysno, args), retval)| {
                TraceEvent {
                    seq,
                    timestamp_ns,
                    pid,
                    name,
                    sysno,
                    args,
                    retval,
                }
            })
    }

    /// Edits that leave the line well-formed JSON (or nearly so) but
    /// outside the canonical shape.
    fn mutate(line: &str, kind: u8, at: usize) -> String {
        let mut out = line.to_owned();
        let boundary = |s: &str, i: usize| {
            let mut i = i % (s.len() + 1);
            while !s.is_char_boundary(i) {
                i -= 1;
            }
            i
        };
        match kind {
            0 => out.insert(boundary(line, at), ' '),
            1 => out = out.replacen(",\"pid\":", " ,\"pid\": ", 1),
            2 => {
                // Reorder: move seq after timestamp_ns.
                if let (Some(s), Some(t)) = (out.find("\"seq\":"), out.find(",\"timestamp_ns\":")) {
                    let seq = out[s..t].to_owned();
                    out.replace_range(s..t + 1, "");
                    let p = out.find(",\"pid\"").unwrap();
                    out.insert_str(p, &format!(",{seq}"));
                }
            }
            3 => out = out.replacen("{\"seq\":", "{\"seq\":1,\"seq\":", 1),
            4 => out = out.replacen("{\"seq\":", "{\"extra\":null,\"seq\":", 1),
            5 => out = out.replacen("\"pid\":", "\"pid\":0", 1),
            6 => out = out.replacen("\"retval\":", "\"retval\":-0", 1),
            7 => out = out.replacen(",\"sysno\"", ".0,\"sysno\"", 1),
            8 => out = out.replacen("\"pid\":", "\"pid\":4294967296", 1),
            9 => out = out.replacen("\"pid\":", "\"pid\":-", 1),
            10 => out = out.replacen("{\"Fd\":", "{\"Fd\":2147483648", 1),
            11 => out = out.replacen("{\"Fd\":", "{\"Fd\":-2147483649", 1),
            12 => out.push('\r'),
            13 => out.insert(0, '\u{feff}'),
            14 => out = out.replacen("\"retval\":", "\"retval\":1e", 1),
            15 => out = out.replacen("{\"Path\":\"", "{\"Path\":\"\\u0041\\/\\u00e9", 1),
            20 => out = out.replacen("{\"Path\":\"", "{\"Path\":\"\\uD83D\\uDE00", 1),
            21 => out = out.replacen("{\"Str\":\"", "{\"Str\":\"\\x", 1),
            16 => out = out.replacen("\"args\":[", "\"args\":[{\"Bogus\":1},", 1),
            17 => out = out.replacen("\"args\":[", "\"args\":[{\"Fd\":1,\"Fd\":2},", 1),
            18 => out.truncate(boundary(line, at)),
            19 => out = out.replacen("\"seq\":", "\"seq\":\"", 1),
            _ => {}
        }
        out
    }

    /// What a cursor run produced: each event with the state right
    /// after it, then the final state or the error text.
    type Run = (Vec<(TraceEvent, CursorState)>, Result<CursorState, String>);

    /// The serde-only cursor loop that preceded the direct decoder,
    /// written against the raw bytes: the oracle the cursor must match
    /// event for event, state for state, and error for error.
    fn serde_reference(bytes: &[u8], options: ReadOptions) -> Run {
        let abort = options.on_error == ErrorPolicy::Abort;
        let mut state = CursorState::default();
        let mut events = Vec::new();
        let mut rest = bytes;
        while !rest.is_empty() {
            let end = rest
                .iter()
                .position(|&b| b == b'\n')
                .map_or(rest.len(), |i| i + 1);
            let (raw, next) = rest.split_at(end);
            rest = next;
            state.byte_offset += raw.len() as u64;
            state.lines += 1;
            let terminated = raw.ends_with(b"\n");
            let mut line = raw.strip_suffix(b"\n").unwrap_or(raw);
            let crlf = terminated && line.ends_with(b"\r");
            if crlf {
                line = &line[..line.len() - 1];
            }
            let bom = state.lines == 1 && line.starts_with("\u{feff}".as_bytes());
            if bom {
                line = &line[3..];
            }
            state.bom_stripped |= bom;
            state.crlf_lines += usize::from(crlf);
            if line.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            let number = state.lines;
            let (class, message) = match std::str::from_utf8(line) {
                Err(e) if abort => {
                    return (events, Err(format!("trace i/o error: line {number}: {e}")))
                }
                Err(e) => (ErrorClass::InvalidUtf8, e.to_string()),
                Ok(text) => match serde_json::from_str::<TraceEvent>(text) {
                    Ok(event) => {
                        state.events += 1;
                        events.push((event, state.clone()));
                        continue;
                    }
                    Err(e) if abort => {
                        return (
                            events,
                            Err(format!("trace parse error on line {number}: {e}")),
                        )
                    }
                    Err(e) if terminated => (ErrorClass::MalformedJson, e.to_string()),
                    Err(e) => (ErrorClass::TruncatedTail, e.to_string()),
                },
            };
            state.skipped.push(SkippedLine {
                line: number,
                class,
                message,
            });
            if let Some(max) = options.max_errors {
                if state.skipped.len() > max {
                    let errors = state.skipped.len();
                    return (
                        events,
                        Err(TraceIoError::TooManyErrors { errors, max }.to_string()),
                    );
                }
            }
        }
        (events, Ok(state))
    }

    fn cursor_run(bytes: &[u8], options: ReadOptions) -> Run {
        let mut cursor = JsonlCursor::new(bytes, options);
        let mut events = Vec::new();
        loop {
            match cursor.next_event() {
                Ok(Some(event)) => events.push((event, cursor.state().clone())),
                Ok(None) => return (events, Ok(cursor.into_state())),
                Err(e) => return (events, Err(e.to_string())),
            }
        }
    }

    /// Options under which the oracle and the cursor are compared.
    fn all_options() -> [ReadOptions; 3] {
        [
            ReadOptions::default(),
            ReadOptions {
                on_error: ErrorPolicy::Abort,
                ..ReadOptions::default()
            },
            ReadOptions {
                max_errors: Some(1),
                ..ReadOptions::default()
            },
        ]
    }

    /// One line of a generated stream: canonical, mutated, or garbage.
    fn arb_line() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            arb_event().prop_map(|e| line_of(&e).into_bytes()),
            arb_event().prop_map(|e| line_of(&e).into_bytes()),
            (arb_event(), 0u8..22, any::<usize>()).prop_map(|(e, kind, at)| mutate(
                &line_of(&e),
                kind,
                at
            )
            .into_bytes()),
            Just(b"not json".to_vec()),
            Just(b"\xff\xfe torn".to_vec()),
            Just(b"   ".to_vec()),
        ]
    }

    proptest! {
        #[test]
        fn cursor_matches_the_serde_only_loop(
            lines in vec((arb_line(), any::<bool>()), 0..12),
            bom in any::<bool>(),
            torn_tail in any::<bool>(),
        ) {
            let mut bytes = Vec::new();
            if bom {
                bytes.extend_from_slice("\u{feff}".as_bytes());
            }
            for (line, crlf) in &lines {
                bytes.extend_from_slice(line);
                bytes.extend_from_slice(if *crlf { b"\r\n" } else { b"\n" });
            }
            if torn_tail && bytes.len() > 1 {
                bytes.truncate(bytes.len() - 2);
            }
            for options in all_options() {
                prop_assert_eq!(cursor_run(&bytes, options), serde_reference(&bytes, options));
            }
        }

        #[test]
        fn canonical_lines_decode_exactly(event in arb_event()) {
            let line = line_of(&event);
            // An escaped syscall name is the only decline a line that
            // `write_jsonl` emits may take.
            if event.name.contains(|c: char| c == '"' || c == '\\' || c < ' ') {
                check(&line)?;
            } else {
                prop_assert_eq!(direct(&line), Some(event), "declined {:?}", line);
            }
        }

        #[test]
        fn mutated_lines_are_exact_or_declined(
            event in arb_event(),
            kind in 0u8..22,
            at in any::<usize>(),
        ) {
            check(&mutate(&line_of(&event), kind, at))?;
        }
    }

    #[test]
    fn corrupt_fixture_matches_the_serde_only_loop() {
        let bytes = include_bytes!("../../../fixtures/corrupt_trace.jsonl");
        for options in all_options() {
            assert_eq!(cursor_run(bytes, options), serde_reference(bytes, options));
        }
        let (events, end) = cursor_run(bytes, ReadOptions::default());
        assert!(!events.is_empty());
        assert_eq!(end.unwrap().skipped.len(), 3);
    }

    #[test]
    fn sample_decodes() {
        let event = sample();
        assert_eq!(direct(&line_of(&event)), Some(event));
    }

    #[test]
    fn non_canonical_forms_are_declined() {
        let line = line_of(&sample());
        let declined = [
            line.replacen(":7,", ": 7,", 1),
            line.replacen(":7,", ":07,", 1),
            line.replacen(":7,", ":7.0,", 1),
            line.replacen("\"retval\":3", "\"retval\":-0", 1),
            line.replacen("\"pid\":42", "\"pid\":4294967296", 1),
            line.replacen("{\"Fd\":-100}", "{\"Fd\":2147483648}", 1),
            line.replacen("{\"seq\":7,", "{\"seq\":7,\"seq\":7,", 1),
            line.replacen("\"name\":\"openat\"", "\"name\":\"open\\u0061t\"", 1),
            format!("{line} "),
            format!("\u{feff}{line}"),
            line.replacen("\"args\":[", "\"args\" : [", 1),
        ];
        for bad in &declined {
            assert_eq!(direct(bad), None, "{bad}");
        }
    }

    #[test]
    fn extreme_values_and_escapes_decode() {
        let mut event = TraceEvent::build(
            "x",
            u32::MAX,
            vec![
                ArgValue::Int(i64::MIN),
                ArgValue::UInt(u64::MAX),
                ArgValue::Fd(i32::MIN),
                ArgValue::Path("/mnt/test/\"q\"\\\u{1}\n\té😀".into()),
                ArgValue::Str(String::new()),
            ],
            i64::MIN,
        );
        event.seq = u64::MAX;
        event.pid = u32::MAX;
        assert_eq!(direct(&line_of(&event)), Some(event));
        let empty = TraceEvent::build("sync", 162, vec![], 0);
        assert_eq!(direct(&line_of(&empty)), Some(empty));
        // A non-control `\u` escape decodes like serde.
        let line = line_of(&sample()).replacen("/mnt/test/a", "/mnt/test/\\u0041", 1);
        check(&line).unwrap();
        assert!(direct(&line).is_some());
    }

    #[test]
    fn declined_line_leaves_batch_untouched() {
        let mut batch = EventBatch::new();
        assert!(decode_line(&line_of(&sample()), &mut batch));
        let before = batch.to_events();
        // Fails after the path was written into the arena.
        let bad = line_of(&sample()).replacen("\"retval\":3", "\"retval\":03", 1);
        assert!(!decode_line(&bad, &mut batch));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.to_events(), before);
        assert!(decode_line(&line_of(&sample()), &mut batch));
        assert_eq!(batch.to_events(), vec![sample(), sample()]);
    }
}
