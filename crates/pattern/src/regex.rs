//! A small regular-expression engine executed by a Pike-style NFA VM.
//!
//! Supported syntax: literals, escapes (`\d \D \w \W \s \S` and escaped
//! metacharacters), `.`, character classes `[a-z0-9_]` / `[^...]`, groups
//! `(...)`, alternation `|`, repetition `* + ? {m} {m,} {m,n}`, and the
//! anchors `^` / `$`. Matching is unanchored unless anchors are present.

use crate::PatternError;

/// A matched region of the searched text (byte offsets are not exposed;
/// offsets are in characters for simplicity of the path-filter use case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    start: usize,
    end: usize,
}

impl Match {
    /// Character offset of the first matched character.
    #[must_use]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Character offset one past the last matched character.
    #[must_use]
    pub fn end(&self) -> usize {
        self.end
    }

    /// Number of characters matched.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the match is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Single-character predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CharPred {
    Any,
    Lit(char),
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
}

impl CharPred {
    fn matches(&self, c: char) -> bool {
        match self {
            CharPred::Any => true,
            CharPred::Lit(l) => *l == c,
            CharPred::Class { negated, ranges } => {
                let inside = ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
                inside != *negated
            }
        }
    }
}

/// Parsed regex AST.
#[derive(Debug, Clone)]
enum Ast {
    Empty,
    Char(CharPred),
    Concat(Vec<Ast>),
    Alt(Vec<Ast>),
    Repeat {
        node: Box<Ast>,
        min: u32,
        max: Option<u32>,
    },
    AnchorStart,
    AnchorEnd,
}

/// Compiled NFA instruction.
#[derive(Debug, Clone)]
enum Inst {
    Char(CharPred),
    Split(usize, usize),
    Jmp(usize),
    AnchorStart,
    AnchorEnd,
    Match,
}

/// A compiled regular expression.
///
/// ```
/// use iocov_pattern::Regex;
///
/// # fn main() -> Result<(), iocov_pattern::PatternError> {
/// let re = Regex::new(r"^sys_(open|openat2?|creat)$")?;
/// assert!(re.is_match("sys_openat2"));
/// assert!(!re.is_match("sys_read"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Regex {
    source: String,
    prog: Vec<Inst>,
}

impl Regex {
    /// Compiles a regular expression.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError`] on syntax errors: unbalanced parentheses,
    /// unclosed classes, dangling repetition operators, reversed `{m,n}`
    /// bounds, or trailing escapes.
    pub fn new(pattern: &str) -> Result<Self, PatternError> {
        let mut parser = Parser {
            pattern,
            chars: pattern.chars().collect(),
            pos: 0,
        };
        let ast = parser.parse_alt()?;
        if parser.pos != parser.chars.len() {
            return Err(PatternError::new(
                pattern,
                parser.pos,
                "unbalanced closing parenthesis",
            ));
        }
        let mut prog = Vec::new();
        compile(&ast, &mut prog);
        prog.push(Inst::Match);
        Ok(Regex {
            source: pattern.to_owned(),
            prog,
        })
    }

    /// Returns the original regex source text.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Tests whether the regex matches anywhere in `text`.
    ///
    /// One pass over the text that seeds a fresh thread at every
    /// position (only at the start when the program begins with `^`)
    /// and stops at the first accepting state. Programs of up to
    /// [`STACK_INSTS`] instructions — every mount-point filter — keep
    /// their thread lists on the stack, so the call never allocates.
    #[must_use]
    pub fn is_match(&self, text: &str) -> bool {
        self.with_threads(|vm| vm.run(text, 0, Scan::AnyMatch).is_some())
    }

    /// Finds the leftmost match, preferring the longest match at that
    /// position, and returns its character offsets.
    #[must_use]
    pub fn find(&self, text: &str) -> Option<Match> {
        self.with_threads(|vm| {
            // A program that opens with `^` kills every thread started
            // past offset 0, so only offset 0 can match.
            let starts = if self.anchored_start() { 1 } else { usize::MAX };
            let offsets = text.char_indices().map(|(i, _)| i).chain([text.len()]);
            for (start, from) in offsets.enumerate().take(starts) {
                if let Some(end) = vm.run(text, from, Scan::Longest) {
                    let len = text[from..end].chars().count();
                    return Some(Match {
                        start,
                        end: start + len,
                    });
                }
            }
            None
        })
    }

    /// Whether the program begins with `^`.
    fn anchored_start(&self) -> bool {
        matches!(self.prog.first(), Some(Inst::AnchorStart))
    }

    /// Runs `f` with thread lists sized for this program: on the stack
    /// for small programs, on the heap otherwise.
    fn with_threads<T>(&self, f: impl FnOnce(&mut Vm<'_>) -> T) -> T {
        let n = self.prog.len();
        if n <= STACK_INSTS {
            let mut pcs = [[0usize; STACK_INSTS]; 2];
            let mut on = [[false; STACK_INSTS]; 2];
            let [pcs_a, pcs_b] = &mut pcs;
            let [on_a, on_b] = &mut on;
            f(&mut Vm {
                prog: &self.prog,
                current: Threads::new(&mut pcs_a[..n], &mut on_a[..n]),
                next: Threads::new(&mut pcs_b[..n], &mut on_b[..n]),
            })
        } else {
            let (mut pcs_a, mut pcs_b) = (vec![0; n], vec![0; n]);
            let (mut on_a, mut on_b) = (vec![false; n], vec![false; n]);
            f(&mut Vm {
                prog: &self.prog,
                current: Threads::new(&mut pcs_a, &mut on_a),
                next: Threads::new(&mut pcs_b, &mut on_b),
            })
        }
    }
}

impl std::fmt::Display for Regex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.source)
    }
}

/// Programs up to this many instructions run with stack thread lists.
const STACK_INSTS: usize = 64;

/// What a VM run looks for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scan {
    /// Any match starting at or after the run's offset; stops at the
    /// first accepting state.
    AnyMatch,
    /// The longest match starting exactly at the run's offset.
    Longest,
}

/// A thread list: program counters in priority order plus membership.
struct Threads<'a> {
    pcs: &'a mut [usize],
    len: usize,
    on: &'a mut [bool],
}

impl<'a> Threads<'a> {
    fn new(pcs: &'a mut [usize], on: &'a mut [bool]) -> Self {
        Threads { pcs, len: 0, on }
    }

    fn clear(&mut self) {
        // Jmp/Split/anchor pcs are marked but never listed, so every
        // mark is reset, not just the listed ones.
        self.on.fill(false);
        self.len = 0;
    }

    /// Adds `pc` and its epsilon closure at byte position `pos` of a
    /// text `len` bytes long.
    fn add(&mut self, prog: &[Inst], pc: usize, pos: usize, len: usize) {
        if self.on[pc] {
            return;
        }
        self.on[pc] = true;
        match &prog[pc] {
            Inst::Jmp(t) => self.add(prog, *t, pos, len),
            Inst::Split(a, b) => {
                self.add(prog, *a, pos, len);
                self.add(prog, *b, pos, len);
            }
            Inst::AnchorStart => {
                if pos == 0 {
                    self.add(prog, pc + 1, pos, len);
                }
            }
            Inst::AnchorEnd => {
                if pos == len {
                    self.add(prog, pc + 1, pos, len);
                }
            }
            Inst::Char(_) | Inst::Match => {
                self.pcs[self.len] = pc;
                self.len += 1;
            }
        }
    }
}

/// A Pike VM: the current and next thread lists of one program.
struct Vm<'a> {
    prog: &'a [Inst],
    current: Threads<'a>,
    next: Threads<'a>,
}

impl Vm<'_> {
    /// Runs the NFA over `text` from byte offset `from`; returns the
    /// byte offset where the match that `scan` asks for ends.
    fn run(&mut self, text: &str, from: usize, scan: Scan) -> Option<usize> {
        let len = text.len();
        // Unanchored search re-seeds a thread at every position.
        let reseed = scan == Scan::AnyMatch && !matches!(self.prog[0], Inst::AnchorStart);
        self.current.clear();
        self.current.add(self.prog, 0, from, len);
        let mut best = None;
        let mut chars = text[from..].chars();
        let mut pos = from;
        loop {
            // Record any accepting thread at the current position.
            let current = &self.current;
            if current.pcs[..current.len]
                .iter()
                .any(|&pc| matches!(self.prog[pc], Inst::Match))
            {
                best = Some(pos);
                if scan == Scan::AnyMatch {
                    break;
                }
            }
            if self.current.len == 0 && !reseed {
                break;
            }
            let Some(c) = chars.next() else {
                break;
            };
            pos += c.len_utf8();
            self.next.clear();
            for i in 0..self.current.len {
                let pc = self.current.pcs[i];
                if let Inst::Char(pred) = &self.prog[pc] {
                    if pred.matches(c) {
                        self.next.add(self.prog, pc + 1, pos, len);
                    }
                }
            }
            if reseed {
                self.next.add(self.prog, 0, pos, len);
            }
            std::mem::swap(&mut self.current, &mut self.next);
        }
        best
    }
}

/// Emits NFA code for `ast` into `prog`.
fn compile(ast: &Ast, prog: &mut Vec<Inst>) {
    match ast {
        Ast::Empty => {}
        Ast::Char(p) => prog.push(Inst::Char(p.clone())),
        Ast::AnchorStart => prog.push(Inst::AnchorStart),
        Ast::AnchorEnd => prog.push(Inst::AnchorEnd),
        Ast::Concat(parts) => {
            for p in parts {
                compile(p, prog);
            }
        }
        Ast::Alt(alts) => {
            // Chain of Splits; each branch Jmps to the common exit.
            let mut jmp_fixups = Vec::new();
            for (i, alt) in alts.iter().enumerate() {
                if i + 1 < alts.len() {
                    let split_at = prog.len();
                    prog.push(Inst::Split(0, 0)); // fixed up below
                    compile(alt, prog);
                    jmp_fixups.push(prog.len());
                    prog.push(Inst::Jmp(0)); // fixed up below
                    let after = prog.len();
                    prog[split_at] = Inst::Split(split_at + 1, after);
                } else {
                    compile(alt, prog);
                }
            }
            let end = prog.len();
            for f in jmp_fixups {
                prog[f] = Inst::Jmp(end);
            }
        }
        Ast::Repeat { node, min, max } => {
            for _ in 0..*min {
                compile(node, prog);
            }
            match max {
                None => {
                    // Greedy star loop.
                    let split_at = prog.len();
                    prog.push(Inst::Split(0, 0));
                    compile(node, prog);
                    prog.push(Inst::Jmp(split_at));
                    let after = prog.len();
                    prog[split_at] = Inst::Split(split_at + 1, after);
                }
                Some(max) => {
                    // (max - min) optional copies.
                    let mut fixups = Vec::new();
                    for _ in *min..*max {
                        let split_at = prog.len();
                        prog.push(Inst::Split(0, 0));
                        fixups.push(split_at);
                        compile(node, prog);
                    }
                    let end = prog.len();
                    for f in fixups {
                        prog[f] = Inst::Split(f + 1, end);
                    }
                }
            }
        }
    }
}

/// Recursive-descent regex parser.
struct Parser<'a> {
    pattern: &'a str,
    chars: Vec<char>,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn err(&self, msg: impl Into<String>) -> PatternError {
        PatternError::new(self.pattern, self.pos, msg)
    }

    fn parse_alt(&mut self) -> Result<Ast, PatternError> {
        let mut alts = vec![self.parse_concat()?];
        while self.peek() == Some('|') {
            self.bump();
            alts.push(self.parse_concat()?);
        }
        Ok(if alts.len() == 1 {
            alts.pop().expect("one alternative")
        } else {
            Ast::Alt(alts)
        })
    }

    fn parse_concat(&mut self) -> Result<Ast, PatternError> {
        let mut parts = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            parts.push(self.parse_repeat()?);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("one part"),
            _ => Ast::Concat(parts),
        })
    }

    fn parse_repeat(&mut self) -> Result<Ast, PatternError> {
        let atom = self.parse_atom()?;
        let Some(op) = self.peek() else {
            return Ok(atom);
        };
        let (min, max) = match op {
            '*' => {
                self.bump();
                (0, None)
            }
            '+' => {
                self.bump();
                (1, None)
            }
            '?' => {
                self.bump();
                (0, Some(1))
            }
            '{' => {
                self.bump();
                let (min, max) = self.parse_bounds()?;
                (min, max)
            }
            _ => return Ok(atom),
        };
        if matches!(atom, Ast::AnchorStart | Ast::AnchorEnd | Ast::Empty) {
            return Err(self.err("repetition operator applied to nothing"));
        }
        Ok(Ast::Repeat {
            node: Box::new(atom),
            min,
            max,
        })
    }

    /// Parses the interior of `{m}`, `{m,}` or `{m,n}` (after the `{`).
    fn parse_bounds(&mut self) -> Result<(u32, Option<u32>), PatternError> {
        let min = self.parse_number()?;
        match self.bump() {
            Some('}') => Ok((min, Some(min))),
            Some(',') => {
                if self.peek() == Some('}') {
                    self.bump();
                    return Ok((min, None));
                }
                let max = self.parse_number()?;
                if self.bump() != Some('}') {
                    return Err(self.err("expected `}` in repetition"));
                }
                if max < min {
                    return Err(self.err("reversed repetition bounds"));
                }
                Ok((min, Some(max)))
            }
            _ => Err(self.err("malformed repetition bounds")),
        }
    }

    fn parse_number(&mut self) -> Result<u32, PatternError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("expected a number in repetition"));
        }
        let digits: String = self.chars[start..self.pos].iter().collect();
        digits
            .parse::<u32>()
            .map_err(|_| self.err("repetition bound too large"))
    }

    fn parse_atom(&mut self) -> Result<Ast, PatternError> {
        match self.peek() {
            None => Ok(Ast::Empty),
            Some('^') => {
                self.bump();
                Ok(Ast::AnchorStart)
            }
            Some('$') => {
                self.bump();
                Ok(Ast::AnchorEnd)
            }
            Some('.') => {
                self.bump();
                Ok(Ast::Char(CharPred::Any))
            }
            Some('(') => {
                self.bump();
                let inner = self.parse_alt()?;
                if self.bump() != Some(')') {
                    return Err(self.err("unbalanced opening parenthesis"));
                }
                Ok(inner)
            }
            Some('[') => self.parse_class(),
            Some('\\') => {
                self.bump();
                let c = self.bump().ok_or_else(|| self.err("trailing escape"))?;
                Ok(Ast::Char(escape_pred(c)))
            }
            Some('*') | Some('+') | Some('?') => {
                Err(self.err("repetition operator applied to nothing"))
            }
            Some(c) => {
                self.bump();
                Ok(Ast::Char(CharPred::Lit(c)))
            }
        }
    }

    fn parse_class(&mut self) -> Result<Ast, PatternError> {
        let open = self.pos;
        self.bump(); // consume '['
        let negated = self.peek() == Some('^');
        if negated {
            self.bump();
        }
        let mut ranges = Vec::new();
        let mut first = true;
        loop {
            match self.peek() {
                None => {
                    return Err(PatternError::new(
                        self.pattern,
                        open,
                        "unclosed character class",
                    ));
                }
                Some(']') if !first => {
                    self.bump();
                    return Ok(Ast::Char(CharPred::Class { negated, ranges }));
                }
                Some(c) => {
                    first = false;
                    let lo = if c == '\\' {
                        self.bump();
                        let e = self.bump().ok_or_else(|| self.err("trailing escape"))?;
                        match escape_pred(e) {
                            CharPred::Lit(l) => l,
                            CharPred::Class {
                                ranges: rs,
                                negated: false,
                            } => {
                                // `[\d...]`: splice in the shorthand's ranges.
                                ranges.extend(rs);
                                continue;
                            }
                            _ => return Err(self.err("unsupported escape in class")),
                        }
                    } else {
                        self.bump();
                        c
                    };
                    if self.peek() == Some('-')
                        && self.chars.get(self.pos + 1).is_some_and(|&c| c != ']')
                    {
                        self.bump(); // '-'
                        let hi = self
                            .bump()
                            .ok_or_else(|| self.err("unclosed character class"))?;
                        let hi = if hi == '\\' {
                            let e = self.bump().ok_or_else(|| self.err("trailing escape"))?;
                            match escape_pred(e) {
                                CharPred::Lit(l) => l,
                                _ => return Err(self.err("class shorthand cannot end a range")),
                            }
                        } else {
                            hi
                        };
                        if hi < lo {
                            return Err(self.err(format!("reversed character range `{lo}-{hi}`")));
                        }
                        ranges.push((lo, hi));
                    } else {
                        ranges.push((lo, lo));
                    }
                }
            }
        }
    }
}

/// Resolves an escape sequence to a character predicate.
fn escape_pred(c: char) -> CharPred {
    match c {
        'd' => CharPred::Class {
            negated: false,
            ranges: vec![('0', '9')],
        },
        'D' => CharPred::Class {
            negated: true,
            ranges: vec![('0', '9')],
        },
        'w' => CharPred::Class {
            negated: false,
            ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
        },
        'W' => CharPred::Class {
            negated: true,
            ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
        },
        's' => CharPred::Class {
            negated: false,
            ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
        },
        'S' => CharPred::Class {
            negated: true,
            ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
        },
        'n' => CharPred::Lit('\n'),
        't' => CharPred::Lit('\t'),
        'r' => CharPred::Lit('\r'),
        other => CharPred::Lit(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The engine's original search: collect the text into chars and run
    /// a fresh VM from every start offset, keeping the longest match at
    /// the leftmost offset that has one. The oracle for the single-pass
    /// `is_match` and the anchored short-circuit in `find`.
    fn reference_find(re: &Regex, text: &str) -> Option<(usize, usize)> {
        fn add(
            prog: &[Inst],
            pc: usize,
            pos: usize,
            len: usize,
            list: &mut Vec<usize>,
            on: &mut [bool],
        ) {
            if on[pc] {
                return;
            }
            on[pc] = true;
            match &prog[pc] {
                Inst::Jmp(t) => add(prog, *t, pos, len, list, on),
                Inst::Split(a, b) => {
                    add(prog, *a, pos, len, list, on);
                    add(prog, *b, pos, len, list, on);
                }
                Inst::AnchorStart if pos == 0 => add(prog, pc + 1, pos, len, list, on),
                Inst::AnchorEnd if pos == len => add(prog, pc + 1, pos, len, list, on),
                Inst::AnchorStart | Inst::AnchorEnd => {}
                Inst::Char(_) | Inst::Match => list.push(pc),
            }
        }
        let prog = &re.prog;
        let chars: Vec<char> = text.chars().collect();
        (0..=chars.len()).find_map(|start| {
            let mut current = Vec::new();
            add(
                prog,
                0,
                start,
                chars.len(),
                &mut current,
                &mut vec![false; prog.len()],
            );
            let mut best = None;
            let mut pos = start;
            loop {
                if current.iter().any(|&pc| matches!(prog[pc], Inst::Match)) {
                    best = Some(pos);
                }
                if pos >= chars.len() || current.is_empty() {
                    break;
                }
                let mut next = Vec::new();
                let mut on = vec![false; prog.len()];
                for &pc in &current {
                    if let Inst::Char(pred) = &prog[pc] {
                        if pred.matches(chars[pos]) {
                            add(prog, pc + 1, pos + 1, chars.len(), &mut next, &mut on);
                        }
                    }
                }
                current = next;
                pos += 1;
            }
            best.map(|end| (start, end))
        })
    }

    proptest! {
        #[test]
        fn search_agrees_with_per_offset_reference(
            pattern in "[ab^$.é/|()*+?]{0,10}",
            text in "[ab/é]{0,10}",
        ) {
            // Random token soup; only the ones that compile are checked.
            if let Ok(re) = Regex::new(&pattern) {
                let expected = reference_find(&re, &text);
                let found = re.find(&text).map(|m| (m.start(), m.end()));
                prop_assert_eq!(found, expected, "{} on {:?}", pattern, text);
                prop_assert_eq!(re.is_match(&text), expected.is_some());
            }
        }

        #[test]
        fn large_programs_agree_with_reference(text in "[ab]{0,40}") {
            // Over STACK_INSTS instructions: the heap thread lists.
            let re = Regex::new("(a|b){0,20}b+a{3,}$|^ab{30,}").unwrap();
            assert!(re.prog.len() > STACK_INSTS);
            let expected = reference_find(&re, &text);
            prop_assert_eq!(re.find(&text).map(|m| (m.start(), m.end())), expected);
            prop_assert_eq!(re.is_match(&text), expected.is_some());
        }
    }

    fn m(pattern: &str, text: &str) -> bool {
        Regex::new(pattern).unwrap().is_match(text)
    }

    #[test]
    fn literal_substring_match_is_unanchored() {
        assert!(m("test", "/mnt/test/file"));
        assert!(!m("test", "/mnt/tes/file"));
    }

    #[test]
    fn anchors_constrain_match_position() {
        assert!(m("^/mnt", "/mnt/test"));
        assert!(!m("^mnt", "/mnt/test"));
        assert!(m("test$", "/mnt/test"));
        assert!(!m("test$", "/mnt/test/x"));
        assert!(m("^/mnt/test$", "/mnt/test"));
    }

    #[test]
    fn dot_matches_any_character() {
        assert!(m("a.c", "abc"));
        assert!(m("a.c", "a/c"));
        assert!(!m("^a.c$", "ac"));
    }

    #[test]
    fn star_plus_question_repetitions() {
        assert!(m("^ab*c$", "ac"));
        assert!(m("^ab*c$", "abbbc"));
        assert!(m("^ab+c$", "abc"));
        assert!(!m("^ab+c$", "ac"));
        assert!(m("^ab?c$", "ac"));
        assert!(m("^ab?c$", "abc"));
        assert!(!m("^ab?c$", "abbc"));
    }

    #[test]
    fn counted_repetition() {
        assert!(m("^a{3}$", "aaa"));
        assert!(!m("^a{3}$", "aa"));
        assert!(m("^a{2,}$", "aaaa"));
        assert!(!m("^a{2,}$", "a"));
        assert!(m("^a{1,3}$", "aa"));
        assert!(!m("^a{1,3}$", "aaaa"));
        assert!(m("^a{0,1}$", ""));
    }

    #[test]
    fn alternation_with_groups() {
        assert!(m("^sys_(open|read|write)$", "sys_read"));
        assert!(!m("^sys_(open|read|write)$", "sys_lseek"));
        assert!(m("^(a|b)+$", "abab"));
    }

    #[test]
    fn classes_and_shorthands() {
        assert!(m(r"^[a-f0-9]+$", "deadbeef42"));
        assert!(!m(r"^[a-f0-9]+$", "xyz"));
        assert!(m(r"^\d+$", "12345"));
        assert!(!m(r"^\d+$", "12a45"));
        assert!(m(r"^\w+$", "open_at2"));
        assert!(m(r"^\s$", " "));
        assert!(m(r"^[^/]+$", "segment"));
        assert!(!m(r"^[^/]+$", "a/b"));
        assert!(m(r"^[\d_]+$", "12_3"));
    }

    #[test]
    fn escaped_metacharacters() {
        assert!(m(r"^a\.b$", "a.b"));
        assert!(!m(r"^a\.b$", "axb"));
        assert!(m(r"^a\*$", "a*"));
        assert!(m(r"^\(x\)$", "(x)"));
    }

    #[test]
    fn nested_groups_and_optionals() {
        let re = Regex::new(r"^/mnt/(test|scratch)(/.*)?$").unwrap();
        assert!(re.is_match("/mnt/test"));
        assert!(re.is_match("/mnt/scratch/a/b"));
        assert!(!re.is_match("/mnt/testx"));
        assert!(!re.is_match("/mnt/other/a"));
    }

    #[test]
    fn find_returns_leftmost_longest_offsets() {
        let re = Regex::new(r"b+").unwrap();
        let mat = re.find("aabbbcbb").unwrap();
        assert_eq!((mat.start(), mat.end()), (2, 5));
        assert_eq!(mat.len(), 3);
        assert!(!mat.is_empty());
    }

    #[test]
    fn find_empty_match_possible() {
        let re = Regex::new(r"x*").unwrap();
        let mat = re.find("yyy").unwrap();
        assert_eq!((mat.start(), mat.end()), (0, 0));
        assert!(mat.is_empty());
    }

    #[test]
    fn pathological_pattern_is_linear() {
        // Would be exponential with naive backtracking.
        let re = Regex::new("^(a?){24}a{24}$").unwrap();
        let text = "a".repeat(24);
        assert!(re.is_match(&text));
        let bad = "a".repeat(23);
        assert!(!re.is_match(&bad));
    }

    #[test]
    fn syntax_errors_are_reported() {
        assert!(Regex::new("(a").is_err());
        assert!(Regex::new("a)").is_err());
        assert!(Regex::new("[a").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("a{3,1}").is_err());
        assert!(Regex::new("a{x}").is_err());
        assert!(Regex::new("a\\").is_err());
        assert!(Regex::new("a{99999999999999}").is_err());
    }

    #[test]
    fn empty_pattern_matches_everything() {
        assert!(m("", ""));
        assert!(m("", "anything"));
    }

    #[test]
    fn display_roundtrips_source() {
        let re = Regex::new("^x$").unwrap();
        assert_eq!(re.to_string(), "^x$");
        assert_eq!(re.source(), "^x$");
    }

    #[test]
    fn mount_point_filter_patterns_from_paper() {
        // xfstests-style mount points.
        let re = Regex::new(r"^/mnt/(test|scratch)(/|$)").unwrap();
        assert!(re.is_match("/mnt/test"));
        assert!(re.is_match("/mnt/test/dir/file"));
        assert!(re.is_match("/mnt/scratch/f"));
        assert!(!re.is_match("/mnt/testdir/f"));
        assert!(!re.is_match("/home/user/f"));
    }
}
