//! A small self-contained document model with TOML and JSON front ends.
//!
//! Every document the workspace reads or writes is a [`Value`] tree
//! (insertion-ordered tables, so output is deterministic): a TOML-subset
//! reader/writer covering everything scenario specs use, and a JSON
//! reader/writer for `.json` specs, `sofd` bodies and replies, and every
//! JSON line a run emits. [`write_json`] is the only producer of JSON bytes
//! (SPEC_FORMAT.md, "Output formats", lists what it guarantees).
//!
//! The TOML subset: `[table]` / `[[array-of-tables]]` headers with dotted
//! paths, `key = value` pairs (bare or quoted keys, dotted keys), basic
//! strings with escapes, integers, floats, booleans, (multi-line) arrays,
//! inline tables, and `#` comments.

use std::fmt;

/// A dynamically-typed spec value.
///
/// Equality is structural: tables compare as key→value maps (order does
/// not matter, since the TOML writer groups scalars before sections),
/// everything else compares exactly.
#[derive(Clone, Debug)]
pub enum Value {
    /// JSON `null` (never produced by specs; spec readers reject it with
    /// a type error).
    Null,
    /// A string.
    Str(String),
    /// A 64-bit integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array.
    Array(Vec<Value>),
    /// A table with insertion-ordered keys.
    Table(Vec<(String, Value)>),
}

impl Value {
    /// An empty table.
    pub fn table() -> Value {
        Value::Table(Vec::new())
    }

    /// The human name of this value's type (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }

    /// Looks a key up in a table value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Table(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Inserts (or replaces) a key in a table value.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not a table.
    pub fn set(&mut self, key: &str, value: Value) {
        let Value::Table(entries) = self else {
            panic!("Value::set on a {}", self.type_name());
        };
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => entries.push((key.to_string(), value)),
        }
    }

    /// The numeric value of an integer or float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Table(a), Value::Table(b)) => {
                a.len() == b.len() && a.iter().all(|(k, v)| other.get(k).is_some_and(|w| v == w))
            }
            _ => false,
        }
    }
}

/// A parse error with 1-based line information.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line of the offending construct (0 = end of input).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting of arrays, objects and inline tables either front end
/// accepts. Both parsers recurse once per level, so
/// without a limit a few kilobytes of `[` overflow the stack — an abort no
/// `catch_unwind` sees.
pub const MAX_DEPTH: usize = 128;

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

// ---------------------------------------------------------------------------
// TOML front end
// ---------------------------------------------------------------------------

struct Scanner<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    /// Open arrays / objects / inline tables around the cursor.
    depth: usize,
}

impl<'a> Scanner<'a> {
    fn new(src: &'a str) -> Scanner<'a> {
        Scanner {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            depth: 0,
        }
    }

    /// Consumes an opening bracket, refusing to nest past [`MAX_DEPTH`].
    fn open(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return err(
                self.line,
                format!("nesting deeper than the limit of {MAX_DEPTH} levels"),
            );
        }
        self.bump();
        Ok(())
    }

    /// Consumes a closing bracket.
    fn close(&mut self) {
        self.depth -= 1;
        self.bump();
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Skips spaces and tabs (not newlines).
    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, newlines and comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') => {
                    self.pos += 1;
                }
                Some(b'\n') => {
                    self.bump();
                }
                Some(b'#') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    /// Consumes to end-of-line, requiring only trivia remains.
    fn expect_line_end(&mut self) -> Result<(), ParseError> {
        self.skip_inline_ws();
        if self.peek() == Some(b'#') {
            while !matches!(self.peek(), None | Some(b'\n')) {
                self.pos += 1;
            }
        }
        match self.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.bump();
                Ok(())
            }
            Some(b'\r') => {
                self.pos += 1;
                match self.peek() {
                    Some(b'\n') => {
                        self.bump();
                        Ok(())
                    }
                    _ => err(self.line, "stray carriage return"),
                }
            }
            Some(c) => err(
                self.line,
                format!("unexpected character '{}' after value", c as char),
            ),
        }
    }

    fn parse_basic_string(&mut self) -> Result<String, ParseError> {
        let start_line = self.line;
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                None | Some(b'\n') => return err(start_line, "unterminated string"),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| (c as char).to_digit(16))
                                .ok_or_else(|| ParseError {
                                    line: start_line,
                                    message: "invalid \\u escape (need 4 hex digits)".into(),
                                })?;
                            code = code * 16 + d;
                        }
                        s.push(char::from_u32(code).ok_or_else(|| ParseError {
                            line: start_line,
                            message: format!("\\u{code:04x} is not a scalar value"),
                        })?);
                    }
                    other => {
                        return err(
                            start_line,
                            format!(
                                "unsupported escape '\\{}'",
                                other.map(|c| c as char).unwrap_or(' ')
                            ),
                        )
                    }
                },
                Some(c) if c < 0x80 => s.push(c as char),
                Some(first) => {
                    // Re-decode the UTF-8 sequence we just stepped into.
                    let len = match first {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let from = self.pos - 1;
                    let chunk = self.src.get(from..from + len).ok_or_else(|| ParseError {
                        line: start_line,
                        message: "truncated UTF-8 sequence".into(),
                    })?;
                    let text = std::str::from_utf8(chunk).map_err(|_| ParseError {
                        line: start_line,
                        message: "invalid UTF-8 in string".into(),
                    })?;
                    s.push_str(text);
                    self.pos = from + len;
                }
            }
        }
    }

    fn parse_bare_key(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return err(
                self.line,
                format!(
                    "expected a key, found '{}'",
                    self.peek().map(|c| c as char).unwrap_or(' ')
                ),
            );
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos])
            .expect("bare keys are ASCII")
            .to_string())
    }

    fn parse_key(&mut self) -> Result<String, ParseError> {
        if self.peek() == Some(b'"') {
            self.parse_basic_string()
        } else {
            self.parse_bare_key()
        }
    }

    /// Parses `a.b.c` (each segment bare or quoted).
    fn parse_dotted_key(&mut self) -> Result<Vec<String>, ParseError> {
        let mut path = vec![self.parse_key()?];
        loop {
            self.skip_inline_ws();
            if self.peek() == Some(b'.') {
                self.pos += 1;
                self.skip_inline_ws();
                path.push(self.parse_key()?);
                if path.len() > MAX_DEPTH {
                    return err(
                        self.line,
                        format!("dotted key nests deeper than the limit of {MAX_DEPTH} levels"),
                    );
                }
            } else {
                return Ok(path);
            }
        }
    }

    fn parse_number_or_keyword(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric()
            || matches!(c, b'+' | b'-' | b'.' | b'_'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.src[start..self.pos]).expect("scalar is ASCII");
        match raw {
            "" => err(self.line, "expected a value"),
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => {
                let clean = raw.replace('_', "");
                if !clean.contains(['.', 'e', 'E']) {
                    if let Ok(i) = clean.parse::<i64>() {
                        return Ok(Value::Int(i));
                    }
                }
                match clean.parse::<f64>() {
                    Ok(f) if f.is_finite() => Ok(Value::Float(f)),
                    _ => err(self.line, format!("'{raw}' is not a number")),
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_basic_string()?)),
            Some(b'[') => {
                self.open()?;
                let mut items = Vec::new();
                loop {
                    self.skip_trivia();
                    if self.peek() == Some(b']') {
                        self.close();
                        return Ok(Value::Array(items));
                    }
                    items.push(self.parse_value()?);
                    self.skip_trivia();
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                        }
                        Some(b']') => {}
                        _ => return err(self.line, "expected ',' or ']' in array"),
                    }
                }
            }
            Some(b'{') => {
                self.open()?;
                let mut table = Value::table();
                self.skip_inline_ws();
                if self.peek() == Some(b'}') {
                    self.close();
                    return Ok(table);
                }
                loop {
                    self.skip_inline_ws();
                    let key = self.parse_key()?;
                    self.skip_inline_ws();
                    if self.bump() != Some(b'=') {
                        return err(self.line, format!("expected '=' after key '{key}'"));
                    }
                    self.skip_inline_ws();
                    if table.get(&key).is_some() {
                        return err(self.line, format!("duplicate key '{key}' in inline table"));
                    }
                    let value = self.parse_value()?;
                    table.set(&key, value);
                    self.skip_inline_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                        }
                        Some(b'}') => {
                            self.close();
                            return Ok(table);
                        }
                        _ => return err(self.line, "expected ',' or '}' in inline table"),
                    }
                }
            }
            _ => self.parse_number_or_keyword(),
        }
    }
}

/// Navigates (creating as needed) to the table at `path`, descending into
/// the **last** element of any array-of-tables on the way.
fn descend<'v>(
    root: &'v mut Value,
    path: &[String],
    line: usize,
) -> Result<&'v mut Value, ParseError> {
    let mut cur = root;
    for seg in path {
        if cur.get(seg).is_none() {
            cur.set(seg, Value::table());
        }
        let Value::Table(entries) = cur else {
            unreachable!("descend always walks tables");
        };
        let next = entries
            .iter_mut()
            .find(|(k, _)| k == seg)
            .map(|(_, v)| v)
            .expect("just ensured");
        cur = match next {
            Value::Table(_) => next,
            Value::Array(items) => match items.last_mut() {
                Some(last @ Value::Table(_)) => last,
                _ => return err(line, format!("'{seg}' is not a table of tables")),
            },
            other => {
                return err(
                    line,
                    format!("'{seg}' is a {}, not a table", other.type_name()),
                )
            }
        };
    }
    Ok(cur)
}

/// Parses a TOML document into a [`Value::Table`].
///
/// # Errors
///
/// A [`ParseError`] with the 1-based line of the offending construct.
pub fn parse_toml(src: &str) -> Result<Value, ParseError> {
    let mut root = Value::table();
    let mut scanner = Scanner::new(src);
    // Path of the currently open [table] / [[array-of-tables]] header.
    let mut current: Vec<String> = Vec::new();
    loop {
        scanner.skip_trivia();
        let Some(c) = scanner.peek() else {
            return Ok(root);
        };
        let line = scanner.line;
        if c == b'[' {
            scanner.bump();
            let is_array = scanner.peek() == Some(b'[');
            if is_array {
                scanner.bump();
            }
            scanner.skip_inline_ws();
            let path = scanner.parse_dotted_key()?;
            scanner.skip_inline_ws();
            if scanner.bump() != Some(b']') || (is_array && scanner.bump() != Some(b']')) {
                return err(line, "unterminated table header");
            }
            scanner.expect_line_end()?;
            if is_array {
                let (last, parents) = path.split_last().expect("parse_dotted_key is non-empty");
                let parent = descend(&mut root, parents, line)?;
                match parent.get(last) {
                    None => parent.set(last, Value::Array(vec![Value::table()])),
                    Some(Value::Array(_)) => {
                        let Value::Table(entries) = parent else {
                            unreachable!()
                        };
                        let slot = entries
                            .iter_mut()
                            .find(|(k, _)| k == last)
                            .map(|(_, v)| v)
                            .expect("checked above");
                        let Value::Array(items) = slot else {
                            unreachable!()
                        };
                        items.push(Value::table());
                    }
                    Some(other) => {
                        return err(
                            line,
                            format!("[[{last}]] conflicts with existing {}", other.type_name()),
                        )
                    }
                }
            } else {
                // Ensure the path exists and is a table; re-opening one is
                // allowed (per-key duplicates are still rejected below).
                descend(&mut root, &path, line)?;
            }
            current = path;
            continue;
        }
        // key = value
        let path = scanner.parse_dotted_key()?;
        scanner.skip_inline_ws();
        if scanner.bump() != Some(b'=') {
            return err(line, format!("expected '=' after key '{}'", path.join(".")));
        }
        scanner.skip_inline_ws();
        let value = scanner.parse_value()?;
        scanner.expect_line_end()?;
        let mut full = current.clone();
        full.extend(path.iter().cloned());
        let (last, parents) = full.split_last().expect("non-empty key");
        let target = descend(&mut root, parents, line)?;
        if target.get(last).is_some() {
            return err(line, format!("duplicate key '{last}'"));
        }
        target.set(last, value);
    }
}

/// Writes a [`Value::Table`] as TOML. Scalar and array entries come
/// first, then sub-tables as `[path]` sections and arrays of tables as
/// `[[path]]` sections — the same shape [`parse_toml`] accepts, so
/// `parse(write(v)) == v` for any table-rooted value (see the module
/// tests).
///
/// # Panics
///
/// Panics when `value` is not a table.
pub fn write_toml(value: &Value) -> String {
    let Value::Table(_) = value else {
        panic!("write_toml needs a table root, got {}", value.type_name());
    };
    let mut out = String::new();
    write_toml_table(value, &mut Vec::new(), &mut out);
    out
}

fn is_table(v: &Value) -> bool {
    matches!(v, Value::Table(_))
}

fn is_table_array(v: &Value) -> bool {
    matches!(v, Value::Array(items) if !items.is_empty() && items.iter().all(is_table))
}

fn write_toml_table(table: &Value, path: &mut Vec<String>, out: &mut String) {
    let Value::Table(entries) = table else {
        unreachable!()
    };
    for (k, v) in entries {
        if !is_table(v) && !is_table_array(v) {
            out.push_str(&format!("{} = {}\n", toml_key(k), toml_scalar(v)));
        }
    }
    for (k, v) in entries {
        if is_table(v) {
            path.push(k.clone());
            out.push_str(&format!("\n[{}]\n", toml_path(path)));
            write_toml_table(v, path, out);
            path.pop();
        } else if is_table_array(v) {
            let Value::Array(items) = v else {
                unreachable!()
            };
            path.push(k.clone());
            for item in items {
                out.push_str(&format!("\n[[{}]]\n", toml_path(path)));
                write_toml_table(item, path, out);
            }
            path.pop();
        }
    }
}

fn toml_key(k: &str) -> String {
    if !k.is_empty()
        && k.bytes()
            .all(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
    {
        k.to_string()
    } else {
        quote_string(k)
    }
}

fn toml_path(path: &[String]) -> String {
    path.iter()
        .map(|s| toml_key(s))
        .collect::<Vec<_>>()
        .join(".")
}

fn toml_scalar(v: &Value) -> String {
    match v {
        Value::Null => unreachable!("specs never contain null"),
        Value::Str(s) => quote_string(s),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Bool(b) => b.to_string(),
        Value::Array(items) => format!(
            "[{}]",
            items.iter().map(toml_scalar).collect::<Vec<_>>().join(", ")
        ),
        Value::Table(entries) => format!(
            "{{ {} }}",
            entries
                .iter()
                .map(|(k, v)| format!("{} = {}", toml_key(k), toml_scalar(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

// ---------------------------------------------------------------------------
// JSON front end
// ---------------------------------------------------------------------------

/// Parses a JSON document into a [`Value`]. Objects keep key order.
///
/// # Errors
///
/// A [`ParseError`] with the 1-based line of the offending construct.
pub fn parse_json(src: &str) -> Result<Value, ParseError> {
    let mut scanner = Scanner::new(src);
    scanner.skip_trivia();
    let v = parse_json_value(&mut scanner)?;
    scanner.skip_trivia();
    match scanner.peek() {
        None => Ok(v),
        Some(c) => err(
            scanner.line,
            format!("trailing content after document: '{}'", c as char),
        ),
    }
}

fn parse_json_value(s: &mut Scanner<'_>) -> Result<Value, ParseError> {
    match s.peek() {
        Some(b'"') => Ok(Value::Str(s.parse_basic_string()?)),
        Some(b'{') => {
            s.open()?;
            let mut table = Value::table();
            s.skip_trivia();
            if s.peek() == Some(b'}') {
                s.close();
                return Ok(table);
            }
            loop {
                s.skip_trivia();
                if s.peek() != Some(b'"') {
                    return err(s.line, "expected a quoted object key");
                }
                let key = s.parse_basic_string()?;
                s.skip_trivia();
                if s.bump() != Some(b':') {
                    return err(s.line, format!("expected ':' after key \"{key}\""));
                }
                s.skip_trivia();
                if table.get(&key).is_some() {
                    return err(s.line, format!("duplicate key \"{key}\""));
                }
                let value = parse_json_value(s)?;
                table.set(&key, value);
                s.skip_trivia();
                match s.peek() {
                    Some(b',') => {
                        s.bump();
                    }
                    Some(b'}') => {
                        s.close();
                        return Ok(table);
                    }
                    _ => return err(s.line, "expected ',' or '}' in object"),
                }
            }
        }
        Some(b'[') => {
            s.open()?;
            let mut items = Vec::new();
            s.skip_trivia();
            if s.peek() == Some(b']') {
                s.close();
                return Ok(Value::Array(items));
            }
            loop {
                s.skip_trivia();
                items.push(parse_json_value(s)?);
                s.skip_trivia();
                match s.peek() {
                    Some(b',') => {
                        s.bump();
                    }
                    Some(b']') => {
                        s.close();
                        return Ok(Value::Array(items));
                    }
                    _ => return err(s.line, "expected ',' or ']' in array"),
                }
            }
        }
        Some(b'n') => parse_json_keyword(s, "null", Value::Null),
        Some(b't') => parse_json_keyword(s, "true", Value::Bool(true)),
        Some(b'f') => parse_json_keyword(s, "false", Value::Bool(false)),
        _ => s.parse_number_or_keyword(),
    }
}

fn parse_json_keyword(s: &mut Scanner<'_>, word: &str, v: Value) -> Result<Value, ParseError> {
    for expected in word.bytes() {
        if s.bump() != Some(expected) {
            return err(s.line, format!("invalid literal (expected '{word}')"));
        }
    }
    Ok(v)
}

/// Writes any [`Value`] as compact JSON: no insignificant whitespace, keys
/// in insertion order, floats in their shortest round-trip form (`4.0`, not
/// `4`), and `null` for a float JSON has no spelling for (NaN, ±∞) — the
/// output always parses back with [`parse_json`].
pub fn write_json(value: &Value) -> String {
    let mut out = String::new();
    write_json_value(value, &mut out);
    out
}

fn write_json_value(value: &Value, out: &mut String) {
    use std::fmt::Write;
    match value {
        Value::Null => out.push_str("null"),
        Value::Str(s) => push_quoted(out, s),
        Value::Int(i) => write!(out, "{i}").expect("writing to a String"),
        Value::Float(f) if f.is_finite() => out.push_str(&json_f64(*f)),
        Value::Float(_) => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_value(item, out);
            }
            out.push(']');
        }
        Value::Table(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_quoted(out, k);
                out.push(':');
                write_json_value(v, out);
            }
            out.push('}');
        }
    }
}

/// A finite float's shortest round-trip form; Rust prints integral floats
/// as `1.0`, which is already valid JSON.
fn json_f64(f: f64) -> String {
    format!("{f:?}")
}

/// Quotes a string with JSON/TOML basic-string escaping.
fn quote_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Appends [`quote_string`]'s output to `out`.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_tables_arrays_and_scalars_round_trip() {
        let src = r#"
# top comment
name = "fig8"
count = 5
ratio = 2.5
on = true
values = [2, 8, 14]   # inline comment

[topology]
name = "softlayer"

[workload]
kind = "sweep"
solvers = ["SOFDA", "eST"]

[[workload.axes]]
field = "sources"
values = [
    2,
    8,
]

[[workload.axes]]
field = "destinations"
values = [2, 4]
churn = { sources = [8, 12], demand = 5.0 }
"#;
        let v = parse_toml(src).unwrap();
        assert_eq!(v.get("name"), Some(&Value::Str("fig8".into())));
        assert_eq!(v.get("count"), Some(&Value::Int(5)));
        assert_eq!(v.get("ratio"), Some(&Value::Float(2.5)));
        assert_eq!(v.get("on"), Some(&Value::Bool(true)));
        let axes = v.get("workload").unwrap().get("axes").unwrap();
        let Value::Array(axes) = axes else {
            panic!("axes should be an array")
        };
        assert_eq!(axes.len(), 2);
        assert_eq!(
            axes[1].get("field"),
            Some(&Value::Str("destinations".into()))
        );
        let churn = axes[1].get("churn").unwrap();
        assert_eq!(
            churn.get("sources"),
            Some(&Value::Array(vec![Value::Int(8), Value::Int(12)]))
        );
        // Round trip through the writer.
        let rewritten = write_toml(&v);
        assert_eq!(parse_toml(&rewritten).unwrap(), v, "\n{rewritten}");
    }

    #[test]
    fn toml_errors_carry_line_numbers() {
        let err = parse_toml("a = 1\nb = \n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_toml("a = 1\na = 2\n").unwrap_err();
        assert!(err.to_string().contains("duplicate key 'a'"));
        let err = parse_toml("x = \"unterminated\n").unwrap_err();
        assert!(err.to_string().contains("unterminated string"));
        let err = parse_toml("[t\n").unwrap_err();
        assert!(err.to_string().contains("unterminated table header"));
    }

    #[test]
    fn dotted_keys_and_quoted_keys() {
        let v = parse_toml("a.b = 1\n\"odd key\" = 2\n").unwrap();
        assert_eq!(v.get("a").unwrap().get("b"), Some(&Value::Int(1)));
        assert_eq!(v.get("odd key"), Some(&Value::Int(2)));
        let out = write_toml(&v);
        assert_eq!(parse_toml(&out).unwrap(), v);
    }

    #[test]
    fn json_round_trips_through_value() {
        let src = r#"{"name":"fig8","seeds":5,"ratio":0.5,"on":false,
                      "axes":[{"field":"sources","values":[2,8]}],"empty":{},"none":[]}"#;
        let v = parse_json(src).unwrap();
        assert_eq!(v.get("seeds"), Some(&Value::Int(5)));
        let json = write_json(&v);
        assert_eq!(parse_json(&json).unwrap(), v);
        // And TOML and JSON agree on the same tree (minus the empty table,
        // which TOML writes as a section).
        let toml = write_toml(&v);
        assert_eq!(parse_toml(&toml).unwrap(), v, "\n{toml}");
    }

    #[test]
    fn json_rejects_bad_documents() {
        assert!(parse_json("{\"a\":1,}").is_err());
        assert!(parse_json("[1 2]").is_err());
        // null parses as JSON but spec readers reject it by type.
        assert_eq!(
            parse_json("{\"a\":null}").unwrap().get("a"),
            Some(&Value::Null)
        );
        let err = parse_json("{\"a\":1}{").unwrap_err();
        assert!(err.to_string().contains("trailing content"));
    }

    /// Both parsers recurse once per bracket; without the limit 10 000 × `[`
    /// overflows a 2 MiB thread stack and aborts the process.
    #[test]
    fn nesting_is_refused_past_the_depth_limit() {
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let inner = if open == "[" { "" } else { "1" };
            let doc =
                |depth: usize| format!("{}{inner}{}", open.repeat(depth), close.repeat(depth));
            assert!(parse_json(&doc(MAX_DEPTH)).is_ok(), "{open} at the limit");
            let err = parse_json(&doc(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.to_string().contains("nesting deeper"), "{err}");
            assert!(err.to_string().contains("128"), "{err}");
            assert_eq!(err.line, 1);
        }
        // TOML arrays and inline tables run through the same counter.
        assert!(parse_toml(&format!("a = {}\n", nest("[", "]", MAX_DEPTH))).is_ok());
        let err =
            parse_toml(&format!("x = 1\na = {}\n", nest("[", "]", MAX_DEPTH + 1))).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"), "{err}");
        assert_eq!(err.line, 2);
        let inline =
            |depth: usize| format!("a = {}1{}\n", "{ k = ".repeat(depth), " }".repeat(depth));
        assert!(parse_toml(&inline(MAX_DEPTH)).is_ok());
        assert!(parse_toml(&inline(MAX_DEPTH + 1)).is_err());
        // Mixed nesting counts every level, and siblings do not add up.
        assert!(parse_json(&format!(
            "[{},{}]",
            nest("[", "]", 100),
            nest("[", "]", 100)
        ))
        .is_ok());
        assert!(parse_json(&"[".repeat(200_000)).is_err());
        // Dotted keys nest tables without recursion; bound them the same way.
        let dotted = |n: usize| format!("{} = 1\n", vec!["k"; n].join("."));
        assert!(parse_toml(&dotted(MAX_DEPTH)).is_ok());
        assert!(parse_toml(&dotted(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::Table(vec![(
            "s".into(),
            Value::Str("line\nbreak \"quote\" tab\t \\ λ".into()),
        )]);
        assert_eq!(parse_json(&write_json(&v)).unwrap(), v);
        assert_eq!(parse_toml(&write_toml(&v)).unwrap(), v);
    }

    #[test]
    fn floats_write_shortest_round_trip_form() {
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.05), "0.05");
        assert_eq!(json_f64(123.45), "123.45");
    }

    /// JSON has no NaN or infinity: the writer says `null`, in both
    /// profiles, and reads its own output back.
    #[test]
    fn non_finite_floats_write_as_null() {
        let v = Value::Array(vec![
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(1.5),
        ]);
        let json = write_json(&v);
        assert_eq!(json, "[null,null,null,1.5]");
        let nulls = vec![Value::Null, Value::Null, Value::Null, Value::Float(1.5)];
        assert_eq!(parse_json(&json).unwrap(), Value::Array(nulls));
    }
}
