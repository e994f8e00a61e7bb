//! A small pretty-printing JSON writer.
//!
//! The workspace writes JSON in two places, the metrics snapshot
//! ([`crate::snapshot_json`]) and `frote_eval::export`, and never reads it
//! back. Each builds a [`Value`] tree borrowed from its own data and prints
//! it with [`to_string_pretty`] in one fixed layout, pinned byte for byte
//! by both callers' tests:
//!
//! - 2-space indent, `": "` between key and value, and `[]` / `{}` for
//!   empty arrays and objects;
//! - object entries print in the order given;
//! - a finite integral `f64` below 2^53 in magnitude prints as an integer
//!   (`3.0` → `3`), any other finite `f64` as Rust's shortest round-trip
//!   `{}`, and NaN or ±inf as `null`;
//! - strings escape `"`, `\`, `\n`, `\r` and `\t`, write any other char
//!   below U+0020 as lowercase `\u00xx`, and everything else verbatim.

use std::fmt::Write;

/// A JSON document borrowed from the data it prints.
#[derive(Debug)]
pub enum Value<'a> {
    /// A float, printed by the number rules in the module docs.
    Num(f64),
    /// An exact unsigned integer.
    UInt(u64),
    /// A string, escaped on output.
    Str(&'a str),
    /// An array.
    Array(Vec<Value<'a>>),
    /// An object; entries print in this order.
    Object(Vec<(&'a str, Value<'a>)>),
}

/// `value` as pretty-printed JSON (no trailing newline).
pub fn to_string_pretty(value: &Value<'_>) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out
}

fn write_value(out: &mut String, value: &Value<'_>, depth: usize) {
    match value {
        Value::Num(n) => write_f64(out, *n),
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Str(s) => write_str(out, s),
        Value::Array(items) => write_container(out, ('[', ']'), items, depth, |out, item| {
            write_value(out, item, depth + 1);
        }),
        Value::Object(entries) => {
            write_container(out, ('{', '}'), entries, depth, |out, (key, item)| {
                write_str(out, key);
                out.push_str(": ");
                write_value(out, item, depth + 1);
            });
        }
    }
}

/// One item per line at `depth + 1`, the closing bracket at `depth`.
fn write_container<T>(
    out: &mut String,
    (open, close): (char, char),
    items: &[T],
    depth: usize,
    mut write_item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, depth + 1);
        write_item(out, item);
    }
    if !items.is_empty() {
        newline(out, depth);
    }
    out.push(close);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', 2 * depth));
}

fn write_f64(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9_007_199_254_740_992.0 {
        // Exact as an integer, and printed like one (`-0.0` too).
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Inverse of [`write_str`] for the escapes it emits.
    fn unescape(quoted: &str) -> String {
        let inner = quoted.strip_prefix('"').and_then(|s| s.strip_suffix('"')).expect("quoted");
        let mut out = String::new();
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next().expect("escape is complete") {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).expect("four hex digits");
                    out.push(char::from_u32(code).expect("scalar value"));
                }
                other => out.push(other),
            }
        }
        out
    }

    #[test]
    fn scalars_follow_the_number_and_escape_rules() {
        let cases = [
            (Value::Num(-0.0), "0"),
            (Value::Num(-2.0), "-2"),
            (Value::Num(1e-7), "0.0000001"),
            (Value::Num(9_007_199_254_740_992.0), "9007199254740992"),
            (Value::Num(1e20), "100000000000000000000"),
            (Value::Num(f64::NEG_INFINITY), "null"),
            (Value::UInt(u64::MAX), "18446744073709551615"),
            (Value::Str("\n\r\u{1f}\u{7f}é"), "\"\\n\\r\\u001f\u{7f}é\""),
        ];
        for (value, text) in cases {
            assert_eq!(to_string_pretty(&value), text, "{value:?}");
        }
    }

    /// Mostly the chars an escape rule is about, plus any scalar value.
    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![
            0u32..0x20,
            Just(u32::from('"')),
            Just(u32::from('\\')),
            0x20u32..0x80,
            0x80u32..0x11_0000,
        ]
        .prop_map(|code| char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn string_escape_is_strict_and_invertible(
            chars in proptest::collection::vec(any_char(), 0..40),
        ) {
            let input: String = chars.into_iter().collect();
            let quoted = to_string_pretty(&Value::Str(&input));
            prop_assert!(quoted.chars().all(|c| u32::from(c) >= 0x20), "{quoted:?}");
            let inner = &quoted[1..quoted.len() - 1];
            let mut escaped = false;
            for c in inner.chars() {
                if escaped {
                    prop_assert!(matches!(c, '"' | '\\' | 'n' | 'r' | 't' | 'u'), "{quoted:?}");
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else {
                    prop_assert!(c != '"', "unescaped quote in {quoted:?}");
                }
            }
            prop_assert!(!escaped, "dangling backslash in {quoted:?}");
            prop_assert_eq!(unescape(&quoted), input);
        }
    }
}
