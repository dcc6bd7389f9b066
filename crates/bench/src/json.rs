//! The one writer of the `BENCH_*.json` records: a value tree the
//! `bench_*` binaries build and print once.
//!
//! Records are compared as parsed values (`scripts/bench_record.sh
//! --check` goes through `jq`), so what a record fixes is its keys, their
//! order and nesting, and each number's printed precision — not its
//! whitespace. Objects therefore keep insertion order, and a number is
//! stored as the text it prints as: an integer as itself, a float through
//! [`fixed`] with the places its field has always had.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A number, as the text it prints as.
    Num(String),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; members print in insertion order.
    Object(Vec<(String, Json)>),
}

/// `v` printed with exactly `places` decimals (what `{:.N}` prints).
pub fn fixed(v: f64, places: usize) -> Json {
    Json::Num(format!("{v:.places$}"))
}

/// An array of everything `items` yields.
pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
    Json::Array(items.into_iter().map(Into::into).collect())
}

/// An object of every `(key, value)` that `members` yields, in that order.
pub fn object<K: ToString, V: Into<Json>>(members: impl IntoIterator<Item = (K, V)>) -> Json {
    Json::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.into()))
            .collect(),
    )
}

/// An object of `key => value` members, in the order written; keys are
/// anything with `to_string`, values anything `Json::from` takes.
#[macro_export]
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::json::Json::Object(vec![
            $(($key.to_string(), $crate::json::Json::from($value))),*
        ])
    };
}

macro_rules! num_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            /// The number as `{}` prints it.
            fn from(v: $t) -> Json {
                Json::Num(v.to_string())
            }
        }
    )*};
}
num_from!(u32, u64, usize, i32, f64);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl Json {
    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Array(_) | Json::Object(_))
    }

    /// Writes the value at nesting depth `depth`. A container of scalars
    /// only is one line; any other puts each member on its own line,
    /// indented two spaces per level.
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let (open, close, members): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Num(n) => return f.write_str(n),
            Json::Str(s) => return write_str(f, s),
            Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Object(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(&**k), v)).collect(),
            ),
        };
        let inline = members.iter().all(|(_, v)| v.is_scalar());
        write!(f, "{open}")?;
        for (i, (key, value)) in members.iter().enumerate() {
            match (inline, i) {
                (true, 0) => {}
                (true, _) => f.write_str(", ")?,
                (false, 0) => write!(f, "\n{:1$}", "", 2 * depth + 2)?,
                (false, _) => write!(f, ",\n{:1$}", "", 2 * depth + 2)?,
            }
            if let Some(key) = key {
                write_str(f, key)?;
                f.write_str(": ")?;
            }
            value.write(f, depth + 1)?;
        }
        if !inline {
            write!(f, "\n{:1$}", "", 2 * depth)?;
        }
        write!(f, "{close}")
    }
}

/// Writes `s` as a JSON string literal.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_keeps_insertion_order_and_indents() {
        let v = obj! {
            "schema" => 1,
            "bench" => "x",
            "points" => array([obj! {"cores" => 1usize, "ok" => true}, obj! {"cores" => 4usize, "ok" => false}]),
            "gate" => obj! {"inner" => obj! {"z" => 1, "a" => 2}},
        };
        assert_eq!(
            v.to_string(),
            r#"{
  "schema": 1,
  "bench": "x",
  "points": [
    {"cores": 1, "ok": true},
    {"cores": 4, "ok": false}
  ],
  "gate": {
    "inner": {"z": 1, "a": 2}
  }
}"#
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(array::<Json>([]).to_string(), "[]");
        assert_eq!(obj! {}.to_string(), "{}");
        assert_eq!(
            obj! {"a" => array::<u64>([]), "o" => obj! {}}.to_string(),
            "{\n  \"a\": [],\n  \"o\": {}\n}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let v = obj! {"k\"ey" => "a \"quoted\" back\\slash\nnewline\ttab \u{1} é"};
        assert_eq!(
            v.to_string(),
            r#"{"k\"ey": "a \"quoted\" back\\slash\nnewline\ttab \u0001 é"}"#
        );
    }

    #[test]
    fn fixed_prints_what_the_format_spec_printed() {
        for v in [0.0, 0.05, 0.94996, 1.0, 37.129, 6725.9, 1234567.891, 0.5] {
            assert_eq!(fixed(v, 0).to_string(), format!("{v:.0}"));
            assert_eq!(fixed(v, 1).to_string(), format!("{v:.1}"));
            assert_eq!(fixed(v, 4).to_string(), format!("{v:.4}"));
        }
        // Round-half-even on the binary value, as `{:.N}` does.
        assert_eq!(fixed(0.125, 2).to_string(), "0.12");
        assert_eq!(fixed(2.5, 0).to_string(), "2");
        // Constants print as `{}` does; integers as themselves.
        assert_eq!(Json::from(0.7).to_string(), "0.7");
        assert_eq!(Json::from(8.0).to_string(), "8");
        assert_eq!(Json::from(u64::MAX).to_string(), u64::MAX.to_string());
    }
}
