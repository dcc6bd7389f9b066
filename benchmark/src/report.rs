//! Metric names and units, the result line, and the run-to-run table.

use std::fmt::Write as _;

/// `(name, unit)` of the end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_ops_per_s", "ops/s"),
    ("wall_ops_per_s_1t", "ops/s"),
    ("virt_ops_per_s_16c", "ops/s"),
    ("virt_ns_per_op_1c", "ns/op"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Span names that become `<name>_ns.p50/.p99/.n` per-layer metrics.
pub const SPAN_METRICS: [(&str, crate::trace::Name); 6] = [
    ("core.op", crate::trace::Name::Op),
    ("core.mmap", crate::trace::Name::Mmap),
    ("core.fault", crate::trace::Name::Fault),
    ("core.munmap", crate::trace::Name::Munmap),
    ("core.maintain", crate::trace::Name::Maintain),
    ("metis.step", crate::trace::Name::Step),
];

/// Owner labels the simulator attributes remote cache lines to.
pub const SIM_LABELS: [&str; 4] = ["frame-table", "radix-index", "radix-leaf", "heap"];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// What one run of one workload reports.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunOutput {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String");
        }
        s.push_str("}}");
        s
    }
}

/// A parsed JSON value (objects keep their key order).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }

    pub fn as_obj(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(kv) => kv,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        self.ws();
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.expect(":")?;
                    kv.push((k, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(kv));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Strings as this benchmark and BENCHMARK.json write them: `\"`,
    /// `\\`, `\n` and `\t` escapes only.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.i));
        }
        let mut out = Vec::new();
        while let Some(&b) = self.s.get(self.i) {
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = self.s.get(self.i).copied();
                    self.i += 1;
                    out.push(match esc {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(format!("unsupported escape at byte {}", self.i)),
                    });
                }
                _ => out.push(b),
            }
        }
        Err("unterminated string".to_string())
    }
}

/// Parses a result line back into `(name, value)` pairs, in order.
pub fn parse_result(line: &str) -> Result<(bool, Vec<(String, f64)>), String> {
    let j = Json::parse(line)?;
    let correct = j.get("correct") == Some(&Json::Bool(true));
    let metrics = j
        .get("metrics")
        .ok_or("result has no `metrics`")?
        .as_obj()
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric `{name}` has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    Ok((correct, metrics))
}

/// `(name, bound)` of each end-to-end metric in BENCHMARK.json.
pub fn bounds(spec: &Json) -> Vec<(String, f64)> {
    spec.get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Prints one workload's run A against run B; returns how many metrics
/// differ by more than their bound.
pub fn compare(
    workload: &str,
    a: &[(String, f64)],
    b: &[(String, f64)],
    bounds: &[(String, f64)],
) -> usize {
    println!(
        "{:<14} {:<20} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "run A", "run B", "diff", "bound"
    );
    let mut fails = 0;
    for (name, va) in a {
        let vb = b.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
        let (Some(vb), Some(bound)) = (vb, bound) else {
            println!("{workload:<14} {name:<20} missing from run B or from BENCHMARK.json  FAIL");
            fails += 1;
            continue;
        };
        let diff = (vb - va) / va;
        let ok = diff.abs() <= bound;
        fails += !ok as usize;
        println!(
            "{workload:<14} {name:<20} {va:>16.4} {vb:>16.4} {:>+8.2}% {:>6.1}%  {}",
            100.0 * diff,
            100.0 * bound,
            if ok { "ok" } else { "FAIL" }
        );
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_nested_values() {
        let j = Json::parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"y"}} "#).unwrap();
        assert_eq!(
            j.get("a").unwrap().as_arr(),
            &[
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null
            ]
        );
        assert_eq!(j.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("{} x").is_err());
    }

    #[test]
    fn result_line_parses_back() {
        let mut m = Metrics::default();
        m.put("wall_ops_per_s", "ops/s", 1_043_211.553_2);
        m.put("setup_s", "s", 0.012_345_678_9);
        m.put("not_finite", "ns", f64::NAN);
        let out = RunOutput {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: m.0,
        };
        let line = out.to_json();
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).unwrap();
        let keys: Vec<&str> = j.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("attempted"), Some(&Json::Num(12.0)));
        let (correct, metrics) = parse_result(&line).unwrap();
        assert!(correct);
        assert_eq!(
            metrics,
            [
                ("wall_ops_per_s".to_string(), 1_043_211.553_2),
                ("setup_s".to_string(), 0.012_345_678_9),
                ("not_finite".to_string(), 0.0),
            ]
        );
        let unit = j
            .get("metrics")
            .unwrap()
            .get("setup_s")
            .unwrap()
            .get("unit");
        assert_eq!(unit.and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn compare_flags_only_differences_beyond_the_bound() {
        let a = vec![("x".to_string(), 100.0), ("y".to_string(), 10.0)];
        let b = vec![("x".to_string(), 104.0), ("y".to_string(), 8.0)];
        let bounds = vec![("x".to_string(), 0.05), ("y".to_string(), 0.05)];
        assert_eq!(compare("w", &a, &b, &bounds), 1);
        assert_eq!(compare("w", &a, &a, &bounds), 0);
        assert_eq!(compare("w", &a, &b[..1], &bounds), 1);
    }
}
