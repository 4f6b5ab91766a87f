//! A minimal JSON writer for the binaries' result lines (the workspace
//! builds offline, without serde).

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug)]
pub enum Json {
    /// A number; a non-finite value is written as `null`.
    Num(f64),
    /// An exact integer.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: impl Into<String>, value: Json) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.into(), value)),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// `{"value": value, "unit": unit}`, the metric shape of the result
    /// line.
    pub fn metric(value: f64, unit: &str) -> Json {
        Json::Obj(vec![
            ("value".into(), Json::Num(value)),
            ("unit".into(), Json::Str(unit.into())),
        ])
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Num(v) if v.is_finite() => write!(f, "{v:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Str(s) => write_str(f, s),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_values_and_escapes() {
        let mut o = Json::obj();
        o.set("a\"b", Json::Num(1.5))
            .set("n", Json::Num(f64::NAN))
            .set("l", Json::Arr(vec![Json::Int(3), Json::Bool(true)]));
        assert_eq!(o.to_string(), r#"{"a\"b":1.5,"n":null,"l":[3,true]}"#);
        assert_eq!(Json::Num(2.0).to_string(), "2.0");
    }
}
