//! Minimal machine-readable JSON emission for harness results.
//!
//! `serde` is outside the offline container's dependency set (see
//! `crates/shims/README.md`), so the measurement types implement the
//! tiny [`ToJson`] trait instead of deriving `serde::Serialize`. The
//! emitted shape is plain JSON objects/arrays with snake_case keys —
//! exactly what a `#[derive(Serialize)]` would produce — so downstream
//! tooling (benchmark trajectory files, dashboards) consumes it
//! unchanged if serde ever replaces this module.

/// Types that can emit themselves as one JSON value.
pub trait ToJson {
    /// Renders a complete JSON value (no trailing newline).
    fn to_json(&self) -> String;
}

/// Renders a slice of serializable items as a JSON array.
pub fn to_json_array<T: ToJson>(items: &[T]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item.to_json());
    }
    out.push(']');
    out
}

/// Escapes a string for embedding inside JSON quotes.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Incremental JSON object writer used by the [`ToJson`] impls.
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject { buf: String::new() }
    }

    fn push_key(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\":");
    }

    /// Appends a raw, already-serialized JSON value.
    pub fn field_raw(mut self, key: &str, raw: &str) -> Self {
        self.push_key(key);
        self.buf.push_str(raw);
        self
    }

    /// Appends an unsigned integer field.
    pub fn field_u64(self, key: &str, v: u64) -> Self {
        let raw = v.to_string();
        self.field_raw(key, &raw)
    }

    /// Appends an optional unsigned integer field (`null` when absent).
    pub fn field_opt_u64(self, key: &str, v: Option<u64>) -> Self {
        match v {
            Some(v) => self.field_u64(key, v),
            None => self.field_raw(key, "null"),
        }
    }

    /// Appends an optional float field (`null` when absent).
    pub fn field_opt_f64(self, key: &str, v: Option<f64>) -> Self {
        match v {
            Some(v) => self.field_f64(key, v),
            None => self.field_raw(key, "null"),
        }
    }

    /// Appends a float field (`null` for non-finite values, which JSON
    /// cannot represent).
    pub fn field_f64(self, key: &str, v: f64) -> Self {
        if v.is_finite() {
            let raw = format!("{v}");
            self.field_raw(key, &raw)
        } else {
            self.field_raw(key, "null")
        }
    }

    /// Appends a boolean field.
    pub fn field_bool(self, key: &str, v: bool) -> Self {
        self.field_raw(key, if v { "true" } else { "false" })
    }

    /// Appends a string field (escaped).
    pub fn field_str(self, key: &str, v: &str) -> Self {
        let raw = format!("\"{}\"", escape(v));
        self.field_raw(key, &raw)
    }

    /// Closes the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pair(u64, &'static str);

    impl ToJson for Pair {
        fn to_json(&self) -> String {
            JsonObject::new()
                .field_u64("k", self.0)
                .field_str("s", self.1)
                .finish()
        }
    }

    #[test]
    fn objects_render_all_field_kinds() {
        let json = JsonObject::new()
            .field_u64("a", 3)
            .field_opt_u64("b", None)
            .field_f64("c", 1.5)
            .field_f64("c_bad", f64::NAN)
            .field_bool("d", false)
            .field_str("e", "x\"y\\z\n")
            .field_opt_f64("f", Some(0.5))
            .field_opt_f64("g", None)
            .finish();
        assert_eq!(
            json,
            r#"{"a":3,"b":null,"c":1.5,"c_bad":null,"d":false,"e":"x\"y\\z\n","f":0.5,"g":null}"#
        );
    }

    #[test]
    fn arrays_concatenate_items() {
        assert_eq!(to_json_array::<Pair>(&[]), "[]");
        assert_eq!(
            to_json_array(&[Pair(1, "a"), Pair(2, "b")]),
            r#"[{"k":1,"s":"a"},{"k":2,"s":"b"}]"#
        );
    }

    #[test]
    fn escape_handles_control_characters() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("\t"), "\\t");
    }

    #[test]
    fn empty_object_is_valid() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
