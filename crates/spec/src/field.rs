//! The one typed codec between [`Value`] trees and the model: spec files
//! and `sofd` request bodies are both read through it, and every line or
//! reply the system emits is a table built with [`put`].
//!
//! A [`Field`] is a type that reads itself from a [`Value`] (naming the
//! offending path on a mismatch) and writes itself back. A [`Reader`] takes
//! the keys of one table by name and remembers every key it was asked for,
//! so [`Reader::finish`] can reject the rest *and* list the valid ones —
//! nobody keeps a second list. `table_field!` turns one field list per
//! table type into parse, defaults, emit and unknown-key rejection;
//! `named_field!` does the same for string-named enums.
//!
//! Every message has one form: `'path.to.key[2]' must be …, found …`,
//! `'path.key' is required`, `unknown key 'path.key' (valid keys here: …)`.

use crate::value::Value;
use std::borrow::Cow;
use std::fmt::Display;
use std::ops::RangeInclusive;

/// A type with one reading and one writing of itself as a [`Value`].
pub trait Field: Sized {
    /// Reads `v`, which sits at `at` (a dotted path without quotes, e.g.
    /// `workload.regions[0].nodes`); the error names `at`, what was
    /// expected and what was found.
    fn read(v: &Value, at: &str) -> Result<Self, String>;

    /// The value to emit, or `None` to leave the key out (an absent
    /// [`Option`]).
    fn write(&self) -> Option<Value>;
}

fn mismatch<T>(at: &str, want: &str, found: &Value) -> Result<T, String> {
    Err(format!(
        "'{at}' must be {want}, found {}",
        found.type_name()
    ))
}

impl Field for String {
    fn read(v: &Value, at: &str) -> Result<String, String> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => mismatch(at, "a string", other),
        }
    }

    fn write(&self) -> Option<Value> {
        Some(Value::Str(self.clone()))
    }
}

impl Field for bool {
    fn read(v: &Value, at: &str) -> Result<bool, String> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => mismatch(at, "a boolean", other),
        }
    }

    fn write(&self) -> Option<Value> {
        Some(Value::Bool(*self))
    }
}

impl Field for u64 {
    fn read(v: &Value, at: &str) -> Result<u64, String> {
        match v {
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            Value::Int(i) => Err(format!("'{at}' must be a non-negative integer, found {i}")),
            other => mismatch(at, "a non-negative integer", other),
        }
    }

    /// # Panics
    ///
    /// Past `i64::MAX`: a document's integers are `i64`, and the validators
    /// reject what a file could not say ([`fits_int`]) before anything is
    /// written.
    fn write(&self) -> Option<Value> {
        let n = i64::try_from(*self).expect("an integer a document can hold (validated)");
        Some(Value::Int(n))
    }
}

impl Field for usize {
    fn read(v: &Value, at: &str) -> Result<usize, String> {
        let n = u64::read(v, at)?;
        usize::try_from(n).map_err(|_| format!("'{at}' must fit a machine word, found {n}"))
    }

    fn write(&self) -> Option<Value> {
        (*self as u64).write()
    }
}

impl Field for f64 {
    fn read(v: &Value, at: &str) -> Result<f64, String> {
        v.as_f64().map_or_else(|| mismatch(at, "a number", v), Ok)
    }

    fn write(&self) -> Option<Value> {
        Some(Value::Float(*self))
    }
}

impl<T: Field> Field for Vec<T> {
    fn read(v: &Value, at: &str) -> Result<Vec<T>, String> {
        match v {
            Value::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::read(item, &format!("{at}[{i}]")))
                .collect(),
            other => mismatch(at, "an array", other),
        }
    }

    fn write(&self) -> Option<Value> {
        Some(Value::Array(self.iter().filter_map(T::write).collect()))
    }
}

impl<T: Field> Field for Option<T> {
    fn read(v: &Value, at: &str) -> Result<Option<T>, String> {
        T::read(v, at).map(Some)
    }

    fn write(&self) -> Option<Value> {
        self.as_ref().and_then(T::write)
    }
}

impl<T: Field> Field for Box<T> {
    fn read(v: &Value, at: &str) -> Result<Box<T>, String> {
        T::read(v, at).map(Box::new)
    }

    fn write(&self) -> Option<Value> {
        (**self).write()
    }
}

/// An inclusive `[lo, hi]` range.
impl<T: Field + PartialOrd + Display> Field for (T, T) {
    fn read(v: &Value, at: &str) -> Result<(T, T), String> {
        let ends = Vec::<T>::read(v, at)?;
        let found = ends.len();
        let mut ends = ends.into_iter();
        match (ends.next(), ends.next(), found) {
            (Some(lo), Some(hi), 2) if lo <= hi => Ok((lo, hi)),
            (Some(lo), Some(hi), 2) => Err(format!("'{at}' range is inverted ([{lo}, {hi}])")),
            _ => Err(format!(
                "'{at}' must be a two-element [lo, hi] range, found {found} element(s)"
            )),
        }
    }

    fn write(&self) -> Option<Value> {
        Some(Value::Array(
            [&self.0, &self.1]
                .into_iter()
                .filter_map(T::write)
                .collect(),
        ))
    }
}

/// Refuses an integer no document can hold ([`Value::Int`] is an `i64`):
/// `'at' must be at most 9223372036854775807`.
pub fn fits_int(at: &str, n: u64) -> Result<(), String> {
    match i64::try_from(n) {
        Ok(_) => Ok(()),
        Err(_) => Err(format!("'{at}' must be at most {}", i64::MAX)),
    }
}

/// `n` if it lies in `range`, else `'at' must be between LO and HI, found N`.
pub fn in_range(at: &str, n: u64, range: &RangeInclusive<u64>) -> Result<u64, String> {
    if range.contains(&n) {
        return Ok(n);
    }
    let (lo, hi) = (range.start(), range.end());
    Err(format!("'{at}' must be between {lo} and {hi}, found {n}"))
}

/// A strict reader over one table: keys are taken by name, and whatever
/// was never asked for is an error. Every method's error is a message of
/// one of the module's three forms.
#[derive(Debug)]
pub struct Reader<'v> {
    at: String,
    entries: Cow<'v, [(String, Value)]>,
    asked: Vec<&'static str>,
}

impl<'v> Reader<'v> {
    /// A reader over the table `v` sitting at `at` (`""` for a document
    /// root); an error when `v` is not a table.
    pub fn new(at: &str, v: &'v Value) -> Result<Reader<'v>, String> {
        match v {
            Value::Table(entries) => Ok(Reader {
                at: at.to_string(),
                entries: Cow::Borrowed(entries),
                asked: Vec::new(),
            }),
            other if at.is_empty() => Err(format!("expected a table, found {}", other.type_name())),
            other => mismatch(at, "a table", other),
        }
    }

    /// A reader that owns the entries of a document root.
    pub fn owned(entries: Vec<(String, Value)>) -> Reader<'static> {
        Reader {
            at: String::new(),
            entries: Cow::Owned(entries),
            asked: Vec::new(),
        }
    }

    /// The full path of `key` in this table.
    pub fn path<'k>(&self, key: &'k str) -> Cow<'k, str> {
        if self.at.is_empty() {
            Cow::Borrowed(key)
        } else {
            Cow::Owned(format!("{}.{key}", self.at))
        }
    }

    /// An optional key.
    pub fn opt<T: Field>(&mut self, key: &'static str) -> Result<Option<T>, String> {
        if !self.asked.contains(&key) {
            self.asked.push(key);
        }
        match self.entries.iter().find(|(k, _)| k == key) {
            Some((_, v)) => T::read(v, &self.path(key)).map(Some),
            None => Ok(None),
        }
    }

    /// A required key: `'path.key' is required` when absent.
    pub fn req<T: Field>(&mut self, key: &'static str) -> Result<T, String> {
        self.opt(key)?
            .ok_or_else(|| format!("'{}' is required", self.path(key)))
    }

    /// An optional key with a default.
    pub fn or<T: Field>(&mut self, key: &'static str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// An optional integer that must lie in `range` ([`in_range`]) — the
    /// bounded read for sizes that come from an untrusted peer.
    pub fn within(
        &mut self,
        key: &'static str,
        range: RangeInclusive<u64>,
    ) -> Result<Option<u64>, String> {
        match self.opt::<u64>(key)? {
            Some(n) => in_range(&self.path(key), n, &range).map(Some),
            None => Ok(None),
        }
    }

    /// Rejects any key no earlier call asked for, listing the ones that
    /// were: `unknown key 'path.key' (valid keys here: …)`.
    pub fn finish(&self) -> Result<(), String> {
        match self
            .entries
            .iter()
            .find(|(k, _)| !self.asked.contains(&k.as_str()))
        {
            None => Ok(()),
            Some((k, _)) => Err(format!(
                "unknown key '{}' (valid keys here: {})",
                self.path(k),
                self.asked.join(", ")
            )),
        }
    }
}

/// Reads the table `v` through `keys` and rejects what `keys` left over.
pub fn read_table<T>(
    v: &Value,
    at: &str,
    keys: impl FnOnce(&mut Reader<'_>) -> Result<T, String>,
) -> Result<T, String> {
    let mut r = Reader::new(at, v)?;
    let out = keys(&mut r)?;
    r.finish()?;
    Ok(out)
}

/// Sets `key` in the table `t` unless `v` writes as absent.
pub fn put<T: Field>(t: &mut Value, key: &str, v: &T) {
    if let Some(v) = v.write() {
        t.set(key, v);
    }
}

/// Sets `key` in the table `t`, to `null` when `v` writes as absent.
pub fn put_or_null<T: Field>(t: &mut Value, key: &str, v: &T) {
    t.set(key, v.write().unwrap_or(Value::Null));
}

/// `Field` for an enum that has a spec-file name: `parse` is
/// `fn(&str) -> Result<T, impl Display>`, `name` is `fn(&T) -> impl
/// Into<String>`.
macro_rules! named_field {
    ($ty:ty, $parse:expr, $name:expr) => {
        impl $crate::field::Field for $ty {
            fn read(v: &$crate::value::Value, at: &str) -> Result<Self, String> {
                let name = <String as $crate::field::Field>::read(v, at)?;
                $parse(&name).map_err(|e| format!("'{at}': {e}"))
            }

            fn write(&self) -> Option<$crate::value::Value> {
                Some($crate::value::Value::Str($name(self).into()))
            }
        }
    };
}
pub(crate) use named_field;

/// One field list for one table shape, as a module `$name` holding
/// `read(&mut Reader) -> Result<$ty, String>` and `write(&$ty, &mut
/// Value)` — the two halves a hand-written [`Field`] impl composes when a
/// table shares its reader (a workload kind behind its `kind` key) or has
/// a second spelling (a bare-string topology).
///
/// ```text
/// keys!(region: RegionDef = RegionDef { name, nodes, dcs = 1 });
/// ```
///
/// `key` alone is required, `key = default` is optional, and a default may
/// use the keys before it. With a base — `{ ..Type::default(); a, b }` —
/// every listed key defaults to the base's value and unlisted fields keep
/// it.
macro_rules! keys {
    ($name:ident: $ty:ty = $($path:ident)::+ { ..$base:expr; $($field:ident),* $(,)? }) => {
        $crate::field::keys!(@mod $name(r): $ty = $($path)::+ { $($field),* } {
            let base: $ty = $base;
            $( let $field = r.or(stringify!($field), base.$field)?; )*
            Ok($($path)::+ { $($field,)* ..base })
        });
    };
    ($name:ident: $ty:ty = $($path:ident)::+ { $($field:ident $(= $default:expr)?),* $(,)? }) => {
        $crate::field::keys!(@mod $name(r): $ty = $($path)::+ { $($field),* } {
            $( let $field = $crate::field::keys!(@read r, $field $(= $default)?); )*
            Ok($($path)::+ { $($field),* })
        });
    };
    (@read $r:ident, $field:ident) => {
        $r.req(stringify!($field))?
    };
    (@read $r:ident, $field:ident = $default:expr) => {
        $r.or(stringify!($field), $default)?
    };
    (@mod $name:ident($r:ident): $ty:ty = $($path:ident)::+ { $($field:ident),* } $read:block) => {
        mod $name {
            #[allow(unused_imports)]
            use super::*;

            #[allow(clippy::needless_update)]
            pub(super) fn read($r: &mut $crate::field::Reader<'_>) -> Result<$ty, String> $read

            #[allow(unreachable_patterns)]
            pub(super) fn write(v: &$ty, t: &mut $crate::value::Value) {
                match v {
                    $($path)::+ { $($field,)* .. } => {
                        $( $crate::field::put(t, stringify!($field), $field); )*
                    }
                    _ => unreachable!("written through another shape's key list"),
                }
            }
        }
    };
}
pub(crate) use keys;

/// [`Field`] for a table type from one field list (see `keys!` for the
/// list's grammar): parse, defaults, emit and unknown-key rejection.
macro_rules! table_field {
    ($ty:ident { $($body:tt)* }) => {
        const _: () = {
            $crate::field::keys!(table: $ty = $ty { $($body)* });

            impl $crate::field::Field for $ty {
                fn read(v: &$crate::value::Value, at: &str) -> Result<Self, String> {
                    $crate::field::read_table(v, at, table::read)
                }

                fn write(&self) -> Option<$crate::value::Value> {
                    let mut t = $crate::value::Value::table();
                    table::write(self, &mut t);
                    Some(t)
                }
            }
        };
    };
}
pub(crate) use table_field;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::parse_json;
    use crate::ScenarioSpec;

    /// One message form per kind of mismatch, pinned through a real spec
    /// (`tests/spec_codec.rs` holds the per-table parity checks).
    #[test]
    fn every_mismatch_names_its_path() {
        for (keys, want) in [
            ("groupz = 1", "unknown key 'workload.groupz' (valid keys here: kind, seed, solver, groups, events, window, vms_per_dc, gateway_links, regions, pair_cost, churn, failures, converge, max_seconds, emit)"),
            ("regions = [{ name = \"a\", nodez = 3 }]", "'workload.regions[0].nodes' is required"),
            ("regions = [{ name = \"a\", nodes = 3, x = 0 }]", "unknown key 'workload.regions[0].x' (valid keys here: name, nodes, dcs)"),
            ("seed = -3", "'workload.seed' must be a non-negative integer, found -3"),
            ("seed = 1.5", "'workload.seed' must be a non-negative integer, found float"),
            ("solver = 1", "'workload.solver' must be a string, found integer"),
            ("max_seconds = \"x\"", "'workload.max_seconds' must be a number, found string"),
            ("pair_cost = 3", "'workload.pair_cost' must be an array, found integer"),
            ("pair_cost = [[1], 7]", "'workload.pair_cost[1]' must be an array, found integer"),
            ("pair_cost = [[1, \"x\"]]", "'workload.pair_cost[0][1]' must be a number, found string"),
            ("churn = { lifetime = [9, 5] }", "'workload.churn.lifetime' range is inverted ([9, 5])"),
            ("churn = { joins = [1, 2, 3] }", "'workload.churn.joins' must be a two-element [lo, hi] range, found 3 element(s)"),
            ("churn = 4", "'workload.churn' must be a table, found integer"),
            ("churn = { roam = 1.5 }", "'workload.churn.roam' must be in [0, 1], found 1.5"),
            ("churn = { demand_mbps = -2.5 }", "'workload.churn.demand_mbps' must be positive, found -2.5"),
            ("failures = { process = \"scripted\", events = [{ at = 1, element = \"vm:x\" }] }", "'workload.failures.events[0].element': invalid failure element 'vm:x' (expected 'vm:N', 'link:U-V', 'node:N', or 'domain:NAME')"),
            // The dropped `kind` shorthand is an unknown key like any other.
            ("failures = { kind = \"vm\" }", "unknown key 'workload.failures.kind' (valid keys here: every, count, process, rate, scope, repair, policies, seed, events)"),
            ("emit = \"all\"", "'workload.emit' must be \"windows\" or \"events\", got \"all\""),
        ] {
            let src = format!("name = \"m\"\n[workload]\nkind = \"churn-at-scale\"\n{keys}\n");
            assert_eq!(ScenarioSpec::from_toml(&src).unwrap_err().to_string(), want);
        }
        let err = ScenarioSpec::from_json("[1]").unwrap_err();
        assert_eq!(err.to_string(), "expected a table, found array");
        // The retired solver's spec value is an unknown name like any other.
        let src = "name = \"m\"\nsofda = { stroll = \"color-coding:12\" }\n\
                   [workload]\nkind = \"churn-at-scale\"\n";
        assert_eq!(
            ScenarioSpec::from_toml(src).unwrap_err().to_string(),
            "'sofda.stroll': unknown stroll solver 'color-coding:12' (expected exact, greedy, or auto)"
        );
        let src = src.replace("stroll = \"color-coding:12\"", "steiner = \"kmb\"");
        assert_eq!(
            ScenarioSpec::from_toml(&src).unwrap_err().to_string(),
            "'sofda.steiner': unknown steiner solver 'kmb' (expected mehlhorn, takahashi, dreyfus-wagner, or auto)"
        );
    }

    #[test]
    fn bounded_reads_name_the_range() {
        let v = parse_json(r#"{"n": 65, "m": 64}"#).unwrap();
        let mut r = Reader::new("", &v).unwrap();
        assert_eq!(r.within("m", 1..=64), Ok(Some(64)));
        assert_eq!(r.within("absent", 1..=64), Ok(None));
        let err = r.within("n", 1..=64).unwrap_err();
        assert_eq!(err, "'n' must be between 1 and 64, found 65");
        r.finish().unwrap();
    }
}
