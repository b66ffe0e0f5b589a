//! Declarative counter groups.
//!
//! A counter group is a struct of numeric fields that folds across
//! ranks (`merge`), differences against an earlier snapshot of the same
//! rank (`delta_since`), and reads and writes itself as one JSON object.
//! [`counters!`](crate::counters) generates all of that from one field
//! list in which every field names its rules:
//!
//! ```text
//! /// Exchange rounds this rank participated in.
//! rounds: u64 => max sub req,
//! ```
//!
//! - The **merge rule** is `sum` (flow counters: cluster totals) or `max`
//!   (gauges, high-water marks, collective round counts, barrier-aligned
//!   times).
//! - The **window rule** is `sub` (the window's flow, saturating at 0;
//!   times clamp at 0.0) or `keep` (the later snapshot's value).
//! - A trailing `req` marks a first-release field: `from_json` fails
//!   when it is missing. Every later field parses as 0 when absent, so
//!   reports recorded by older builds still load.
//!
//! Each rule word is the name of a [`Counter`] method (or of a reader
//! in this module), so a new rule is one method here and no macro edit.

use crate::json::{Json, JsonError};

/// A counter field's value type: the rules `counters!` may name.
pub trait Counter: Copy {
    /// Merge rule `sum`: adds `other` (element-wise for histograms).
    fn sum(&mut self, other: &Self);
    /// Merge rule `max`: keeps the larger value (element-wise).
    fn max(&mut self, other: &Self);
    /// Window rule `sub`: subtracts the earlier `base`, saturating at
    /// zero, so a restarted counter degrades to "whole window" instead
    /// of wrapping.
    fn sub(&mut self, base: &Self);
    /// Window rule `keep`: the window's latest view, unchanged.
    fn keep(&mut self, _base: &Self) {}
    /// The JSON value (integers exact at every magnitude).
    fn to_json(&self) -> Json;
    /// Reads a value written by [`Counter::to_json`]; `None` when `v`
    /// has the wrong shape.
    fn from_json(v: &Json) -> Option<Self>;
}

impl Counter for u64 {
    #[inline]
    fn sum(&mut self, other: &Self) {
        *self += other;
    }
    #[inline]
    fn max(&mut self, other: &Self) {
        *self = Ord::max(*self, *other);
    }
    #[inline]
    fn sub(&mut self, base: &Self) {
        *self = self.saturating_sub(*base);
    }
    #[inline]
    fn to_json(&self) -> Json {
        Json::from_u64(*self)
    }
    #[inline]
    fn from_json(v: &Json) -> Option<Self> {
        match v {
            Json::U64(n) => Some(*n),
            Json::Num(n) => Some(*n as u64),
            _ => None,
        }
    }
}

impl Counter for f64 {
    #[inline]
    fn sum(&mut self, other: &Self) {
        *self += other;
    }
    #[inline]
    fn max(&mut self, other: &Self) {
        *self = f64::max(*self, *other);
    }
    #[inline]
    fn sub(&mut self, base: &Self) {
        *self = f64::max(*self - base, 0.0);
    }
    #[inline]
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    #[inline]
    fn from_json(v: &Json) -> Option<Self> {
        v.as_f64()
    }
}

/// A histogram: every rule applies per bucket. Reading is lenient per
/// bucket (a short or mistyped array fills with zeros).
impl<const N: usize> Counter for [u64; N] {
    #[inline]
    fn sum(&mut self, other: &Self) {
        self.iter_mut().zip(other).for_each(|(a, b)| a.sum(b));
    }
    #[inline]
    fn max(&mut self, other: &Self) {
        self.iter_mut()
            .zip(other)
            .for_each(|(a, b)| Counter::max(a, b));
    }
    #[inline]
    fn sub(&mut self, base: &Self) {
        self.iter_mut().zip(base).for_each(|(a, b)| a.sub(b));
    }
    #[inline]
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Counter::to_json).collect())
    }
    #[inline]
    fn from_json(v: &Json) -> Option<Self> {
        let mut out = [0; N];
        for (slot, item) in out.iter_mut().zip(v.as_arr()?) {
            *slot = u64::from_json(item).unwrap_or(0);
        }
        Some(out)
    }
}

fn field_name(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Reads required field `key` of `section` (the object at `path`).
///
/// # Errors
/// The field is missing or has the wrong shape.
pub fn read_req<T: Counter>(section: Option<&Json>, path: &str, key: &str) -> Result<T, JsonError> {
    let err = |msg: String| JsonError { msg, at: 0 };
    let v = section
        .and_then(|s| s.get(key))
        .ok_or_else(|| err(format!("missing field `{}`", field_name(path, key))))?;
    T::from_json(v).ok_or_else(|| err(format!("field `{}` is not a number", field_name(path, key))))
}

/// Reads optional field `key` of `section`: zero when the section or the
/// field is absent or mistyped.
///
/// # Errors
/// Never; the `Result` matches [`read_req`] so the macro can pick either.
pub fn read_opt<T: Counter + Default>(
    section: Option<&Json>,
    _path: &str,
    key: &str,
) -> Result<T, JsonError> {
    Ok(section
        .and_then(|s| s.get(key))
        .and_then(T::from_json)
        .unwrap_or_default())
}

/// Declares a counter group: the struct (with its docs and derives)
/// plus `merge`, `delta_since`, `to_json` and `from_json`, all driven by
/// the per-field rules described in the [`counter`](crate::counter)
/// module. Fields are always `pub`.
///
/// `struct Name as [u64] { … }` additionally generates `FIELDS`,
/// `as_array` and `from_array` (every field must then be a `u64`), for
/// fixed-width encodings.
#[macro_export]
macro_rules! counters {
    (@read) => { $crate::counter::read_opt };
    (@read req) => { $crate::counter::read_req };
    (@words [] $name:ident { $($field:ident)* }) => {};
    (@words [$word:ty] $name:ident { $($field:ident)* }) => {
        impl $name {
            /// Number of counter fields (the width of [`Self::as_array`]).
            pub const FIELDS: usize = [$(stringify!($field)),*].len();

            /// The counters in declaration order.
            pub fn as_array(&self) -> [$word; Self::FIELDS] {
                [$(self.$field),*]
            }

            /// Inverse of [`Self::as_array`].
            pub fn from_array(v: [$word; Self::FIELDS]) -> Self {
                let [$($field),*] = v;
                $name { $($field),* }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(as [$word:ty])? {
            $(
                $(#[$fmeta:meta])*
                $field:ident : $ty:ty => $merge:ident $window:ident $($req:ident)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $(
                $(#[$fmeta])*
                pub $field: $ty,
            )*
        }

        impl $name {
            /// Folds another rank's counters into this one, field by
            /// field (`sum` fields add, `max` fields keep the larger).
            pub fn merge(&mut self, other: &Self) {
                $($crate::counter::Counter::$merge(&mut self.$field, &other.$field);)*
            }

            /// The window `self − base`, where `base` is an earlier
            /// snapshot of the same rank: `sub` fields subtract
            /// (saturating), `keep` fields keep this snapshot's value.
            pub fn delta_since(&self, base: &Self) -> Self {
                let mut out = *self;
                $($crate::counter::Counter::$window(&mut out.$field, &base.$field);)*
                out
            }

            /// The group as one JSON object, keys in declaration order.
            pub fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj(vec![
                    $((stringify!($field), $crate::counter::Counter::to_json(&self.$field)),)*
                ])
            }

            /// Reads the group from `section`, the object at `path`
            /// (`None` when the report has no such object).
            ///
            /// # Errors
            /// A `req` field is missing or not a number.
            pub fn from_json(
                section: Option<&$crate::json::Json>,
                path: &str,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok($name {
                    $($field: $crate::counters!(@read $($req)?)(section, path, stringify!($field))?,)*
                })
            }
        }

        $crate::counters!(@words [$($word)?] $name { $($field)* });
    };
}
