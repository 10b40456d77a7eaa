//! Minimal, dependency-free stand-in for the parts of `serde` this
//! workspace uses: the `Serialize`/`Deserialize` traits, hand-implemented
//! by the few types that need them (there is no derive macro).
//!
//! Unlike real serde's zero-copy visitor architecture, this shim routes
//! everything through an owned JSON-like [`Value`] tree — entirely
//! sufficient for the workspace's report artefacts and the repo
//! benchmark's result files, and simple enough to vendor.  The container
//! this repo builds in has no network access to crates.io.  [`Value`] is
//! part of the shim's surface that callers build directly, so the real
//! serde is not a drop-in replacement.

#![forbid(unsafe_code)]

/// An owned JSON-like document tree — the interchange format between the
/// `Serialize`/`Deserialize` traits and the `serde_json` shim.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also used for non-finite floats, as serde_json does).
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (everything the workspace serialises fits in f64).
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Field lookup on an object value.
    pub fn get_field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => {
                fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is numeric.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deserialisation error: a human-readable path + expectation message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(String);

impl DeError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }

    /// Prefixes the error with a field/variant context.
    pub fn in_context(self, ctx: &str) -> Self {
        Self(format!("{ctx}: {}", self.0))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialize error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// A type that can render itself as a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a document tree.
    fn to_value(&self) -> Value;
}

/// A type that can reconstruct itself from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parses `value` into `Self`.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

macro_rules! impl_num {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let n = value
                    .as_num()
                    .ok_or_else(|| DeError::new(concat!("expected number for ", stringify!($t))))?;
                Ok(n as $t)
            }
        }
    )*};
}

impl_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        if self.is_finite() {
            // Widen exactly: every f32 is representable as f64, and the
            // shortest-decimal printer downstream round-trips it.
            Value::Num(f64::from(*self))
        } else {
            Value::Null
        }
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let n = value.as_num().ok_or_else(|| DeError::new("expected number for f32"))?;
        Ok(n as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::new("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value.as_str().map(str::to_owned).ok_or_else(|| DeError::new("expected string"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_array()
            .ok_or_else(|| DeError::new("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident . $idx:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let items = value.as_array().ok_or_else(|| DeError::new("expected tuple array"))?;
                let want = [$( stringify!($idx) ),+].len();
                if items.len() != want {
                    return Err(DeError::new(format!(
                        "expected {want}-tuple, got {} elements",
                        items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}
