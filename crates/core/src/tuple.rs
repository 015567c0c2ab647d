//! Tuples, schemas, and the flat wire encoding.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use crate::value::{ValRef, Value};

/// Wire bytes of the per-tuple header — shared by the actual accounting
/// ([`Tuple::wire_size`]) and the prediction
/// ([`crate::catalog::TableDef::ship_bytes`]) so "predicted bytes ==
/// shipped bytes" holds by construction.
pub const TUPLE_HEADER_BYTES: usize = 4;

/// A relational tuple: a flat vector of values.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Tuple {
    pub vals: Vec<Value>,
}

impl Tuple {
    pub fn new(vals: Vec<Value>) -> Self {
        Tuple { vals }
    }

    pub fn get(&self, i: usize) -> &Value {
        &self.vals[i]
    }

    pub fn arity(&self) -> usize {
        self.vals.len()
    }

    /// Projection: keep the listed columns, in order.
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple::new(cols.iter().map(|&c| self.vals[c].clone()).collect())
    }

    /// Concatenation (join output).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut vals = Vec::with_capacity(self.vals.len() + other.vals.len());
        vals.extend_from_slice(&self.vals);
        vals.extend_from_slice(&other.vals);
        Tuple::new(vals)
    }

    /// Wire bytes: values plus a small per-tuple header.
    pub fn wire_size(&self) -> usize {
        TUPLE_HEADER_BYTES + self.vals.iter().map(Value::wire_size).sum::<usize>()
    }

    /// Append the flat encoding of this tuple to `buf` (see [`FlatRow`]
    /// for the layout). The buffer is reusable across calls; nothing
    /// before its current length is touched.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        encode_row(self, buf);
    }

    /// Decode one tuple from the front of `bytes`; returns the tuple and
    /// the number of bytes consumed. `None` on a malformed buffer.
    pub fn decode_from(bytes: &[u8]) -> Option<(Tuple, usize)> {
        let arity = read_arity(bytes)?;
        // Every value takes at least its tag byte, which bounds what a
        // malformed header can make us reserve.
        let mut vals = Vec::with_capacity(arity.min(bytes.len()));
        let mut pos = 4;
        for _ in 0..arity {
            let (v, next) = read_value(bytes, pos)?;
            vals.push(v.to_value());
            pos = next;
        }
        Some((Tuple::new(vals), pos))
    }
}

/// Append the encoding of one value to `buf` — the one value encoder
/// behind [`Tuple::encode_into`] and [`RowBatch::push`].
fn encode_value(v: ValRef<'_>, buf: &mut Vec<u8>) {
    match v {
        ValRef::Null => buf.push(TAG_NULL),
        ValRef::Bool(false) => buf.push(TAG_FALSE),
        ValRef::Bool(true) => buf.push(TAG_TRUE),
        ValRef::I64(i) => {
            buf.push(TAG_I64);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        ValRef::F64(f) => {
            buf.push(TAG_F64);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        ValRef::Str(s) => {
            buf.push(TAG_STR);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        ValRef::Pad(n) => {
            buf.push(TAG_PAD);
            buf.extend_from_slice(&n.to_le_bytes());
        }
    }
}

/// Append the encoding of every column of `row` to `buf`; returns the
/// row's wire bytes, summed per value as [`Tuple::wire_size`] sums them.
fn encode_row<R: Columns + ?Sized>(row: &R, buf: &mut Vec<u8>) -> usize {
    let arity = row.arity();
    buf.extend_from_slice(&(arity as u32).to_le_bytes());
    let mut wire = TUPLE_HEADER_BYTES;
    for i in 0..arity {
        let v = row.col(i);
        wire += v.wire_size();
        encode_value(v, buf);
    }
    wire
}

/// The column count an encoded tuple opens with.
fn read_arity(bytes: &[u8]) -> Option<usize> {
    Some(u32::from_le_bytes(bytes.get(0..4)?.try_into().ok()?) as usize)
}

/// Read the encoded value that starts at `pos`, borrowing a string from
/// `bytes`; returns it with the position of the next value. `None` on an
/// unknown tag, a value running past the buffer, or a string that is not
/// UTF-8 — the one definition of well-formed that [`Tuple::decode_from`]
/// and [`RowRef`] share.
fn read_value(bytes: &[u8], mut pos: usize) -> Option<(ValRef<'_>, usize)> {
    let tag = *bytes.get(pos)?;
    pos += 1;
    let v = match tag {
        TAG_NULL => ValRef::Null,
        TAG_FALSE => ValRef::Bool(false),
        TAG_TRUE => ValRef::Bool(true),
        TAG_I64 => {
            let v = i64::from_le_bytes(bytes.get(pos..pos + 8)?.try_into().ok()?);
            pos += 8;
            ValRef::I64(v)
        }
        TAG_F64 => {
            let v = u64::from_le_bytes(bytes.get(pos..pos + 8)?.try_into().ok()?);
            pos += 8;
            ValRef::F64(f64::from_bits(v))
        }
        TAG_STR => {
            let len = u32::from_le_bytes(bytes.get(pos..pos + 4)?.try_into().ok()?) as usize;
            pos += 4;
            let s = std::str::from_utf8(bytes.get(pos..pos + len)?).ok()?;
            pos += len;
            ValRef::Str(s)
        }
        TAG_PAD => {
            let n = u32::from_le_bytes(bytes.get(pos..pos + 4)?.try_into().ok()?);
            pos += 4;
            ValRef::Pad(n)
        }
        _ => return None,
    };
    Some((v, pos))
}

/// A row of columns, wherever it lies: a [`Tuple`], an encoded row read
/// in place ([`RowRef`]), or a view over one — two rows side by side
/// ([`Concat`]), some of a row's columns ([`Select`]), expressions
/// evaluated over a row ([`crate::expr::Projection`]). What an
/// [`crate::expr::Expr`] is evaluated over and what a [`FlatRow`] is
/// encoded from. A column index past the end reads as NULL.
pub trait Columns {
    /// How many columns the row has.
    fn arity(&self) -> usize;

    /// Column `i`, borrowed.
    fn col(&self, i: usize) -> ValRef<'_>;

    /// Column `i`, owned. A row that already holds owned values shares
    /// their strings; one read in place copies them.
    fn value(&self, i: usize) -> Value {
        self.col(i).to_value()
    }

    /// The row as a tuple of owned values.
    fn to_tuple(&self) -> Tuple {
        Tuple::new((0..self.arity()).map(|i| self.value(i)).collect())
    }
}

impl<R: Columns + ?Sized> Columns for &R {
    fn arity(&self) -> usize {
        (**self).arity()
    }
    fn col(&self, i: usize) -> ValRef<'_> {
        (**self).col(i)
    }
    fn value(&self, i: usize) -> Value {
        (**self).value(i)
    }
}

impl Columns for Tuple {
    fn arity(&self) -> usize {
        self.vals.len()
    }
    fn col(&self, i: usize) -> ValRef<'_> {
        self.vals.get(i).map_or(ValRef::Null, Value::as_ref)
    }
    fn value(&self, i: usize) -> Value {
        self.vals.get(i).cloned().unwrap_or(Value::Null)
    }
}

/// Two encoded rows read as their concatenation — a join's output
/// before anything is projected out of it.
#[derive(Clone, Copy)]
pub struct Concat<'a> {
    left: RowRef<'a>,
    right: RowRef<'a>,
}

impl<'a> Concat<'a> {
    pub fn new(left: RowRef<'a>, right: RowRef<'a>) -> Concat<'a> {
        Concat { left, right }
    }
}

impl Columns for Concat<'_> {
    fn arity(&self) -> usize {
        self.left.arity + self.right.arity
    }
    fn col(&self, i: usize) -> ValRef<'_> {
        match i.checked_sub(self.left.arity) {
            None => self.left.get(i),
            Some(j) => self.right.get(j),
        }
    }
}

/// The listed columns of a row, in the listed order: a projection read
/// in place.
pub struct Select<'a, R: ?Sized> {
    row: &'a R,
    cols: &'a [usize],
}

impl<'a, R: Columns + ?Sized> Select<'a, R> {
    pub fn new(row: &'a R, cols: &'a [usize]) -> Self {
        Select { row, cols }
    }
}

impl<R: Columns + ?Sized> Columns for Select<'_, R> {
    fn arity(&self) -> usize {
        self.cols.len()
    }
    fn col(&self, i: usize) -> ValRef<'_> {
        self.cols.get(i).map_or(ValRef::Null, |&c| self.row.col(c))
    }
    fn value(&self, i: usize) -> Value {
        self.cols.get(i).map_or(Value::Null, |&c| self.row.value(c))
    }
}

/// A well-formed encoded tuple, read in place: a predicate looks at the
/// columns it names without the row being decoded, and nothing here
/// touches the heap. A column is found by walking the encoding from the
/// front, which for the handful of columns a row has costs less than
/// any index that would have to be stored somewhere.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    /// Exactly one tuple's encoding, checked by [`Self::new`].
    bytes: &'a [u8],
    arity: usize,
}

impl<'a> RowRef<'a> {
    /// View the tuple encoded at the front of `bytes`. Accepts exactly
    /// what [`Tuple::decode_from`] accepts — same tags, same bounds,
    /// same UTF-8 check, trailing bytes ignored — so a row that can be
    /// filtered here can be decoded afterwards.
    pub fn new(bytes: &'a [u8]) -> Option<RowRef<'a>> {
        let arity = read_arity(bytes)?;
        let mut pos = 4;
        for _ in 0..arity {
            pos = read_value(bytes, pos)?.1;
        }
        Some(RowRef {
            bytes: &bytes[..pos],
            arity,
        })
    }

    /// Column `i`, or NULL past the end.
    pub fn get(&self, i: usize) -> ValRef<'a> {
        if i >= self.arity {
            return ValRef::Null;
        }
        let mut pos = 4;
        for _ in 0..i {
            pos = self.value_at(pos).1;
        }
        self.value_at(pos).0
    }

    fn value_at(&self, pos: usize) -> (ValRef<'a>, usize) {
        read_value(self.bytes, pos).expect("checked by RowRef::new")
    }
}

impl Columns for RowRef<'_> {
    fn arity(&self) -> usize {
        self.arity
    }
    fn col(&self, i: usize) -> ValRef<'_> {
        self.get(i)
    }
}

// Per-value tag bytes of the flat encoding.
const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_PAD: u8 = 6;

/// Wire bytes of one encoded tuple, derived by walking the *encoded*
/// layout with the same per-value model as [`Value::wire_size`] (Null
/// and Bool 1, I64/F64 8, Str 4+len, Pad n, plus the tuple header).
/// Deriving it from the bytes — rather than carrying a separate count —
/// is what keeps traffic accounting and the shipped representation from
/// ever drifting apart.
pub fn wire_of_encoded(bytes: &[u8]) -> Option<usize> {
    let mut pos = 4usize;
    let arity = u32::from_le_bytes(bytes.get(0..4)?.try_into().ok()?) as usize;
    let mut wire = TUPLE_HEADER_BYTES;
    for _ in 0..arity {
        let tag = *bytes.get(pos)?;
        pos += 1;
        match tag {
            TAG_NULL | TAG_FALSE | TAG_TRUE => wire += 1,
            TAG_I64 | TAG_F64 => {
                pos += 8;
                wire += 8;
            }
            TAG_STR => {
                let len = u32::from_le_bytes(bytes.get(pos..pos + 4)?.try_into().ok()?) as usize;
                pos += 4 + len;
                wire += 4 + len;
            }
            TAG_PAD => {
                let n = u32::from_le_bytes(bytes.get(pos..pos + 4)?.try_into().ok()?) as usize;
                pos += 4;
                wire += n;
            }
            _ => return None,
        }
    }
    (pos <= bytes.len()).then_some(wire)
}

thread_local! {
    /// Emptied [`RowBatch`] buffers, one per depth of nesting.
    static BATCH_BUFS: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Where [`RowBatch::push`] encoded a row.
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    at: u32,
    wire: u32,
}

impl Slot {
    /// The row's wire bytes, as [`FlatRow::wire`] will read them.
    pub fn wire(&self) -> usize {
        self.wire as usize
    }
}

/// Rows encoded back to back into a scratch buffer from a per-thread
/// pool, then sealed into one shared allocation that each row is a slice
/// of, as in `bytes::Bytes` or an Arrow record batch.
pub struct RowBatch {
    buf: Vec<u8>,
}

impl Default for RowBatch {
    fn default() -> Self {
        let buf = BATCH_BUFS.with_borrow_mut(Vec::pop).unwrap_or_default();
        RowBatch { buf }
    }
}

impl RowBatch {
    /// Encode any row of columns (a tuple, a view) at the end.
    pub fn push<R: Columns + ?Sized>(&mut self, row: &R) -> Slot {
        let at = self.buf.len();
        let wire = encode_row(row, &mut self.buf);
        debug_assert_eq!(wire_of_encoded(&self.buf[at..]), Some(wire));
        u32::try_from(self.buf.len()).expect("a batch is under 4 GiB");
        let (at, wire) = (at as u32, wire as u32);
        Slot { at, wire }
    }

    /// Take back the last row pushed: it leaves no trace.
    pub fn pop(&mut self, slot: Slot) {
        self.buf.truncate(slot.at as usize);
    }

    /// The rows in one immutable allocation — none if there is no row.
    pub fn seal(mut self) -> Rows {
        let bytes = (!self.buf.is_empty()).then(|| Arc::from(&self.buf[..]));
        self.buf.clear();
        BATCH_BUFS.with_borrow_mut(|bufs| bufs.push(self.buf));
        Rows { bytes }
    }
}

/// A sealed [`RowBatch`]: it lives until its last row is dropped.
#[derive(Default)]
pub struct Rows {
    bytes: Option<Arc<[u8]>>,
}

impl Rows {
    /// The row pushed at `slot`, sharing the batch (a refcount bump).
    pub fn row(&self, Slot { at, wire }: Slot) -> FlatRow {
        let bytes = Arc::clone(self.bytes.as_ref().expect("a slot of this batch"));
        FlatRow { bytes, at, wire }
    }

    /// Every row, in the order pushed.
    pub fn iter(&self) -> impl Iterator<Item = FlatRow> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let rest = &self.bytes.as_ref()?[at as usize..];
            let len = RowRef::new(rest)?.bytes.len() as u32;
            let wire = wire_of_encoded(rest)? as u32;
            let row = self.row(Slot { at, wire });
            at += len;
            Some(row)
        })
    }
}

/// A tuple in flat wire form: the shipped representation of every row
/// that enters the DHT (rehash, stage republish, initiator ship), at an
/// offset in a shared, immutable buffer — its [`RowBatch`]'s. Cloning is
/// a refcount bump — renewing, replicating, or re-homing a published row
/// never re-copies its values — and `wire` caches the byte count
/// [`wire_of_encoded`] derives from the same layout, so the traffic
/// model cannot disagree with what is actually shipped.
#[derive(Clone)]
pub struct FlatRow {
    bytes: Arc<[u8]>,
    at: u32,
    wire: u32,
}

// Inline in every `QpItem` that carries a row.
const _: () = assert!(std::mem::size_of::<FlatRow>() == 24);

impl FlatRow {
    /// Encode any row of columns, as a batch of one.
    pub fn from_columns<R: Columns + ?Sized>(row: &R) -> FlatRow {
        let mut batch = RowBatch::default();
        let slot = batch.push(row);
        batch.seal().row(slot)
    }

    /// [`Self::from_columns`] of a tuple.
    pub fn from_tuple(t: &Tuple) -> FlatRow {
        Self::from_columns(t)
    }

    /// Materialize the tuple (probe and match sites).
    pub fn decode(&self) -> Tuple {
        Tuple::decode_from(&self.bytes[self.at as usize..])
            .expect("FlatRow holds a well-formed encoding")
            .0
    }

    /// Read the row where it lies (see [`RowRef`]).
    pub fn view(&self) -> RowRef<'_> {
        RowRef::new(&self.bytes[self.at as usize..]).expect("FlatRow holds a well-formed encoding")
    }

    /// Wire bytes of the row, identical to `self.decode().wire_size()`.
    pub fn wire(&self) -> usize {
        self.wire as usize
    }

    /// The row's own bytes, found by walking it, without its batch-mates'.
    pub fn encoded(&self) -> &[u8] {
        self.view().bytes
    }
}

impl fmt::Debug for FlatRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FlatRow({})", self.decode())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.vals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[macro_export]
/// Build a tuple from value-convertible literals: `tuple![1i64, 2.5, "x"]`.
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

/// Column types (documentation-level; evaluation is dynamically typed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColType {
    Bool,
    I64,
    F64,
    Str,
    Pad,
}

impl ColType {
    /// Wire bytes of one value of this type, when statically known
    /// (mirrors [`crate::value::Value::wire_size`]); `None` for
    /// variable-width types (`Str`, `Pad`), whose widths come from
    /// catalog statistics.
    pub fn wire_width(&self) -> Option<u32> {
        match self {
            ColType::Bool => Some(1),
            ColType::I64 | ColType::F64 => Some(8),
            ColType::Str | ColType::Pad => None,
        }
    }
}

/// A named, typed column.
#[derive(Clone, Debug)]
pub struct Field {
    pub name: String,
    pub ty: ColType,
}

/// A relation schema: name plus ordered fields.
#[derive(Clone, Debug)]
pub struct Schema {
    pub name: String,
    pub fields: Vec<Field>,
}

pub type SchemaRef = Arc<Schema>;

impl Schema {
    pub fn new(name: &str, fields: &[(&str, ColType)]) -> SchemaRef {
        Arc::new(Schema {
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(n, t)| Field {
                    name: n.to_string(),
                    ty: *t,
                })
                .collect(),
        })
    }

    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Resolve a column by bare name or `table.name` (joined schemas
    /// carry qualified field names like `R.pkey`).
    pub fn col(&self, name: &str) -> Option<usize> {
        // Exact (possibly qualified) field-name match.
        if let Some(i) = self
            .fields
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(name))
        {
            return Some(i);
        }
        // `<schema>.<field>` qualification against our own name.
        if let Some((prefix, rest)) = name.split_once('.') {
            if prefix.eq_ignore_ascii_case(&self.name) {
                return self.col(rest);
            }
            return None;
        }
        // Bare name matching the suffix of a qualified field, if unique.
        let hits: Vec<usize> = self
            .fields
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.name
                    .rsplit('.')
                    .next()
                    .is_some_and(|b| b.eq_ignore_ascii_case(name))
            })
            .map(|(i, _)| i)
            .collect();
        match hits.as_slice() {
            [i] => Some(*i),
            _ => None,
        }
    }

    /// Schema of `self ⨝ other` (concatenated columns).
    pub fn join(&self, other: &Schema) -> SchemaRef {
        let mut fields = Vec::with_capacity(self.fields.len() + other.fields.len());
        for f in &self.fields {
            fields.push(Field {
                name: format!("{}.{}", self.name, f.name),
                ty: f.ty,
            });
        }
        for f in &other.fields {
            fields.push(Field {
                name: format!("{}.{}", other.name, f.name),
                ty: f.ty,
            });
        }
        Arc::new(Schema {
            name: format!("{}_{}", self.name, other.name),
            fields,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_and_concat() {
        let t = tuple![1i64, 2i64, 3i64];
        assert_eq!(t.project(&[2, 0]), tuple![3i64, 1i64]);
        let u = tuple!["x"];
        let c = t.concat(&u);
        assert_eq!(c.arity(), 4);
        assert_eq!(c.get(3), &Value::str("x"));
    }

    #[test]
    fn schema_resolution_with_and_without_prefix() {
        let s = Schema::new("R", &[("pkey", ColType::I64), ("num1", ColType::I64)]);
        assert_eq!(s.col("num1"), Some(1));
        assert_eq!(s.col("R.num1"), Some(1));
        assert_eq!(s.col("r.PKEY"), Some(0));
        assert_eq!(s.col("S.num1"), None);
        assert_eq!(s.col("nope"), None);
    }

    #[test]
    fn join_schema_prefixes_columns() {
        let r = Schema::new("R", &[("pkey", ColType::I64)]);
        let s = Schema::new("S", &[("pkey", ColType::I64)]);
        let j = r.join(&s);
        assert_eq!(j.arity(), 2);
        assert_eq!(j.col("R.pkey"), Some(0));
        assert_eq!(j.col("S.pkey"), Some(1));
    }

    #[test]
    fn tuple_wire_size_sums_values() {
        let t = tuple![1i64, 2i64];
        assert_eq!(t.wire_size(), 4 + 16);
    }

    #[test]
    fn encode_decode_round_trip_all_value_shapes() {
        let t = Tuple::new(vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::I64(-42),
            Value::F64(2.5),
            Value::str("héllo"),
            Value::Pad(1000),
        ]);
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        let (back, used) = Tuple::decode_from(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(back, t);
        assert_eq!(wire_of_encoded(&buf), Some(t.wire_size()));
    }

    #[test]
    fn flat_row_preserves_wire_size_and_values() {
        let t = tuple![7i64, "key", Value::Pad(512)];
        let flat = FlatRow::from_tuple(&t);
        assert_eq!(flat.wire(), t.wire_size());
        assert_eq!(flat.decode(), t);
        // Clone shares the buffer (refcount bump, no re-encode).
        let c = flat.clone();
        assert!(std::ptr::eq(flat.encoded(), c.encoded()));
    }

    #[test]
    fn decode_rejects_truncated_and_garbage_buffers() {
        let t = tuple![1i64, "abc"];
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        for cut in 0..buf.len() {
            assert!(Tuple::decode_from(&buf[..cut]).is_none(), "cut at {cut}");
        }
        let mut bad = buf.clone();
        bad[4] = 0xEE; // unknown tag
        assert!(Tuple::decode_from(&bad).is_none());
        assert!(wire_of_encoded(&bad).is_none());
    }

    #[test]
    fn encode_into_appends_without_clobbering() {
        let a = tuple![1i64];
        let b = tuple!["x"];
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        let split = buf.len();
        b.encode_into(&mut buf);
        let (da, ua) = Tuple::decode_from(&buf).unwrap();
        assert_eq!((da, ua), (a, split));
        let (db, _) = Tuple::decode_from(&buf[split..]).unwrap();
        assert_eq!(db, b);
    }
}
