//! Property tests of the flat tuple wire encoding: encode/decode
//! identity and wire-size agreement across random stage schemas —
//! arbitrary column mixes, NULLs in any column, and strings at the
//! catalog's maximum width — and of the view that reads an encoded row
//! in place: it accepts exactly what the decoder accepts, every column
//! it hands out is the decoded one, and an expression evaluates over it
//! to what it evaluates to over the decoded tuple. What the executor
//! builds from views is what the oracles build from tuples: the same
//! bytes for a projection or an evaluation, the same columns for a
//! concatenation, the same verdict and bytes from a join stage. Rows
//! encoded together into one batch are, each, the row encoded alone.

mod common;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pier_core::expr::Projection;
use pier_core::plan::StageView;
use pier_core::tuple::{
    wire_of_encoded, Columns, Concat, FlatRow, RowBatch, RowRef, Select, Tuple,
};
use pier_core::{ColType, Value};

/// The view and the decoder agree on `bytes`: both refuse it, or both
/// accept the same prefix and read the same columns out of it. Compared
/// by `Debug` form, which tells `-0.0` from `0.0` and NaN from NaN.
fn view_is_the_decoder(bytes: &[u8]) -> Result<(), String> {
    match (RowRef::new(bytes), Tuple::decode_from(bytes)) {
        (None, None) => Ok(()),
        (Some(view), Some((t, consumed))) => {
            // The view needs exactly the bytes the decoder consumed: a
            // different arity or value length would move that boundary.
            if RowRef::new(&bytes[..consumed]).is_none()
                || RowRef::new(&bytes[..consumed - 1]).is_some()
            {
                return Err(format!("view does not span the decoder's {consumed} bytes"));
            }
            // Two columns past the end as well: both read NULL there.
            for i in 0..t.arity() + 2 {
                let want = t.vals.get(i).cloned().unwrap_or(Value::Null);
                let got = view.get(i).to_value();
                if format!("{got:?}") != format!("{want:?}") {
                    return Err(format!("column {i}: view {got:?}, decoder {want:?}"));
                }
            }
            Ok(())
        }
        (view, decoded) => Err(format!(
            "view accepts: {}, decoder accepts: {}",
            view.is_some(),
            decoded.is_some()
        )),
    }
}

/// `Debug` form of a value: tells `-0.0` from `0.0` and NaN from NaN.
fn exact(v: &Value) -> String {
    format!("{v:?}")
}

/// Up to six column indices below `bound`, repeats allowed.
fn random_cols(rng: &mut SmallRng, bound: usize) -> Vec<usize> {
    if bound == 0 {
        return Vec::new();
    }
    (0..rng.gen_range(0..7usize))
        .map(|_| rng.gen_range(0..bound))
        .collect()
}

/// A random stage schema: per-column (type, catalog width). Width only
/// matters for Str (max byte length) and Pad (wire length).
fn random_schema(rng: &mut SmallRng) -> Vec<(ColType, u32)> {
    let arity = rng.gen_range(0..12usize);
    (0..arity)
        .map(|_| {
            let ty = match rng.gen_range(0..5u32) {
                0 => ColType::Bool,
                1 => ColType::I64,
                2 => ColType::F64,
                3 => ColType::Str,
                _ => ColType::Pad,
            };
            (ty, rng.gen_range(0..64u32))
        })
        .collect()
}

/// A random tuple matching `schema`, with NULLs substituted in any
/// column and strings drawn up to and *including* the max width.
fn random_tuple(rng: &mut SmallRng, schema: &[(ColType, u32)]) -> Tuple {
    let vals = schema
        .iter()
        .map(|&(ty, width)| {
            if rng.gen_range(0..5u32) == 0 {
                return Value::Null;
            }
            match ty {
                ColType::Bool => Value::Bool(rng.gen::<u64>() & 1 == 1),
                ColType::I64 => Value::I64(rng.gen::<u64>() as i64),
                // Finite floats only: Value equality is numeric, so a
                // NaN would fail the round-trip check spuriously.
                ColType::F64 => Value::F64(rng.gen_range(-1e12..1e12)),
                ColType::Str => {
                    // One in three strings is exactly max-width.
                    let len = if rng.gen_range(0..3u32) == 0 {
                        width as usize
                    } else {
                        rng.gen_range(0..width as usize + 1)
                    };
                    let s: String = (0..len)
                        .map(|_| char::from(rng.gen_range(b' '..b'~')))
                        .collect();
                    Value::str(&s)
                }
                ColType::Pad => Value::Pad(width),
            }
        })
        .collect();
    Tuple::new(vals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_is_the_identity(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let schema = random_schema(&mut rng);
        let t = random_tuple(&mut rng, &schema);

        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        let (back, consumed) = Tuple::decode_from(&buf).expect("decode own encoding");
        prop_assert_eq!(&back, &t);
        prop_assert_eq!(consumed, buf.len());

        // The wire model derived from the encoded bytes must agree with
        // the legacy per-value model — traffic accounting cannot drift.
        prop_assert_eq!(wire_of_encoded(&buf), Some(t.wire_size()));

        // FlatRow round-trips through the same layout.
        let flat = FlatRow::from_tuple(&t);
        prop_assert_eq!(&flat.decode(), &t);
        prop_assert_eq!(flat.wire(), t.wire_size());
    }

    #[test]
    fn concatenated_tuples_decode_sequentially(seed in any::<u64>()) {
        // `decode_from` reports consumed bytes, so back-to-back encoded
        // tuples (a shipped batch) must split exactly.
        let mut rng = SmallRng::seed_from_u64(seed);
        let tuples: Vec<Tuple> = (0..rng.gen_range(1..5usize))
            .map(|_| {
                let schema = random_schema(&mut rng);
                random_tuple(&mut rng, &schema)
            })
            .collect();
        let mut buf = Vec::new();
        for t in &tuples {
            t.encode_into(&mut buf);
        }
        let mut pos = 0;
        for t in &tuples {
            let (back, consumed) = Tuple::decode_from(&buf[pos..]).expect("decode batch element");
            prop_assert_eq!(&back, t);
            pos += consumed;
        }
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncations_never_panic_and_never_lie(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let schema = random_schema(&mut rng);
        let t = random_tuple(&mut rng, &schema);
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        // Every strict prefix either fails to decode or (when a whole
        // value boundary happens to align with a smaller arity claim —
        // impossible here, the header pins arity) is rejected.
        for cut in 0..buf.len() {
            prop_assert!(Tuple::decode_from(&buf[..cut]).is_none());
            prop_assert!(RowRef::new(&buf[..cut]).is_none());
        }
    }

    #[test]
    fn the_view_is_never_laxer_than_the_decoder(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let schema = random_schema(&mut rng);
        let t = random_tuple(&mut rng, &schema);
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        prop_assert_eq!(view_is_the_decoder(&buf), Ok(()));
        // Trailing bytes are not the row's.
        let mut longer = buf.clone();
        longer.extend_from_slice(&[0xEE; 3]);
        prop_assert_eq!(view_is_the_decoder(&longer), Ok(()));

        // A header that lies about the arity, either way.
        for arity in [t.arity().wrapping_sub(1), t.arity() + 1, u32::MAX as usize] {
            let mut bad = buf.clone();
            bad[0..4].copy_from_slice(&(arity as u32).to_le_bytes());
            prop_assert_eq!(view_is_the_decoder(&bad), Ok(()));
        }
        // Any byte replaced by any other: tags the encoding does not
        // have, lengths that overrun, strings that stop being UTF-8.
        for _ in 0..16 {
            let mut bad = buf.clone();
            let at = rng.gen_range(0..bad.len());
            bad[at] = match rng.gen_range(0..3u32) {
                0 => 0xFF, // never valid in UTF-8, never a tag
                1 => rng.gen_range(0..8u32) as u8, // a tag, or just past them
                _ => rng.gen::<u64>() as u8,
            };
            prop_assert_eq!(view_is_the_decoder(&bad), Ok(()));
        }
    }

    #[test]
    fn an_expression_reads_the_same_off_the_encoded_row(seed in any::<u64>()) {
        // The expression pin's generators: every operator and built-in
        // over NULLs, NaN, -0.0, integers past 2^53, non-ASCII strings.
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = common::random_tuple(&mut rng);
        let e = common::random_expr(&mut rng, 3);
        let flat = FlatRow::from_tuple(&t);
        let view = flat.view();
        let (on_row, on_tuple) = (e.eval_ref(&view).to_value(), e.eval(&t));
        prop_assert_eq!(format!("{on_row:?}"), format!("{on_tuple:?}"), "{} @ {}", e, t);
        prop_assert_eq!(e.matches(&view), e.matches(&t));
    }

    #[test]
    fn a_row_encoded_from_a_view_is_the_tuples_encoding(seed in any::<u64>()) {
        // Listed columns (past the end too: NULL) and evaluated
        // expressions of a stored row, encoded without decoding it, are
        // byte for byte what encoding the decoded row's projection or
        // evaluation gives.
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = common::random_tuple(&mut rng);
        let flat = FlatRow::from_tuple(&t);
        let view = flat.view();

        let cols = random_cols(&mut rng, t.arity() + 2);
        let by_view = FlatRow::from_columns(&Select::new(&view, &cols));
        let picked = cols.iter().map(|&c| t.vals.get(c).cloned().unwrap_or(Value::Null));
        let by_tuple = FlatRow::from_tuple(&Tuple::new(picked.collect()));
        prop_assert_eq!(by_view.encoded(), by_tuple.encoded(), "{:?} of {}", cols, t);
        prop_assert_eq!(by_view.wire(), by_tuple.wire());

        let exprs: Vec<_> = (0..rng.gen_range(0..4usize))
            .map(|_| common::random_expr(&mut rng, 3))
            .collect();
        let by_view = FlatRow::from_columns(&Projection::new(&exprs, &view));
        let evaluated = Tuple::new(exprs.iter().map(|e| e.eval(&t)).collect());
        let by_tuple = FlatRow::from_tuple(&evaluated);
        prop_assert_eq!(by_view.encoded(), by_tuple.encoded(), "{:?} of {}", exprs, t);
        prop_assert_eq!(by_view.wire(), by_tuple.wire());
    }

    #[test]
    fn two_rows_side_by_side_read_as_their_concatenation(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (a, b) = (common::random_tuple(&mut rng), common::random_tuple(&mut rng));
        let (fa, fb) = (FlatRow::from_tuple(&a), FlatRow::from_tuple(&b));
        let side_by_side = Concat::new(fa.view(), fb.view());
        let joined = a.concat(&b);
        prop_assert_eq!(side_by_side.arity(), joined.arity());
        for i in 0..joined.arity() + 2 {
            let want = joined.vals.get(i).cloned().unwrap_or(Value::Null);
            prop_assert_eq!(exact(&side_by_side.value(i)), exact(&want), "column {}", i);
        }
    }

    #[test]
    fn a_stage_passes_and_emits_the_same_over_views(seed in any::<u64>()) {
        // One join stage's verdict and outgoing row over two stored rows
        // read side by side, against the oracle's concatenated tuple.
        let mut rng = SmallRng::seed_from_u64(seed);
        let (a, b) = (common::random_tuple(&mut rng), common::random_tuple(&mut rng));
        let arity = a.arity() + b.arity();
        let stage = StageView {
            keep_right: Vec::new(),
            join_idx_left: 0,
            join_idx_right: 0,
            join_col_right: 0,
            pred: (rng.gen_range(0..4u32) > 0).then(|| common::random_expr(&mut rng, 3)),
            emit: random_cols(&mut rng, arity),
            out_globals: Vec::new(),
        };
        let joined = a.concat(&b);
        let oracle = stage
            .pass(&joined)
            .map(|emit| FlatRow::from_tuple(&joined.project(emit)));
        let (fa, fb) = (FlatRow::from_tuple(&a), FlatRow::from_tuple(&b));
        let side_by_side = Concat::new(fa.view(), fb.view());
        let executor = stage
            .pass(&side_by_side)
            .map(|emit| FlatRow::from_columns(&Select::new(&side_by_side, emit)));
        prop_assert_eq!(
            oracle.as_ref().map(FlatRow::encoded),
            executor.as_ref().map(FlatRow::encoded),
            "{:?} over {}", stage.pred, joined
        );
    }

    #[test]
    fn a_batchs_rows_are_the_rows_encoded_alone(seed in any::<u64>()) {
        // Rows pushed into one batch, some taken back out as soon as
        // pushed (a shed publish), each read out of the sealed batch:
        // its bytes, wire, columns and decoding are those of the row
        // encoded alone, with nothing of the rows after it, and a row
        // taken back leaves no trace.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut batch = RowBatch::default();
        let mut kept = Vec::new();
        for _ in 0..rng.gen_range(0..8usize) {
            let t = common::random_tuple(&mut rng);
            let slot = batch.push(&t);
            prop_assert_eq!(slot.wire(), t.wire_size());
            if rng.gen_range(0..3u32) == 0 {
                batch.pop(slot);
            } else {
                kept.push((t, slot));
            }
        }
        let rows = batch.seal();
        for (t, slot) in &kept {
            let (row, alone) = (rows.row(*slot), FlatRow::from_columns(t));
            prop_assert_eq!(row.encoded(), alone.encoded(), "{}", t);
            prop_assert_eq!(row.wire(), alone.wire());
            let (view, decoded) = (row.view(), row.decode());
            for i in 0..t.arity() + 2 {
                let want = t.vals.get(i).cloned().unwrap_or(Value::Null);
                prop_assert_eq!(exact(&view.value(i)), exact(&want), "column {}", i);
            }
            prop_assert_eq!(format!("{decoded:?}"), format!("{t:?}"));
            let consumed = Tuple::decode_from(row.encoded()).map(|(_, n)| n);
            prop_assert_eq!(consumed, Some(row.encoded().len()), "trailing bytes");
        }
        let walked: Vec<Vec<u8>> = rows.iter().map(|r| r.encoded().to_vec()).collect();
        let alone: Vec<Vec<u8>> = kept
            .iter()
            .map(|(t, _)| FlatRow::from_columns(t).encoded().to_vec())
            .collect();
        prop_assert_eq!(walked, alone);
    }
}
