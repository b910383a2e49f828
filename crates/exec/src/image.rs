//! The parsed-column image of a base log.
//!
//! A [`LogImage`] is what Hive's SerDe would produce from a log if it kept
//! its work: every top-level key of every parsed line as a typed
//! [`Column`] (`Mixed` only where a key holds nested or mixed-type values),
//! plus the three numbers the row-path scan reports — parsed rows, skipped
//! (malformed) lines, and the bytes the scan's JSON object rows would
//! occupy (Σ [`Row::approx_bytes`]). A log scan feeding a SerDe-shaped
//! projection reads its fields from the image instead of re-parsing the
//! text (see `engine`'s scan→project fusion).
//!
//! The image is a list of immutable, `Arc`-shared segments, one per morsel
//! of lines. Parsing fans the morsels out across the worker pool; because
//! segment boundaries follow the fixed [`crate::MORSEL_SIZE`], the image is
//! identical for any `MISO_THREADS`. [`LogImage::extended`] parses only
//! appended lines into new segments and shares the old ones, so an
//! append-only log extends its image in O(|appended|) and a holder of the
//! previous image keeps it unchanged.
//!
//! **Semantics contract**: projecting a field out of the image equals
//! parsing the line with [`parse_json`] and evaluating `$0->'key'` (and the
//! optional cast) on the object row — duplicate keys resolve to the last
//! occurrence, missing keys and non-object lines read as NULL.

use crate::col::FusedField;
use crate::eval::cast;
use crate::MORSEL_SIZE;
use miso_common::{pool, Result};
use miso_data::json::{parse_flat_line, parse_json, FlatVal};
use miso_data::{Cell, ColBatch, ColBuilder, Column, DataType, Row, Value};
use std::sync::Arc;

/// Every top-level key of one morsel of parsed lines, one column per key.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Segment {
    /// Sorted keys, parallel to `columns`.
    keys: Vec<String>,
    columns: Vec<Column>,
    /// Parsed rows (lines minus skipped ones).
    len: usize,
}

/// The parsed-column image of one base log. See the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogImage {
    segments: Vec<Arc<Segment>>,
    rows: usize,
    skipped: u64,
    row_bytes: u64,
}

/// What one morsel's parse produced.
struct Parsed {
    segment: Segment,
    skipped: u64,
    row_bytes: u64,
}

impl LogImage {
    /// Parses `lines` into a fresh image.
    pub fn parse(lines: &[String]) -> Result<LogImage> {
        LogImage::default().extended(lines)
    }

    /// A new image covering this one's lines followed by `appended`. Only
    /// the appended lines are parsed; existing segments are shared.
    pub fn extended(&self, appended: &[String]) -> Result<LogImage> {
        let parts = parse_lines(appended, parse_segment)?;
        let mut image = self.clone();
        for p in parts {
            image.rows += p.segment.len;
            image.skipped += p.skipped;
            image.row_bytes += p.row_bytes;
            image.segments.push(Arc::new(p.segment));
        }
        Ok(image)
    }

    /// Parsed rows — the row-path scan's output row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Malformed lines the row-path scan would skip.
    pub fn skipped_lines(&self) -> u64 {
        self.skipped
    }

    /// Σ [`Row::approx_bytes`] of the JSON object rows the row-path scan
    /// would build — what a guard charges for the scan's output.
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// The segments, in line order.
    pub(crate) fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }
}

/// Concatenates per-segment batches; no segments still yields a batch of
/// the projection's arity.
pub(crate) fn concat_batches(parts: Vec<ColBatch>, arity: usize) -> ColBatch {
    if parts.is_empty() {
        return ColBatch::from_columns(vec![Column::Mixed(Vec::new()); arity], 0);
    }
    ColBatch::concat(parts)
}

impl Segment {
    fn index(&self, key: &str) -> Option<usize> {
        self.keys.binary_search_by(|k| k.as_str().cmp(key)).ok()
    }

    fn column(&self, key: &str) -> Option<&Column> {
        self.index(key).map(|i| &self.columns[i])
    }

    /// The projection `CAST($0->'key' AS ty), ...` of this segment as rows,
    /// through the scalar [`cast`] — value for value what the row path
    /// computes from the object rows.
    pub(crate) fn project_rows(&self, fields: &[FusedField<'_>]) -> Vec<Row> {
        let cols: Vec<Option<&Column>> = fields.iter().map(|f| self.column(f.key)).collect();
        (0..self.len)
            .map(|i| {
                Row::new(
                    fields
                        .iter()
                        .zip(&cols)
                        .map(|(f, c)| c.map_or(Value::Null, |c| project_cell(c.cell(i), f.ty)))
                        .collect(),
                )
            })
            .collect()
    }

    /// The same projection as [`Segment::project_rows`], as a batch. A
    /// column already of the target type is copied without a per-cell
    /// cast.
    pub(crate) fn project_cols(&self, fields: &[FusedField<'_>]) -> ColBatch {
        let columns = fields
            .iter()
            .map(|f| self.project_column(self.column(f.key), f.ty))
            .collect();
        ColBatch::from_columns(columns, self.len)
    }

    /// One output column: `c` cast to `ty` (all NULL when the key is
    /// absent from this segment).
    fn project_column(&self, c: Option<&Column>, ty: Option<DataType>) -> Column {
        match c {
            None => ColBuilder::Unknown(self.len).finish(),
            Some(c) if is_identity(c, ty) => c.clone(),
            Some(c) => {
                let mut b = ColBuilder::new();
                b.reserve(self.len);
                for i in 0..self.len {
                    b.push_value(project_cell(c.cell(i), ty));
                }
                b.finish()
            }
        }
    }
}

/// One projected field value: the stored value, cast when asked.
fn project_cell(c: Cell<'_>, ty: Option<DataType>) -> Value {
    match ty {
        None => c.to_value(),
        Some(ty) => cast(c.to_value(), ty),
    }
}

/// Would casting every slot of `c` to `ty` leave it unchanged?
fn is_identity(c: &Column, ty: Option<DataType>) -> bool {
    matches!(
        (c, ty),
        (_, None | Some(DataType::Json))
            | (Column::Int(..), Some(DataType::Int))
            | (Column::Float(..), Some(DataType::Float))
            | (Column::Bool(..), Some(DataType::Bool))
            | (Column::Str(..), Some(DataType::Str))
    )
}

/// Parses `lines` morsel by morsel on the worker pool. Every scan that
/// reads log text — the row path and the image fill — parses through here,
/// so `hv.log_lines_parsed` counts all parse work. No guard check or morsel
/// accounting happens here: the row-path scan does its own, and an image
/// fill is shared work that no one query's profile should carry.
pub(crate) fn parse_lines<R, F>(lines: &[String], parse: F) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(&[String]) -> R + Sync,
{
    miso_obs::count("hv.log_lines_parsed", lines.len() as u64);
    pool::run_chunks(lines, MORSEL_SIZE, |_, chunk| parse(chunk))
}

/// The row-path scan of one morsel: a one-column row holding each line's
/// parsed JSON value, and the count of malformed lines skipped.
pub(crate) fn parse_rows(lines: &[String]) -> (Vec<Row>, u64) {
    let mut rows = Vec::with_capacity(lines.len());
    let mut skipped = 0u64;
    for line in lines {
        match parse_json(line) {
            Ok(v) => rows.push(Row::new(vec![v])),
            Err(_) => skipped += 1,
        }
    }
    (rows, skipped)
}

/// `Value::approx_bytes` of the owned value of a flat token.
fn flat_bytes(tok: &FlatVal<'_>) -> u64 {
    match tok {
        FlatVal::Null | FlatVal::Bool(_) => 1,
        FlatVal::Int(_) | FlatVal::Float(_) => 8,
        FlatVal::Str(s) => 4 + s.len() as u64,
    }
}

fn push_flat(b: &mut ColBuilder, tok: FlatVal<'_>) {
    match tok {
        FlatVal::Null => b.push_null(),
        FlatVal::Bool(x) => b.push_bool(x),
        FlatVal::Int(i) => b.push_i64(i),
        FlatVal::Float(f) => b.push_f64(f),
        FlatVal::Str(s) => b.push_str(s.to_string()),
    }
}

/// Key builders of a segment under construction, in first-seen order.
struct Builders {
    keys: Vec<(String, ColBuilder)>,
    /// Just past where the previous lookup matched: lines repeat their key
    /// order, so the next key is usually the next builder.
    hint: usize,
}

impl Builders {
    /// The builder for `key`; a key first seen at row `row` starts with
    /// `row` NULLs.
    fn get(&mut self, key: &str, row: usize) -> &mut ColBuilder {
        let n = self.keys.len();
        let hint = self.hint.min(n);
        let found = (hint..n).chain(0..hint).find(|&j| self.keys[j].0 == key);
        let i = found.unwrap_or_else(|| {
            self.keys.push((key.to_string(), ColBuilder::Unknown(row)));
            n
        });
        self.hint = i + 1;
        &mut self.keys[i].1
    }
}

/// Parses one morsel of lines into a segment. The zero-copy flat parser
/// takes flat object lines; anything it declines goes to the strict parser,
/// so nested, escaped and malformed lines behave exactly as in the row
/// scan.
fn parse_segment(lines: &[String]) -> Parsed {
    let mut b = Builders {
        keys: Vec::new(),
        hint: 0,
    };
    let mut row = 0usize;
    let mut skipped = 0u64;
    let mut row_bytes = 0u64;
    for line in lines {
        // Row::approx_bytes of the row `[value]`: 2 for the row, then the
        // value's own bytes.
        let bytes = if let Some(flat) = parse_flat_line(line) {
            // Object overhead; each field adds 2 + key + value bytes.
            let mut bytes = 2 + 4;
            // Last occurrence wins, as in Value::object's dedup: walk the
            // fields backwards and skip keys this row already holds.
            for (key, tok) in flat.iter().rev() {
                let col = b.get(key, row);
                if col.len() > row {
                    continue;
                }
                bytes += 2 + key.len() as u64 + flat_bytes(tok);
                push_flat(col, *tok);
            }
            bytes
        } else {
            match parse_json(line) {
                Ok(v) => {
                    let bytes = 2 + v.approx_bytes();
                    // A non-object line has no fields: every key reads NULL.
                    if let Value::Object(fields) = v {
                        for (key, val) in fields {
                            b.get(&key, row).push_value(val);
                        }
                    }
                    bytes
                }
                Err(_) => {
                    skipped += 1;
                    continue;
                }
            }
        };
        row += 1;
        row_bytes += bytes;
        for (_, col) in &mut b.keys {
            if col.len() < row {
                col.push_null();
            }
        }
    }
    let mut keys = b.keys;
    keys.sort_by(|a, b| a.0.cmp(&b.0));
    let (keys, columns) = keys.into_iter().map(|(k, c)| (k, c.finish())).unzip();
    Parsed {
        segment: Segment {
            keys,
            columns,
            len: row,
        },
        skipped,
        row_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use miso_plan::Expr;

    fn lines() -> Vec<String> {
        [
            r#"{"uid": 7, "text": "hi", "score": 1.5}"#,
            r#"{"uid": "12", "text": "pad"}"#,
            r#"{"text": "no uid"}"#,
            "not json",
            r#"{"uid": 1, "uid": 2, "text": "dup"}"#,
            r#"{"uid": 3, "nest": {"a": [1, 2]}, "text": "nested"}"#,
            r#"{"uid": null, "text": "explicit null"}"#,
            r#"{"text": "esc\"aped", "uid": 4}"#,
            r#"[1, 2, 3]"#,
            r#"{}"#,
            r#"{"uid": 5.5, "flag": true}"#,
            r#"{"x": "a", "x": 22, "uid": 9, "flag": false}"#,
        ]
        .into_iter()
        .map(String::from)
        .collect()
    }

    fn fields() -> Vec<FusedField<'static>> {
        vec![
            FusedField {
                key: "uid",
                ty: Some(DataType::Int),
            },
            FusedField {
                key: "text",
                ty: None,
            },
            FusedField {
                key: "nest",
                ty: None,
            },
            FusedField {
                key: "score",
                ty: Some(DataType::Str),
            },
            FusedField {
                key: "absent",
                ty: Some(DataType::Float),
            },
        ]
    }

    /// The row path: parse each line to an object row, then evaluate the
    /// projection expressions on it.
    fn row_path(lines: &[String], fields: &[FusedField<'_>]) -> (Vec<Row>, u64, u64) {
        let (rows, skipped) = parse_rows(lines);
        let bytes = rows.iter().map(Row::approx_bytes).sum();
        let projected = rows
            .iter()
            .map(|r| {
                fields
                    .iter()
                    .map(|f| {
                        let get = Expr::col(0).get(f.key);
                        let e = match f.ty {
                            Some(ty) => Expr::Cast {
                                input: Box::new(get),
                                ty,
                            },
                            None => get,
                        };
                        eval(&e, r).unwrap()
                    })
                    .collect()
            })
            .collect();
        (projected, skipped, bytes)
    }

    fn image_rows(image: &LogImage, fields: &[FusedField<'_>]) -> Vec<Row> {
        image
            .segments()
            .iter()
            .flat_map(|s| s.project_rows(fields))
            .collect()
    }

    #[test]
    fn image_matches_row_path_on_odd_lines() {
        let lines = lines();
        let image = LogImage::parse(&lines).unwrap();
        let (want, skipped, bytes) = row_path(&lines, &fields());
        assert_eq!(image.skipped_lines(), skipped);
        assert_eq!(image.skipped_lines(), 1);
        assert_eq!(image.rows(), want.len());
        assert_eq!(image.row_bytes(), bytes);
        assert_eq!(image_rows(&image, &fields()), want);
        let cols: Vec<Row> = image
            .segments()
            .iter()
            .flat_map(|s| s.project_cols(&fields()).into_rows())
            .collect();
        assert_eq!(cols, want);
        assert_eq!(
            concat_batches(Vec::new(), fields().len()).arity(),
            fields().len(),
            "an empty log still projects every field"
        );
    }

    /// Morsel boundaries split the image into segments; a key absent from
    /// one segment still reads NULL there, and extension parses only the
    /// appended lines.
    #[test]
    fn segments_and_extension_match_a_fresh_parse() {
        let mut lines: Vec<String> = (0..MORSEL_SIZE + 10)
            .map(|i| format!(r#"{{"uid": {i}, "text": "t{i}"}}"#))
            .collect();
        lines.push(r#"{"late": "only here", "uid": "x"}"#.into());
        let image = LogImage::parse(&lines).unwrap();
        assert_eq!(image.segments().len(), 2);
        let fields = vec![
            FusedField {
                key: "late",
                ty: None,
            },
            FusedField {
                key: "uid",
                ty: Some(DataType::Int),
            },
        ];
        assert_eq!(image_rows(&image, &fields), row_path(&lines, &fields).0);

        let (head, tail) = lines.split_at(100);
        let grown = LogImage::parse(head).unwrap().extended(tail).unwrap();
        let all = row_path(&lines, &fields);
        assert_eq!(image_rows(&grown, &fields), all.0);
        assert_eq!(grown.rows(), image.rows());
        assert_eq!(grown.row_bytes(), all.2);
        assert_eq!(grown.skipped_lines(), 0);
    }
}
