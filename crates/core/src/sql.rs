//! A declarative front-end: the SQL subset the paper's queries use.
//!
//! §7 lists "declarative query parsing" as future work layered *above*
//! the query processor; we build it. Supported:
//!
//! ```sql
//! SELECT expr [AS name], ...
//! FROM table [AS t] [, table [AS t] ...]
//! [WHERE conjunctive predicates, incl. cross-table equalities]
//! [GROUP BY cols] [HAVING expr]
//! [WINDOW n [SECONDS|MS|MINUTES]] [EPOCH n [SECONDS|MS|MINUTES]]
//! [RENEW n [SECONDS|MS|MINUTES]]
//! ```
//!
//! which covers all three §2.1 intrusion-detection examples and the §5.1
//! workload query, plus N-table equi-join chains and stars. The front
//! end runs in four steps, each owning one decision:
//!
//! 1. **lex / parse** (`Parser`) — the grammar. Names are still strings.
//! 2. **bind + classify** (`parse_sql`, once per statement) — every name
//!    becomes a column index over the concatenation of the FROM tables
//!    *in FROM order*, and every WHERE conjunct becomes a pushed-down
//!    scan predicate, a join edge, or a residual. The result, a
//!    `ParsedQuery`, is what the cost-based planner reads: which tables
//!    are filtered, how they connect, which columns ever ship.
//! 3. **order** — FROM order ([`parse_query`]) or the planner's
//!    cost-based choice ([`crate::planner::plan_sql`]).
//! 4. **re-index** (`lower_parsed`) — the bound expressions are mapped
//!    from FROM order to the chosen order and assembled into a fully
//!    index-resolved [`QueryOp`]: two or more tables lower to one
//!    left-deep [`JoinSpec`] pipeline — two-table joins keep the
//!    four-strategy repertoire of §4, longer pipelines chain symmetric
//!    hash joins. No name is looked up after step 2.
//!
//! `WINDOW`, `EPOCH`, and `RENEW` make a query *standing* (continuous,
//! §3.2.3 / §7): `WINDOW` bounds the lifetime of rehashed soft state (a
//! sliding time window), `EPOCH` — aggregates only — re-emits every
//! surviving group each epoch ([`crate::plan::AggSpec::epoch`]), and
//! `RENEW` — unwindowed queries only — gives the query its own renewal
//! period for that soft state ([`crate::plan::Tenure::Unwindowed`]),
//! which is the only thing that renews it. A standing join runs symmetric hash.
//! Use [`parse_continuous_query`] to get the full [`QueryDesc`];
//! [`parse_query`] (and the planner) reject all three clauses since a
//! bare [`QueryOp`] cannot honor them.

use std::fmt;

use pier_simnet::time::Dur;
use pier_simnet::NodeId;

use crate::catalog::{Catalog, TableDef};
use crate::expr::{BinOp, Expr, Func};
use crate::plan::{
    AggCall, AggFunc, AggSpec, JoinSpec, JoinStage, JoinStrategy, QueryDesc, QueryOp, ScanSpec,
};
use crate::value::Value;

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Sym(&'static str),
}

/// The symbols of the grammar, two-character ones first so `<=` wins
/// over `<`. `!=` is read as `<>`.
const SYMBOLS: [&str; 16] = [
    "<=", "<>", ">=", "!=", "(", ")", ",", ".", "*", "+", "-", "/", "%", "=", "<", ">",
];

fn lex(input: &str) -> Result<Vec<Tok>, String> {
    let mut out = Vec::new();
    let mut rest = input;
    while let Some(c) = rest.chars().next() {
        // Length of the leading run of characters satisfying `p`.
        let run = |p: fn(char) -> bool| rest.find(|c| !p(c)).unwrap_or(rest.len());
        let len = if matches!(c, ' ' | '\t' | '\n' | '\r' | ';') {
            1
        } else if let Some(&sym) = SYMBOLS.iter().find(|sym| rest.starts_with(**sym)) {
            out.push(Tok::Sym(if sym == "!=" { "<>" } else { sym }));
            sym.len()
        } else if c == '\'' {
            let end = rest[1..].find('\'');
            let end = end.ok_or("unterminated string literal")?;
            out.push(Tok::Str(rest[1..=end].to_string()));
            end + 2
        } else if c.is_ascii_digit() {
            let len = run(|c| c.is_ascii_digit() || c == '.');
            let text = &rest[..len];
            out.push(if text.contains('.') {
                Tok::Float(text.parse().map_err(|e| format!("{e}"))?)
            } else {
                Tok::Int(text.parse().map_err(|e| format!("{e}"))?)
            });
            len
        } else if c.is_ascii_alphabetic() || c == '_' {
            let len = run(|c| c.is_ascii_alphanumeric() || c == '_');
            out.push(Tok::Ident(rest[..len].to_string()));
            len
        } else {
            return Err(format!("unexpected character '{c}'"));
        };
        rest = &rest[len..];
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Parser AST (names still strings)
// ---------------------------------------------------------------------

/// A column name as written: `field` or `qualifier.field`.
struct ColName {
    qualifier: Option<String>,
    field: String,
}

impl fmt::Display for ColName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.field),
            None => f.write_str(&self.field),
        }
    }
}

enum PExpr {
    Col(ColName),
    Lit(Value),
    Bin(BinOp, Box<PExpr>, Box<PExpr>),
    Not(Box<PExpr>),
    Call(Func, Vec<PExpr>),
    Agg(AggFunc, Option<Box<PExpr>>),
}

/// One SELECT item; `expr: None` is `*`.
struct SelectItem {
    expr: Option<PExpr>,
    alias: Option<String>,
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// An aggregate call was parsed somewhere in the statement.
    saw_agg: bool,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    /// Take the next token out of the stream (nothing re-reads a
    /// consumed position).
    fn next(&mut self) -> Option<Tok> {
        let t = std::mem::replace(self.toks.get_mut(self.pos)?, Tok::Sym(""));
        self.pos += 1;
        Some(t)
    }

    /// Consume the next token if it is the keyword (any case) or the
    /// symbol `want`.
    fn eat(&mut self, want: &str) -> bool {
        let hit = match self.peek() {
            Some(Tok::Ident(w)) => w.eq_ignore_ascii_case(want),
            Some(Tok::Sym(s)) => *s == want,
            _ => false,
        };
        self.pos += hit as usize;
        hit
    }

    fn expect(&mut self, want: &str) -> Result<(), String> {
        if self.eat(want) {
            Ok(())
        } else {
            Err(format!("expected {want} at token {:?}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, String> {
        match self.next() {
            Some(Tok::Ident(w)) => Ok(w),
            other => Err(format!("expected identifier, got {other:?}")),
        }
    }

    /// The rest of a column name whose first identifier is `first`.
    fn col_name(&mut self, first: String) -> Result<ColName, String> {
        Ok(if self.eat(".") {
            ColName {
                qualifier: Some(first),
                field: self.ident()?,
            }
        } else {
            ColName {
                qualifier: None,
                field: first,
            }
        })
    }

    /// Does a table alias follow (an identifier that is not a keyword)?
    fn at_alias(&self) -> bool {
        const KEYWORDS: [&str; 11] = [
            "WHERE", "GROUP", "HAVING", "AND", "OR", "AS", "SELECT", "FROM", "WINDOW", "EPOCH",
            "RENEW",
        ];
        matches!(self.peek(), Some(Tok::Ident(w))
            if !KEYWORDS.iter().any(|k| w.eq_ignore_ascii_case(k)))
    }

    /// An optional `KEYWORD duration` clause.
    fn duration_clause(&mut self, keyword: &str) -> Result<Option<Dur>, String> {
        if self.eat(keyword) {
            self.duration().map(Some)
        } else {
            Ok(None)
        }
    }

    /// A duration literal with an optional unit (seconds by default).
    fn duration(&mut self) -> Result<Dur, String> {
        let n = match self.next() {
            Some(Tok::Int(i)) if i >= 0 => i as f64,
            Some(Tok::Float(x)) if x >= 0.0 => x,
            other => return Err(format!("expected a duration, got {other:?}")),
        };
        let scale = if self.eat("SECONDS") || self.eat("S") {
            1.0
        } else if self.eat("MS") || self.eat("MILLISECONDS") {
            1e-3
        } else if self.eat("MINUTES") {
            60.0
        } else {
            1.0
        };
        let d = Dur::from_secs_f64(n * scale);
        if d == Dur::ZERO {
            return Err("durations must be positive".into());
        }
        Ok(d)
    }

    fn expr(&mut self) -> Result<PExpr, String> {
        self.binary(0)
    }

    /// Binary operators at `min_prec` or tighter, by precedence
    /// climbing ([`binop`] has the table). All associate to the left,
    /// except that comparisons do not chain: `a < b < c` is refused.
    fn binary(&mut self, min_prec: u8) -> Result<PExpr, String> {
        let mut left = self.unary_expr()?;
        // The loosest operator this level may still take: operators
        // arrive tightest first (the right operand swallowed anything
        // tighter), and a comparison bars a second one.
        let mut ceiling = u8::MAX;
        while let Some((op, prec)) = self.peek().and_then(binop) {
            if prec < min_prec || prec > ceiling {
                break;
            }
            self.pos += 1;
            let right = self.binary(prec + 1)?;
            left = PExpr::Bin(op, Box::new(left), Box::new(right));
            ceiling = if prec == COMPARISON { prec - 1 } else { prec };
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<PExpr, String> {
        if self.eat("NOT") {
            return Ok(PExpr::Not(Box::new(self.unary_expr()?)));
        }
        if self.eat("-") {
            // The sign folds into a numeric literal; anything else is
            // negated as `0 - x`.
            return Ok(match self.unary_expr()? {
                PExpr::Lit(Value::I64(i)) => PExpr::Lit(Value::I64(i.wrapping_neg())),
                PExpr::Lit(Value::F64(x)) => PExpr::Lit(Value::F64(-x)),
                other => PExpr::Bin(
                    BinOp::Sub,
                    Box::new(PExpr::Lit(Value::I64(0))),
                    Box::new(other),
                ),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<PExpr, String> {
        match self.next() {
            Some(Tok::Int(i)) => Ok(PExpr::Lit(Value::I64(i))),
            Some(Tok::Float(x)) => Ok(PExpr::Lit(Value::F64(x))),
            Some(Tok::Str(s)) => Ok(PExpr::Lit(Value::str(&s))),
            Some(Tok::Sym("(")) => {
                let e = self.expr()?;
                self.expect(")")?;
                Ok(e)
            }
            Some(Tok::Ident(word)) => {
                // Aggregate / scalar function call?
                if self.eat("(") {
                    let lower = word.to_ascii_lowercase();
                    if let Some(func) = agg_func(&lower) {
                        self.saw_agg = true;
                        // count(*) has no argument.
                        if self.eat("*") {
                            self.expect(")")?;
                            return Ok(PExpr::Agg(func, None));
                        }
                        let arg = self.expr()?;
                        self.expect(")")?;
                        return Ok(PExpr::Agg(func, Some(Box::new(arg))));
                    }
                    let func =
                        scalar_func(&lower).ok_or_else(|| format!("unknown function '{word}'"))?;
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::Sym(")")) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(",") {
                                break;
                            }
                        }
                    }
                    self.expect(")")?;
                    return Ok(PExpr::Call(func, args));
                }
                Ok(PExpr::Col(self.col_name(word)?))
            }
            other => Err(format!("unexpected token {other:?}")),
        }
    }
}

/// Precedence of the comparison operators (see [`binop`]).
const COMPARISON: u8 = 2;

/// A binary operator token and its precedence (higher binds tighter):
/// `OR` < `AND` < comparisons < `+ -` < `* / %`.
fn binop(tok: &Tok) -> Option<(BinOp, u8)> {
    Some(match tok {
        Tok::Ident(w) if w.eq_ignore_ascii_case("OR") => (BinOp::Or, 0),
        Tok::Ident(w) if w.eq_ignore_ascii_case("AND") => (BinOp::And, 1),
        Tok::Sym("=") => (BinOp::Eq, COMPARISON),
        Tok::Sym("<>") => (BinOp::Ne, COMPARISON),
        Tok::Sym("<") => (BinOp::Lt, COMPARISON),
        Tok::Sym("<=") => (BinOp::Le, COMPARISON),
        Tok::Sym(">") => (BinOp::Gt, COMPARISON),
        Tok::Sym(">=") => (BinOp::Ge, COMPARISON),
        Tok::Sym("+") => (BinOp::Add, 3),
        Tok::Sym("-") => (BinOp::Sub, 3),
        Tok::Sym("*") => (BinOp::Mul, 4),
        Tok::Sym("/") => (BinOp::Div, 4),
        Tok::Sym("%") => (BinOp::Mod, 4),
        _ => return None,
    })
}

fn agg_func(name: &str) -> Option<AggFunc> {
    Some(match name {
        "count" => AggFunc::Count,
        "sum" => AggFunc::Sum,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        "avg" => AggFunc::Avg,
        _ => return None,
    })
}

fn scalar_func(name: &str) -> Option<Func> {
    Some(match name {
        "f" => Func::WorkloadF,
        "abs" => Func::Abs,
        "least" => Func::Min,
        "greatest" => Func::Max,
        _ => return None,
    })
}

/// Split a conjunctive predicate into its top-level conjuncts.
fn conjuncts(e: PExpr, out: &mut Vec<PExpr>) {
    match e {
        PExpr::Bin(BinOp::And, l, r) => {
            conjuncts(*l, out);
            conjuncts(*r, out);
        }
        other => out.push(other),
    }
}

// ---------------------------------------------------------------------
// The bound query
// ---------------------------------------------------------------------

/// One FROM-clause table of a bound query.
pub(crate) struct FromTable<'a> {
    alias: String,
    pub(crate) def: &'a TableDef,
    /// Where the table's columns start in the FROM-order concatenation.
    offset: usize,
    /// The WHERE conjuncts that read this table alone, over its own
    /// columns: pushed down to its scan under any join order.
    preds: Vec<Expr>,
}

impl FromTable<'_> {
    /// Does a pushed-down predicate filter this table's scan?
    pub(crate) fn has_pred(&self) -> bool {
        !self.preds.is_empty()
    }

    fn scan(&self) -> ScanSpec {
        let schema = &self.def.schema;
        let mut scan = ScanSpec::new(&schema.name, schema.arity(), self.def.pkey_col);
        if self.has_pred() {
            scan.pred = Some(Expr::conjunction(self.preds.clone()));
        }
        scan
    }
}

/// What a bound query emits.
enum Output {
    /// The SELECT list over base columns.
    Rows(Vec<Expr>),
    /// A grouped aggregation: `group_cols` and aggregate arguments over
    /// base columns, `output` (the SELECT list) and `having` over
    /// `[groups..., aggregates...]`, which no join order moves.
    Groups(AggSpec),
}

/// Rewrite the base columns an aggregation reads through `map`.
fn map_agg_input(agg: &mut AggSpec, map: &dyn Fn(usize) -> usize) {
    for g in &mut agg.group_cols {
        *g = map(*g);
    }
    for arg in agg.aggs.iter_mut().filter_map(|call| call.arg.as_mut()) {
        arg.map_cols(map);
    }
}

/// A query with every name bound and its WHERE clause classified, join
/// order and strategy still open. Base columns are indexed over the
/// concatenation of the FROM tables *in FROM order*; lowering
/// ([`lower_parsed`]) re-indexes them for the join order it is given,
/// which is what lets the planner cost the query and reorder an N-way
/// join without any name being looked up again.
pub(crate) struct ParsedQuery<'a> {
    pub(crate) tables: Vec<FromTable<'a>>,
    output: Output,
    /// Cross-table equality conjuncts `a = b` as column pairs, the end
    /// in the earlier FROM table first; conjunct order preserved.
    edges: Vec<(usize, usize)>,
    /// The remaining cross-table conjuncts, evaluable only above a join.
    residuals: Vec<Expr>,
    /// `WINDOW n`: sliding soft-state window of a standing query.
    window: Option<Dur>,
    /// `EPOCH n`: re-emission period of a continuous aggregate.
    epoch: Option<Dur>,
    /// `RENEW n`: per-query renewal period of an unwindowed standing
    /// query's rehash soft state.
    renew: Option<Dur>,
}

/// Which FROM table a column of the FROM-order concatenation is in.
fn table_of(tables: &[FromTable], col: usize) -> usize {
    tables
        .iter()
        .rposition(|t| t.offset <= col)
        .expect("the first table starts at column 0")
}

impl ParsedQuery<'_> {
    /// The join graph: equality edges as FROM-order table-index pairs.
    pub(crate) fn join_edges(&self) -> Vec<(usize, usize)> {
        let t = |c| table_of(&self.tables, c);
        self.edges.iter().map(|&(a, b)| (t(a), t(b))).collect()
    }

    /// Per FROM table, the columns (own indices, ascending) the
    /// dataflow carries whatever the join order: those the output reads
    /// (SELECT, GROUP BY, aggregate arguments) and, with `through_joins`,
    /// the join keys and residual-predicate columns too. Columns read
    /// only by a pushed-down predicate are evaluated at the data's home
    /// node and never ship.
    pub(crate) fn shipped_cols(&self, through_joins: bool) -> Vec<Vec<usize>> {
        let mut cols = Vec::new();
        match &self.output {
            Output::Rows(exprs) => exprs.iter().for_each(|e| e.columns(&mut cols)),
            Output::Groups(agg) => {
                cols.extend(&agg.group_cols);
                let args = agg.aggs.iter().filter_map(|call| call.arg.as_ref());
                args.for_each(|a| a.columns(&mut cols));
            }
        }
        if through_joins {
            self.residuals.iter().for_each(|e| e.columns(&mut cols));
            cols.extend(self.edges.iter().flat_map(|&(a, b)| [a, b]));
        }
        cols.sort_unstable();
        cols.dedup();
        self.tables
            .iter()
            .map(|t| {
                let own = t.offset..t.offset + t.def.schema.arity();
                let of_table = cols.iter().filter(|c| own.contains(c));
                of_table.map(|c| c - t.offset).collect()
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Bind: names → indices, WHERE → join graph — once
// ---------------------------------------------------------------------

/// Name resolution state while a statement is bound.
struct Binder<'q, 'a> {
    tables: &'q [FromTable<'a>],
    /// GROUP BY columns of an aggregate query.
    group_cols: Vec<usize>,
    /// Distinct aggregate calls met so far, in first-use order.
    aggs: Vec<AggCall>,
    /// SELECT aliases bound so far (aggregate queries: `HAVING cnt > 10`).
    aliases: Vec<(String, Expr)>,
}

impl Binder<'_, '_> {
    /// The one place a column name becomes an index (over the
    /// FROM-order concatenation).
    fn resolve(&self, name: &ColName) -> Result<usize, String> {
        let field = &name.field;
        if let Some(q) = &name.qualifier {
            let named = |t: &&FromTable| {
                t.alias.eq_ignore_ascii_case(q) || t.def.schema.name.eq_ignore_ascii_case(q)
            };
            let t = self
                .tables
                .iter()
                .find(named)
                .ok_or_else(|| format!("unknown table qualifier '{q}'"))?;
            let col = t.def.schema.col(field);
            return col
                .map(|i| i + t.offset)
                .ok_or_else(|| format!("no column '{field}' in {}", t.def.schema.name));
        }
        let mut hits = self
            .tables
            .iter()
            .filter_map(|t| Some(t.def.schema.col(field)? + t.offset));
        match (hits.next(), hits.next()) {
            (Some(col), None) => Ok(col),
            (None, _) => Err(format!("unknown column '{field}'")),
            (Some(_), Some(_)) => Err(format!("ambiguous column '{field}'")),
        }
    }

    /// A base column as the output of an aggregation sees it: its
    /// position among the GROUP BY columns.
    fn grouped(&self, col: usize, name: &dyn fmt::Display) -> Result<Expr, String> {
        let at = self.group_cols.iter().position(|&g| g == col);
        at.map(Expr::Col)
            .ok_or_else(|| format!("column '{name}' not in GROUP BY"))
    }

    /// Bind one expression. Over base columns (`grouped = false`) a name
    /// is a column of the FROM-order concatenation and an aggregate call
    /// is an error; over an aggregation's `[groups..., aggregates...]`
    /// row (`grouped = true`) a name is a SELECT alias or a GROUP BY
    /// column, and an aggregate call is registered (once per distinct
    /// call) and becomes a reference to its result.
    fn expr(&mut self, e: PExpr, grouped: bool) -> Result<Expr, String> {
        Ok(match e {
            PExpr::Lit(v) => Expr::Lit(v),
            PExpr::Bin(op, l, r) => Expr::bin(op, self.expr(*l, grouped)?, self.expr(*r, grouped)?),
            PExpr::Not(inner) => Expr::Not(Box::new(self.expr(*inner, grouped)?)),
            PExpr::Call(f, args) => {
                let args = args.into_iter().map(|a| self.expr(a, grouped));
                Expr::Call(f, args.collect::<Result<_, _>>()?)
            }
            PExpr::Col(name) if !grouped => Expr::Col(self.resolve(&name)?),
            PExpr::Col(name) => {
                let aliased = |(a, _): &&(String, Expr)| {
                    name.qualifier.is_none() && a.eq_ignore_ascii_case(&name.field)
                };
                match self.aliases.iter().find(aliased) {
                    Some((_, bound)) => bound.clone(),
                    None => self.grouped(self.resolve(&name)?, &name)?,
                }
            }
            PExpr::Agg(..) if !grouped => return Err("aggregate in scalar context".into()),
            PExpr::Agg(func, arg) => {
                let arg = arg.map(|a| self.expr(*a, false)).transpose()?;
                let known = self
                    .aggs
                    .iter()
                    .position(|c| c.func == func && c.arg == arg);
                let at = known.unwrap_or_else(|| {
                    self.aggs.push(AggCall { func, arg });
                    self.aggs.len() - 1
                });
                Expr::Col(self.group_cols.len() + at)
            }
        })
    }
}

/// Classify bound WHERE conjuncts over the join graph: a conjunct over
/// one table (or none) is pushed to that table's scan, rewritten over
/// the table's own columns; `a = b` across two tables is a join edge;
/// anything else is a residual. Returns `(edges, residuals)`.
fn classify(tables: &mut [FromTable], conjuncts: Vec<Expr>) -> (Vec<(usize, usize)>, Vec<Expr>) {
    let (mut edges, mut residuals) = (Vec::new(), Vec::new());
    let mut cols = Vec::new();
    for mut e in conjuncts {
        cols.clear();
        e.columns(&mut cols);
        let t = cols.first().map_or(0, |&c| table_of(tables, c));
        if cols.iter().all(|&c| table_of(tables, c) == t) {
            let offset = tables[t].offset;
            e.map_cols(&|c| c - offset);
            tables[t].preds.push(e);
            continue;
        }
        if let Expr::Bin(BinOp::Eq, a, b) = &e {
            if let (&Expr::Col(a), &Expr::Col(b)) = (a.as_ref(), b.as_ref()) {
                let in_from_order = table_of(tables, a) < table_of(tables, b);
                edges.push(if in_from_order { (a, b) } else { (b, a) });
                continue;
            }
        }
        residuals.push(e);
    }
    (edges, residuals)
}

/// Parse a SQL string and bind it against a catalog: the grammar, then
/// every name resolved and the WHERE conjuncts classified, exactly
/// once. Join order and strategy stay open ([`lower_parsed`]).
pub(crate) fn parse_sql<'a>(sql: &str, catalog: &'a Catalog) -> Result<ParsedQuery<'a>, String> {
    let mut p = Parser {
        toks: lex(sql)?,
        pos: 0,
        saw_agg: false,
    };
    p.expect("SELECT")?;
    let mut select: Vec<SelectItem> = Vec::new();
    loop {
        select.push(if p.eat("*") {
            SelectItem {
                expr: None,
                alias: None,
            }
        } else {
            SelectItem {
                expr: Some(p.expr()?),
                alias: if p.eat("AS") { Some(p.ident()?) } else { None },
            }
        });
        if !p.eat(",") {
            break;
        }
    }
    p.expect("FROM")?;
    let mut tables: Vec<FromTable> = Vec::new();
    let mut arity = 0;
    loop {
        let table = p.ident()?;
        let def = catalog
            .get(&table)
            .ok_or_else(|| format!("unknown table '{table}'"))?;
        // Optional alias, with or without AS — but stop at keywords.
        let alias = if p.eat("AS") || p.at_alias() {
            p.ident()?
        } else {
            table
        };
        if tables.iter().any(|t| t.alias.eq_ignore_ascii_case(&alias)) {
            return Err(format!(
                "'{alias}' names two tables in FROM — give each occurrence its own alias"
            ));
        }
        tables.push(FromTable {
            alias,
            def,
            offset: arity,
            preds: Vec::new(),
        });
        arity += def.schema.arity();
        if !p.eat(",") {
            break;
        }
    }
    let mut where_conjuncts = Vec::new();
    if p.eat("WHERE") {
        conjuncts(p.expr()?, &mut where_conjuncts);
    }
    let mut group_by: Vec<ColName> = Vec::new();
    if p.eat("GROUP") {
        p.expect("BY")?;
        loop {
            let first = p.ident()?;
            group_by.push(p.col_name(first)?);
            if !p.eat(",") {
                break;
            }
        }
    }
    let having = if p.eat("HAVING") {
        Some(p.expr()?)
    } else {
        None
    };
    let window = p.duration_clause("WINDOW")?;
    let epoch = p.duration_clause("EPOCH")?;
    let renew = p.duration_clause("RENEW")?;
    if p.peek().is_some() {
        return Err(format!("trailing tokens at {:?}", p.peek()));
    }

    // GROUP BY, HAVING or any aggregate call makes the query an
    // aggregation; its SELECT list and HAVING then bind over the
    // aggregation's output row.
    let is_agg = !group_by.is_empty() || having.is_some() || p.saw_agg;
    let mut binder = Binder {
        tables: &tables,
        group_cols: Vec::new(),
        aggs: Vec::new(),
        aliases: Vec::new(),
    };
    let where_conjuncts: Vec<Expr> = where_conjuncts
        .into_iter()
        .map(|c| binder.expr(c, false))
        .collect::<Result<_, _>>()?;
    let group_cols = group_by.iter().map(|g| binder.resolve(g));
    binder.group_cols = group_cols.collect::<Result<_, _>>()?;
    let mut output = Vec::with_capacity(select.len());
    for item in select {
        let Some(e) = item.expr else {
            // `*`: every column of every table, in FROM order.
            for t in &tables {
                for (c, field) in t.def.schema.fields.iter().enumerate() {
                    output.push(if is_agg {
                        let name = format_args!("{}.{}", t.alias, field.name);
                        binder.grouped(t.offset + c, &name)?
                    } else {
                        Expr::Col(t.offset + c)
                    });
                }
            }
            continue;
        };
        let bound = binder.expr(e, is_agg)?;
        if let (true, Some(alias)) = (is_agg, item.alias) {
            binder.aliases.push((alias, bound.clone()));
        }
        output.push(bound);
    }
    let having = having.map(|h| binder.expr(h, true)).transpose()?;
    let Binder {
        group_cols, aggs, ..
    } = binder;
    let output = if is_agg {
        let mut agg = AggSpec::new(group_cols, aggs);
        agg.output = output;
        agg.having = having;
        Output::Groups(agg)
    } else {
        Output::Rows(output)
    };
    let (edges, residuals) = classify(&mut tables, where_conjuncts);
    Ok(ParsedQuery {
        tables,
        output,
        edges,
        residuals,
        window,
        epoch,
        renew,
    })
}

// ---------------------------------------------------------------------
// Lower: a join order → QueryOp
// ---------------------------------------------------------------------

/// Narrow a join's output projection to the columns its aggregation
/// reads (GROUP BY keys and aggregate arguments), remapping the
/// [`AggSpec`] onto the narrowed basis — the required-columns analysis
/// for aggregate queries, so the schema-aware dataflow never ships a
/// column the aggregation ignores. Returns the projection expressions.
fn narrow_agg_input(agg: &mut AggSpec) -> Vec<Expr> {
    let mut used = agg.group_cols.clone();
    for arg in agg.aggs.iter().filter_map(|call| call.arg.as_ref()) {
        arg.columns(&mut used);
    }
    used.sort_unstable();
    used.dedup();
    let narrowed = |c: usize| {
        let at = used.iter().position(|&u| u == c);
        at.expect("aggregation input column kept")
    };
    map_agg_input(agg, &narrowed);
    used.into_iter().map(Expr::col).collect()
}

/// Lower a bound query under a specific join order (a permutation of
/// the FROM tables): a pure re-indexing of the already-bound
/// expressions from FROM order to `order`, with each join edge oriented
/// and each residual assigned to the first stage that can evaluate it.
/// One table lowers to a scan or aggregation; two or more to a
/// left-deep [`JoinSpec`] pipeline — two tables under the given
/// strategy, longer pipelines as chained symmetric hash joins (the
/// `strategy` argument applies to two-table joins only).
pub(crate) fn lower_parsed(
    p: &ParsedQuery,
    order: &[usize],
    strategy: JoinStrategy,
) -> Result<QueryOp, String> {
    let n = p.tables.len();
    if order.len() != n {
        return Err("join order must cover every FROM table".into());
    }
    // Where each FROM table sits in the order, and where its columns
    // start in the order's concatenation.
    let mut pos = vec![usize::MAX; n];
    let mut start = vec![0; n];
    let mut arity = 0;
    for (at, &i) in order.iter().enumerate() {
        if i >= n || pos[i] != usize::MAX {
            return Err("join order is not a permutation".into());
        }
        pos[i] = at;
        start[i] = arity;
        arity += p.tables[i].def.schema.arity();
    }
    let from_table = |c: usize| table_of(&p.tables, c);
    let reindex = |c: usize| {
        let t = from_table(c);
        c - p.tables[t].offset + start[t]
    };
    let output = match &p.output {
        Output::Rows(exprs) => {
            let mut project = exprs.clone();
            project.iter_mut().for_each(|e| e.map_cols(&reindex));
            Output::Rows(project)
        }
        Output::Groups(agg) => {
            let mut agg = agg.clone();
            agg.epoch = p.epoch;
            map_agg_input(&mut agg, &reindex);
            Output::Groups(agg)
        }
    };
    if n == 1 {
        let scan = p.tables[0].scan();
        return Ok(match output {
            Output::Rows(project) => QueryOp::Scan { scan, project },
            Output::Groups(agg) => QueryOp::Agg { scan, agg },
        });
    }

    // Left-deep pipeline: stage k joins ordered table k + 1 against the
    // accumulated prefix (one stage for two tables).
    let mut stage_join: Vec<Option<(usize, usize)>> = vec![None; n - 1];
    let mut stage_preds: Vec<Vec<Expr>> = vec![Vec::new(); n - 1];
    for &(a, b) in &p.edges {
        // The end in the earlier-ordered table is the accumulated side.
        let (lo, hi) = if pos[from_table(a)] < pos[from_table(b)] {
            (a, b)
        } else {
            (b, a)
        };
        let right = from_table(hi);
        let k = pos[right] - 1;
        if stage_join[k].is_none() {
            stage_join[k] = Some((reindex(lo), hi - p.tables[right].offset));
        } else {
            // A second edge into the same table: checked as a stage
            // predicate over the accumulated schema.
            stage_preds[k].push(Expr::eq(Expr::col(reindex(lo)), Expr::col(reindex(hi))));
        }
    }
    let mut cols = Vec::new();
    for e in &p.residuals {
        cols.clear();
        e.columns(&mut cols);
        let last = cols.iter().map(|&c| pos[from_table(c)]).max();
        let mut e = e.clone();
        e.map_cols(&reindex);
        stage_preds[last.expect("a residual spans two tables") - 1].push(e);
    }
    let stages = stage_join
        .into_iter()
        .zip(stage_preds)
        .zip(&order[1..])
        .map(|((join, preds), &i)| {
            let table = &p.tables[i];
            let (left_col, right_col) = join.ok_or_else(|| {
                format!(
                    "no equality join predicate connects table '{}' to the preceding \
                     tables (cross products are unsupported)",
                    table.def.schema.name
                )
            })?;
            Ok(JoinStage {
                right: table.scan().with_join_col(right_col),
                left_col,
                stage_pred: (!preds.is_empty()).then(|| Expr::conjunction(preds)),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut join = JoinSpec::pipeline(p.tables[order[0]].scan(), stages);
    if n == 2 {
        join.strategy = strategy;
        join.check()?;
    }
    Ok(match output {
        Output::Rows(project) => {
            join.project = project;
            QueryOp::Join { join, agg: None }
        }
        Output::Groups(mut agg) => {
            // The aggregation consumes only the columns it reads.
            join.project = narrow_agg_input(&mut agg);
            QueryOp::Join {
                join,
                agg: Some(agg),
            }
        }
    })
}

/// Parse and bind a one-shot query — the front half [`parse_query`] and
/// [`crate::planner::plan_sql`] share. A bare [`QueryOp`] has nowhere to
/// carry a window, and an epoch or renewal period only makes sense on a
/// standing descriptor — silently wrapping either in a one-shot would
/// be a different query — so the standing clauses are refused here.
pub(crate) fn parse_one_shot<'a>(
    sql: &str,
    catalog: &'a Catalog,
) -> Result<ParsedQuery<'a>, String> {
    let parsed = parse_sql(sql, catalog)?;
    if parsed.window.is_some() || parsed.epoch.is_some() || parsed.renew.is_some() {
        return Err(
            "WINDOW/EPOCH/RENEW make a query continuous — use parse_continuous_query".into(),
        );
    }
    Ok(parsed)
}

/// Parse a SQL string against a catalog, producing a resolved query op
/// with tables joined in FROM order. Binary joins default to the given
/// strategy; 3+-table queries lower to a symmetric-hash pipeline. The
/// cost-based entry point ([`crate::planner::plan_sql`]) additionally
/// picks the strategy and the join order.
pub fn parse_query(
    sql: &str,
    catalog: &Catalog,
    strategy: JoinStrategy,
) -> Result<QueryOp, String> {
    let parsed = parse_one_shot(sql, catalog)?;
    let order: Vec<usize> = (0..parsed.tables.len()).collect();
    lower_parsed(&parsed, &order, strategy)
}

/// Parse a SQL string with optional `WINDOW` / `EPOCH` / `RENEW`
/// clauses into a complete standing [`QueryDesc`]: continuous, with the
/// window bound to the descriptor (rehashed soft-state lifetime), the
/// epoch bound to the aggregation spec (per-epoch re-emission), and the
/// renewal period bound to the descriptor (per-query soft-state
/// renewal). Plain SQL parses too — the result is then a continuous
/// query with no window, epoch, or renewal period, and a join under another
/// strategy than symmetric hash is refused ([`crate::plan::Tenure::check`]).
pub fn parse_continuous_query(
    sql: &str,
    catalog: &Catalog,
    strategy: JoinStrategy,
    qid: u64,
    initiator: NodeId,
) -> Result<QueryDesc, String> {
    let parsed = parse_sql(sql, catalog)?;
    if parsed.renew.is_some() && parsed.window.is_some() {
        // Windowed soft state must age out of the DHT — renewing it
        // would widen the window arbitrarily.
        return Err("RENEW applies to unwindowed queries (windowed state must age out)".into());
    }
    if parsed.epoch.is_some() && matches!(parsed.output, Output::Rows(_)) {
        return Err("EPOCH requires aggregation (GROUP BY or aggregate calls)".into());
    }
    let order: Vec<usize> = (0..parsed.tables.len()).collect();
    let op = lower_parsed(&parsed, &order, strategy)?;
    let mut desc = QueryDesc::standing(qid, initiator, op, parsed.window);
    if let Some(every) = parsed.renew {
        desc = desc.with_renewal(every);
    }
    desc.tenure.check(&desc.op)?;
    Ok(desc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Tenure;
    use crate::semantics::{reference_eval, same_multiset};
    use crate::tuple;
    use crate::tuple::Tuple;
    use std::collections::BTreeMap;

    /// [`super::parse_continuous_query`] under symmetric hash, from node 0.
    fn standing(sql: &str, catalog: &Catalog, qid: u64) -> Result<QueryDesc, String> {
        super::parse_continuous_query(sql, catalog, JoinStrategy::SymmetricHash, qid, 0)
    }

    fn catalogs() -> (Catalog, Catalog) {
        (Catalog::workload(), Catalog::intrusion())
    }

    #[test]
    fn parses_the_workload_query() {
        let (wl, _) = catalogs();
        let op = parse_query(
            "SELECT R.pkey, S.pkey, R.pad FROM R, S \
             WHERE R.num1 = S.pkey AND R.num2 > 50 AND S.num2 > 50 \
             AND f(R.num3, S.num3) > 30",
            &wl,
            JoinStrategy::SymmetricHash,
        )
        .unwrap();
        let QueryOp::Join { join: j, agg: None } = op else {
            panic!("expected join")
        };
        assert_eq!(j.stages[0].left_col, 1);
        assert_eq!(j.stages[0].right.join_col, Some(0));
        assert!(j.left.pred.is_some());
        assert!(j.stages[0].right.pred.is_some());
        assert!(j.stages[0].stage_pred.is_some());
        assert_eq!(j.project.len(), 3);
    }

    #[test]
    fn parses_the_simple_intrusion_aggregate() {
        let (_, intr) = catalogs();
        let op = parse_query(
            "SELECT I.fingerprint, count(*) AS cnt FROM intrusions I \
             GROUP BY I.fingerprint HAVING cnt > 10",
            &intr,
            JoinStrategy::SymmetricHash,
        )
        .unwrap();
        let QueryOp::Agg { agg, .. } = op else {
            panic!("expected agg")
        };
        assert_eq!(agg.group_cols, vec![1]);
        assert_eq!(agg.aggs.len(), 1);
        assert!(agg.having.is_some());
    }

    #[test]
    fn parses_the_weighted_intrusion_query() {
        let (_, intr) = catalogs();
        let op = parse_query(
            "SELECT I.fingerprint, count(*) * sum(R.weight) AS wcnt \
             FROM intrusions I, reputation R WHERE R.address = I.address \
             GROUP BY I.fingerprint HAVING wcnt > 10",
            &intr,
            JoinStrategy::SymmetricHash,
        )
        .unwrap();
        let QueryOp::Join {
            join,
            agg: Some(agg),
        } = op
        else {
            panic!("expected join+agg")
        };
        // intrusions.address is col 2; reputation.address is col 0.
        assert_eq!(join.stages[0].left_col, 2);
        assert_eq!(join.stages[0].right.join_col, Some(0));
        assert_eq!(agg.aggs.len(), 2); // count(*), sum(weight)
        assert!(agg.having.is_some());
    }

    #[test]
    fn parses_the_compromised_nodes_join() {
        let (_, intr) = catalogs();
        let sql = "SELECT S.source FROM spamGateways AS S, robots AS R \
                   WHERE S.smtpGWDomain = R.clientDomain";
        let op = parse_query(sql, &intr, JoinStrategy::SymmetricSemiJoin).unwrap();
        let QueryOp::Join { join: j, .. } = op else {
            panic!()
        };
        assert_eq!(j.strategy, JoinStrategy::SymmetricSemiJoin);
        assert_eq!(j.project.len(), 1);
        // robots is hashed on its id, not clientDomain: Fetch Matches
        // would fetch nothing, so the lowering refuses it.
        let err = parse_query(sql, &intr, JoinStrategy::FetchMatches).unwrap_err();
        assert!(err.contains("Fetch Matches"), "{err}");
    }

    #[test]
    fn parsed_query_evaluates_like_handwritten_reference() {
        let (wl, _) = catalogs();
        let op = parse_query(
            "SELECT R.pkey, S.num3 FROM R, S WHERE R.num1 = S.pkey AND R.num2 > 49",
            &wl,
            JoinStrategy::SymmetricHash,
        )
        .unwrap();
        let r: Vec<Tuple> = (0..40i64)
            .map(|k| tuple![k, k % 7, (k * 13) % 100, k % 5, crate::value::Value::Pad(8)])
            .collect();
        let s: Vec<Tuple> = (0..7i64).map(|k| tuple![k, 10i64, k + 100]).collect();
        let mut tables = BTreeMap::new();
        tables.insert("R".to_string(), r.clone());
        tables.insert("S".to_string(), s.clone());
        let out = reference_eval(&op, &tables);
        // Manual expectation.
        let mut expected = Vec::new();
        for t in &r {
            if let crate::value::Value::I64(num2) = t.get(2) {
                if *num2 > 49 {
                    let k = t.get(1).as_i64().unwrap();
                    expected.push(tuple![t.get(0).as_i64().unwrap(), k + 100]);
                }
            }
        }
        assert!(same_multiset(&out, &expected));
        assert!(!out.is_empty());
    }

    #[test]
    fn parses_a_three_table_chain() {
        let (wl, _) = catalogs();
        let op = parse_query(
            "SELECT R.pkey, S.pkey, T.pkey FROM R, S, T \
             WHERE R.num1 = S.pkey AND S.num3 = T.pkey \
             AND R.num2 > 50 AND T.num2 > 50 AND f(R.num3, S.num3) > 30",
            &wl,
            JoinStrategy::SymmetricHash,
        )
        .unwrap();
        let QueryOp::Join { join: m, agg: None } = op else {
            panic!("expected multi-join")
        };
        assert_eq!(m.n_tables(), 3);
        assert_eq!(m.stages[0].left_col, 1); // R.num1
        assert_eq!(m.stages[0].right.join_col, Some(0)); // S.pkey
        assert_eq!(m.stages[1].left_col, 7); // S.num3 within R ++ S
        assert_eq!(m.stages[1].right.join_col, Some(0)); // T.pkey
        assert!(m.left.pred.is_some(), "R.num2 pushed to the R scan");
        assert!(m.stages[0].right.pred.is_none());
        assert!(m.stages[1].right.pred.is_some(), "T.num2 pushed to T");
        assert!(
            m.stages[0].stage_pred.is_some(),
            "f() evaluable after stage 0"
        );
        assert_eq!(m.project.len(), 3);
    }

    #[test]
    fn parses_a_three_table_star_with_aggregation() {
        let (_, intr) = catalogs();
        let op = parse_query(
            "SELECT I.fingerprint, count(*) AS cnt, max(A.severity) \
             FROM intrusions I, advisories A, reputation R \
             WHERE I.fingerprint = A.fingerprint AND I.address = R.address \
             AND A.severity > 6 AND R.weight > 1 \
             GROUP BY I.fingerprint HAVING cnt > 2",
            &intr,
            JoinStrategy::SymmetricHash,
        )
        .unwrap();
        let QueryOp::Join {
            join,
            agg: Some(agg),
        } = op
        else {
            panic!("expected multi-join agg")
        };
        // Star: both stages join against intrusions' columns.
        assert_eq!(join.stages[0].left_col, 1); // I.fingerprint
        assert_eq!(join.stages[1].left_col, 2); // I.address
                                                // The join ships only what the aggregation reads: the GROUP BY
                                                // key I.fingerprint and the max() argument A.severity.
        assert_eq!(join.project.len(), 2);
        assert_eq!(join.project[0], Expr::col(1)); // I.fingerprint
        assert_eq!(join.project[1], Expr::col(4)); // A.severity
        assert_eq!(agg.group_cols, vec![0], "remapped onto the narrow basis");
        assert_eq!(agg.aggs.len(), 2);
        assert!(agg.having.is_some());
    }

    #[test]
    fn multiway_lowering_matches_reference_under_any_order() {
        let (wl, _) = catalogs();
        let parsed = parse_sql(
            "SELECT R.pkey, T.num3 FROM R, S, T \
             WHERE R.num1 = S.pkey AND S.num3 = T.pkey AND T.num2 > 20",
            &wl,
        )
        .unwrap();
        let r: Vec<Tuple> = (0..40i64)
            .map(|k| tuple![k, k % 7, (k * 13) % 100, k % 5, crate::value::Value::Pad(8)])
            .collect();
        let s: Vec<Tuple> = (0..7i64).map(|k| tuple![k, 10i64, k % 3]).collect();
        let t: Vec<Tuple> = (0..3i64).map(|k| tuple![k, 50i64, k + 200]).collect();
        let mut tables = BTreeMap::new();
        tables.insert("R".to_string(), r);
        tables.insert("S".to_string(), s);
        tables.insert("T".to_string(), t);
        let mut baseline: Option<Vec<Tuple>> = None;
        // Every valid left-deep order yields the same result multiset
        // with the same output schema.
        for order in [[0, 1, 2], [2, 1, 0], [1, 0, 2], [1, 2, 0]] {
            let op = lower_parsed(&parsed, &order, JoinStrategy::SymmetricHash).unwrap();
            let out = reference_eval(&op, &tables);
            assert!(!out.is_empty(), "order {order:?}");
            match &baseline {
                None => baseline = Some(out),
                Some(b) => assert!(same_multiset(b, &out), "order {order:?}"),
            }
        }
        // An order that breaks the chain (T before S, never adjacent to
        // its only edge partner) still connects via the accumulated
        // prefix, so only truly disconnected queries error:
        let bad = parse_sql("SELECT R.pkey FROM R, S, T WHERE R.num1 = S.pkey", &wl).unwrap();
        let err = lower_parsed(&bad, &[0, 1, 2], JoinStrategy::SymmetricHash).unwrap_err();
        assert!(err.contains("cross products"), "{err}");
    }

    #[test]
    fn window_and_epoch_clauses_build_a_standing_query() {
        let (_, intr) = catalogs();
        let desc = super::parse_continuous_query(
            "SELECT I.fingerprint, count(*) AS cnt FROM intrusions I \
             GROUP BY I.fingerprint HAVING cnt > 2 \
             WINDOW 90 SECONDS EPOCH 30 SECONDS",
            &intr,
            JoinStrategy::SymmetricHash,
            7,
            3,
        )
        .unwrap();
        assert_eq!(desc.qid, 7);
        assert_eq!(desc.initiator, 3);
        assert_eq!(desc.tenure, Tenure::Windowed(Dur::from_secs(90)));
        let QueryOp::Agg { agg, .. } = &desc.op else {
            panic!("expected agg")
        };
        assert_eq!(agg.epoch, Some(pier_simnet::time::Dur::from_secs(30)));

        // Units: MS and MINUTES; bare numbers default to seconds.
        let sql = "SELECT count(*) FROM intrusions WINDOW 2 MINUTES EPOCH 500 MS";
        let desc = standing(sql, &intr, 8).unwrap();
        assert_eq!(desc.tenure, Tenure::Windowed(Dur::from_secs(120)));
        let QueryOp::Agg { agg, .. } = &desc.op else {
            panic!()
        };
        assert_eq!(agg.epoch, Some(pier_simnet::time::Dur::from_millis(500)));

        // Plain SQL through the continuous entry: standing, unwindowed.
        let desc = standing("SELECT address FROM intrusions", &intr, 9).unwrap();
        assert_eq!(desc.tenure, Tenure::Unwindowed { renew_every: None });
    }

    #[test]
    fn renew_clause_binds_a_per_query_renewal_period() {
        let (_, intr) = catalogs();
        let sql = "SELECT I.address, count(*) FROM intrusions I, advisories A \
                   WHERE I.fingerprint = A.fingerprint \
                   GROUP BY I.address EPOCH 30 SECONDS RENEW 45 SECONDS";
        let desc = standing(sql, &intr, 11).unwrap();
        let renew_every = Some(Dur::from_secs(45));
        assert_eq!(desc.tenure, Tenure::Unwindowed { renew_every });

        // RENEW alone makes a query standing (a renewed continuous join).
        let sql = "SELECT I.address, R.weight FROM intrusions I, reputation R \
                   WHERE I.address = R.address RENEW 20 SECONDS";
        let desc = standing(sql, &intr, 12).unwrap();
        let renew_every = Some(Dur::from_secs(20));
        assert_eq!(desc.tenure, Tenure::Unwindowed { renew_every });

        // One-shot entry points reject it…
        let err = parse_query(
            "SELECT address FROM intrusions RENEW 10 SECONDS",
            &intr,
            JoinStrategy::SymmetricHash,
        )
        .unwrap_err();
        assert!(err.contains("parse_continuous_query"), "{err}");
        // …and a window excludes renewal (windowed state must age out).
        let sql =
            "SELECT count(*) FROM intrusions WINDOW 60 SECONDS EPOCH 30 SECONDS RENEW 10 SECONDS";
        let err = standing(sql, &intr, 13).unwrap_err();
        assert!(err.contains("unwindowed"), "{err}");
        // Zero renewal periods are rejected like any other duration.
        let sql = "SELECT count(*) FROM intrusions EPOCH 30 SECONDS RENEW 0";
        assert!(standing(sql, &intr, 14).is_err());
    }

    #[test]
    fn epoch_requires_aggregation_and_window_requires_continuous() {
        let (wl, intr) = catalogs();
        // Through the one-shot entry points both clauses are rejected.
        let err = parse_query(
            "SELECT address FROM intrusions EPOCH 10 SECONDS",
            &intr,
            JoinStrategy::SymmetricHash,
        )
        .unwrap_err();
        assert!(err.contains("parse_continuous_query"), "{err}");
        // EPOCH on a non-aggregate query is rejected at lowering.
        let err =
            standing("SELECT address FROM intrusions EPOCH 10 SECONDS", &intr, 1).unwrap_err();
        assert!(err.contains("EPOCH requires aggregation"), "{err}");
        let err = parse_query(
            "SELECT address FROM intrusions WINDOW 10 SECONDS",
            &intr,
            JoinStrategy::SymmetricHash,
        )
        .unwrap_err();
        assert!(err.contains("parse_continuous_query"), "{err}");
        // A standing join runs symmetric hash: under Fetch Matches it is
        // refused with the reason a node counts the drop under.
        let err = super::parse_continuous_query(
            "SELECT R.pkey, S.pkey FROM R, S WHERE R.num1 = S.pkey",
            &wl,
            JoinStrategy::FetchMatches,
            1,
            0,
        )
        .unwrap_err();
        assert_eq!(err, "a standing join runs only under symmetric hash");
        // Zero and negative durations are rejected.
        assert!(standing("SELECT count(*) FROM intrusions EPOCH 0", &intr, 1).is_err());
    }

    #[test]
    fn rejects_unknown_names_and_bad_syntax() {
        let (wl, _) = catalogs();
        assert!(
            parse_query("SELECT x FROM R", &wl, JoinStrategy::SymmetricHash)
                .unwrap_err()
                .contains("unknown column")
        );
        assert!(
            parse_query("SELECT R.pkey FROM U", &wl, JoinStrategy::SymmetricHash)
                .unwrap_err()
                .contains("unknown table")
        );
        assert!(parse_query(
            "SELECT R.pkey, S.pkey FROM R, S",
            &wl,
            JoinStrategy::SymmetricHash
        )
        .unwrap_err()
        .contains("join predicate"));
        assert!(parse_query("FROM R", &wl, JoinStrategy::SymmetricHash).is_err());
    }

    #[test]
    fn unary_minus_negates_literals_and_expressions() {
        let (wl, _) = catalogs();
        let shj = JoinStrategy::SymmetricHash;
        let op = parse_query(
            "SELECT -pkey, 2 - -3, - -num2, -1.5 FROM S WHERE num2 > -5",
            &wl,
            shj,
        )
        .unwrap();
        let QueryOp::Scan { project, scan } = op else {
            panic!()
        };
        // The sign folds into a literal…
        assert_eq!(scan.pred, Some(Expr::gt(Expr::col(1), Expr::lit(-5i64))));
        assert_eq!(project[3], Expr::lit(-1.5));
        // …and negates anything else, binding tighter than `-` between.
        let t = tuple![10i64, 3i64, 9i64];
        let vals: Vec<Value> = project.iter().map(|e| e.eval(&t)).collect();
        assert_eq!(vals[..3], [Value::I64(-10), Value::I64(5), Value::I64(3)]);
        // A sign still needs an operand, and durations stay unsigned.
        assert!(parse_query("SELECT pkey FROM S WHERE num2 > -", &wl, shj).is_err());
        assert!(standing("SELECT pkey FROM S WINDOW -5 SECONDS", &wl, 1).is_err());
    }

    #[test]
    fn rejects_a_repeated_alias_by_name() {
        let (wl, _) = catalogs();
        for from in ["R, R", "R x, S x", "R S, S", "R AS t, S AS T"] {
            let sql = format!("SELECT 1 FROM {from} WHERE 1 = 1");
            let err = parse_query(&sql, &wl, JoinStrategy::SymmetricHash).unwrap_err();
            assert!(err.contains("names two tables in FROM"), "{from}: {err}");
        }
        // Distinct aliases over one table bind each to its own columns.
        let op = parse_query(
            "SELECT a.pkey, b.pkey FROM S a, S b WHERE a.num2 = b.pkey",
            &wl,
            JoinStrategy::SymmetricHash,
        )
        .unwrap();
        let join = op.join().unwrap();
        assert_eq!(join.stages[0].left_col, 1);
        assert_eq!(join.project[1], Expr::col(3));
    }

    #[test]
    fn comparisons_do_not_chain_and_having_implies_aggregation() {
        let (wl, _) = catalogs();
        let shj = JoinStrategy::SymmetricHash;
        for sql in [
            "SELECT pkey FROM S WHERE 1 < num2 < 9",
            "SELECT pkey FROM S WHERE num2 > 1 AND num3 > 2 > 1",
        ] {
            let err = parse_query(sql, &wl, shj).unwrap_err();
            assert!(err.contains("trailing tokens"), "{sql}: {err}");
        }
        // HAVING makes the query an aggregation: a bare column must be
        // grouped (the clause is never silently dropped).
        let err = parse_query("SELECT pkey FROM S HAVING pkey > 1", &wl, shj).unwrap_err();
        assert!(err.contains("not in GROUP BY"), "{err}");
    }

    #[test]
    fn star_expansion_and_alias_free_tables() {
        let (wl, _) = catalogs();
        let op = parse_query(
            "SELECT * FROM S WHERE num2 > 10",
            &wl,
            JoinStrategy::SymmetricHash,
        )
        .unwrap();
        let QueryOp::Scan { project, .. } = op else {
            panic!()
        };
        assert_eq!(project.len(), 3);
    }

    #[test]
    fn arithmetic_and_precedence() {
        let (wl, _) = catalogs();
        let op = parse_query(
            "SELECT pkey + 2 * num2 FROM S WHERE num2 >= 1 AND num3 <> 4",
            &wl,
            JoinStrategy::SymmetricHash,
        )
        .unwrap();
        let QueryOp::Scan { project, scan } = op else {
            panic!()
        };
        // 2*num2 binds tighter than +.
        let t = tuple![10i64, 3i64, 9i64];
        assert_eq!(project[0].eval(&t), crate::value::Value::I64(16));
        assert!(scan.pred.unwrap().matches(&t));
    }
}
