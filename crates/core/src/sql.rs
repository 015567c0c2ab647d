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
//! workload query, plus N-table equi-join chains and stars. The parser
//! resolves names against the [`Catalog`] and emits a fully
//! index-resolved [`QueryOp`]: two or more tables lower to one
//! left-deep [`JoinSpec`] pipeline — two-table joins keep the
//! four-strategy repertoire of §4, longer pipelines chain symmetric
//! hash joins. Parsing
//! and lowering are split (`parse_sql` / `lower_parsed`, crate-internal)
//! so the cost-based planner can choose the join order between the two.
//!
//! `WINDOW`, `EPOCH`, and `RENEW` make a query *standing* (continuous,
//! §3.2.3 / §7): `WINDOW` bounds the lifetime of rehashed soft state (a
//! sliding time window), `EPOCH` — aggregates only — re-emits every
//! surviving group each epoch ([`crate::plan::AggSpec::epoch`]), and
//! `RENEW` — unwindowed queries only — gives the query its own renewal
//! period for that soft state ([`crate::plan::QueryDesc::renew_every`]),
//! which is the only thing that renews it.
//! Use [`parse_continuous_query`] to get the full [`QueryDesc`];
//! [`parse_query`] (and the planner) reject all three clauses since a
//! bare [`QueryOp`] cannot honor them.

use pier_simnet::time::Dur;
use pier_simnet::NodeId;

use crate::catalog::Catalog;
use crate::expr::{BinOp, Expr, Func};
use crate::plan::{
    AggCall, AggFunc, AggSpec, JoinSpec, JoinStage, JoinStrategy, QueryDesc, QueryOp, ScanSpec,
};
use crate::value::Value;

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Sym(&'static str),
}

fn lex(input: &str) -> Result<Vec<Tok>, String> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' | ')' | ',' | '.' | '*' | '+' | '-' | '/' | '%' | '=' => {
                out.push(Tok::Sym(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '.' => ".",
                    '*' => "*",
                    '+' => "+",
                    '-' => "-",
                    '/' => "/",
                    '%' => "%",
                    _ => "=",
                }));
                i += 1;
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Tok::Sym("<="));
                    i += 2;
                } else if chars.get(i + 1) == Some(&'>') {
                    out.push(Tok::Sym("<>"));
                    i += 2;
                } else {
                    out.push(Tok::Sym("<"));
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Tok::Sym(">="));
                    i += 2;
                } else {
                    out.push(Tok::Sym(">"));
                    i += 1;
                }
            }
            '!' if chars.get(i + 1) == Some(&'=') => {
                out.push(Tok::Sym("<>"));
                i += 2;
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                while i < chars.len() && chars[i] != '\'' {
                    s.push(chars[i]);
                    i += 1;
                }
                if i >= chars.len() {
                    return Err("unterminated string literal".into());
                }
                i += 1;
                out.push(Tok::Str(s));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                if text.contains('.') {
                    out.push(Tok::Float(text.parse().map_err(|e| format!("{e}"))?));
                } else {
                    out.push(Tok::Int(text.parse().map_err(|e| format!("{e}"))?));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Tok::Ident(chars[start..i].iter().collect()));
            }
            ';' => i += 1,
            other => return Err(format!("unexpected character '{other}'")),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Parser AST (pre-resolution)
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum PExpr {
    Col(String),
    Lit(Value),
    Bin(BinOp, Box<PExpr>, Box<PExpr>),
    Not(Box<PExpr>),
    Call(Func, Vec<PExpr>),
    Agg(AggFunc, Option<Box<PExpr>>),
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn kw(&mut self, word: &str) -> bool {
        if let Some(Tok::Ident(w)) = self.peek() {
            if w.eq_ignore_ascii_case(word) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, word: &str) -> Result<(), String> {
        if self.kw(word) {
            Ok(())
        } else {
            Err(format!("expected {word} at token {:?}", self.peek()))
        }
    }

    fn sym(&mut self, s: &str) -> bool {
        if let Some(Tok::Sym(have)) = self.peek() {
            if *have == s {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), String> {
        if self.sym(s) {
            Ok(())
        } else {
            Err(format!("expected '{s}' at token {:?}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, String> {
        match self.next() {
            Some(Tok::Ident(w)) => Ok(w),
            other => Err(format!("expected identifier, got {other:?}")),
        }
    }

    /// A duration literal with an optional unit (seconds by default).
    fn duration(&mut self) -> Result<Dur, String> {
        let n = match self.next() {
            Some(Tok::Int(i)) if i >= 0 => i as f64,
            Some(Tok::Float(x)) if x >= 0.0 => x,
            other => return Err(format!("expected a duration, got {other:?}")),
        };
        let scale = if self.kw("SECONDS") || self.kw("S") {
            1.0
        } else if self.kw("MS") || self.kw("MILLISECONDS") {
            1e-3
        } else if self.kw("MINUTES") {
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

    // expr := or
    fn expr(&mut self) -> Result<PExpr, String> {
        let mut left = self.and_expr()?;
        while self.kw("OR") {
            let right = self.and_expr()?;
            left = PExpr::Bin(BinOp::Or, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<PExpr, String> {
        let mut left = self.cmp_expr()?;
        while self.kw("AND") {
            let right = self.cmp_expr()?;
            left = PExpr::Bin(BinOp::And, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cmp_expr(&mut self) -> Result<PExpr, String> {
        let left = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Sym("=")) => Some(BinOp::Eq),
            Some(Tok::Sym("<>")) => Some(BinOp::Ne),
            Some(Tok::Sym("<")) => Some(BinOp::Lt),
            Some(Tok::Sym("<=")) => Some(BinOp::Le),
            Some(Tok::Sym(">")) => Some(BinOp::Gt),
            Some(Tok::Sym(">=")) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.add_expr()?;
            Ok(PExpr::Bin(op, Box::new(left), Box::new(right)))
        } else {
            Ok(left)
        }
    }

    fn add_expr(&mut self) -> Result<PExpr, String> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Sym("+")) => BinOp::Add,
                Some(Tok::Sym("-")) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.mul_expr()?;
            left = PExpr::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<PExpr, String> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Sym("*")) => BinOp::Mul,
                Some(Tok::Sym("/")) => BinOp::Div,
                Some(Tok::Sym("%")) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary_expr()?;
            left = PExpr::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<PExpr, String> {
        if self.kw("NOT") {
            return Ok(PExpr::Not(Box::new(self.unary_expr()?)));
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
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(Tok::Ident(word)) => {
                // Aggregate / scalar function call?
                if self.peek() == Some(&Tok::Sym("(")) {
                    self.pos += 1;
                    let lower = word.to_ascii_lowercase();
                    if let Some(func) = agg_func(&lower) {
                        // count(*) has no argument.
                        if self.sym("*") {
                            self.expect_sym(")")?;
                            return Ok(PExpr::Agg(func, None));
                        }
                        let arg = self.expr()?;
                        self.expect_sym(")")?;
                        return Ok(PExpr::Agg(func, Some(Box::new(arg))));
                    }
                    let func =
                        scalar_func(&lower).ok_or_else(|| format!("unknown function '{word}'"))?;
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::Sym(")")) {
                        loop {
                            args.push(self.expr()?);
                            if !self.sym(",") {
                                break;
                            }
                        }
                    }
                    self.expect_sym(")")?;
                    return Ok(PExpr::Call(func, args));
                }
                // Qualified column?
                if self.sym(".") {
                    let field = self.ident()?;
                    return Ok(PExpr::Col(format!("{word}.{field}")));
                }
                Ok(PExpr::Col(word))
            }
            other => Err(format!("unexpected token {other:?}")),
        }
    }
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

// ---------------------------------------------------------------------
// Name resolution & lowering
// ---------------------------------------------------------------------

/// One FROM-clause table, pre-resolution. Column offsets are *not*
/// stored here: they depend on the join order chosen at lowering time.
#[derive(Clone)]
pub(crate) struct FromTable {
    alias: String,
    table: String,
    schema: crate::tuple::SchemaRef,
    pkey_col: usize,
}

/// Parsed SELECT item.
#[derive(Clone)]
struct SelectItem {
    expr: PExpr,
    alias: Option<String>,
}

/// A parsed-but-not-yet-lowered query: FROM tables in syntactic order,
/// the star-expanded SELECT list, the WHERE conjuncts, and grouping.
///
/// Lowering ([`lower_parsed`]) binds a *join order* — a permutation of
/// the FROM tables — before any column index is baked in, which is what
/// lets the planner reorder N-way joins cost-based while `parse_query`
/// keeps the syntactic order.
pub(crate) struct ParsedQuery {
    tables: Vec<FromTable>,
    select: Vec<SelectItem>,
    conjuncts: Vec<PExpr>,
    group_by: Vec<String>,
    having: Option<PExpr>,
    /// `WINDOW n`: sliding soft-state window of a standing query.
    pub(crate) window: Option<Dur>,
    /// `EPOCH n`: re-emission period of a continuous aggregate.
    pub(crate) epoch: Option<Dur>,
    /// `RENEW n`: per-query renewal period of an unwindowed standing
    /// query's rehash soft state.
    pub(crate) renew: Option<Dur>,
}

impl ParsedQuery {
    pub(crate) fn n_tables(&self) -> usize {
        self.tables.len()
    }
}

/// A FROM table placed at a definite offset within the concatenated
/// schema of one particular join order.
struct ResolvedTable {
    alias: String,
    table: String,
    schema: crate::tuple::SchemaRef,
    pkey_col: usize,
    offset: usize,
}

struct Resolver {
    tables: Vec<ResolvedTable>,
}

impl Resolver {
    /// Place `tables[order[0]], tables[order[1]], ...` at cumulative
    /// offsets.
    fn new(tables: &[FromTable], order: &[usize]) -> Resolver {
        let mut out = Vec::with_capacity(order.len());
        let mut offset = 0;
        for &i in order {
            let t = &tables[i];
            out.push(ResolvedTable {
                alias: t.alias.clone(),
                table: t.table.clone(),
                schema: t.schema.clone(),
                pkey_col: t.pkey_col,
                offset,
            });
            offset += t.schema.arity();
        }
        Resolver { tables: out }
    }

    /// Which ordered table a global column index belongs to.
    fn table_of(&self, col: usize) -> usize {
        self.tables
            .iter()
            .rposition(|t| t.offset <= col)
            .expect("column offset")
    }

    /// Resolve a (possibly qualified) column name to a global index over
    /// the concatenated FROM schemas.
    fn col(&self, name: &str) -> Result<usize, String> {
        if let Some((prefix, field)) = name.split_once('.') {
            for t in &self.tables {
                if t.alias.eq_ignore_ascii_case(prefix) || t.table.eq_ignore_ascii_case(prefix) {
                    return t
                        .schema
                        .col(field)
                        .map(|i| i + t.offset)
                        .ok_or_else(|| format!("no column '{field}' in {}", t.table));
                }
            }
            return Err(format!("unknown table qualifier '{prefix}'"));
        }
        let mut hit = None;
        for t in &self.tables {
            if let Some(i) = t.schema.col(name) {
                if hit.is_some() {
                    return Err(format!("ambiguous column '{name}'"));
                }
                hit = Some(i + t.offset);
            }
        }
        hit.ok_or_else(|| format!("unknown column '{name}'"))
    }

    /// Lower a scalar (non-aggregate) expression to indexed form.
    fn lower(&self, e: &PExpr) -> Result<Expr, String> {
        Ok(match e {
            PExpr::Col(name) => Expr::Col(self.col(name)?),
            PExpr::Lit(v) => Expr::Lit(v.clone()),
            PExpr::Bin(op, l, r) => Expr::bin(*op, self.lower(l)?, self.lower(r)?),
            PExpr::Not(inner) => Expr::Not(Box::new(self.lower(inner)?)),
            PExpr::Call(f, args) => Expr::Call(
                *f,
                args.iter()
                    .map(|a| self.lower(a))
                    .collect::<Result<_, _>>()?,
            ),
            PExpr::Agg(..) => return Err("aggregate in scalar context".into()),
        })
    }
}

fn contains_agg(e: &PExpr) -> bool {
    match e {
        PExpr::Agg(..) => true,
        PExpr::Col(_) | PExpr::Lit(_) => false,
        PExpr::Not(i) => contains_agg(i),
        PExpr::Bin(_, l, r) => contains_agg(l) || contains_agg(r),
        PExpr::Call(_, args) => args.iter().any(contains_agg),
    }
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

/// Parse a SQL string against a catalog into a [`ParsedQuery`], leaving
/// join order and strategy unbound.
pub(crate) fn parse_sql(sql: &str, catalog: &Catalog) -> Result<ParsedQuery, String> {
    let mut p = Parser {
        toks: lex(sql)?,
        pos: 0,
    };
    p.expect_kw("SELECT")?;
    let mut items: Vec<SelectItem> = Vec::new();
    loop {
        if p.sym("*") {
            items.push(SelectItem {
                expr: PExpr::Col("*".into()),
                alias: None,
            });
        } else {
            let expr = p.expr()?;
            let alias = if p.kw("AS") { Some(p.ident()?) } else { None };
            items.push(SelectItem { expr, alias });
        }
        if !p.sym(",") {
            break;
        }
    }
    p.expect_kw("FROM")?;
    let mut tables: Vec<FromTable> = Vec::new();
    loop {
        let table = p.ident()?;
        let def = catalog
            .get(&table)
            .ok_or_else(|| format!("unknown table '{table}'"))?;
        // Optional alias, with or without AS — but stop at keywords.
        let alias = if p.kw("AS") {
            p.ident()?
        } else if let Some(Tok::Ident(w)) = p.peek() {
            let kw = [
                "WHERE", "GROUP", "HAVING", "AND", "OR", "AS", "SELECT", "FROM", "WINDOW", "EPOCH",
                "RENEW",
            ];
            if kw.iter().any(|k| w.eq_ignore_ascii_case(k)) {
                table.clone()
            } else {
                p.ident()?
            }
        } else {
            table.clone()
        };
        tables.push(FromTable {
            alias,
            table: def.schema.name.clone(),
            schema: def.schema.clone(),
            pkey_col: def.pkey_col,
        });
        if !p.sym(",") {
            break;
        }
    }

    let where_expr = if p.kw("WHERE") { Some(p.expr()?) } else { None };
    let group_by: Vec<String> = if p.kw("GROUP") {
        p.expect_kw("BY")?;
        let mut cols = Vec::new();
        loop {
            let mut name = p.ident()?;
            if p.sym(".") {
                name = format!("{name}.{}", p.ident()?);
            }
            cols.push(name);
            if !p.sym(",") {
                break;
            }
        }
        cols
    } else {
        Vec::new()
    };
    let having = if p.kw("HAVING") {
        Some(p.expr()?)
    } else {
        None
    };
    let window = if p.kw("WINDOW") {
        Some(p.duration()?)
    } else {
        None
    };
    let epoch = if p.kw("EPOCH") {
        Some(p.duration()?)
    } else {
        None
    };
    let renew = if p.kw("RENEW") {
        Some(p.duration()?)
    } else {
        None
    };
    if p.peek().is_some() {
        return Err(format!("trailing tokens at {:?}", p.peek()));
    }

    // Expand `*` in FROM order so output columns are order-independent:
    // qualified names re-resolve correctly under any join order.
    let mut select: Vec<SelectItem> = Vec::new();
    for item in items {
        if item.expr == PExpr::Col("*".into()) {
            for t in &tables {
                for f in &t.schema.fields {
                    select.push(SelectItem {
                        expr: PExpr::Col(format!("{}.{}", t.alias, f.name)),
                        alias: None,
                    });
                }
            }
        } else {
            select.push(item);
        }
    }

    let mut cs = Vec::new();
    if let Some(w) = where_expr {
        conjuncts(w, &mut cs);
    }

    Ok(ParsedQuery {
        tables,
        select,
        conjuncts: cs,
        group_by,
        having,
        window,
        epoch,
        renew,
    })
}

/// WHERE conjuncts classified against one join order.
struct Classified {
    /// Single-table predicates per ordered table, remapped to each
    /// table's local columns (pushed to the scan).
    scan_preds: Vec<Vec<Expr>>,
    /// Cross-table equality edges as global column pairs, the end in the
    /// earlier-ordered table first; conjunct order preserved.
    edges: Vec<(usize, usize)>,
    /// Remaining conjuncts, evaluable only above a join (global basis).
    cross_preds: Vec<Expr>,
}

fn classify(resolver: &Resolver, conjs: &[PExpr]) -> Result<Classified, String> {
    let n = resolver.tables.len();
    let mut out = Classified {
        scan_preds: vec![Vec::new(); n],
        edges: Vec::new(),
        cross_preds: Vec::new(),
    };
    for pe in conjs {
        let lowered = resolver.lower(pe)?;
        let mut cols = Vec::new();
        lowered.columns(&mut cols);
        let mut ts: Vec<usize> = cols.iter().map(|&c| resolver.table_of(c)).collect();
        ts.sort_unstable();
        ts.dedup();
        if ts.len() <= 1 {
            // Single-table (or constant) predicate: push to that scan.
            let t = ts.first().copied().unwrap_or(0);
            let off = resolver.tables[t].offset;
            let local = lowered
                .remap_cols(&|c| Some(c - off))
                .map_err(|e| e.to_string())?;
            out.scan_preds[t].push(local);
            continue;
        }
        if let Expr::Bin(BinOp::Eq, a, b) = &lowered {
            if let (Expr::Col(x), Expr::Col(y)) = (a.as_ref(), b.as_ref()) {
                let (tx, ty) = (resolver.table_of(*x), resolver.table_of(*y));
                if tx != ty {
                    let (lo, hi) = if tx < ty { (*x, *y) } else { (*y, *x) };
                    out.edges.push((lo, hi));
                    continue;
                }
            }
        }
        out.cross_preds.push(lowered);
    }
    Ok(out)
}

/// Columns a parsed expression reads, descending into aggregate
/// arguments (which scalar lowering rejects), as global indices.
fn pexpr_columns(resolver: &Resolver, e: &PExpr, out: &mut Vec<usize>) -> Result<(), String> {
    match e {
        PExpr::Col(name) => {
            let c = resolver.col(name)?;
            if !out.contains(&c) {
                out.push(c);
            }
        }
        PExpr::Lit(_) => {}
        PExpr::Not(i) => pexpr_columns(resolver, i, out)?,
        PExpr::Bin(_, l, r) => {
            pexpr_columns(resolver, l, out)?;
            pexpr_columns(resolver, r, out)?;
        }
        PExpr::Call(_, args) => {
            for a in args {
                pexpr_columns(resolver, a, out)?;
            }
        }
        PExpr::Agg(_, arg) => {
            if let Some(a) = arg {
                pexpr_columns(resolver, a, out)?;
            }
        }
    }
    Ok(())
}

/// Join-graph summary the cost-based planner needs to pick an order:
/// per-table predicate presence, the equality edges as FROM-order
/// table-index pairs, and the required-columns analysis — which columns
/// of each table the dataflow must ever ship (join keys, columns of
/// residual cross-table predicates, and SELECT / GROUP BY /
/// aggregate-argument columns; columns read only by pushed-down scan
/// predicates are evaluated at the data's home node and never ship).
pub(crate) struct PlanInfo {
    pub(crate) table_names: Vec<String>,
    pub(crate) has_pred: Vec<bool>,
    pub(crate) edges: Vec<(usize, usize)>,
    /// Per FROM-order table: shipped columns as local indices, sorted.
    pub(crate) ship_cols: Vec<Vec<usize>>,
}

pub(crate) fn plan_info(p: &ParsedQuery) -> Result<PlanInfo, String> {
    let order: Vec<usize> = (0..p.tables.len()).collect();
    let resolver = Resolver::new(&p.tables, &order);
    let cls = classify(&resolver, &p.conjuncts)?;
    let mut shipped: Vec<usize> = Vec::new();
    for item in &p.select {
        pexpr_columns(&resolver, &item.expr, &mut shipped)?;
    }
    for g in &p.group_by {
        let c = resolver.col(g)?;
        if !shipped.contains(&c) {
            shipped.push(c);
        }
    }
    if let Some(h) = &p.having {
        // HAVING may reference select aliases; those resolve to columns
        // already collected from the SELECT list, so skip unknown names.
        let mut cols = Vec::new();
        if pexpr_columns(&resolver, h, &mut cols).is_ok() {
            for c in cols {
                if !shipped.contains(&c) {
                    shipped.push(c);
                }
            }
        }
    }
    for e in &cls.cross_preds {
        e.columns(&mut shipped);
    }
    for &(a, b) in &cls.edges {
        for c in [a, b] {
            if !shipped.contains(&c) {
                shipped.push(c);
            }
        }
    }
    let mut ship_cols: Vec<Vec<usize>> = vec![Vec::new(); p.tables.len()];
    for c in shipped {
        let t = resolver.table_of(c);
        ship_cols[t].push(c - resolver.tables[t].offset);
    }
    for cols in &mut ship_cols {
        cols.sort_unstable();
        cols.dedup();
    }
    Ok(PlanInfo {
        table_names: p.tables.iter().map(|t| t.table.clone()).collect(),
        has_pred: cls.scan_preds.iter().map(|v| !v.is_empty()).collect(),
        edges: cls
            .edges
            .iter()
            .map(|&(a, b)| (resolver.table_of(a), resolver.table_of(b)))
            .collect(),
        ship_cols,
    })
}

/// Aggregate lowering: collect distinct aggregate calls from SELECT and
/// HAVING, then rewrite both onto the `[groups..., aggs...]` basis.
fn build_agg(
    resolver: &Resolver,
    select: &[SelectItem],
    group_by: &[String],
    having: &Option<PExpr>,
) -> Result<AggSpec, String> {
    let group_cols: Vec<usize> = group_by
        .iter()
        .map(|g| resolver.col(g))
        .collect::<Result<_, _>>()?;
    // Collect distinct aggregate calls.
    let mut calls: Vec<(AggFunc, Option<PExpr>)> = Vec::new();
    fn collect(e: &PExpr, calls: &mut Vec<(AggFunc, Option<PExpr>)>) {
        match e {
            PExpr::Agg(f, arg) => {
                let key = (*f, arg.as_deref().cloned());
                if !calls.contains(&key) {
                    calls.push(key);
                }
            }
            PExpr::Bin(_, l, r) => {
                collect(l, calls);
                collect(r, calls);
            }
            PExpr::Not(i) => collect(i, calls),
            PExpr::Call(_, args) => args.iter().for_each(|a| collect(a, calls)),
            _ => {}
        }
    }
    for item in select {
        collect(&item.expr, &mut calls);
    }
    if let Some(h) = having {
        collect(h, &mut calls);
    }
    // Lower an expression onto the [groups..., aggs...] basis.
    struct AggLower<'a> {
        resolver: &'a Resolver,
        group_cols: &'a [usize],
        calls: &'a [(AggFunc, Option<PExpr>)],
        aliases: &'a [(String, Expr)],
    }
    impl AggLower<'_> {
        fn lower(&self, e: &PExpr) -> Result<Expr, String> {
            match e {
                PExpr::Agg(f, arg) => {
                    let idx = self
                        .calls
                        .iter()
                        .position(|(cf, ca)| cf == f && ca.as_ref() == arg.as_deref())
                        .unwrap();
                    Ok(Expr::Col(self.group_cols.len() + idx))
                }
                PExpr::Col(name) => {
                    // A select alias (e.g. HAVING cnt > 10)?
                    if let Some((_, e)) = self
                        .aliases
                        .iter()
                        .find(|(a, _)| a.eq_ignore_ascii_case(name))
                    {
                        return Ok(e.clone());
                    }
                    let base = self.resolver.col(name)?;
                    self.group_cols
                        .iter()
                        .position(|&g| g == base)
                        .map(Expr::Col)
                        .ok_or_else(|| format!("column '{name}' not in GROUP BY"))
                }
                PExpr::Lit(v) => Ok(Expr::Lit(v.clone())),
                PExpr::Bin(op, l, r) => Ok(Expr::bin(*op, self.lower(l)?, self.lower(r)?)),
                PExpr::Not(i) => Ok(Expr::Not(Box::new(self.lower(i)?))),
                PExpr::Call(f, args) => Ok(Expr::Call(
                    *f,
                    args.iter()
                        .map(|a| self.lower(a))
                        .collect::<Result<_, _>>()?,
                )),
            }
        }
    }
    let agg_calls: Vec<AggCall> = calls
        .iter()
        .map(|(f, arg)| {
            Ok(AggCall {
                func: *f,
                arg: arg.as_ref().map(|a| resolver.lower(a)).transpose()?,
            })
        })
        .collect::<Result<_, String>>()?;
    let mut aliases: Vec<(String, Expr)> = Vec::new();
    let mut output = Vec::new();
    for item in select {
        let lower = AggLower {
            resolver,
            group_cols: &group_cols,
            calls: &calls,
            aliases: &aliases,
        };
        let e = lower.lower(&item.expr)?;
        if let Some(a) = &item.alias {
            aliases.push((a.clone(), e.clone()));
        }
        output.push(e);
    }
    let having_expr = having
        .as_ref()
        .map(|h| {
            AggLower {
                resolver,
                group_cols: &group_cols,
                calls: &calls,
                aliases: &aliases,
            }
            .lower(h)
        })
        .transpose()?;
    let mut spec = AggSpec::new(group_cols, agg_calls);
    spec.output = output;
    spec.having = having_expr;
    Ok(spec)
}

/// Narrow a join's output projection to the columns its aggregation
/// reads (GROUP BY keys and aggregate arguments), remapping the
/// [`AggSpec`] onto the narrowed basis — the required-columns analysis
/// for aggregate queries, so the schema-aware dataflow never ships a
/// column the aggregation ignores. Returns the projection expressions.
fn narrow_agg_input(agg: &mut AggSpec) -> Vec<Expr> {
    let mut used = agg.group_cols.clone();
    for call in &agg.aggs {
        if let Some(a) = &call.arg {
            a.columns(&mut used);
        }
    }
    used.sort_unstable();
    used.dedup();
    let map = |c: usize| used.iter().position(|&u| u == c);
    agg.group_cols = agg.group_cols.iter().map(|&c| map(c).unwrap()).collect();
    for call in &mut agg.aggs {
        if let Some(a) = &mut call.arg {
            *a = a.remap_cols(&map).expect("agg argument column kept");
        }
    }
    used.into_iter().map(Expr::col).collect()
}

/// Lower a parsed query under a specific join order (a permutation of
/// the FROM tables). One table lowers to a scan or aggregation; two or
/// more to a left-deep [`JoinSpec`] pipeline — two tables under the
/// given strategy, longer pipelines as chained symmetric hash joins (the
/// `strategy` argument applies to two-table joins only).
pub(crate) fn lower_parsed(
    p: &ParsedQuery,
    order: &[usize],
    strategy: JoinStrategy,
) -> Result<QueryOp, String> {
    let n = p.tables.len();
    {
        let mut seen = vec![false; n];
        if order.len() != n {
            return Err("join order must cover every FROM table".into());
        }
        for &i in order {
            if i >= n || seen[i] {
                return Err("join order is not a permutation".into());
            }
            seen[i] = true;
        }
    }
    let resolver = Resolver::new(&p.tables, order);
    let mut cls = classify(&resolver, &p.conjuncts)?;

    let has_agg = !p.group_by.is_empty()
        || p.select.iter().any(|i| contains_agg(&i.expr))
        || p.having.as_ref().is_some_and(contains_agg);
    if p.epoch.is_some() && !has_agg {
        return Err("EPOCH requires aggregation (GROUP BY or aggregate calls)".into());
    }

    let make_scan = |t: &ResolvedTable, preds: Vec<Expr>| {
        let mut s = ScanSpec::new(&t.table, t.schema.arity(), t.pkey_col);
        if !preds.is_empty() {
            s.pred = Some(Expr::conjunction(preds));
        }
        s
    };

    let lower_select = |resolver: &Resolver| -> Result<Vec<Expr>, String> {
        p.select.iter().map(|i| resolver.lower(&i.expr)).collect()
    };

    match n {
        1 => {
            let scan = make_scan(&resolver.tables[0], std::mem::take(&mut cls.scan_preds[0]));
            if has_agg {
                let mut agg = build_agg(&resolver, &p.select, &p.group_by, &p.having)?;
                agg.epoch = p.epoch;
                Ok(QueryOp::Agg { scan, agg })
            } else {
                Ok(QueryOp::Scan {
                    scan,
                    project: lower_select(&resolver)?,
                })
            }
        }
        _ => {
            // Left-deep pipeline: stage k joins ordered table k + 1
            // against the accumulated prefix (one stage for two tables).
            let n_stages = n - 1;
            let mut stage_join: Vec<Option<(usize, usize)>> = vec![None; n_stages];
            let mut stage_preds: Vec<Vec<Expr>> = vec![Vec::new(); n_stages];
            for (lo, hi) in cls.edges {
                let th = resolver.table_of(hi);
                let k = th - 1;
                if stage_join[k].is_none() {
                    stage_join[k] = Some((lo, hi - resolver.tables[th].offset));
                } else {
                    // A second edge into the same table: checked as a
                    // stage predicate over the accumulated schema.
                    stage_preds[k].push(Expr::eq(Expr::col(lo), Expr::col(hi)));
                }
            }
            for e in cls.cross_preds {
                let mut cols = Vec::new();
                e.columns(&mut cols);
                let k = cols
                    .iter()
                    .map(|&c| resolver.table_of(c))
                    .max()
                    .expect("cross pred has columns")
                    - 1;
                stage_preds[k].push(e);
            }
            for (k, sj) in stage_join.iter().enumerate() {
                if sj.is_none() {
                    return Err(format!(
                        "no equality join predicate connects table '{}' to the preceding \
                         tables (cross products are unsupported)",
                        resolver.tables[k + 1].table
                    ));
                }
            }
            let base = make_scan(&resolver.tables[0], std::mem::take(&mut cls.scan_preds[0]));
            let stages: Vec<JoinStage> = (0..n_stages)
                .map(|k| {
                    let (left_col, right_col) = stage_join[k].unwrap();
                    let preds = std::mem::take(&mut cls.scan_preds[k + 1]);
                    JoinStage {
                        right: make_scan(&resolver.tables[k + 1], preds).with_join_col(right_col),
                        left_col,
                        stage_pred: if stage_preds[k].is_empty() {
                            None
                        } else {
                            Some(Expr::conjunction(std::mem::take(&mut stage_preds[k])))
                        },
                    }
                })
                .collect();
            let mut join = JoinSpec::pipeline(base, stages);
            if n_stages == 1 {
                join.strategy = strategy;
                join.check()?;
            }
            if has_agg {
                // The aggregation consumes only the columns it reads.
                let mut agg = build_agg(&resolver, &p.select, &p.group_by, &p.having)?;
                agg.epoch = p.epoch;
                join.project = narrow_agg_input(&mut agg);
                Ok(QueryOp::Join {
                    join,
                    agg: Some(agg),
                })
            } else {
                join.project = lower_select(&resolver)?;
                Ok(QueryOp::Join { join, agg: None })
            }
        }
    }
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
    let parsed = parse_sql(sql, catalog)?;
    if parsed.window.is_some() || parsed.epoch.is_some() || parsed.renew.is_some() {
        // A bare QueryOp has nowhere to carry the window, and an epoch
        // or renewal period only makes sense on a standing descriptor —
        // silently wrapping either in a one-shot would be a different
        // query.
        return Err(
            "WINDOW/EPOCH/RENEW make a query continuous — use parse_continuous_query".into(),
        );
    }
    let order: Vec<usize> = (0..parsed.n_tables()).collect();
    lower_parsed(&parsed, &order, strategy)
}

/// Parse a SQL string with optional `WINDOW` / `EPOCH` / `RENEW`
/// clauses into a complete standing [`QueryDesc`]: continuous, with the
/// window bound to the descriptor (rehashed soft-state lifetime), the
/// epoch bound to the aggregation spec (per-epoch re-emission), and the
/// renewal period bound to the descriptor (per-query soft-state
/// renewal). Plain SQL parses too — the result is then a continuous
/// query with no window, epoch, or renewal period.
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
    let order: Vec<usize> = (0..parsed.n_tables()).collect();
    let window = parsed.window;
    let renew = parsed.renew;
    let op = lower_parsed(&parsed, &order, strategy)?;
    let mut desc = QueryDesc::standing(qid, initiator, op, window);
    desc.renew_every = renew;
    Ok(desc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{reference_eval, same_multiset};
    use crate::tuple;
    use crate::tuple::Tuple;
    use std::collections::HashMap;

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
        let mut tables = HashMap::new();
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
        let mut tables = HashMap::new();
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
        assert!(desc.continuous);
        assert_eq!(desc.qid, 7);
        assert_eq!(desc.initiator, 3);
        assert_eq!(desc.window, Some(pier_simnet::time::Dur::from_secs(90)));
        let QueryOp::Agg { agg, .. } = &desc.op else {
            panic!("expected agg")
        };
        assert_eq!(agg.epoch, Some(pier_simnet::time::Dur::from_secs(30)));

        // Units: MS and MINUTES; bare numbers default to seconds.
        let desc = super::parse_continuous_query(
            "SELECT count(*) FROM intrusions WINDOW 2 MINUTES EPOCH 500 MS",
            &intr,
            JoinStrategy::SymmetricHash,
            8,
            0,
        )
        .unwrap();
        assert_eq!(desc.window, Some(pier_simnet::time::Dur::from_secs(120)));
        let QueryOp::Agg { agg, .. } = &desc.op else {
            panic!()
        };
        assert_eq!(agg.epoch, Some(pier_simnet::time::Dur::from_millis(500)));

        // Plain SQL through the continuous entry: standing, unwindowed.
        let desc = super::parse_continuous_query(
            "SELECT address FROM intrusions",
            &intr,
            JoinStrategy::SymmetricHash,
            9,
            0,
        )
        .unwrap();
        assert!(desc.continuous && desc.window.is_none());
    }

    #[test]
    fn renew_clause_binds_a_per_query_renewal_period() {
        let (_, intr) = catalogs();
        let desc = super::parse_continuous_query(
            "SELECT I.address, count(*) FROM intrusions I, advisories A \
             WHERE I.fingerprint = A.fingerprint \
             GROUP BY I.address EPOCH 30 SECONDS RENEW 45 SECONDS",
            &intr,
            JoinStrategy::SymmetricHash,
            11,
            0,
        )
        .unwrap();
        assert!(desc.continuous);
        assert_eq!(
            desc.renew_every,
            Some(pier_simnet::time::Dur::from_secs(45))
        );

        // RENEW alone makes a query standing (a renewed continuous join).
        let desc = super::parse_continuous_query(
            "SELECT I.address, R.weight FROM intrusions I, reputation R \
             WHERE I.address = R.address RENEW 20 SECONDS",
            &intr,
            JoinStrategy::SymmetricHash,
            12,
            0,
        )
        .unwrap();
        assert_eq!(
            desc.renew_every,
            Some(pier_simnet::time::Dur::from_secs(20))
        );
        assert!(desc.window.is_none());

        // One-shot entry points reject it…
        let err = parse_query(
            "SELECT address FROM intrusions RENEW 10 SECONDS",
            &intr,
            JoinStrategy::SymmetricHash,
        )
        .unwrap_err();
        assert!(err.contains("parse_continuous_query"), "{err}");
        // …and a window excludes renewal (windowed state must age out).
        let err = super::parse_continuous_query(
            "SELECT count(*) FROM intrusions WINDOW 60 SECONDS EPOCH 30 SECONDS RENEW 10 SECONDS",
            &intr,
            JoinStrategy::SymmetricHash,
            13,
            0,
        )
        .unwrap_err();
        assert!(err.contains("unwindowed"), "{err}");
        // Zero renewal periods are rejected like any other duration.
        assert!(super::parse_continuous_query(
            "SELECT count(*) FROM intrusions EPOCH 30 SECONDS RENEW 0",
            &intr,
            JoinStrategy::SymmetricHash,
            14,
            0,
        )
        .is_err());
    }

    #[test]
    fn epoch_requires_aggregation_and_window_requires_continuous() {
        let (_, intr) = catalogs();
        // Through the one-shot entry points both clauses are rejected.
        let err = parse_query(
            "SELECT address FROM intrusions EPOCH 10 SECONDS",
            &intr,
            JoinStrategy::SymmetricHash,
        )
        .unwrap_err();
        assert!(err.contains("parse_continuous_query"), "{err}");
        // EPOCH on a non-aggregate query is rejected at lowering.
        let err = super::parse_continuous_query(
            "SELECT address FROM intrusions EPOCH 10 SECONDS",
            &intr,
            JoinStrategy::SymmetricHash,
            1,
            0,
        )
        .unwrap_err();
        assert!(err.contains("EPOCH requires aggregation"), "{err}");
        let err = parse_query(
            "SELECT address FROM intrusions WINDOW 10 SECONDS",
            &intr,
            JoinStrategy::SymmetricHash,
        )
        .unwrap_err();
        assert!(err.contains("parse_continuous_query"), "{err}");
        // Zero and negative durations are rejected.
        assert!(super::parse_continuous_query(
            "SELECT count(*) FROM intrusions EPOCH 0",
            &intr,
            JoinStrategy::SymmetricHash,
            1,
            0,
        )
        .is_err());
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
