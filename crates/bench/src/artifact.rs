//! The one writer of experiment output. Every experiment builds an
//! [`Artifact`] — scalar meta fields, then rows of `key → cell` — and
//! [`Artifact::emit`] prints it as an aligned table and writes it as
//! `results/BENCH_<name>.json`. Each value is rendered once, so the
//! table and the file cannot disagree, and this module is the only
//! place that knows the file format.

use std::fmt::Write as _;

/// One value, rendered at construction to its JSON text (the table
/// shows the same text, minus a string's quotes).
pub struct Cell {
    json: String,
    host: bool,
}

impl Cell {
    /// A float at fixed precision; a non-finite one renders as `null`.
    pub fn f(v: f64, prec: usize) -> Cell {
        let json = v.is_finite().then(|| format!("{v:.prec$}"));
        let json = json.unwrap_or_else(|| "null".into());
        Cell { json, host: false }
    }

    /// Marks a property of the host, not of the code (wall-clock time,
    /// core count): printed, never written. What is written is then a
    /// function of the seed alone, so `git diff -- results/` is the gate.
    pub fn host(self) -> Cell {
        Cell { host: true, ..self }
    }

    fn text(&self) -> &str {
        self.json.trim_matches('"')
    }
}

macro_rules! cell_from {
    ($($t:ty => $fmt:literal),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Cell {
                Cell { json: format!($fmt, v), host: false }
            }
        }
    )*};
}
cell_from!(usize => "{}", u64 => "{}", u32 => "{}", bool => "{}", &str => "{:?}", String => "{:?}");

type Fields = Vec<(&'static str, Cell)>;

/// One experiment's output: see the module docs.
pub struct Artifact {
    name: &'static str,
    meta: Fields,
    rows: Vec<Fields>,
}

impl Artifact {
    pub fn new(name: &'static str) -> Self {
        Artifact {
            name,
            meta: vec![("experiment", name.into())],
            rows: Vec::new(),
        }
    }

    /// Appends a scalar field describing the whole run.
    pub fn meta(&mut self, key: &'static str, cell: impl Into<Cell>) {
        self.meta.push((key, cell.into()));
    }

    /// Appends a row; rows need not share a key set.
    pub fn row(&mut self, cells: impl IntoIterator<Item = (&'static str, Cell)>) {
        self.rows.push(cells.into_iter().collect());
    }

    /// The persisted form: meta fields, then one object per row, keys in
    /// insertion order, host cells left out.
    pub fn json(&self) -> String {
        let object = |fields: &Fields| -> Vec<String> {
            let kept = fields.iter().filter(|(_, c)| !c.host);
            kept.map(|(k, c)| format!("\"{k}\": {}", c.json)).collect()
        };
        let meta: String = object(&self.meta)
            .iter()
            .map(|f| format!("  {f},\n"))
            .collect();
        let rows = self.rows.iter().map(|r| object(r).join(", "));
        let rows: Vec<String> = rows.map(|r| format!("    {{{r}}}")).collect();
        format!("{{\n{meta}  \"rows\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
    }

    /// The printed form: every cell, host ones included, one column per
    /// key in order of first appearance, `-` where a row lacks the key.
    pub fn table(&self) -> String {
        let mut out = format!("\n== {} ==\n", self.name);
        for (k, c) in &self.meta[1..] {
            let _ = writeln!(out, "{k}: {}", c.text());
        }
        // Column-major: each column is its key, then one text per row.
        let mut cols: Vec<Vec<&str>> = Vec::new();
        for (key, _) in self.rows.iter().flatten() {
            if cols.iter().all(|col| col[0] != *key) {
                let texts = self.rows.iter().map(|row| {
                    let cell = row.iter().find(|(k, _)| k == key);
                    cell.map_or("-", |(_, c)| c.text())
                });
                cols.push(std::iter::once(*key).chain(texts).collect());
            }
        }
        for n in 0..=self.rows.len() {
            let width = |col: &Vec<&str>| col.iter().map(|t| t.len()).max().unwrap_or(0);
            let pad = |col: &Vec<&str>| format!("{:>w$}", col[n], w = width(col));
            let line = cols.iter().map(pad).collect::<Vec<_>>().join("  ");
            let _ = writeln!(out, "{line}");
            if n == 0 {
                let _ = writeln!(out, "{}", "-".repeat(line.len()));
            }
        }
        out
    }

    /// Prints the table; writes `BENCH_<name>.json` to [`crate::results_dir`].
    pub fn emit(&self) {
        println!("{}", self.table());
        let dir = crate::results_dir();
        std::fs::create_dir_all(&dir).expect("create the results directory");
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.json()).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    }
}
