//! Result emission: aligned stdout tables, CSV files and the
//! `BENCH_sweep.json` record.

use std::fs;
use std::io::{self, ErrorKind, Write as _};
use std::path::{Path, PathBuf};

use crate::json::Json;

/// A simple aligned table with a title, headers and string rows.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (printed above, used as the CSV file stem).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; each must match `headers` in length.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells);
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", c, width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&format!("{}\n", "-".repeat(total)));
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }

    /// Renders the table as a CSV document (headers first, RFC-4180
    /// quoting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&csv_line(&self.headers));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&csv_line(r));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV under `dir` (created if missing); the
    /// file name is derived from the title. Returns the path.
    pub fn save_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let stem: String = self
            .title
            .to_lowercase()
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("{stem}.csv"));
        let mut f = fs::File::create(&path)?;
        f.write_all(self.to_csv().as_bytes())?;
        Ok(path)
    }
}

fn csv_line(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| {
            if c.contains(',') || c.contains('"') || c.contains('\n') || c.contains('\r') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Formats an optional ratio with two decimals (`-` when missing).
pub fn fmt_ratio(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| format!("{x:.2}"))
}

/// Formats a float with the given precision.
pub fn fmt_f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// The default output directory for CSV series.
pub fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// The shared binary-output path: prints each table to stdout and
/// saves it as CSV under [`results_dir`], announcing the file (both
/// `repro` and `sweep` emit through this helper).
pub fn save_and_print(tables: &[Table]) {
    let dir = results_dir();
    for t in tables {
        t.print();
        match t.save_csv(&dir) {
            Ok(path) => println!("(saved {})", path.display()),
            Err(e) => eprintln!("warning: could not save CSV: {e}"),
        }
        println!();
    }
}

/// Sets the top-level `key` of the JSON object in the file at `path`
/// to `value`, creating the file when it does not exist (the `sweep`
/// and `repro` binaries share `BENCH_sweep.json` through this). An
/// existing entry for `key` is dropped and the new one appended; the
/// file is rewritten in the [`Json::to_pretty`] layout. A file that
/// does not parse as a JSON object is an `InvalidData` error and is
/// left untouched.
pub fn update_bench_json(path: &Path, key: &str, value: Json) -> io::Result<()> {
    let mut fields = match fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::Obj(fields)) => fields,
            Ok(_) => return Err(io::Error::new(ErrorKind::InvalidData, "not a JSON object")),
            Err(e) => return Err(io::Error::new(ErrorKind::InvalidData, e)),
        },
        Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    fields.retain(|(k, _)| k != key);
    fields.push((key.to_string(), value));
    fs::write(path, Json::Obj(fields).to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2.00".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, rule, two rows, plus the title line.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_line(&["a,b".to_string()]), "\"a,b\"");
        assert_eq!(
            csv_line(&["he said \"hi\"".to_string()]),
            "\"he said \"\"hi\"\"\""
        );
        assert_eq!(csv_line(&["plain".to_string(), "x".to_string()]), "plain,x");
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let dir = std::env::temp_dir().join("aql_emit_test");
        let mut t = Table::new("Fig X demo", &["k", "v"]);
        t.row(vec!["q".into(), "1".into()]);
        let path = t.save_csv(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("k,v\n"));
        assert!(content.contains("q,1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(Some(1.234)), "1.23");
        assert_eq!(fmt_ratio(None), "-");
        assert_eq!(fmt_f(0.5, 3), "0.500");
    }

    #[test]
    fn csv_quotes_embedded_newlines() {
        assert_eq!(csv_line(&["a\nb".to_string()]), "\"a\nb\"");
        assert_eq!(csv_line(&["a\rb".to_string()]), "\"a\rb\"");
        let mut t = Table::new("nl", &["v"]);
        t.row(vec!["two\nlines".into()]);
        assert_eq!(t.to_csv(), "v\n\"two\nlines\"\n");
    }

    fn wall(ms: f64) -> Json {
        Json::obj([("wall_ms", Json::decimal(ms, 3))])
    }

    /// A fresh scratch file for one bench-json test.
    fn bench_file(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aql_bench_json_{test}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("bench.json")
    }

    #[test]
    fn bench_json_inserts_and_replaces_keys() {
        let path = bench_file("upsert");
        // Creates the file when missing.
        update_bench_json(&path, "alpha", wall(1.5)).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert_eq!(doc, "{\n  \"alpha\": {\"wall_ms\": 1.500}\n}\n");
        // Adds a second key next to an existing one with nested
        // arrays/objects left intact.
        std::fs::write(
            &path,
            "{\n  \"speedup\": 1.2,\n  \"per_scenario\": [\n    {\"a\": 1}\n  ]\n}\n",
        )
        .unwrap();
        update_bench_json(&path, "repro", wall(3.25)).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.contains("\"speedup\": 1.2"), "{doc}");
        assert!(doc.contains("{\"a\": 1}"), "{doc}");
        assert!(doc.contains("\"repro\": {\"wall_ms\": 3.250}"), "{doc}");
        // Replaces on re-record instead of duplicating.
        update_bench_json(&path, "repro", wall(4.0)).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert_eq!(doc.matches("\"repro\"").count(), 1, "{doc}");
        assert!(doc.contains("{\"wall_ms\": 4.000}"), "{doc}");
        let _ = std::fs::remove_file(&path);
    }

    /// Updating a file holding `text` fails and leaves it as it was.
    fn assert_left_untouched(test: &str, text: &str) {
        let path = bench_file(test);
        std::fs::write(&path, text).unwrap();
        let err = update_bench_json(&path, "k", wall(1.0)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bench_json_leaves_unparseable_text_untouched() {
        assert_left_untouched("reversed", "}{");
    }

    #[test]
    fn bench_json_leaves_a_top_level_array_untouched() {
        assert_left_untouched("array", r#"[{"a": 1}, {"b": 2}]"#);
    }

    #[test]
    fn bench_json_escapes_keys() {
        let path = bench_file("escape");
        update_bench_json(&path, "we\"ird", wall(1.0)).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.contains(r#""we\"ird": {"#), "{doc}");
        assert_eq!(Json::parse(&doc).unwrap().get("we\"ird"), Some(&wall(1.0)));
        let _ = std::fs::remove_file(&path);
    }
}
