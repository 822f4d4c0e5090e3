//! Table formatting shared by the harness binaries, and the machine hash.

/// One measured-vs-paper row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (function / component name).
    pub name: String,
    /// Column values, in table order.
    pub values: Vec<String>,
}

impl Row {
    /// Builds a row from anything displayable.
    pub fn new(name: impl Into<String>, values: &[&dyn std::fmt::Display]) -> Row {
        Row { name: name.into(), values: values.iter().map(|v| v.to_string()).collect() }
    }
}

/// Renders an aligned ASCII table with a title and column headers — the
/// buffered form, so a section can append its own notes before printing.
pub fn render_table(title: &str, headers: &[&str], rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "\n{title}").unwrap();
    writeln!(out, "{}", "=".repeat(title.len())).unwrap();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    let name_w = rows
        .iter()
        .map(|r| r.name.len())
        .chain(std::iter::once(headers.first().map_or(0, |h| h.len())))
        .max()
        .unwrap_or(10);
    for r in rows {
        for (i, v) in r.values.iter().enumerate() {
            if i + 1 < widths.len() {
                widths[i + 1] = widths[i + 1].max(v.len());
            }
        }
    }
    write!(out, "{:name_w$}", headers.first().copied().unwrap_or("")).unwrap();
    for (h, w) in headers.iter().skip(1).zip(widths.iter().skip(1)) {
        write!(out, "  {h:>w$}").unwrap();
    }
    out.push('\n');
    write!(out, "{}", "-".repeat(name_w)).unwrap();
    for w in widths.iter().skip(1) {
        write!(out, "  {}", "-".repeat(*w)).unwrap();
    }
    out.push('\n');
    for r in rows {
        write!(out, "{:name_w$}", r.name).unwrap();
        for (v, w) in r.values.iter().zip(widths.iter().skip(1)) {
            write!(out, "  {v:>w$}").unwrap();
        }
        out.push('\n');
    }
    out
}

/// Prints an aligned ASCII table with a title and column headers.
pub fn print_table(title: &str, headers: &[&str], rows: &[Row]) {
    print!("{}", render_table(title, headers, rows));
}

/// Formats a measured/paper pair as `measured (paper N)`.
pub fn vs_paper(measured: impl std::fmt::Display, paper: impl std::fmt::Display) -> String {
    format!("{measured} (paper {paper})")
}

/// FNV-1a over a byte string: the machine-identity hash. Two runs that
/// executed the same simulated work (same cycle totals, same telemetry)
/// hash identically, so benchmark reports can be diffed across hosts
/// whose wall-clock numbers legitimately differ.
pub fn machine_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`machine_hash`] over a list of identity words (cycle totals,
/// instruction totals) for benches that do not keep telemetry JSON around.
pub fn machine_hash_words(words: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    machine_hash(&bytes)
}
