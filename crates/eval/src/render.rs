//! Plain-text rendering of tables and series (the bench binaries print
//! these).

/// Renders an aligned text table.
///
/// # Panics
///
/// Panics if a row's arity differs from the header's.
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row arity mismatch in table {title:?}");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let line = |cells: &[String], widths: &[usize]| -> String {
        let mut s = String::new();
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{cell:<w$}"));
        }
        s.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&line(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders an `(x, y)` series as `x<tab>y` lines under a `# title` header —
/// directly plottable with gnuplot/matplotlib.
pub fn series(title: &str, points: &[(f64, f64)]) -> String {
    let mut out = format!("# {title}\n");
    for (x, y) in points {
        out.push_str(&format!("{x}\t{y:.4}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            "Demo",
            &["Dataset", "Value"],
            &[vec!["Car".into(), "0.1".into()], vec!["Breast Cancer".into(), "0.25".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "Demo");
        assert!(lines[1].starts_with("Dataset"));
        assert!(lines[3].starts_with("Car"));
        // Both value columns start at the same offset.
        let off_a = lines[3].find("0.1").unwrap();
        let off_b = lines[4].find("0.25").unwrap();
        assert_eq!(off_a, off_b);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_checks_arity() {
        table("T", &["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn series_format() {
        let s = series("progress", &[(0.0, 0.5), (10.0, 0.75)]);
        assert!(s.starts_with("# progress\n0\t0.5000\n"));
        assert!(s.ends_with("10\t0.7500\n"));
    }
}
