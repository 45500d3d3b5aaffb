//! Figure data model and rendering.

/// One labelled series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. `"FV"`, `"LCPU"`).
    pub name: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

/// One reproduced figure or table.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier (e.g. `"fig8a"`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Construct an empty figure.
    pub fn new(id: &str, title: &str, x_label: &str, y_label: &str) -> Self {
        Figure {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
        }
    }

    /// Add a series.
    pub fn push_series(&mut self, name: &str, points: Vec<(f64, f64)>) {
        self.series.push(Series {
            name: name.to_string(),
            points,
        });
    }

    /// Look a series up by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Render as a markdown table: one row per x value, one column per
    /// series (the format `EXPERIMENTS.md` embeds).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("| {} ", self.x_label));
        for s in &self.series {
            out.push_str(&format!("| {} ", s.name));
        }
        out.push_str("|\n|---");
        for _ in &self.series {
            out.push_str("|---");
        }
        out.push_str("|\n");

        // Union of x values, sorted.
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x"));
        xs.dedup();
        for x in xs {
            out.push_str(&format!("| {} ", fmt_x(x)));
            for s in &self.series {
                match s.points.iter().find(|p| p.0 == x) {
                    Some(&(_, y)) => out.push_str(&format!("| {y:.2} ")),
                    None => out.push_str("| – "),
                }
            }
            out.push_str("|\n");
        }
        out
    }

    /// Render as CSV (`x,series,y` long format).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("x,series,y\n");
        for s in &self.series {
            for &(x, y) in &s.points {
                out.push_str(&format!("{x},{},{y}\n", s.name));
            }
        }
        out
    }
}

/// Human-size x labels (powers of two render as 64k, 1M, ...).
fn fmt_x(x: f64) -> String {
    let v = x as u64;
    if x.fract() != 0.0 {
        return format!("{x}");
    }
    if v >= 1 << 20 && v.is_multiple_of(1 << 20) {
        format!("{}M", v >> 20)
    } else if v >= 1 << 10 && v.is_multiple_of(1 << 10) {
        format!("{}k", v >> 10)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut f = Figure::new("figX", "demo", "size", "us");
        f.push_series("A", vec![(1024.0, 1.0), (2048.0, 2.0)]);
        f.push_series("B", vec![(1024.0, 3.0)]);
        let md = f.to_markdown();
        assert!(md.contains("| 1k | 1.00 | 3.00 |"));
        assert!(md.contains("| 2k | 2.00 | – |"));
        assert!(md.starts_with("### figX — demo"));
    }

    #[test]
    fn csv_rendering() {
        let mut f = Figure::new("f", "t", "x", "y");
        f.push_series("S", vec![(1.0, 2.0)]);
        assert_eq!(f.to_csv(), "x,series,y\n1,S,2\n");
    }

    #[test]
    fn x_formatting() {
        assert_eq!(fmt_x(65536.0), "64k");
        assert_eq!(fmt_x(1048576.0), "1M");
        assert_eq!(fmt_x(100.0), "100");
        assert_eq!(fmt_x(0.5), "0.5");
    }
}
