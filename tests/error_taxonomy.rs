//! No non-test `pub fn` of the eight datapath crates returns
//! `Result<_, String | &str | Box<dyn …>>`: their errors are typed.

use std::path::Path;

/// The error argument of the first `Result<…>` after `->` in `sig`.
fn result_error(sig: &str) -> Option<&str> {
    let args = sig.split_once("->")?.1.split_once("Result<")?.1;
    let (mut depth, mut comma) = (0, None);
    for (i, c) in args.char_indices() {
        match c {
            '<' | '(' => depth += 1,
            ',' if depth == 0 => comma = Some(i + 1),
            '>' | ')' if depth == 0 => return Some(args.get(comma?..i)?.trim()),
            '>' | ')' => depth -= 1,
            _ => {}
        }
    }
    None
}

/// Push every stringly-typed `pub fn` signature in the file at `path`
/// onto `out`, skipping the item after each `#[cfg(test)]`.
fn stringly(path: &Path, out: &mut Vec<String>) {
    let (mut sig, mut skip, mut depth) = (String::new(), false, 0);
    for line in std::fs::read_to_string(path).unwrap().lines() {
        let t = line.split("//").next().unwrap_or_default().trim();
        if skip || t.starts_with("#[cfg(test)]") {
            depth += t.matches('{').count() as i32 - t.matches('}').count() as i32;
            skip = depth > 0 || !(t.ends_with('}') || t.ends_with(';'));
        } else if !sig.is_empty() || t.starts_with("pub fn") || t.starts_with("pub(crate) fn") {
            sig.push_str(t);
            if t.contains('{') || t.ends_with(';') {
                let e = result_error(&sig).unwrap_or_default().replace('&', "& ");
                if e == "String" || e.starts_with("Box<dyn") || e.ends_with(" str") {
                    out.push(format!("{}: {}", path.display(), sig.trim()));
                }
                sig.clear();
            }
        }
    }
}

#[test]
fn datapath_results_carry_typed_errors() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let crates = "core net pipeline mem data crypto regex sim".split(' ');
    let (mut dirs, mut found): (Vec<_>, _) =
        (crates.map(|k| root.join(k).join("src")).collect(), vec![]);
    while let Some(dir) = dirs.pop() {
        for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                stringly(&path, &mut found);
            }
        }
    }
    assert_eq!(found, [""; 0], "stringly-typed datapath errors");
}
