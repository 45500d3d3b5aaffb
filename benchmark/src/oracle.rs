//! The correctness gate's reference: lower a [`PipelineSpec`] onto the
//! independent `fv-baseline` [`CpuEngine`] and return the bytes the
//! offloaded pipeline must reproduce exactly.
//!
//! The lowering walks the spec in the pipeline's physical stage order
//! (decrypt → selection → regex → join → grouping → projection), one
//! `CpuEngine` call per stage over an intermediate table. Shapes the
//! benchmark never issues (compressed / encrypted output, smart
//! addressing) are refused rather than guessed at.

use farview::baseline::{BaselineKind, CpuEngine};
use farview::data::Table;
use farview::pipeline::{GroupingSpec, PipelineSpec, PredicateExpr};

/// The payload a correct execution of `spec` over `table` returns.
pub fn expected_payload(table: &Table, spec: &PipelineSpec) -> Result<Vec<u8>, String> {
    if spec.compress_output || spec.encrypt_output.is_some() || spec.smart_addressing {
        return Err("oracle does not cover compressed/encrypted/smart-addressed output".into());
    }
    let cpu = CpuEngine::new(BaselineKind::Lcpu);
    let retable = |schema, payload| Table::from_bytes(schema, payload);

    let mut current: Table = match &spec.decrypt_input {
        Some(c) => {
            let out = cpu.decrypt_read(table, &c.key, &c.iv);
            retable(out.schema, out.payload)
        }
        None => table.clone(),
    };
    let projection = spec.projection.as_deref();
    let last_is_scan = spec.regex.is_none() && spec.join.is_none() && spec.grouping.is_none();

    if spec.selection.is_some() || (last_is_scan && projection.is_some()) {
        let pred = spec.selection.clone().unwrap_or(PredicateExpr::True);
        // A projection rides the scan only when nothing downstream
        // still needs the full row.
        let cols = if last_is_scan { projection } else { None };
        let out = cpu.select(&current, &pred, cols);
        if last_is_scan {
            return Ok(out.payload);
        }
        current = retable(out.schema, out.payload);
    }
    if let Some(rf) = &spec.regex {
        let out = cpu.regex_match(&current, rf.col, &rf.pattern);
        current = retable(out.schema, out.payload);
    }
    if let Some(j) = &spec.join {
        let build = Table::from_bytes(j.build_schema.clone(), j.build_rows.clone());
        let out = cpu.join_small(&current, j.probe_col, &build, j.build_key);
        current = retable(out.schema, out.payload);
    }
    match &spec.grouping {
        Some(GroupingSpec::Distinct { cols }) => return Ok(cpu.distinct(&current, cols).payload),
        Some(GroupingSpec::GroupBy { keys, aggs }) => {
            return Ok(cpu.group_by(&current, keys, aggs).payload)
        }
        None => {}
    }
    Ok(match projection {
        Some(cols) => {
            cpu.select(&current, &PredicateExpr::True, Some(cols))
                .payload
        }
        None => current.bytes().to_vec(),
    })
}
