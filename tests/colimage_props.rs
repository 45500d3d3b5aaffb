//! Property-based guarantees of the columnar table image and the
//! disk-backed tier ladder: for **any** fixed-stride schema (every
//! column type, ragged row counts) the encode → open → re-materialize
//! cycle is byte-identical to the row-format oracle; any corrupted or
//! truncated image yields a typed [`CodecError`] (never a panic); and
//! a replicated fleet pool returns byte-identical results across
//! evict → restage → rebalance, sourced from whichever tier happens to
//! hold the slices.

use proptest::prelude::*;

use farview::prelude::*;
use farview_core::{BlockStore, FleetConn, TierLevel, TieredPool};
use fv_data::colimage::{checksum64, COLIMAGE_MAGIC, COLIMAGE_VERSION};
use fv_data::{schema_fingerprint, CodecError, Column, ColumnImage, ColumnType, TableBuilder};

/// A random fixed-stride schema: 1–6 columns drawn from every
/// [`ColumnType`], byte-string widths 1–12 (so rows are *not* always
/// word-aligned).
fn arb_schema() -> impl Strategy<Value = Schema> {
    prop::collection::vec(
        prop_oneof![
            Just(ColumnType::U64),
            Just(ColumnType::I64),
            Just(ColumnType::F64),
            (1usize..=12).prop_map(ColumnType::Bytes),
        ],
        1..=6,
    )
    .prop_map(|tys| {
        Schema::new(
            tys.into_iter()
                .enumerate()
                .map(|(i, ty)| Column {
                    name: format!("c{i}"),
                    ty,
                })
                .collect(),
        )
    })
}

/// Materialize one cell of type `ty` from a `u64` seed.
fn cell(ty: ColumnType, seed: u64) -> Value {
    match ty {
        ColumnType::U64 => Value::U64(seed),
        ColumnType::I64 => Value::I64(seed as i64),
        ColumnType::F64 => Value::F64((seed % 10_000) as f64 * 0.25),
        ColumnType::Bytes(w) => Value::Bytes(seed.to_le_bytes()[..w.min(8)].to_vec()),
    }
}

/// A random table over a random mixed-type schema with a ragged row
/// count in `1..=max_rows`.
fn arb_table(max_rows: usize) -> impl Strategy<Value = Table> {
    arb_table_of(arb_schema(), 1..=max_rows)
}

/// Schemas the transpose kernel's two loops see at their edges: odd
/// byte-string widths (1, 3, 13) beside word columns, down to a single
/// column.
fn arb_kernel_schema() -> impl Strategy<Value = Schema> {
    prop::collection::vec(
        prop_oneof![
            Just(ColumnType::U64),
            Just(ColumnType::Bytes(1)),
            Just(ColumnType::Bytes(3)),
            Just(ColumnType::Bytes(13)),
        ],
        1..=5,
    )
    .prop_map(|tys| {
        let col = |(i, ty)| Column {
            name: format!("k{i}"),
            ty,
        };
        Schema::new(tys.into_iter().enumerate().map(col).collect())
    })
}

/// Row counts around the kernel's 128-row tile, plus a random one.
fn arb_kernel_rows() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(127usize),
        Just(128usize),
        Just(129usize),
        0usize..=700,
    ]
}

/// The image format written out one value at a time, straight from the
/// layout table in `fv_data::colimage` — the encoder the tiled kernel
/// must stay byte-identical to.
fn reference_encode(table: &Table) -> Vec<u8> {
    let (schema, rows) = (table.schema(), table.row_count());
    let cols = schema.column_count();
    let rb = schema.row_bytes();
    let total = 64 + 16 * cols + rows * rb;
    let mut out = Vec::new();
    out.extend_from_slice(&COLIMAGE_MAGIC);
    out.extend_from_slice(&COLIMAGE_VERSION.to_le_bytes());
    out.extend_from_slice(&(cols as u32).to_le_bytes());
    out.extend_from_slice(&(rows as u64).to_le_bytes());
    out.extend_from_slice(&schema_fingerprint(schema).to_le_bytes());
    out.extend_from_slice(&[0u8; 8]);
    out.extend_from_slice(&(total as u64).to_le_bytes());
    out.extend_from_slice(&[0u8; 16]);
    let mut off = 64 + 16 * cols;
    for c in 0..cols {
        let len = rows * schema.column(c).ty.width();
        out.extend_from_slice(&(off as u64).to_le_bytes());
        out.extend_from_slice(&(len as u64).to_le_bytes());
        off += len;
    }
    for c in 0..cols {
        for r in 0..rows {
            let at = r * rb + schema.offset(c);
            out.extend_from_slice(&table.bytes()[at..at + schema.column(c).ty.width()]);
        }
    }
    let sum = checksum64(&out[64..]);
    out[32..40].copy_from_slice(&sum.to_le_bytes());
    out
}

/// A random table over `schema` with a row count drawn from `rows`.
fn arb_table_of(
    schema: impl Strategy<Value = Schema>,
    rows: impl Strategy<Value = usize>,
) -> impl Strategy<Value = Table> {
    (schema, rows).prop_flat_map(|(schema, rows)| {
        let tys: Vec<ColumnType> = schema.columns().iter().map(|c| c.ty).collect();
        prop::collection::vec(prop::collection::vec(any::<u64>(), tys.len()), rows).prop_map(
            move |seeds| {
                let mut b = TableBuilder::with_capacity(schema.clone(), seeds.len());
                for row in seeds {
                    b.push_values(
                        row.into_iter()
                            .zip(&tys)
                            .map(|(s, &ty)| cell(ty, s))
                            .collect(),
                    );
                }
                b.build()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tiled transpose, both directions, against the obvious code:
    /// `encode` is byte-identical to the per-value reference encoder
    /// (format and checksum unchanged), and `write_rows_into(lo, hi)`
    /// appends exactly rows `lo..hi` of the row image after whatever
    /// the buffer already held — across tile edges, odd widths, empty
    /// tables and empty ranges.
    #[test]
    fn tiled_transpose_matches_the_per_value_reference(
        table in arb_table_of(arb_kernel_schema(), arb_kernel_rows()),
        bounds in (any::<u64>(), any::<u64>()),
        prefix in prop::collection::vec(any::<u8>(), 0..=9),
    ) {
        let img = ColumnImage::encode(&table);
        prop_assert_eq!(&img, &reference_encode(&table));

        let opened = ColumnImage::open(&img, table.schema()).expect("open a fresh image");
        let rows = table.row_count();
        let (a, b) = (bounds.0 as usize % (rows + 1), bounds.1 as usize % (rows + 1));
        let (lo, hi) = (a.min(b), a.max(b));
        let rb = table.schema().row_bytes();
        let mut out = prefix.clone();
        opened.write_rows_into(lo, hi, &mut out);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &table.bytes()[lo * rb..hi * rb]);
        prop_assert_eq!(opened.to_table().bytes(), table.bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Encode → open → re-materialize is the identity on the row image,
    /// and every column slice equals a hand gather off the row bytes.
    #[test]
    fn image_round_trips_any_fixed_stride_table(table in arb_table(96)) {
        let img = ColumnImage::encode(&table);
        let opened = ColumnImage::open(&img, table.schema()).expect("open a fresh image");
        prop_assert_eq!(opened.row_count(), table.row_count());

        let back = opened.to_table();
        prop_assert_eq!(back.bytes(), table.bytes());
        prop_assert_eq!(back.schema(), table.schema());

        let rb = table.schema().row_bytes();
        for c in 0..table.schema().column_count() {
            let slice = opened.col(c);
            let off = table.schema().offset(c);
            let w = table.schema().column(c).ty.width();
            let gathered: Vec<u8> = (0..table.row_count())
                .flat_map(|r| table.bytes()[r * rb + off..r * rb + off + w].to_vec())
                .collect();
            prop_assert_eq!(slice.bytes(), &gathered[..], "column {} slice diverged", c);
        }
    }

    /// A query answered off the disk tier (cold stage-in through the
    /// column image) is byte-identical to the same query against a
    /// directly loaded row table — for any fixed-stride schema.
    #[test]
    fn tiered_query_matches_direct_execution(
        table in arb_table(64),
        keep in any::<u64>(),
    ) {
        let col = keep as usize % table.schema().column_count();
        let specs = [
            PipelineSpec::passthrough(),
            PipelineSpec::passthrough().project(vec![col]),
        ];
        let c = FarviewCluster::new(FarviewConfig::tiny());
        let qp = c.connect().unwrap();
        let (ft, _) = qp.load_table(&table).unwrap();
        let mut pool = TieredPool::new(&qp, 8 << 20, BlockStore::default());
        pool.insert("t", &table).unwrap();
        for spec in &specs {
            let direct = qp.far_view(&ft, spec).unwrap();
            let tiered = pool.query("t", spec).unwrap();
            prop_assert_eq!(&tiered.outcome.payload, &direct.payload);
            prop_assert_eq!(&tiered.outcome.schema, &direct.schema);
        }
    }

    /// Any single-bit flip anywhere in an image is caught at
    /// [`ColumnImage::open`] as a typed [`CodecError`] — header,
    /// directory, data, and checksum bytes alike. Never a panic.
    #[test]
    fn bit_flips_yield_typed_errors(
        table in arb_table(48),
        pos in any::<u64>(),
        bit in 0u32..8,
    ) {
        let mut img = ColumnImage::encode(&table);
        let at = pos as usize % img.len();
        img[at] ^= 1 << bit;
        let res = ColumnImage::open(&img, table.schema());
        prop_assert!(
            res.is_err(),
            "flipping bit {} of byte {} went undetected",
            bit,
            at
        );
    }

    /// Every strict prefix of an image fails to open with a typed
    /// error; the boundary cases (empty buffer, header-only) included.
    #[test]
    fn truncation_yields_typed_errors(
        table in arb_table(48),
        cut in any::<u64>(),
    ) {
        let img = ColumnImage::encode(&table);
        let at = cut as usize % img.len(); // 0..len, strictly short of len
        let res = ColumnImage::open(&img[..at], table.schema());
        prop_assert!(res.is_err(), "truncation to {} bytes went undetected", at);
        // The shape of the error is part of the contract: truncation is
        // reported as a length problem, not a checksum coincidence.
        if at < 64 {
            prop_assert!(
                matches!(res, Err(CodecError::Truncated { .. })),
                "sub-header truncation must report Truncated, got {:?}",
                res
            );
        }
    }

    /// A replicated (`r = 2`) fleet pool returns byte-identical results
    /// through the full tier ladder: cold disk stage-in, eviction under
    /// DRAM pressure, cheap far-memory restage, and a topology
    /// rebalance (grow *and* shrink) that forces restaging into the
    /// current placement.
    #[test]
    fn fleet_replicated_tier_is_byte_identical_across_churn(
        table in arb_table(128),
        filler in arb_table(96),
    ) {
        let spec = PipelineSpec::passthrough();
        // Oracle: the same query on a plain single-node cluster.
        let c = FarviewCluster::new(FarviewConfig::tiny());
        let oqp = c.connect().unwrap();
        let (oft, _) = oqp.load_table(&table).unwrap();
        let oracle = oqp.far_view(&oft, &spec).unwrap();

        let fleet = FarviewFleet::new(3, FarviewConfig::tiny());
        // DRAM budget fits both copies of the larger of the two tables
        // but never both tables, so staging the filler always evicts the
        // table under test.
        let budget = 2 * table.byte_len().max(filler.byte_len()) as u64;
        let conn =
            FleetConn::new(fleet.connect().unwrap(), Partitioning::RowRange).with_replication(2);
        let mut pool = TieredPool::new(&conn, budget, BlockStore::default());
        pool.insert("t", &table).unwrap();
        pool.insert("filler", &filler).unwrap();

        // Cold: staged off the device.
        let cold = pool.query("t", &spec).unwrap();
        prop_assert_eq!(cold.staged_from, Some(TierLevel::Disk));
        prop_assert_eq!(&cold.outcome.merged.payload, &oracle.payload);

        // Evict it by staging the filler, then re-query: the far-memory
        // image satisfies the restage without device reads.
        pool.query("filler", &spec).unwrap();
        prop_assert!(!pool.is_resident("t"), "filler must evict the table");
        let again = pool.query("t", &spec).unwrap();
        prop_assert_eq!(again.staged_from, Some(TierLevel::FarMemory));
        prop_assert_eq!(pool.io_counts().0, 2, "one device read per cold image");
        prop_assert_eq!(&again.outcome.merged.payload, &oracle.payload);

        // Grow the fleet: the placement goes stale and the next query
        // restages onto the 4-node shard set.
        fleet.add_node();
        let grown = pool.query("t", &spec).unwrap();
        prop_assert!(grown.restaged, "epoch bump must force a restage");
        prop_assert_eq!(&grown.outcome.merged.payload, &oracle.payload);

        // Shrink it again (`r = 2` tolerates the loss): another epoch
        // bump, another restage, same bytes.
        let victim = fleet.add_node();
        fleet.remove_node(victim).unwrap();
        fleet.add_node();
        let reshuffled = pool.query("t", &spec).unwrap();
        prop_assert!(reshuffled.restaged);
        prop_assert_eq!(&reshuffled.outcome.merged.payload, &oracle.payload);
    }
}
