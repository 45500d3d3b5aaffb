//! Property-based guarantees of the table image and the disk-backed
//! tier ladder: for **any** fixed-stride schema (every column type,
//! ragged row counts) encode → open lends back the table's rows
//! byte for byte; any truncated image, any single-byte flip and any
//! perturbed header field yields a typed [`CodecError`] (never a panic,
//! and an `Ok` only with the rows intact); and a replicated fleet pool
//! returns byte-identical results across evict → restage → rebalance,
//! sourced from whichever tier happens to hold the table.

use proptest::prelude::*;

use farview::prelude::*;
use farview_core::{BlockStore, FleetConn, TierLevel, TieredPool};
use fv_data::colimage::{checksum64, IMAGE_HEADER_LEN, IMAGE_MAGIC, IMAGE_VERSION};
use fv_data::{
    schema_fingerprint, CodecError, Column, ColumnImage, ColumnType, RowImage, TableBuilder,
};

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

/// The image format written out field by field, straight from the
/// layout table in `fv_data::colimage`: the header, then the rows.
fn reference_encode(table: &Table) -> Vec<u8> {
    let rows = table.row_count();
    let mut out = Vec::new();
    out.extend_from_slice(&IMAGE_MAGIC);
    out.extend_from_slice(&IMAGE_VERSION.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(&(rows as u64).to_le_bytes());
    out.extend_from_slice(&schema_fingerprint(table.schema()).to_le_bytes());
    out.extend_from_slice(&[0u8; 8]);
    out.extend_from_slice(&((64 + table.byte_len()) as u64).to_le_bytes());
    out.extend_from_slice(&[0u8; 16]);
    reseal(&mut out[..64], table.bytes());
    out.extend_from_slice(table.bytes());
    out
}

/// Write the checksum `header` and `rows` make into `header`: FNV-1a
/// words folded from the offset basis — [`checksum64`] of each 2 MiB
/// page of rows, then every header word but the checksum's own.
fn reseal(header: &mut [u8], rows: &[u8]) {
    let pages = rows.chunks(2 << 20).map(checksum64);
    let words = header.chunks_exact(8).enumerate().filter(|&(i, _)| i != 4);
    let words = words.map(|(_, w)| u64::from_le_bytes(w.try_into().unwrap()));
    let sum = pages.chain(words).fold(0xcbf2_9ce4_8422_2325, |h: u64, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    });
    header[32..40].copy_from_slice(&sum.to_le_bytes());
}

/// The header's fields as `(offset, length)`, reserved words included.
const HEADER_FIELDS: [(usize, usize); 8] = [
    (0, 8),   // magic
    (8, 4),   // version
    (12, 4),  // reserved
    (16, 8),  // row count
    (24, 8),  // schema fingerprint
    (32, 8),  // checksum
    (40, 8),  // length
    (48, 16), // reserved
];

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

    /// `encode` is byte-identical to the field-by-field reference
    /// encoder, and opening its output lends back exactly the table's
    /// rows — empty tables and odd row widths included.
    #[test]
    fn encode_matches_the_per_field_reference(table in arb_table_of(arb_schema(), 0usize..=200)) {
        let img = ColumnImage::encode(&table);
        prop_assert_eq!(&img, &reference_encode(&table));
        let opened = ColumnImage::open(&img, table.schema()).expect("open a fresh image");
        prop_assert_eq!(opened.rows(), table.bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Encode → open is the identity on the rows, and the row count and
    /// schema come back as they went in.
    #[test]
    fn image_round_trips_any_fixed_stride_table(table in arb_table(96)) {
        let img = RowImage::encode(&table);
        let opened = RowImage::open(&img, table.schema()).expect("open a fresh image");
        prop_assert_eq!(opened.row_count(), table.row_count());
        prop_assert_eq!(opened.schema(), table.schema());
        prop_assert_eq!(opened.rows(), table.bytes());
    }

    /// A query answered off the disk tier (cold stage-in through the
    /// table image) is byte-identical to the same query against a
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

    /// Any single-byte flip anywhere in an image — every header byte
    /// and every row byte, each xored with one mask — is caught at
    /// [`RowImage::open`] as a typed [`CodecError`]. Never a panic, and
    /// never an `Ok`.
    #[test]
    fn bit_flips_yield_typed_errors(table in arb_table(16), mask in 1u8..=255) {
        let img = RowImage::encode(&table);
        let mut bad = img.clone();
        for at in 0..img.len() {
            bad[at] ^= mask;
            let res = RowImage::open(&bad, table.schema());
            prop_assert!(res.is_err(), "flipping byte {} by {:#04x} went undetected", at, mask);
            bad[at] = img[at];
        }
    }

    /// Every strict prefix of an image fails to open with the error its
    /// length calls for: `Truncated` short of the header, a declared
    /// length that disagrees with the buffer past it.
    #[test]
    fn truncation_yields_typed_errors(table in arb_table(48)) {
        let img = RowImage::encode(&table);
        for at in 0..img.len() {
            let res = RowImage::open(&img[..at], table.schema());
            if at < IMAGE_HEADER_LEN {
                prop_assert_eq!(res, Err(CodecError::Truncated { need: 64, got: at }));
            } else {
                prop_assert_eq!(
                    res,
                    Err(CodecError::LengthMismatch { declared: img.len() as u64, got: at })
                );
            }
        }
    }

    /// Each header field perturbed — xored with a random nonzero value —
    /// fails with the error that names it; the checksum and the
    /// reserved words, which no structural check reads, by the
    /// checksum. Re-sealed under a fresh checksum, a perturbed row count
    /// is still caught by the row bytes it implies, and whatever opens
    /// lends back exactly the table's rows.
    #[test]
    fn header_field_perturbations_yield_typed_errors(
        table in arb_table(48),
        noise in (any::<u64>(), any::<u64>()),
    ) {
        let img = RowImage::encode(&table);
        let schema = table.schema();
        let payload = table.byte_len();
        for (field, (at, len)) in HEADER_FIELDS.into_iter().enumerate() {
            let mut bad = img.clone();
            let noise = [noise.0.to_le_bytes(), noise.1.to_le_bytes()].concat();
            let mask = if noise[..len].iter().all(|&b| b == 0) { &[1u8; 16][..] } else { &noise[..] };
            for (b, m) in bad[at..at + len].iter_mut().zip(mask) {
                *b ^= m;
            }
            let res = RowImage::open(&bad, schema);
            let ok = match (field, &res) {
                (0, Err(CodecError::BadMagic)) => true,
                (1, Err(CodecError::BadVersion { .. })) => true,
                (3, Err(CodecError::RowCountMismatch { payload: p, .. })) => *p == payload,
                (4, Err(CodecError::SchemaMismatch { .. })) => true,
                (6, Err(CodecError::LengthMismatch { .. })) => true,
                (2 | 5 | 7, Err(CodecError::ChecksumMismatch { .. })) => true,
                _ => false,
            };
            prop_assert!(ok, "field at {}: {:?}", at, res);

            let (header, rows) = bad.split_at_mut(IMAGE_HEADER_LEN);
            reseal(header, rows);
            match RowImage::open(&bad, schema) {
                Ok(opened) => prop_assert_eq!(opened.rows(), table.bytes()),
                Err(e) => prop_assert!(field != 5, "a re-sealed checksum is valid, got {:?}", e),
            }
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
