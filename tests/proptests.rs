//! Property-based tests over the core data structures and engines.

use proptest::prelude::*;

// ---------------------------------------------------------------------
// Wasm binary format: encode ∘ decode = id
// ---------------------------------------------------------------------

fn arb_instr_body() -> impl Strategy<Value = Vec<twine::wasm::instr::Instr>> {
    use twine::wasm::instr::{IBinOp, Instr, IntWidth};
    use twine::wasm::types::Value as WValue;
    // Straight-line i32 arithmetic that always leaves exactly one value:
    // start with a const, then fold in (const, binop) pairs.
    let op = prop_oneof![
        Just(IBinOp::Add),
        Just(IBinOp::Sub),
        Just(IBinOp::Mul),
        Just(IBinOp::And),
        Just(IBinOp::Or),
        Just(IBinOp::Xor),
    ];
    (any::<i32>(), proptest::collection::vec((any::<i32>(), op), 0..20)).prop_map(|(first, rest)| {
        let mut body = vec![Instr::Const(WValue::I32(first))];
        for (v, op) in rest {
            body.push(Instr::Const(WValue::I32(v)));
            body.push(Instr::IBinop(IntWidth::W32, op));
        }
        body
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wasm_module_roundtrips(body in arb_instr_body()) {
        use twine::wasm::types::{FuncType, ValType};
        let mut b = twine::wasm::ModuleBuilder::new();
        let f = b.add_func(FuncType::new(vec![], vec![ValType::I32]), vec![], body);
        b.export_func("f", f);
        let m = b.build();
        let bytes = twine::wasm::encode::encode(&m);
        let back = twine::wasm::decode::decode(&bytes).unwrap();
        prop_assert_eq!(m, back);
    }

    /// The engine agrees with a direct evaluation of the same fold.
    #[test]
    fn wasm_execution_matches_model(first in any::<i32>(),
                                    rest in proptest::collection::vec((any::<i32>(), 0u8..6), 0..20)) {
        use twine::wasm::instr::{IBinOp, Instr, IntWidth};
        use twine::wasm::types::{FuncType, ValType, Value as WValue};
        let ops = [IBinOp::Add, IBinOp::Sub, IBinOp::Mul, IBinOp::And, IBinOp::Or, IBinOp::Xor];
        let mut body = vec![Instr::Const(WValue::I32(first))];
        let mut expect = first;
        for (v, oi) in &rest {
            body.push(Instr::Const(WValue::I32(*v)));
            body.push(Instr::IBinop(IntWidth::W32, ops[*oi as usize]));
            expect = match ops[*oi as usize] {
                IBinOp::Add => expect.wrapping_add(*v),
                IBinOp::Sub => expect.wrapping_sub(*v),
                IBinOp::Mul => expect.wrapping_mul(*v),
                IBinOp::And => expect & *v,
                IBinOp::Or => expect | *v,
                IBinOp::Xor => expect ^ *v,
                _ => unreachable!(),
            };
        }
        let mut b = twine::wasm::ModuleBuilder::new();
        let f = b.add_func(FuncType::new(vec![], vec![ValType::I32]), vec![], body);
        b.export_func("f", f);
        let code = twine::wasm::compile::CompiledModule::compile(b.build()).unwrap();
        let mut inst = twine::wasm::Instance::instantiate(
            std::sync::Arc::new(code),
            twine::wasm::Linker::new(),
            Box::new(()),
        )
        .unwrap();
        let out = inst.invoke("f", &[]).unwrap();
        prop_assert_eq!(out[0], WValue::I32(expect));
    }

    // -----------------------------------------------------------------
    // Protected file system vs an in-memory model, including reopen
    // -----------------------------------------------------------------

    #[test]
    fn pfs_behaves_like_a_plain_file(ops in proptest::collection::vec(
        (0u8..3, 0u32..200_000, proptest::collection::vec(any::<u8>(), 1..600)), 1..25
    )) {
        use twine::pfs::{MemStorage, PfsMode, PfsOptions, SgxFile};
        let opts = PfsOptions { mode: PfsMode::Intel, cache_nodes: 6, enclave: None, profiler: None, journal: false };
        let mut f = SgxFile::create(MemStorage::new(), [1u8; 16], opts.clone()).unwrap();
        let mut model: Vec<u8> = Vec::new();
        for (kind, pos, data) in &ops {
            match kind {
                0 => {
                    // Write at a position clamped inside [0, len].
                    let at = (*pos as usize).min(model.len());
                    f.seek(at as u64).unwrap();
                    f.write(data).unwrap();
                    if model.len() < at + data.len() {
                        model.resize(at + data.len(), 0);
                    }
                    model[at..at + data.len()].copy_from_slice(data);
                }
                1 => {
                    // Extend/truncate.
                    let target = (*pos as u64).min(150_000);
                    f.set_size(target).unwrap();
                    model.resize(target as usize, 0);
                }
                _ => {
                    // Read a window and compare.
                    let at = (*pos as usize).min(model.len());
                    f.seek(at as u64).unwrap();
                    let mut buf = vec![0u8; data.len()];
                    let n = f.read(&mut buf).unwrap();
                    let expect = &model[at..(at + data.len()).min(model.len())];
                    prop_assert_eq!(&buf[..n], expect);
                }
            }
        }
        // Reopen from ciphertext and compare the whole contents.
        let store = f.into_storage().unwrap();
        let mut f = SgxFile::open(store, [1u8; 16], opts).unwrap();
        prop_assert_eq!(f.size(), model.len() as u64);
        let mut back = vec![0u8; model.len()];
        f.read(&mut back).unwrap();
        prop_assert_eq!(back, model);
    }

    // -----------------------------------------------------------------
    // B+tree vs BTreeMap
    // -----------------------------------------------------------------

    #[test]
    fn btree_matches_btreemap(ops in proptest::collection::vec(
        (0u8..3, 0i64..500, proptest::collection::vec(any::<u8>(), 0..100)), 1..120
    )) {
        use twine::sqldb::btree;
        use twine::sqldb::pager::Pager;
        let mut p = Pager::open_file(Box::new(twine::sqldb::MemVfs::new()), "prop.db").unwrap();
        p.begin().unwrap();
        let root = btree::create_table_tree(&mut p).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for (kind, key, data) in &ops {
            match kind {
                0 => {
                    btree::table_insert(&mut p, root, *key, data).unwrap();
                    model.insert(*key, data.clone());
                }
                1 => {
                    let a = btree::table_delete(&mut p, root, *key).unwrap();
                    let b = model.remove(key).is_some();
                    prop_assert_eq!(a, b);
                }
                _ => {
                    let a = btree::table_get(&mut p, root, *key).unwrap();
                    let b = model.get(key).cloned();
                    prop_assert_eq!(a, b);
                }
            }
        }
        // Full scan equals the model, in order.
        let mut cursor = btree::Cursor::first(&mut p, root).unwrap();
        let mut scanned = Vec::new();
        while cursor.valid() {
            let (rowid, payload) = cursor.table_entry(&mut p).unwrap();
            scanned.push((rowid, payload));
            cursor.next(&mut p).unwrap();
        }
        let expect: Vec<(i64, Vec<u8>)> = model.into_iter().collect();
        prop_assert_eq!(scanned, expect);
    }

    // -----------------------------------------------------------------
    // Crypto roundtrips with tamper detection
    // -----------------------------------------------------------------

    #[test]
    fn gcm_ccm_roundtrip_and_tamper(key in any::<[u8; 16]>(),
                                    nonce in any::<[u8; 12]>(),
                                    pt in proptest::collection::vec(any::<u8>(), 0..300),
                                    flip in any::<u8>()) {
        use twine::crypto::{AesCcm, AesGcm};
        let gcm = AesGcm::new_128(&key);
        let (ct, tag) = gcm.encrypt(&nonce, b"aad", &pt);
        prop_assert_eq!(gcm.decrypt(&nonce, b"aad", &ct, &tag).unwrap(), pt.clone());
        if !ct.is_empty() {
            let mut bad = ct.clone();
            let at = flip as usize % bad.len();
            bad[at] ^= 1;
            prop_assert!(gcm.decrypt(&nonce, b"aad", &bad, &tag).is_err());
        }
        let ccm = AesCcm::new_128(&key);
        let (ct, tag) = ccm.encrypt(&nonce, b"aad", &pt);
        prop_assert_eq!(ccm.decrypt(&nonce, b"aad", &ct, &tag).unwrap(), pt);
    }

    // -----------------------------------------------------------------
    // SQL engine vs a naive model on a simple workload
    // -----------------------------------------------------------------

    #[test]
    fn sql_point_queries_match_model(rows in proptest::collection::btree_map(
        1i64..200, 0i64..1_000_000, 1..60
    )) {
        let mut db = twine::sqldb::Connection::open_memory();
        db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)").unwrap();
        db.execute("BEGIN").unwrap();
        for (k, v) in &rows {
            db.execute(&format!("INSERT INTO t VALUES ({k}, {v})")).unwrap();
        }
        db.execute("COMMIT").unwrap();
        // count(*)
        let n = db.query_scalar("SELECT count(*) FROM t").unwrap();
        prop_assert_eq!(n, twine::sqldb::SqlValue::Int(rows.len() as i64));
        // sum(b)
        let s = db.query_scalar("SELECT sum(b) FROM t").unwrap();
        prop_assert_eq!(s, twine::sqldb::SqlValue::Int(rows.values().sum()));
        // A few point lookups.
        for k in rows.keys().take(5) {
            let v = db.query_scalar(&format!("SELECT b FROM t WHERE a = {k}")).unwrap();
            prop_assert_eq!(v, twine::sqldb::SqlValue::Int(rows[k]));
        }
        // Range count.
        let mid = 100;
        let expect = rows.iter().filter(|(k, _)| **k <= mid).count() as i64;
        let got = db.query_scalar(&format!("SELECT count(*) FROM t WHERE a BETWEEN 1 AND {mid}")).unwrap();
        prop_assert_eq!(got, twine::sqldb::SqlValue::Int(expect));
    }

    // -----------------------------------------------------------------
    // Sealed storage: only the same enclave/processor unseals
    // -----------------------------------------------------------------

    #[test]
    fn sealing_is_enclave_bound(data in proptest::collection::vec(any::<u8>(), 0..200),
                                code_a in any::<[u8; 8]>(), code_b in any::<[u8; 8]>()) {
        use twine::sgx::{EnclaveBuilder, Processor};
        prop_assume!(code_a != code_b);
        let p = Processor::new(1);
        let a = EnclaveBuilder::new(&code_a).build(&p);
        let b = EnclaveBuilder::new(&code_b).build(&p);
        let blob = a.seal(&data);
        prop_assert_eq!(a.unseal(&blob).unwrap(), data);
        prop_assert!(b.unseal(&blob).is_err());
    }
}
