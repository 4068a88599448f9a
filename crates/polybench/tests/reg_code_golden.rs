//! The stack code and register code the compiler emits for the 30 kernels,
//! pinned.
//!
//! Each kernel is compiled for the register tier at both scales and the
//! `Debug` renderings of its `CompiledModule::funcs` (every flattened `Op`,
//! metering class, branch target, label height and arity) and of its
//! `CompiledModule::reg` (every `RegOp`, slot, branch target, charge region
//! and cost) are hashed with FNV-1a. A change
//! to the compiler that is meant to be a pure refactor must leave every
//! digest as it is; a change that means to alter the emitted code updates
//! the table below in the same commit and says why.

use twine_polybench::{all_kernels, compile_kernel, Scale};
use twine_wasm::{CompiledModule, ExecTier};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(kernel, digest at Scale::Mini, digest at Scale::Small)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("2mm", 0x8a4a55cc59cc6813, 0xdb34a8e3b1b14ff7),
    ("3mm", 0xae484d84304fccf5, 0x9d340ba4955fb73d),
    ("adi", 0xd3931097f1320bb8, 0x8191ed7f9450b0fe),
    ("atax", 0x4202fbb613e6f310, 0x429c61ccdc7d46c7),
    ("bicg", 0x80141eeffeef5afb, 0x4b0c1348621278c2),
    ("cholesky", 0x768a7e4434bc48d7, 0x3ec2fd892ca18c75),
    ("correlation", 0xb79330654d66fd34, 0xf4e0294d87983b9c),
    ("covariance", 0xba35688c897e3554, 0x472697c2d92a6ade),
    ("deriche", 0x0b3970f63a6ecc92, 0x69f76543dbaa99c6),
    ("doitgen", 0x9de832d78c0fca2a, 0xfe87fbba5b2a4511),
    ("durbin", 0x72db80e6a21d4925, 0x40c846e47795c3b9),
    ("fdtd-2d", 0xfc4aae9b0b048b32, 0x57bddd67086d4971),
    ("floyd-warshall", 0x740d44d0ba557290, 0xa039709491c4b470),
    ("gemm", 0x685f33d4b9ce675e, 0x68d37f642cbb3223),
    ("gemver", 0xa3f4e76e6863fafb, 0xc1703bb4b3aa2681),
    ("gesummv", 0xeea68e52ffc3477a, 0xff6f201319355200),
    ("gramschmidt", 0xa7be060320d87422, 0x4701bc4d71b8e444),
    ("heat-3d", 0xd69ff6940ff9eece, 0xefeab7ef6c8cd285),
    ("jacobi-1d", 0xc68f30d65319d589, 0x9c5a89404ebe7f20),
    ("jacobi-2d", 0xfeb96dd875350505, 0x2fb373136f092cf3),
    ("lu", 0x8f43109bb5b8ba24, 0x8c34c74c986f6bbd),
    ("ludcmp", 0xb75d44127681d49e, 0xa2b5156a90201971),
    ("mvt", 0x7a606b0302e133db, 0x0cd45d1cb27e3ff7),
    ("nussinov", 0x47394c698af3744c, 0xc496218f2ba03e6e),
    ("seidel-2d", 0x6a1b54d463efaed3, 0xd6ca33a726abe30d),
    ("symm", 0xd6e1f36aff421a11, 0x02b928d94220381a),
    ("syr2k", 0x65a2708939e29530, 0x36db46c10dbce22b),
    ("syrk", 0xe311593075fc8353, 0x3dd505aae3215d21),
    ("trisolv", 0xa347a57967567011, 0x099e37d45a80c2f7),
    ("trmm", 0x2240903a0ca5163c, 0x866daa8b5253feb4),
];

/// `(kernel, digest at Scale::Mini, digest at Scale::Small)` of the stack
/// code (`CompiledModule::funcs`).
const STACK_GOLDEN: &[(&str, u64, u64)] = &[
    ("2mm", 0x7bd3dcf67bb24233, 0x6984a887cc13fba7),
    ("3mm", 0xc580fefbdd9209e5, 0x1b650ec43a09faf3),
    ("adi", 0x3f9a3955117f739b, 0x84ee0a1414293a87),
    ("atax", 0xe6fdad798a03f647, 0x280e7049afe856a6),
    ("bicg", 0x5933a09958187003, 0x1d1cdab226a8145a),
    ("cholesky", 0xfe2ee7f27ff07317, 0x9a753e8d72619bc5),
    ("correlation", 0x1a5b99fd531c2dcb, 0x7dbe75ad59b5d705),
    ("covariance", 0x125833d4b0453c51, 0x648fdd6b362db923),
    ("deriche", 0x13e024b3c3951929, 0xdf8e9bd057bb7a8d),
    ("doitgen", 0x490eddd37057bead, 0xa71bc6ee5b381176),
    ("durbin", 0xfd00e825a4d33796, 0xbbafeb3b530c232a),
    ("fdtd-2d", 0x2b56f3b46e519c0b, 0xad3368c5ecdb5cca),
    ("floyd-warshall", 0xcce0e5d58052e266, 0xb26f21f2871ccc28),
    ("gemm", 0x6e236741c2a26454, 0x05ddf2eb7b7d1139),
    ("gemver", 0xa78fe56ee4f93627, 0xf99cabc1f109c9a5),
    ("gesummv", 0x52d4206f5a6c8657, 0x84e91c8632626ebd),
    ("gramschmidt", 0xfa992abc7ece53fd, 0x3bfe16ead502480d),
    ("heat-3d", 0xee43b8b693eff04e, 0x14c0ea03189d919b),
    ("jacobi-1d", 0x86f0b1870db4742e, 0x6718602e6621c10f),
    ("jacobi-2d", 0xbb7e05237f2fc5d2, 0x5b3c9adc7663cf0e),
    ("lu", 0xa028c4b0686a2d2f, 0x98ce939e08a0ef54),
    ("ludcmp", 0xd4cd23b6b00f0290, 0x4f7b4cd5f4d9e09f),
    ("mvt", 0x581c1b366de62b99, 0x9302811088b18019),
    ("nussinov", 0xe93a16941ee52a0a, 0xf984bccc4df70ca6),
    ("seidel-2d", 0x99380ade0c844dac, 0x2fe12ecaea835bf8),
    ("symm", 0x86b8ff34c48470f4, 0x28959e2429b92c3d),
    ("syr2k", 0x9e53c70d4105e51f, 0xa630c68d18d3071e),
    ("syrk", 0x8c0a581c8c5e8467, 0xac5d11749b3eaf5b),
    ("trisolv", 0xc9a19b84929d010b, 0xc6ef7cddac0a8cdb),
    ("trmm", 0x2d598d03b3d838a9, 0x4bb6ea7bd22ac383),
];

/// Digest every kernel at both scales with `render`, and compare the table
/// with `golden`.
fn check_digests(golden: &[(&str, u64, u64)], what: &str, render: fn(&CompiledModule) -> String) {
    let mini = all_kernels(Scale::Mini);
    let small = all_kernels(Scale::Small);
    let mut got = Vec::new();
    for (m, s) in mini.iter().zip(&small) {
        assert_eq!(m.name, s.name);
        let digest = |k| {
            let ck = compile_kernel(k, ExecTier::Reg).unwrap();
            fnv1a(render(&ck.code).as_bytes())
        };
        got.push((m.name, digest(m), digest(s)));
    }
    let table: String = got
        .iter()
        .map(|(n, a, b)| format!("    ({n:?}, {a:#018x}, {b:#018x}),\n"))
        .collect();
    assert_eq!(got.as_slice(), golden, "{what} changed; digests now:\n{table}");
}

#[test]
fn register_code_matches_golden_digests() {
    check_digests(GOLDEN, "register code", |cm| format!("{:?}", cm.reg));
}

#[test]
fn stack_code_matches_golden_digests() {
    check_digests(STACK_GOLDEN, "stack code", |cm| format!("{:?}", cm.funcs));
}
