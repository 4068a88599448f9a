//! The register code the compiler emits for the 30 kernels, pinned.
//!
//! Each kernel is compiled for the register tier at both scales and the
//! `Debug` rendering of its `CompiledModule::reg` (every `RegOp`, slot,
//! branch target, charge region and cost) is hashed with FNV-1a. A change
//! to the compiler that is meant to be a pure refactor must leave every
//! digest as it is; a change that means to alter the emitted code updates
//! the table below in the same commit and says why.

use twine_polybench::{all_kernels, compile_kernel, Scale};
use twine_wasm::ExecTier;

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

#[test]
fn register_code_matches_golden_digests() {
    let mini = all_kernels(Scale::Mini);
    let small = all_kernels(Scale::Small);
    let mut got = Vec::new();
    for (m, s) in mini.iter().zip(&small) {
        assert_eq!(m.name, s.name);
        let digest = |k| {
            let ck = compile_kernel(k, ExecTier::Reg).unwrap();
            fnv1a(format!("{:?}", ck.code.reg).as_bytes())
        };
        got.push((m.name, digest(m), digest(s)));
    }
    let table: String = got
        .iter()
        .map(|(n, a, b)| format!("    ({n:?}, {a:#018x}, {b:#018x}),\n"))
        .collect();
    assert_eq!(got.as_slice(), GOLDEN, "register code changed; digests now:\n{table}");
}
