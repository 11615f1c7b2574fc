//! Criterion microbenches for the cryptographic substrate: the primitives
//! the P-AKA enclaves execute per UE registration.

use criterion::{criterion_group, criterion_main, Criterion};
use shield5g_crypto::aes::Aes128;
use shield5g_crypto::keys::{self, ServingNetworkName};
use shield5g_crypto::milenage::Milenage;
use shield5g_crypto::poly1305::Poly1305;
use shield5g_crypto::sha256::Sha256;
use shield5g_crypto::x25519::{x25519, x25519_base};
use std::hint::black_box;

fn bench_crypto(c: &mut Criterion) {
    let key = [0x2b; 16];
    let cipher = Aes128::new(&key);
    c.bench_function("aes128_encrypt_block", |b| {
        let mut block = [0x6b; 16];
        b.iter(|| {
            cipher.encrypt_block(black_box(&mut block));
        });
    });
    // The vault's shape: one 4 KiB page under the nonce `version ‖ 0⁶⁴`,
    // a fresh version per write.
    c.bench_function("aes128_ctr_4096B", |b| {
        let mut page = vec![0u8; 4096];
        let mut version = 0u64;
        b.iter(|| {
            version += 1;
            let icb = u128::from(version) << 64;
            cipher.ctr_apply(black_box(&icb.to_be_bytes()), black_box(&mut page));
        });
    });
    // A TLS/NAS-sized message: shows what a call costs before its first
    // block.
    c.bench_function("aes128_ctr_64B", |b| {
        let mut message = [0u8; 64];
        let icb = [7u8; 16];
        b.iter(|| cipher.ctr_apply(black_box(&icb), black_box(&mut message)));
    });
    // `NasSecurityContext` and ECIES expand a key per message.
    c.bench_function("aes128_key_schedule", |b| {
        b.iter(|| Aes128::new(black_box(&key)));
    });
    c.bench_function("sha256_1KiB", |b| {
        let data = vec![0xa5u8; 1024];
        b.iter(|| Sha256::digest(black_box(&data)));
    });
    // One EPC page under the vault's MAC (whose pad is one more AES
    // block, `aes128_encrypt_block`).
    c.bench_function("poly1305_4k", |b| {
        let page = vec![0xa5u8; 4096];
        let mac = Poly1305::new(&[0x2b; 16]);
        b.iter(|| mac.tag(black_box(&page), black_box(&[7; 16])));
    });
    let mil = Milenage::with_op(&[0x46; 16], &[0xcd; 16]);
    c.bench_function("milenage_f2345", |b| {
        b.iter(|| mil.f2345(black_box(&[0x23; 16])));
    });
    let snn = ServingNetworkName::new("001", "01");
    c.bench_function("he_av_generation", |b| {
        // The complete eUDM enclave computation (Table I).
        b.iter(|| {
            keys::generate_he_av(
                &mil,
                black_box(&[0x23; 16]),
                &[0, 0, 0, 0, 0, 1],
                &[0x80, 0],
                &snn,
            )
        });
    });
    // Each output is the next scalar, so no two calls see the same
    // input: a fixed input lets the branch predictor learn whatever in
    // the arithmetic depends on the data and reads faster than the
    // registration path, where every scalar and point is fresh.
    c.bench_function("x25519_scalarmult", |b| {
        let mut scalar = [0x77; 32];
        let point = x25519_base(&[0x42; 32]);
        b.iter(|| {
            scalar = x25519(black_box(&scalar), black_box(&point));
            scalar
        });
    });
    c.bench_function("x25519_base", |b| {
        let mut scalar = [0x77; 32];
        b.iter(|| {
            scalar = x25519_base(black_box(&scalar));
            scalar
        });
    });
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
