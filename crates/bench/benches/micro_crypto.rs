//! Criterion microbenches for the cryptographic substrate: the rows no
//! `benchmark/src/kernels.rs` kernel times.

use criterion::{criterion_group, criterion_main, Criterion};
use shield5g_crypto::aes::Aes128;
use shield5g_crypto::poly1305::Poly1305;
use shield5g_crypto::x25519::x25519_base;
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
    // One EPC page under the vault's MAC (whose pad is one more AES
    // block, `aes128_encrypt_block`).
    c.bench_function("poly1305_4k", |b| {
        let page = vec![0xa5u8; 4096];
        let mac = Poly1305::new(&[0x2b; 16]);
        b.iter(|| mac.tag(black_box(&page), black_box(&[7; 16])));
    });
    // The comb on the base point's table. Each output is the next scalar,
    // so no two calls see the same input. No `benchmark/` kernel times it
    // alone (they own the 4 KiB CTR, SHA-256, MILENAGE, HE AV and ladder
    // rows).
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
