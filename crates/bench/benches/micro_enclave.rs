//! Criterion microbenches for the HMEE simulator's vault crypto (real
//! time, not virtual) — the rows no gated `benchmark/src/kernels.rs`
//! kernel times. An OCALL round trip is `hmee.ocall_ns` there, a P-AKA
//! serve `core.serve_eudm_{container,sgx}_ns`.

use criterion::{criterion_group, criterion_main, Criterion};
use shield5g_hmee::enclave::{Enclave, EnclaveBuilder};
use shield5g_hmee::platform::SgxPlatform;
use shield5g_sim::Env;
use std::hint::black_box;

#[expect(
    clippy::expect_used,
    reason = "a 1 MiB enclave is far below the size limit"
)]
fn small_enclave(env: &mut Env, platform: &SgxPlatform) -> Enclave {
    EnclaveBuilder::new("bench")
        .heap_bytes(1 << 20)
        .build(env, platform)
        .expect("a 1 MiB enclave is far below the size limit")
}

fn bench_enclave(c: &mut Criterion) {
    // 32 B is what the P-AKA modules rewrite per request (K_AUSF and
    // friends): one 64-byte line. 65 B is two lines — the cost steps per
    // line, not per page. 4 KiB fills the page, all 64 lines.
    for (name, len) in [
        ("vault_write_read_32B", 32),
        ("vault_write_read_65B", 65),
        ("vault_write_read_4KiB", 4096),
    ] {
        c.bench_function(name, |b| {
            let mut env = Env::new(2);
            let platform = SgxPlatform::new(&mut env);
            let mut enclave = small_enclave(&mut env, &platform);
            let secret = vec![0x5a; len];
            b.iter(|| {
                enclave.vault_write(&mut env, "slot", black_box(&secret));
                #[expect(clippy::unwrap_used, reason = "the slot was written one line above")]
                black_box(enclave.vault_read(&mut env, "slot").unwrap());
            });
        });
    }
    // What one replica pays per sweep rung: a fresh enclave sealing the
    // population's 16-byte keys, one first write (one line) each.
    c.bench_function("provision_400_keys", |b| {
        let mut env = Env::new(5);
        let platform = SgxPlatform::new(&mut env);
        let slots: Vec<String> = (0..400).map(|i| format!("k:imsi-{i:015}")).collect();
        b.iter(|| {
            let mut enclave = small_enclave(&mut env, &platform);
            for slot in &slots {
                enclave.vault_write(&mut env, slot, black_box(&[0x46; 16]));
            }
            black_box(enclave);
        });
    });
}

criterion_group!(benches, bench_enclave);
criterion_main!(benches);
